// Event loop for the broker daemon (net layer): one thread multiplexing
// listeners and connections through epoll. The broker runs N of them, one
// per process slot, plus an acceptor loop that owns the listeners and deals
// each accepted socket to a serving loop (Callbacks::on_accept + adopt()).
//
// Ownership: a loop's connections are its thread's alone. Nothing locks a
// connection; other threads reach a loop only through its mailbox, which
// holds sockets handed over by adopt() and bytes handed over by post(). The
// loop drains the mailbox when its self-pipe wakes it.
//
// Read path: on a readable event the loop reads one buffer (64 KiB) from
// the socket, feeds the connection's wfb-v1 Decoder, and hands ALL frames
// decoded from it to on_batch in ONE call, on the loop thread. Level-
// triggered epoll brings a connection with more bytes back on the next
// wait, so one flooding client cannot starve its loop-mates. Partial frames
// stay buffered in the decoder; a framing error gets a best-effort ERR
// frame and the connection is dropped (sticky decoder contract, see
// frame.hpp).
//
// Write path: on_batch appends its responses to the connection's outbox,
// and the loop write()s them inline right after the call. Leftovers stay
// buffered and the loop arms write-readiness to finish the flush. A broken
// pipe closes the connection on the spot.
//
// Backpressure is per connection: once a connection's unsent outbox passes
// kMaxOutbox the loop stops reading it (drops EPOLLIN), and reads again once
// the outbox drains below half of that. A client that does not read its
// responses pauses itself; its loop-mates and the rest of the broker go on.
#pragma once

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include <poll.h>  // blocking flush in shutdown_flush_and_close
#include <sys/epoll.h>

#include "net/frame.hpp"
#include "net/socket.hpp"

namespace wfq::net {

/// Readiness poller over epoll_ctl/epoll_wait. Each fd is registered with
/// a caller-chosen 64-bit tag, which its events carry back. The fd set is
/// loop-thread-only; no locking here.
class Poller {
 public:
  struct Event {
    uint64_t tag = 0;
    bool readable = false;
    bool writable = false;
  };

  Poller() : ep_(::epoll_create1(0)) {
    if (!ep_.valid())
      throw std::runtime_error("net: epoll_create1 failed: " +
                               std::string(std::strerror(errno)));
  }

  void add(int fd, uint64_t tag) { ctl(EPOLL_CTL_ADD, fd, tag, true, false); }
  void mod(int fd, uint64_t tag, bool want_read, bool want_write) {
    ctl(EPOLL_CTL_MOD, fd, tag, want_read, want_write);
  }
  void del(int fd) { ::epoll_ctl(ep_.get(), EPOLL_CTL_DEL, fd, nullptr); }

  void wait(std::vector<Event>& out, int timeout_ms) {
    epoll_event evs[64];
    int n = ::epoll_wait(ep_.get(), evs, 64, timeout_ms);
    out.clear();
    for (int i = 0; i < n; ++i) {
      Event e;
      e.tag = evs[i].data.u64;
      // A hangup or error reads as readable: the read sees EOF or errno.
      e.readable = (evs[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0;
      e.writable = (evs[i].events & EPOLLOUT) != 0;
      out.push_back(e);
    }
  }

 private:
  void ctl(int op, int fd, uint64_t tag, bool want_read, bool want_write) {
    epoll_event ev{};
    ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
    ev.data.u64 = tag;
    if (::epoll_ctl(ep_.get(), op, fd, &ev) != 0)
      throw std::runtime_error("net: epoll_ctl failed: " +
                               std::string(std::strerror(errno)));
  }

  FdHandle ep_;
};

/// The multiplexer. One thread calls run(); adopt()/post()/stop() are safe
/// from any thread. Connection ids are never reused, so bytes posted to a
/// connection that has since closed are dropped instead of reaching a
/// later one.
class EventLoop {
 public:
  struct Callbacks {
    /// One call per readable wakeup per connection, with every frame that
    /// burst decoded. The batch is the caller's to move from; responses are
    /// appended to `out`, which the loop flushes when the call returns.
    /// Required by a loop that adopts connections.
    std::function<void(uint64_t conn, std::vector<Frame>& batch,
                       std::string& out)>
        on_batch;
    /// Accepted sockets (already nonblocking) go here: a loop with
    /// listeners deals its connections to serving loops, which adopt() them.
    /// Required by add_listener().
    std::function<void(FdHandle fd)> on_accept;
  };

  explicit EventLoop(Callbacks cbs) : cbs_(std::move(cbs)) {
    int pipefd[2];
    if (::pipe(pipefd) != 0)
      throw std::runtime_error("net: pipe() for loop wakeup failed");
    wake_rd_.reset(pipefd[0]);
    wake_wr_.reset(pipefd[1]);
    set_nonblocking(wake_rd_.get());
    set_nonblocking(wake_wr_.get());
    poller_.add(wake_rd_.get(), kWakeTag);
  }

  /// Registers a listening socket (from listen_uds / listen_tcp). Must be
  /// called before run(); each accepted connection goes to on_accept.
  void add_listener(FdHandle fd) {
    if (!cbs_.on_accept)
      throw std::logic_error("net: add_listener needs Callbacks::on_accept");
    poller_.add(fd.get(), kListenerTag | static_cast<uint64_t>(fd.get()));
    listeners_.push_back(std::move(fd));
  }

  /// Hands a connected, nonblocking socket to this loop from any thread;
  /// the loop registers it as a connection at its next wakeup.
  void adopt(FdHandle fd) { mail(Mail{std::move(fd), 0, {}}); }

  /// Hands `bytes` for connection `conn` to this loop from any thread; the
  /// loop appends them to the connection's outbox and flushes at its next
  /// wakeup, or drops them if the connection has closed.
  void post(uint64_t conn, std::string bytes) {
    mail(Mail{FdHandle(), conn, std::move(bytes)});
  }

  /// Runs until stop(). Dispatches on_batch/on_accept from this thread.
  void run() {
    std::vector<Poller::Event> events;
    while (!stop_.load(std::memory_order_acquire)) {
      poller_.wait(events, 200);
      for (const Poller::Event& ev : events) {
        if (ev.tag == kWakeTag) {
          drain_mailbox();
        } else if (ev.tag & kListenerTag) {
          accept_all(static_cast<int>(ev.tag & ~kListenerTag));
        } else if (Conn* c = find(ev.tag)) {
          if (ev.writable && !flush(*c)) continue;  // closed
          if (ev.readable) on_readable(*c);
        }
      }
    }
  }

  /// Stops run() from any thread (idempotent). The loop finishes the
  /// current dispatch; it does not drain — that is broker policy.
  void stop() {
    stop_.store(true, std::memory_order_release);
    wake();
  }

  /// Drain-path epilogue, called ONLY after run() has returned and every
  /// thread that posts to this loop has stopped: deliver what the mailbox
  /// still holds, flush each connection's pending outbox — blocking
  /// briefly on writability, bounded so a peer that never reads cannot
  /// wedge shutdown — then close every connection and listener, so clients
  /// see EOF instead of a socket that never answers.
  void shutdown_flush_and_close() {
    drain_mailbox();
    for (auto& [id, c] : conns_) {
      for (int tries = 0; tries < 50; ++tries) {
        if (!write_out(*c) || pending(*c) == 0) break;
        pollfd p{};
        p.fd = c->fd.get();
        p.events = POLLOUT;
        ::poll(&p, 1, 100);
      }
    }
    conns_.clear();  // closing an fd also takes it out of the epoll set
    listeners_.clear();
  }

 private:
  /// Unsent bytes per connection (16 MiB) past which its loop stops
  /// reading it, until the outbox drains below half (see update_interest).
  static constexpr size_t kMaxOutbox = size_t{16} << 20;
  /// Epoll tags: connection ids count up from 1, the self-pipe is 0, and a
  /// listener is its fd with the top bit set.
  static constexpr uint64_t kWakeTag = 0;
  static constexpr uint64_t kListenerTag = uint64_t{1} << 63;

  struct Conn {
    uint64_t id = 0;
    FdHandle fd;
    Decoder decoder;
    std::string outbox;
    size_t out_pos = 0;
    bool armed_write = false;  // EPOLLOUT currently armed
    bool paused = false;       // EPOLLIN dropped (backpressure)
  };

  /// One mailbox entry: a socket from adopt(), or bytes for `conn` from
  /// post().
  struct Mail {
    FdHandle fd;
    uint64_t conn = 0;
    std::string bytes;
  };

  void mail(Mail m) {
    {
      std::lock_guard<std::mutex> lk(mailbox_mutex_);
      mailbox_.push_back(std::move(m));
    }
    wake();
  }

  void wake() {
    char b = 1;
    [[maybe_unused]] ssize_t w = ::write(wake_wr_.get(), &b, 1);
  }

  /// Empties the self-pipe, then delivers every mailbox entry.
  void drain_mailbox() {
    char buf[256];
    while (::read(wake_rd_.get(), buf, sizeof(buf)) > 0) {
    }
    std::vector<Mail> mail;
    {
      std::lock_guard<std::mutex> lk(mailbox_mutex_);
      mail.swap(mailbox_);
    }
    for (Mail& m : mail) {
      if (m.fd.valid()) {
        join(std::move(m.fd));
      } else if (Conn* c = find(m.conn)) {
        c->outbox.append(m.bytes);
        flush(*c);
      }
    }
  }

  Conn* find(uint64_t id) {
    auto it = conns_.find(id);
    return it == conns_.end() ? nullptr : it->second.get();
  }

  void accept_all(int lfd) {
    while (true) {
      int cfd = ::accept(lfd, nullptr, nullptr);
      if (cfd < 0) return;  // EAGAIN / transient — next wakeup retries
      set_nonblocking(cfd);
      cbs_.on_accept(FdHandle(cfd));
    }
  }

  /// Registers an adopted socket as one of this loop's connections.
  void join(FdHandle fd) {
    auto c = std::make_unique<Conn>();
    c->id = next_id_++;
    c->fd = std::move(fd);
    poller_.add(c->fd.get(), c->id);
    conns_[c->id] = std::move(c);
  }

  /// Reads one buffer, dispatches the decoded burst and flushes its
  /// responses. May close `c`; the caller must not touch it afterwards.
  void on_readable(Conn& c) {
    char buf[65536];
    bool eof = false;
    ssize_t n;
    do {
      n = ::read(c.fd.get(), buf, sizeof(buf));
    } while (n < 0 && errno == EINTR);
    if (n > 0) {
      c.decoder.feed(buf, static_cast<size_t>(n));
    } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      eof = true;  // EOF, or ECONNRESET and friends: treat as EOF
    }

    batch_.clear();
    Frame f;
    DecodeStatus st;
    while ((st = c.decoder.next(f)) == DecodeStatus::ok)
      batch_.push_back(std::move(f));
    if (!batch_.empty()) {
      cbs_.on_batch(c.id, batch_, c.outbox);
      if (!flush(c)) return;
    }

    if (st != DecodeStatus::need_more) {
      // Framing error: best-effort ERR frame so a human at the other end
      // sees WHY, then drop. The decoder is poisoned; nothing to salvage.
      Frame e;
      e.op = Opcode::err;
      e.payload = std::string("decode error: ") + decode_status_name(st);
      encode_frame(e, c.outbox);
      write_out(c);
      close_conn(c);
      return;
    }
    if (eof) close_conn(c);
  }

  static size_t pending(const Conn& c) { return c.outbox.size() - c.out_pos; }

  /// Writes as much of the outbox as the socket accepts. Returns false on
  /// a broken pipe.
  static bool write_out(Conn& c) {
    while (pending(c) > 0) {
      // MSG_NOSIGNAL: a connection torn down under us (dead raft peer,
      // vanished client) must be EPIPE, not SIGPIPE.
      ssize_t w = ::send(c.fd.get(), c.outbox.data() + c.out_pos, pending(c),
                         MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        return errno == EAGAIN || errno == EWOULDBLOCK;
      }
      c.out_pos += static_cast<size_t>(w);
    }
    c.outbox.clear();
    c.out_pos = 0;
    return true;
  }

  /// write_out, then re-arm `c`'s interest from what is left; a broken
  /// pipe closes `c`. Returns false if `c` was closed.
  bool flush(Conn& c) {
    if (!write_out(c)) {
      close_conn(c);
      return false;
    }
    update_interest(c);
    return true;
  }

  /// Re-arms `c`'s epoll interest from its unsent outbox: write readiness
  /// while bytes are pending; read readiness dropped once they pass
  /// kMaxOutbox and restored once they fall below half.
  void update_interest(Conn& c) {
    size_t left = pending(c);
    bool paused = c.paused ? left >= kMaxOutbox / 2 : left > kMaxOutbox;
    bool want_write = left > 0;
    if (paused == c.paused && want_write == c.armed_write) return;
    poller_.mod(c.fd.get(), c.id, !paused, want_write);
    c.paused = paused;
    c.armed_write = want_write;
  }

  /// Deregisters and closes `c` and frees it.
  void close_conn(Conn& c) {
    poller_.del(c.fd.get());
    uint64_t id = c.id;  // erase destroys c, id included
    conns_.erase(id);
  }

  Callbacks cbs_;
  Poller poller_;
  FdHandle wake_rd_, wake_wr_;
  std::vector<FdHandle> listeners_;
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  std::mutex mailbox_mutex_;
  std::vector<Mail> mailbox_;
  std::vector<Frame> batch_;
  uint64_t next_id_ = 1;
  std::atomic<bool> stop_{false};
};

}  // namespace wfq::net
