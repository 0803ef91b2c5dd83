// Event loop for the broker daemon (net layer): one thread multiplexing
// listeners and connections through epoll. The broker runs N of them, one
// per process slot, plus an acceptor loop that owns the listeners and deals
// each accepted socket to a serving loop (Callbacks::on_accept + adopt()).
// A connection joins a loop only through adopt().
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
// Write path: send() is callable from ANY thread (the broker's loops answer
// inline; the raft thread answers deferred SETWs). If the connection's
// outbox is empty the sender write()s inline under the connection's write
// mutex; leftovers are buffered, and the loop arms write-readiness to
// finish the flush (woken through the self-pipe when the sender is another
// thread).
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

/// Readiness poller over epoll_ctl/epoll_wait. The fd set is
/// loop-thread-only; no locking here.
class Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool hangup = false;
  };

  Poller() : ep_(::epoll_create1(0)) {
    if (!ep_.valid())
      throw std::runtime_error("net: epoll_create1 failed: " +
                               std::string(std::strerror(errno)));
  }

  void add(int fd) { ctl(EPOLL_CTL_ADD, fd, true, false); }
  void mod(int fd, bool want_read, bool want_write) {
    ctl(EPOLL_CTL_MOD, fd, want_read, want_write);
  }
  void del(int fd) { ::epoll_ctl(ep_.get(), EPOLL_CTL_DEL, fd, nullptr); }

  void wait(std::vector<Event>& out, int timeout_ms) {
    epoll_event evs[64];
    int n = ::epoll_wait(ep_.get(), evs, 64, timeout_ms);
    out.clear();
    for (int i = 0; i < n; ++i) {
      Event e;
      e.fd = evs[i].data.fd;
      e.readable = (evs[i].events & (EPOLLIN | EPOLLERR)) != 0;
      e.writable = (evs[i].events & EPOLLOUT) != 0;
      e.hangup = (evs[i].events & (EPOLLHUP | EPOLLERR)) != 0;
      out.push_back(e);
    }
  }

 private:
  void ctl(int op, int fd, bool want_read, bool want_write) {
    epoll_event ev{};
    ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
    ev.data.fd = fd;
    if (::epoll_ctl(ep_.get(), op, fd, &ev) != 0)
      throw std::runtime_error("net: epoll_ctl failed: " +
                               std::string(std::strerror(errno)));
  }

  FdHandle ep_;
};

/// The multiplexer. One thread calls run(); send()/adopt()/stop()/wake()
/// are safe from any thread. Connection ids are never reused, so a thread
/// holding an id across a disconnect sends into the void instead of into a
/// recycled connection.
class EventLoop {
 public:
  struct Callbacks {
    /// One call per readable wakeup per connection, with every frame that
    /// burst decoded. The batch is the caller's to move from.
    std::function<void(uint64_t conn, std::vector<Frame>& batch)> on_batch;
    /// Connection gone: `reason` is DecodeStatus::ok for a clean EOF at a
    /// frame boundary, `truncated` for EOF mid-frame, or the framing error
    /// that poisoned the stream. Optional.
    std::function<void(uint64_t conn, DecodeStatus reason)> on_close;
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
    poller_.add(wake_rd_.get());
  }

  /// Registers a listening socket (from listen_uds / listen_tcp). Must be
  /// called before run(); each accepted connection goes to on_accept.
  void add_listener(FdHandle fd) {
    if (!cbs_.on_accept)
      throw std::logic_error("net: add_listener needs Callbacks::on_accept");
    poller_.add(fd.get());
    listeners_.push_back(std::move(fd));
  }

  /// Hands a connected socket to this loop from any thread: it is queued,
  /// the loop is woken, and run() registers it as a connection.
  void adopt(FdHandle fd) {
    {
      std::lock_guard<std::mutex> lk(adopt_mutex_);
      adopted_.push_back(std::move(fd));
    }
    wake();
  }

  /// Queues `bytes` on the connection and flushes as much as the socket
  /// takes, inline, from the calling thread. Thread-safe; no-op (returning
  /// false) if the connection is gone. Callers batch: one send() per burst
  /// of responses, not one per frame.
  bool send(uint64_t conn_id, std::string&& bytes) {
    std::shared_ptr<Conn> c = find_conn(conn_id);
    if (!c) return false;
    bool need_loop_flush = false;
    {
      std::lock_guard<std::mutex> lk(c->out_mutex);
      if (c->closed) return false;
      if (c->outbox.size() == c->out_pos) {
        c->outbox.clear();
        c->out_pos = 0;
      }
      c->outbox.append(bytes);
      need_loop_flush = !flush_locked(*c);
    }
    if (need_loop_flush) {
      mark_dirty(conn_id);
      wake();
    }
    return true;
  }

  /// Runs until stop(). Dispatches on_batch/on_close from this thread.
  void run() {
    std::vector<Poller::Event> events;
    while (!stop_.load(std::memory_order_acquire)) {
      poller_.wait(events, 200);
      drain_wake_pipe();
      join_adopted();
      flush_dirty();
      for (const Poller::Event& ev : events) {
        if (ev.fd == wake_rd_.get()) continue;
        if (is_listener(ev.fd)) {
          accept_all(ev.fd);
          continue;
        }
        Conn* c = conn_by_fd(ev.fd);
        if (c == nullptr) continue;
        if (ev.writable) on_writable(*c);
        if (ev.readable || ev.hangup)
          if (on_readable(*c)) continue;  // connection closed and erased
      }
      reap_killed();
    }
  }

  /// Stops run() from any thread (idempotent). The loop finishes the
  /// current dispatch; it does not drain — that is broker policy.
  void stop() {
    stop_.store(true, std::memory_order_release);
    wake();
  }

  /// Drain-path epilogue, called ONLY after run() has returned and every
  /// sender thread has been joined (single-threaded access is then safe by
  /// happens-before through those joins): flush each connection's pending
  /// outbox — blocking briefly on writability, bounded so a peer that
  /// never reads cannot wedge shutdown — then close every connection and
  /// listener, so clients see EOF instead of a socket that never answers.
  /// Sockets adopted but not yet registered are closed as they are.
  void shutdown_flush_and_close() {
    {
      std::lock_guard<std::mutex> lk(adopt_mutex_);
      adopted_.clear();
    }
    for (auto& [fd_num, c] : by_fd_) {
      std::unique_lock<std::mutex> lk(c->out_mutex);
      for (int tries = 0; tries < 50 && !c->closed; ++tries) {
        if (flush_locked(*c)) break;  // drained (or broken pipe -> kill)
        pollfd p{};
        p.fd = c->fd.get();
        p.events = POLLOUT;
        lk.unlock();
        ::poll(&p, 1, 100);
        lk.lock();
      }
    }
    std::vector<Conn*> open;
    for (auto& [fd_num, c] : by_fd_) open.push_back(c.get());
    for (Conn* c : open)
      if (!c->closed) close_conn(*c, DecodeStatus::ok);
    for (FdHandle& l : listeners_) poller_.del(l.get());
    listeners_.clear();
  }

  /// Nudges run() out of its wait (used by send(), adopt() and stop()).
  void wake() {
    char b = 1;
    [[maybe_unused]] ssize_t w = ::write(wake_wr_.get(), &b, 1);
  }

 private:
  /// Unsent bytes per connection (16 MiB) past which its loop stops
  /// reading it, until the outbox drains below half (see update_interest).
  static constexpr size_t kMaxOutbox = size_t{16} << 20;

  struct Conn {
    uint64_t id = 0;
    FdHandle fd;
    Decoder decoder;
    // Write side, shared with sender threads.
    std::mutex out_mutex;
    std::string outbox;
    size_t out_pos = 0;
    bool closed = false;    // fd closed; senders must not touch it
    bool kill = false;      // loop should close at next opportunity
    bool armed_write = false;  // loop-owned: EPOLLOUT currently armed
    bool paused = false;       // loop-owned: EPOLLIN dropped (backpressure)
  };

  std::shared_ptr<Conn> find_conn(uint64_t id) {
    std::lock_guard<std::mutex> lk(conns_mutex_);
    auto it = by_id_.find(id);
    return it == by_id_.end() ? nullptr : it->second;
  }

  Conn* conn_by_fd(int fd) {
    auto it = by_fd_.find(fd);
    return it == by_fd_.end() ? nullptr : it->second.get();
  }

  bool is_listener(int fd) const {
    for (const FdHandle& l : listeners_)
      if (l.get() == fd) return true;
    return false;
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
    auto c = std::make_shared<Conn>();
    c->id = next_id_++;
    c->fd = std::move(fd);
    poller_.add(c->fd.get());
    by_fd_[c->fd.get()] = c;
    std::lock_guard<std::mutex> lk(conns_mutex_);
    by_id_[c->id] = c;
  }

  void join_adopted() {
    std::vector<FdHandle> fds;
    {
      std::lock_guard<std::mutex> lk(adopt_mutex_);
      fds.swap(adopted_);
    }
    for (FdHandle& fd : fds) join(std::move(fd));
  }

  /// Reads one buffer, dispatches the decoded burst, then re-arms the
  /// connection's interest from what the burst left in its outbox. Returns
  /// true if the connection was closed (caller must not touch it again).
  bool on_readable(Conn& c) {
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
    if (!batch_.empty() && cbs_.on_batch) {
      cbs_.on_batch(c.id, batch_);
      update_interest(c);
    }

    if (st != DecodeStatus::need_more) {
      // Framing error: best-effort ERR frame so a human at the other end
      // sees WHY, then drop. The decoder is poisoned; nothing to salvage.
      Frame e;
      e.op = Opcode::err;
      e.payload = std::string("decode error: ") + decode_status_name(st);
      std::string out;
      encode_frame(e, out);
      {
        std::lock_guard<std::mutex> lk(c.out_mutex);
        c.outbox.append(out);
        flush_locked(c);
      }
      close_conn(c, st);
      return true;
    }
    if (eof) {
      close_conn(c, c.decoder.at_eof());
      return true;
    }
    return false;
  }

  /// Flushes as much of the outbox as the socket accepts. Caller holds
  /// out_mutex. Returns true when the outbox is fully drained.
  bool flush_locked(Conn& c) {
    if (c.closed) return true;
    while (c.out_pos < c.outbox.size()) {
      // MSG_NOSIGNAL: a connection torn down between poll and write (dead
      // raft peer, vanished client) must be EPIPE -> kill, not SIGPIPE.
      ssize_t w = ::send(c.fd.get(), c.outbox.data() + c.out_pos,
                         c.outbox.size() - c.out_pos, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
        c.kill = true;  // broken pipe: loop reaps it
        return true;
      }
      c.out_pos += static_cast<size_t>(w);
    }
    c.outbox.clear();
    c.out_pos = 0;
    return true;
  }

  void on_writable(Conn& c) {
    {
      std::lock_guard<std::mutex> lk(c.out_mutex);
      flush_locked(c);
    }
    update_interest(c);
  }

  /// Re-arms `c`'s epoll interest from its unsent outbox (loop thread
  /// only): write readiness while bytes are pending; read readiness dropped
  /// once they pass kMaxOutbox and restored once they fall below half.
  void update_interest(Conn& c) {
    size_t pending;
    {
      std::lock_guard<std::mutex> lk(c.out_mutex);
      if (c.closed) return;
      pending = c.outbox.size() - c.out_pos;
    }
    bool paused =
        c.paused ? pending >= kMaxOutbox / 2 : pending > kMaxOutbox;
    bool want_write = pending > 0;
    if (paused == c.paused && want_write == c.armed_write) return;
    poller_.mod(c.fd.get(), !paused, want_write);
    c.paused = paused;
    c.armed_write = want_write;
  }

  void mark_dirty(uint64_t id) {
    std::lock_guard<std::mutex> lk(dirty_mutex_);
    dirty_.push_back(id);
  }

  /// Flushes connections whose senders left bytes behind and re-arms
  /// their interest.
  void flush_dirty() {
    std::vector<uint64_t> ids;
    {
      std::lock_guard<std::mutex> lk(dirty_mutex_);
      ids.swap(dirty_);
    }
    for (uint64_t id : ids) {
      std::shared_ptr<Conn> c = find_conn(id);
      if (!c) continue;
      {
        std::lock_guard<std::mutex> lk(c->out_mutex);
        flush_locked(*c);
      }
      update_interest(*c);
    }
  }

  void reap_killed() {
    std::vector<Conn*> doomed;
    for (auto& [fd, c] : by_fd_) {
      std::lock_guard<std::mutex> lk(c->out_mutex);
      if (c->kill && !c->closed) doomed.push_back(c.get());
    }
    for (Conn* c : doomed) close_conn(*c, DecodeStatus::ok);
  }

  void close_conn(Conn& c, DecodeStatus reason) {
    int fd = c.fd.get();
    poller_.del(fd);
    {
      // Senders serialize on out_mutex: after `closed` flips they bail
      // before touching the fd, so close() cannot race a concurrent write
      // into a recycled descriptor.
      std::lock_guard<std::mutex> lk(c.out_mutex);
      c.closed = true;
      c.fd.reset();
    }
    uint64_t id = c.id;
    {
      std::lock_guard<std::mutex> lk(conns_mutex_);
      by_id_.erase(id);
    }
    by_fd_.erase(fd);  // destroys the map's shared_ptr; senders may hold one
    if (cbs_.on_close) cbs_.on_close(id, reason);
  }

  void drain_wake_pipe() {
    char buf[256];
    while (::read(wake_rd_.get(), buf, sizeof(buf)) > 0) {
    }
  }

  Callbacks cbs_;
  Poller poller_;
  FdHandle wake_rd_, wake_wr_;
  std::vector<FdHandle> listeners_;
  std::unordered_map<int, std::shared_ptr<Conn>> by_fd_;  // loop-thread only
  std::mutex conns_mutex_;
  std::unordered_map<uint64_t, std::shared_ptr<Conn>> by_id_;
  std::mutex dirty_mutex_;
  std::vector<uint64_t> dirty_;
  std::mutex adopt_mutex_;
  std::vector<FdHandle> adopted_;
  std::vector<Frame> batch_;
  uint64_t next_id_ = 1;
  std::atomic<bool> stop_{false};
};

}  // namespace wfq::net
