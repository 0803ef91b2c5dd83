// Socket plumbing for the broker subsystem (ISSUE 8): RAII fd handle,
// nonblocking Unix-domain + TCP listeners, the matching client connect
// helpers (the event loop's nonblocking dial_tcp among them), and the
// blocking client's frame I/O (write_all / read_frame, the one reader every
// out-of-process client uses). Everything returns -1/false with errno
// preserved instead of throwing — the event loop treats socket failure as a
// per-connection event, not a process error — except listener setup, which
// throws std::runtime_error with the failing address in the message (a
// daemon that cannot bind its socket has nothing to fall back to).
#pragma once

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "net/frame.hpp"

namespace wfq::net {

/// Owning fd wrapper: closes on destruction, movable, non-copyable.
class FdHandle {
 public:
  FdHandle() = default;
  explicit FdHandle(int fd) : fd_(fd) {}
  FdHandle(FdHandle&& o) noexcept : fd_(std::exchange(o.fd_, -1)) {}
  FdHandle& operator=(FdHandle&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = std::exchange(o.fd_, -1);
    }
    return *this;
  }
  FdHandle(const FdHandle&) = delete;
  FdHandle& operator=(const FdHandle&) = delete;
  ~FdHandle() { reset(); }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  void reset(int fd = -1) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = fd;
  }

 private:
  int fd_ = -1;
};

inline bool set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// 127.0.0.1:<port>, the only address the broker listens on or dials.
inline sockaddr_in loopback_addr(uint16_t port) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

/// Fills a sockaddr_un, rejecting paths that would silently truncate.
inline void fill_uds_addr(const std::string& path, sockaddr_un& addr) {
  if (path.empty() || path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("net: UDS path \"" + path +
                             "\" is empty or longer than sun_path (" +
                             std::to_string(sizeof(addr.sun_path) - 1) + ")");
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
}

/// Nonblocking Unix-domain listener on `path`. The socket is bound and
/// listening under a short temporary name in the same directory (unique to
/// this process and call) and then renamed onto `path`, so a client that
/// waits for the file never finds a socket nobody listens on yet; the
/// rename also replaces a stale socket left by a killed broker (the
/// daemon-restart idiom).
inline FdHandle listen_uds(const std::string& path, int backlog = 128) {
  static std::atomic<uint64_t> seq{0};
  sockaddr_un addr;
  fill_uds_addr(path, addr);
  const std::string tmp =
      path.substr(0, path.rfind('/') + 1) + ".wfb-" +
      std::to_string(::getpid()) + "-" +
      std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
  if (tmp.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("net: listen_uds(" + path +
                             "): its temporary name \"" + tmp +
                             "\" is longer than sun_path (" +
                             std::to_string(sizeof(addr.sun_path) - 1) + ")");
  fill_uds_addr(tmp, addr);
  FdHandle fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid())
    throw std::runtime_error("net: socket(AF_UNIX): " +
                             std::string(std::strerror(errno)));
  ::unlink(tmp.c_str());
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    throw std::runtime_error("net: bind(" + tmp + "): " +
                             std::string(std::strerror(errno)));
  if (::listen(fd.get(), backlog) != 0 ||
      ::rename(tmp.c_str(), path.c_str()) != 0) {
    int err = errno;
    ::unlink(tmp.c_str());
    throw std::runtime_error("net: listen(" + path + "): " +
                             std::string(std::strerror(err)));
  }
  if (!set_nonblocking(fd.get()))
    throw std::runtime_error("net: set_nonblocking(" + path + ") failed");
  return fd;
}

/// Nonblocking TCP listener on 127.0.0.1:<port>. Port 0 asks the kernel to
/// pick; bound_tcp_port() reads the result back. Loopback-only on purpose:
/// the broker has no auth story, so it must not listen on the wire.
inline FdHandle listen_tcp(uint16_t port, int backlog = 128) {
  FdHandle fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid())
    throw std::runtime_error("net: socket(AF_INET): " +
                             std::string(std::strerror(errno)));
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback_addr(port);
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    throw std::runtime_error("net: bind(127.0.0.1:" + std::to_string(port) +
                             "): " + std::string(std::strerror(errno)));
  if (::listen(fd.get(), backlog) != 0)
    throw std::runtime_error("net: listen(127.0.0.1:" + std::to_string(port) +
                             "): " + std::string(std::strerror(errno)));
  if (!set_nonblocking(fd.get()))
    throw std::runtime_error("net: set_nonblocking(tcp) failed");
  return fd;
}

/// Port a listener actually bound (resolves the port-0 "pick one" case).
inline uint16_t bound_tcp_port(int fd) {
  sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    return 0;
  return ntohs(addr.sin_port);
}

/// Blocking client connect to a UDS path; invalid handle + errno on failure.
inline FdHandle connect_uds(const std::string& path) {
  sockaddr_un addr;
  fill_uds_addr(path, addr);
  FdHandle fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) return FdHandle();
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0)
    return FdHandle();
  return fd;
}

/// Nonblocking connect to 127.0.0.1:<port> that returns at once: the
/// connect finishes later, when the socket turns writable, or fails later,
/// when it reports an error. Invalid handle + errno if it failed on the
/// spot. TCP_NODELAY is set: the protocol is request/response with small
/// frames, where Nagle + delayed ACK turns every closed-loop RTT into 40ms.
inline FdHandle dial_tcp(uint16_t port) {
  FdHandle fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0));
  if (!fd.valid()) return FdHandle();
  int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr = loopback_addr(port);
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 &&
      errno != EINPROGRESS)
    return FdHandle();
  return fd;
}

/// Bounded receive/send timeouts on a blocking socket (SO_RCVTIMEO /
/// SO_SNDTIMEO). After this, read()/write() return -1 with EAGAIN when the
/// peer stalls past `ms` — the CLI paths (broker --report, loadgen,
/// ClusterClient) use it so a hung or partitioned broker yields a clean
/// error instead of wedging forever (ISSUE 10 satellite).
inline bool set_recv_timeout(int fd, uint64_t ms) {
  timeval tv;
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  return ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) == 0;
}

inline bool set_send_timeout(int fd, uint64_t ms) {
  timeval tv;
  tv.tv_sec = static_cast<time_t>(ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
  return ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) == 0;
}

namespace detail {

/// Waits up to `timeout_ms` (-1 = no limit) for the nonblocking connect on
/// `fd` to finish: polls for writability, then checks SO_ERROR (a writable
/// socket may still hold a deferred ECONNREFUSED). Restores blocking mode on
/// success.
inline FdHandle finish_connect(FdHandle fd, int timeout_ms) {
  if (!fd.valid()) return fd;
  pollfd pfd{fd.get(), POLLOUT, 0};
  int rc;
  do {
    rc = ::poll(&pfd, 1, timeout_ms);
  } while (rc < 0 && errno == EINTR);
  if (rc <= 0) {
    errno = (rc == 0) ? ETIMEDOUT : errno;
    return FdHandle();
  }
  int err = 0;
  socklen_t elen = sizeof(err);
  if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &elen) != 0 ||
      err != 0) {
    errno = err != 0 ? err : errno;
    return FdHandle();
  }
  int flags = ::fcntl(fd.get(), F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd.get(), F_SETFL, flags & ~O_NONBLOCK) != 0)
    return FdHandle();
  return fd;
}

}  // namespace detail

/// connect_tcp with a connect deadline: gives up after `timeout_ms` instead
/// of the kernel's multi-minute SYN retry schedule. Returns a BLOCKING fd
/// with TCP_NODELAY set, like connect_tcp.
inline FdHandle connect_tcp_timeout(uint16_t port, uint64_t timeout_ms) {
  return detail::finish_connect(dial_tcp(port), static_cast<int>(timeout_ms));
}

/// Blocking client connect to 127.0.0.1:<port>, TCP_NODELAY set.
inline FdHandle connect_tcp(uint16_t port) {
  return detail::finish_connect(dial_tcp(port), -1);
}

/// connect_uds with a connect deadline; UDS connects only block when the
/// listener's backlog is full, i.e. exactly when the broker is wedged.
inline FdHandle connect_uds_timeout(const std::string& path,
                                    uint64_t timeout_ms) {
  sockaddr_un addr;
  fill_uds_addr(path, addr);
  FdHandle fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0));
  if (!fd.valid() ||
      (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                 sizeof(addr)) != 0 &&
       errno != EINPROGRESS && errno != EAGAIN))
    return FdHandle();
  return detail::finish_connect(std::move(fd), static_cast<int>(timeout_ms));
}

/// send() the whole buffer on a BLOCKING socket, riding out EINTR and the
/// nonblocking-peer case (EAGAIN busy-waits via a poll-less retry is wrong;
/// client sockets in loadgen stay blocking, so EAGAIN means a real bug).
/// MSG_NOSIGNAL: a peer that died mid-conversation (a SIGKILLed cluster
/// replica, a vanished client) must surface as EPIPE => false, not as a
/// process-killing SIGPIPE — every caller handles the false.
inline bool write_all(int fd, const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    ssize_t w = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(w);
  }
  return true;
}

inline bool write_all(int fd, const std::string& buf) {
  return write_all(fd, buf.data(), buf.size());
}

/// Blocks for exactly one frame on a BLOCKING socket: a frame already
/// buffered in `dec` comes first, otherwise read() (riding out EINTR) feeds
/// the decoder until one decodes. Returns ok, or the decode error that
/// poisoned the stream. need_more means the stream ended first, and errno
/// says why: 0 at EOF (dec.at_eof() then tells a clean close from a
/// truncated frame), EAGAIN when SO_RCVTIMEO expired, else the read error.
inline DecodeStatus read_frame(int fd, Decoder& dec, Frame& out) {
  char buf[65536];
  while (true) {
    DecodeStatus st = dec.next(out);
    if (st != DecodeStatus::need_more) return st;
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      dec.feed(buf, static_cast<size_t>(n));
    } else if (n == 0) {
      errno = 0;
      return st;
    } else if (errno != EINTR) {
      return st;
    }
  }
}

}  // namespace wfq::net
