// Load-generator client for the broker (ISSUE 8 tentpole): C connections
// over UDS or TCP, closed-loop (windowed request/response) or open-loop
// (paced arrivals) modes, per-request latency recording. Used three ways:
// the `loadgen` binary (loadgen_main.cpp), the E14 experiment family, and
// the broker end-to-end CTest — all through run_loadgen on real sockets.
//
// Each connection owns ONE routing key (key_base + index), so its items
// land on one shard. A connection's responses arrive in request order (it
// lives on one broker loop), so a FIFO deque of send timestamps matches
// request to response without sequence numbers (values carry a
// per-connection sequence anyway, which is what the e2e test checks FIFO
// with).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"

namespace wfq::broker {

struct LoadgenConfig {
  /// Transport: UDS when uds_path is nonempty, else TCP to 127.0.0.1:port.
  std::string uds_path;
  uint16_t tcp_port = 0;

  int connections = 1;
  /// Requests per connection (an ENQ/DEQ pair counts as 2).
  int64_t msgs_per_conn = 1000;

  enum class Mode { closed, open };
  Mode mode = Mode::closed;
  /// Max outstanding requests per connection. Closed-loop window 1 is the
  /// strict one-in-flight client; open loop uses it as a safety cap so a
  /// stalled broker cannot make a client buffer without bound.
  int window = 1;
  /// Open loop only: per-connection arrival rate in requests/second
  /// (required > 0 in open mode; closed loop ignores it).
  double rate_per_conn = 0;

  /// true: alternate ENQ, DEQ (steady queue depth — throughput workload).
  /// false: ENQ only (fills the shard; `loadgen --enq-only`).
  bool pairs = true;

  /// Connection c routes with key_base + c.
  uint32_t key_base = 0;

  // --- cluster mode (ISSUE 10) --------------------------------------------
  /// Non-empty: target an N-replica raft group instead of a single broker
  /// (uds_path/tcp_port are ignored). Entry i is replica i's TCP port. Each
  /// connection becomes a ClusterClient: strict one-in-flight, following
  /// ERR_NOT_LEADER hints and riding out failovers by redirect-and-retry.
  /// Closed-loop only (window forced to 1 — a redirected pipeline has no
  /// well-defined response order). The connect budget is
  /// ClusterClient::kConnectTimeoutMs, the give-up budget Options' default.
  std::vector<uint16_t> cluster_ports;
  uint64_t read_timeout_ms = 500;  // per response wait
};

struct LoadgenResult {
  uint64_t sent = 0;
  uint64_t acked = 0;   // responses received (any kind)
  uint64_t errors = 0;  // ERR responses
  uint64_t redirects = 0;  // ERR_NOT_LEADER hops (cluster mode)
  double elapsed_s = 0;
  double msgs_per_s = 0;  // acked / elapsed
  /// One entry per response, microseconds. Closed loop: request RTT.
  /// Open loop: sojourn from SCHEDULED send time (queue delay included).
  std::vector<double> latencies_us;
  bool connect_failed = false;
};

/// Leader-following client for a broker replica group (ISSUE 10): one
/// request in flight, one response expected. On ERR_NOT_LEADER it hops to
/// the hinted replica; on connect failure, response timeout, or EOF (the
/// leader was SIGKILLed mid-request) it drops the connection and tries the
/// next replica — so a request outlives a failover as long as SOME leader
/// emerges within give_up_ms. Retry semantics: a request that timed out may
/// still have executed on the dying leader, so data ops are retried
/// at-least-once; only the replicated metadata ops (SETW) are idempotent by
/// design. Used by loadgen's cluster mode, the E15 probers, and the cluster
/// e2e test.
class ClusterClient {
 public:
  /// Per-connect budget before a replica counts as down.
  static constexpr uint64_t kConnectTimeoutMs = 200;

  struct Options {
    std::vector<uint16_t> ports;  // replica TCP ports, node-id order
    uint64_t read_timeout_ms = 500;
    uint64_t give_up_ms = 15000;
  };

  explicit ClusterClient(Options opts) : opts_(std::move(opts)) {}

  /// One request/response round trip, redirecting as needed. Returns the
  /// terminal response (never ERR_NOT_LEADER), or std::nullopt when no
  /// replica answered within give_up_ms.
  std::optional<net::Frame> request(const net::Frame& req) {
    auto start = std::chrono::steady_clock::now();
    auto expired = [&] {
      return std::chrono::duration_cast<std::chrono::milliseconds>(
                 std::chrono::steady_clock::now() - start)
                 .count() >= static_cast<int64_t>(opts_.give_up_ms);
    };
    std::string wire;
    net::encode_frame(req, wire);
    while (!expired()) {
      if (!fd_.valid() && !connect_current()) {
        advance(-1);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      if (!net::write_all(fd_.get(), wire)) {
        drop_and_advance(-1);
        continue;
      }
      // Timeout (SO_RCVTIMEO), EOF or a poisoned stream: next replica.
      net::Frame resp;
      if (net::read_frame(fd_.get(), dec_, resp) != net::DecodeStatus::ok) {
        drop_and_advance(-1);
        continue;
      }
      if (resp.op == net::Opcode::err_not_leader) {
        ++redirects_;
        uint32_t hint = 0xffffffffu;
        net::decode_u32(resp.payload, hint);
        int next = (hint != 0xffffffffu &&
                    hint < opts_.ports.size())
                       ? static_cast<int>(hint)
                       : -1;
        // The follower connection stays healthy; only switch targets.
        if (next != current_) drop_and_advance(next);
        else std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      return resp;
    }
    return std::nullopt;
  }

  uint64_t redirects() const { return redirects_; }
  int current() const { return current_; }

 private:
  bool connect_current() {
    fd_ = net::connect_tcp_timeout(
        opts_.ports[static_cast<size_t>(current_)], kConnectTimeoutMs);
    if (!fd_.valid()) return false;
    net::set_recv_timeout(fd_.get(), opts_.read_timeout_ms);
    net::set_send_timeout(fd_.get(), opts_.read_timeout_ms);
    dec_ = net::Decoder();
    return true;
  }

  /// Next target: the hinted replica, or round-robin when no usable hint.
  void advance(int hint) {
    current_ = hint >= 0 ? hint
                         : (current_ + 1) % static_cast<int>(
                                                opts_.ports.size());
  }

  void drop_and_advance(int hint) {
    fd_.reset();
    advance(hint);
  }

  Options opts_;
  net::FdHandle fd_;
  net::Decoder dec_;
  int current_ = 0;
  uint64_t redirects_ = 0;
};

namespace detail {

using Clock = std::chrono::steady_clock;

inline double us_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

/// Request k of a connection: a DEQ when cfg.pairs and k is odd, else an
/// ENQ of the connection's next sequence value. The one request source of
/// the closed, cluster and open loops.
inline net::Frame make_request(const LoadgenConfig& cfg, uint32_t key,
                               uint64_t k, uint64_t& seq) {
  net::Frame f;
  f.key = key;
  if (cfg.pairs && k % 2 == 1) {
    f.op = net::Opcode::deq;
  } else {
    f.op = net::Opcode::enq;
    f.payload = net::encode_value(seq++);
  }
  return f;
}

struct ConnStats {
  uint64_t sent = 0, acked = 0, errors = 0, redirects = 0;
  std::vector<double> latencies_us;
  bool failed = false;
};

inline net::FdHandle lg_connect(const LoadgenConfig& cfg) {
  if (!cfg.uds_path.empty()) return net::connect_uds(cfg.uds_path);
  return net::connect_tcp(cfg.tcp_port);
}

/// Drains whatever responses are readable (blocking for at least one),
/// matching them to the FIFO of send timestamps. Returns false on EOF.
inline bool read_responses(int fd, net::Decoder& dec,
                           std::deque<Clock::time_point>& pending,
                           int64_t& outstanding, ConnStats& st) {
  char buf[65536];
  ssize_t n;
  do {
    n = ::read(fd, buf, sizeof(buf));
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return false;
  dec.feed(buf, static_cast<size_t>(n));
  net::Frame f;
  while (dec.next(f) == net::DecodeStatus::ok) {
    if (!pending.empty()) {
      st.latencies_us.push_back(us_since(pending.front(), Clock::now()));
      pending.pop_front();
    }
    --outstanding;
    ++st.acked;
    if (f.op == net::Opcode::err) ++st.errors;
  }
  return true;
}

/// One closed-loop connection: keep up to `window` requests in flight,
/// batch the top-up into one write, block for responses.
inline void closed_loop_conn(const LoadgenConfig& cfg, int index,
                             ConnStats& st) {
  net::FdHandle fd = lg_connect(cfg);
  if (!fd.valid()) {
    st.failed = true;
    return;
  }
  const uint32_t key = cfg.key_base + static_cast<uint32_t>(index);
  net::Decoder dec;
  std::deque<Clock::time_point> pending;
  int64_t outstanding = 0;
  uint64_t seq = 0;
  std::string wbuf;
  while (st.acked < static_cast<uint64_t>(cfg.msgs_per_conn)) {
    wbuf.clear();
    while (outstanding < cfg.window &&
           st.sent < static_cast<uint64_t>(cfg.msgs_per_conn)) {
      pending.push_back(Clock::now());
      net::encode_frame(make_request(cfg, key, st.sent, seq), wbuf);
      ++st.sent;
      ++outstanding;
    }
    if (!wbuf.empty() && !net::write_all(fd.get(), wbuf)) {
      st.failed = true;
      return;
    }
    if (!read_responses(fd.get(), dec, pending, outstanding, st)) return;
  }
}

/// One cluster-mode connection: strict one-in-flight through a
/// ClusterClient, so every request survives redirects and failovers
/// individually. Latency covers the WHOLE retry journey — a request that
/// rode out a failover reports the failover in its RTT, which is exactly
/// what E15b measures.
inline void cluster_loop_conn(const LoadgenConfig& cfg, int index,
                              ConnStats& st) {
  ClusterClient::Options o;
  o.ports = cfg.cluster_ports;
  o.read_timeout_ms = cfg.read_timeout_ms;
  ClusterClient cc(o);
  const uint32_t key = cfg.key_base + static_cast<uint32_t>(index);
  uint64_t seq = 0;
  while (st.acked < static_cast<uint64_t>(cfg.msgs_per_conn)) {
    net::Frame f = make_request(cfg, key, st.sent, seq);
    Clock::time_point t0 = Clock::now();
    ++st.sent;
    std::optional<net::Frame> resp = cc.request(f);
    if (!resp) {
      st.failed = true;  // no leader emerged within give_up_ms
      break;
    }
    st.latencies_us.push_back(us_since(t0, Clock::now()));
    ++st.acked;
    if (resp->op == net::Opcode::err) ++st.errors;
  }
  st.redirects = cc.redirects();
}

/// One open-loop connection: a writer paces requests on an absolute
/// schedule (next = start + k/rate — a slow broker does not slow the
/// arrival process, that is the point of open loop), a reader records
/// sojourn times against the SCHEDULED instants. The window cap is the
/// only coupling: at the cap the writer waits, and the workload degrades
/// toward closed-loop rather than buffering without bound.
inline void open_loop_conn(const LoadgenConfig& cfg, int index,
                           ConnStats& st) {
  net::FdHandle fd = lg_connect(cfg);
  if (!fd.valid()) {
    st.failed = true;
    return;
  }
  const uint32_t key = cfg.key_base + static_cast<uint32_t>(index);
  std::mutex m;
  std::deque<Clock::time_point> pending;  // scheduled send instants
  std::atomic<int64_t> outstanding{0};
  std::atomic<bool> reader_dead{false};
  std::atomic<uint64_t> acked{0};

  std::thread reader([&] {
    net::Decoder dec;
    char buf[65536];
    net::Frame f;
    while (acked.load(std::memory_order_relaxed) <
           static_cast<uint64_t>(cfg.msgs_per_conn)) {
      ssize_t n;
      do {
        n = ::read(fd.get(), buf, sizeof(buf));
      } while (n < 0 && errno == EINTR);
      if (n <= 0) break;
      dec.feed(buf, static_cast<size_t>(n));
      while (dec.next(f) == net::DecodeStatus::ok) {
        Clock::time_point sched;
        bool have = false;
        {
          std::lock_guard<std::mutex> lk(m);
          if (!pending.empty()) {
            sched = pending.front();
            pending.pop_front();
            have = true;
          }
        }
        if (have) st.latencies_us.push_back(us_since(sched, Clock::now()));
        outstanding.fetch_sub(1, std::memory_order_relaxed);
        acked.fetch_add(1, std::memory_order_relaxed);
        if (f.op == net::Opcode::err) ++st.errors;
      }
    }
    reader_dead.store(true, std::memory_order_release);
  });

  const double interval_s =
      cfg.rate_per_conn > 0 ? 1.0 / cfg.rate_per_conn : 0.0;
  Clock::time_point start = Clock::now();
  uint64_t seq = 0;
  std::string wbuf;
  for (int64_t k = 0; k < cfg.msgs_per_conn; ++k) {
    Clock::time_point sched =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(interval_s *
                                                  static_cast<double>(k)));
    std::this_thread::sleep_until(sched);
    while (outstanding.load(std::memory_order_relaxed) >= cfg.window &&
           !reader_dead.load(std::memory_order_acquire))
      std::this_thread::yield();  // safety cap, see header comment
    if (reader_dead.load(std::memory_order_acquire)) {
      st.failed = true;  // broker went away mid-run
      break;
    }
    {
      std::lock_guard<std::mutex> lk(m);
      pending.push_back(sched);
    }
    wbuf.clear();
    net::encode_frame(make_request(cfg, key, static_cast<uint64_t>(k), seq),
                      wbuf);
    if (!net::write_all(fd.get(), wbuf)) {
      st.failed = true;
      break;
    }
    outstanding.fetch_add(1, std::memory_order_relaxed);
    ++st.sent;
  }
  if (st.failed)  // writer aborted: unblock the reader's read() and bail
    ::shutdown(fd.get(), SHUT_RDWR);
  reader.join();
  st.acked = acked.load(std::memory_order_relaxed);
}

}  // namespace detail

/// Runs the configured workload, one thread per connection (open loop adds
/// a reader thread per connection), and merges per-connection stats. The
/// clock covers connect through last response.
inline LoadgenResult run_loadgen(const LoadgenConfig& cfg) {
  std::vector<detail::ConnStats> stats(
      static_cast<size_t>(cfg.connections));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(cfg.connections));
  detail::Clock::time_point t0 = detail::Clock::now();
  for (int c = 0; c < cfg.connections; ++c) {
    detail::ConnStats& st = stats[static_cast<size_t>(c)];
    threads.emplace_back([&cfg, c, &st] {
      if (!cfg.cluster_ports.empty())
        detail::cluster_loop_conn(cfg, c, st);
      else if (cfg.mode == LoadgenConfig::Mode::closed)
        detail::closed_loop_conn(cfg, c, st);
      else
        detail::open_loop_conn(cfg, c, st);
    });
  }
  for (std::thread& t : threads) t.join();
  detail::Clock::time_point t1 = detail::Clock::now();

  LoadgenResult r;
  r.elapsed_s = std::chrono::duration<double>(t1 - t0).count();
  for (detail::ConnStats& st : stats) {
    r.sent += st.sent;
    r.acked += st.acked;
    r.errors += st.errors;
    r.redirects += st.redirects;
    r.connect_failed = r.connect_failed || st.failed;
    r.latencies_us.insert(r.latencies_us.end(), st.latencies_us.begin(),
                          st.latencies_us.end());
  }
  r.msgs_per_s =
      r.elapsed_s > 0 ? static_cast<double>(r.acked) / r.elapsed_s : 0;
  return r;
}

}  // namespace wfq::broker
