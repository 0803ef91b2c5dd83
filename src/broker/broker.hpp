// Broker daemon core: owns a ShardMap of registry-built backings and N
// run-to-completion event loops. Runs equally as the `broker` binary
// (broker_main.cpp wires signals to stop()) and in-process (the E14
// experiments and the end-to-end CTest construct a Broker on a temp UDS
// path directly — same code path, real sockets).
//
// Threading: N = cfg.groups event loops (net::EventLoop), then one acceptor
// loop that owns the listeners and deals accepted connections round-robin
// to the N loops. Loop i is process slot i on every shard's backing (the
// backings are built for procs = N), so the shards are used as the paper's
// p-process objects. A loop reads a connection's burst of frames, runs each
// request inline in arrival order, and writes all the responses in one go:
// a request executes on the thread that read it, with no hand-off.
// Consecutive ENQ/DEQ frames on one shard run together as one ENQ*DEQ* run
// of the backing (serve_run), still in arrival order. One
// connection lives on one loop, so its requests execute and answer in
// request order; ordering across connections is the backing's
// linearizability (docs/PROTOCOL.md). The loop owns the connection: the
// one answer written from another thread, a cluster SETW's deferred reply,
// is posted by the raft thread to the loop's mailbox. The cluster state
// (pending SETWs, whether a config entry has applied) belongs to the raft
// thread; loops reach it only through RaftService::propose.
//
// Shutdown (stop(), also the SIGINT/SIGTERM path): stop raft, stop the
// acceptor, stop and join the loops, then deliver what each mailbox holds,
// flush every outbox and close. Every request a loop read has already run,
// so the drain is the flush.
// Backpressure is per connection: a loop stops reading a client whose
// responses pile up unread (net::EventLoop), and no one else waits.
//
// Cluster mode: with cfg.cluster set, the broker is one replica of an
// N-node raft group (src/raft/). The replicated state machine is the
// broker METADATA — shard count, backing key, DWRR tenant weights — not the
// queue data: the shard map serves once the replicated config entry applies
// and matches the CLI flags, SETW commits through the log before acking,
// and only the leader serves ENQ/DEQ (followers answer ERR_NOT_LEADER +
// hint; clients follow it, see loadgen's ClusterClient). Queue contents are
// per-replica, so a failover can lose items enqueued on the dead leader,
// and a client that retries a timed-out ENQ can duplicate one — there is
// deliberately NO exactly-once data contract across failover; the
// replicated guarantee covers metadata only. Documented in
// docs/PROTOCOL.md.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/spec.hpp"
#include "broker/shard_map.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "platform/affinity.hpp"
#include "raft/cluster.hpp"

namespace wfq::broker {

/// Most event loops a broker may run (BrokerConfig::groups, --groups).
inline constexpr int kMaxGroups = 1024;

struct BrokerConfig {
  int shards = 1;
  /// Event loops, each one process slot on every shard, in [0, kMaxGroups];
  /// 0 = one per hardware core. Connections are dealt to the loops
  /// round-robin.
  int groups = 0;
  /// Backing key per shard: ubq, bounded[:g=<G>] or dwrr:<n>: over one of
  /// them (check_backing; the constructor throws on any other key).
  std::string backing = "bounded";
  /// Listeners: either or both. An empty uds_path and tcp_port < 0 is a
  /// configuration error (a broker nobody can reach).
  std::string uds_path;
  int tcp_port = -1;  // -1 = none, 0 = kernel-picked (read back via tcp_port())

  // --- cluster mode (ISSUE 10): N-replica group over raft -----------------
  /// When true, this broker is replica `node_id` of a group whose client
  /// TCP ports are `peer_ports` (one per replica, index = node id;
  /// peer_ports[node_id] must equal tcp_port). Only the leader serves
  /// ENQ/DEQ/SETW; followers answer ERR_NOT_LEADER with a leader hint. The
  /// shard map is built from the raft-replicated config entry, so every
  /// replica provably runs the same topology.
  bool cluster = false;
  int node_id = 0;
  std::vector<uint16_t> peer_ports;
  uint64_t election_timeout_ms = 150;
  uint64_t raft_seed = 0;  // 0 = node_id + 1
};

class Broker {
 public:
  struct ShardCounters {
    uint64_t enq = 0;
    uint64_t deq_hit = 0;
    uint64_t deq_empty = 0;
    uint64_t ping = 0;
    uint64_t stat = 0;
    uint64_t bad = 0;
    uint64_t runs = 0;  // ENQ*DEQ* runs served (see serve_run)
  };

  /// Builds the shard map from the flags in both modes (ShardMap checks
  /// the shard count and backing). A single-node broker serves
  /// it from birth; a cluster replica once the replicated config entry
  /// applies and matches (see on_raft_apply).
  explicit Broker(BrokerConfig cfg)
      : cfg_(checked(std::move(cfg))),
        map_(cfg_.shards, cfg_.backing, 0, cfg_.groups),
        map_ready_(!cfg_.cluster),
        scratch_(static_cast<size_t>(cfg_.groups)) {
    for (int s = 0; s < cfg_.shards; ++s) shard_state_.emplace_back();
  }

  ~Broker() { stop(); }
  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  /// Binds listeners and spawns the loop threads, then the acceptor.
  /// Throws on bind failure (daemon has nothing to fall back to).
  void start() {
    for (int i = 0; i < cfg_.groups; ++i) {
      net::EventLoop::Callbacks cbs;
      cbs.on_batch = [this, i](uint64_t conn, std::vector<net::Frame>& batch,
                               std::string& out) {
        serve(i, conn, batch, out);
      };
      loops_.push_back(std::make_unique<net::EventLoop>(std::move(cbs)));
    }
    net::EventLoop::Callbacks acb;
    acb.on_accept = [this, next = size_t{0}](net::FdHandle fd) mutable {
      loops_[next++ % loops_.size()]->adopt(std::move(fd));
    };
    acceptor_ = std::make_unique<net::EventLoop>(std::move(acb));
    // TCP binds first: listen_uds renames the socket file into place, so
    // nothing that can fail may follow it, or a failed start() would leave
    // a file at uds_path that refuses every connect.
    if (cfg_.tcp_port >= 0) {
      net::FdHandle fd = net::listen_tcp(static_cast<uint16_t>(cfg_.tcp_port));
      tcp_port_ = net::bound_tcp_port(fd.get());
      acceptor_->add_listener(std::move(fd));
    }
    if (!cfg_.uds_path.empty())
      acceptor_->add_listener(net::listen_uds(cfg_.uds_path));
    // The RaftService must exist before a loop can serve a frame: serve()
    // reads raft_ unsynchronized, which is only sound because after this
    // point raft_ never changes until stop(). Peer dials retry, so starting
    // it before the listeners' first accept costs nothing.
    if (cfg_.cluster) {
      raft::RaftServiceConfig rc;
      rc.node_id = cfg_.node_id;
      rc.peer_ports = cfg_.peer_ports;
      rc.election_timeout_ms = cfg_.election_timeout_ms;
      rc.seed = cfg_.raft_seed;
      raft_ = std::make_unique<raft::RaftService>(
          rc,
          [this](uint64_t idx, const std::string& cmd) {
            on_raft_apply(idx, cmd);
          },
          [this](bool leader) { on_raft_role(leader); });
      raft_->start();
    }
    // Spawn order is part of the surface (loops first, then the acceptor):
    // tools that read /proc/<pid>/task rely on it.
    for (int i = 0; i < cfg_.groups; ++i)
      loop_threads_.emplace_back([this, i] {
        platform::name_thread("wfb-loop-" + std::to_string(i));
        for (int s = 0; s < cfg_.shards; ++s) map_.bind_servicer(s, i);
        loops_[static_cast<size_t>(i)]->run();
      });
    accept_thread_ = std::thread([this] {
      platform::name_thread("wfb-accept");
      acceptor_->run();
    });
    started_ = true;
  }

  /// Clean shutdown: stop accepting and reading, flush every response,
  /// close. Idempotent; also the dtor path.
  void stop() {
    if (!started_ || stopped_.exchange(true)) return;
    // Cluster drain: silence raft FIRST — the leader stops heartbeating, so
    // the survivors elect a successor one election timeout later, while this
    // replica still answers every client request it already read. With the
    // raft thread joined, the SETWs still waiting for an apply are answered
    // here, as on a step-down.
    if (raft_) {
      raft_->stop();
      on_raft_role(false);
    }
    acceptor_->stop();
    accept_thread_.join();
    for (auto& loop : loops_) loop->stop();
    for (std::thread& t : loop_threads_) t.join();
    // Every request read has run and queued its response (loops joined),
    // and raft posts no more SETW replies (raft stopped): flush the last
    // bytes out and close, so clients waiting on responses see EOF rather
    // than a silent socket.
    for (auto& loop : loops_) loop->shutdown_flush_and_close();
    acceptor_->shutdown_flush_and_close();
    if (!cfg_.uds_path.empty()) ::unlink(cfg_.uds_path.c_str());
  }

  /// TCP port actually bound (resolves tcp_port = 0); 0 if no TCP listener.
  uint16_t tcp_port() const { return tcp_port_; }

  int shards() const { return cfg_.shards; }
  int groups() const { return cfg_.groups; }
  const std::string& backing() const { return cfg_.backing; }

  /// Cluster-mode observability (false/defaults when not clustered).
  bool is_leader() const { return raft_ ? raft_->is_leader() : true; }
  bool serving() const {
    return map_ready_.load(std::memory_order_acquire) && is_leader();
  }

  ShardCounters counters(int shard) const {
    const ShardState& s = shard_state_[static_cast<size_t>(shard)];
    return {s.enq.load(std::memory_order_relaxed),
            s.deq_hit.load(std::memory_order_relaxed),
            s.deq_empty.load(std::memory_order_relaxed),
            s.ping.load(std::memory_order_relaxed),
            s.stat.load(std::memory_order_relaxed),
            s.bad.load(std::memory_order_relaxed),
            s.runs.load(std::memory_order_relaxed)};
  }

  ShardCounters totals() const {
    ShardCounters t;
    for (int s = 0; s < shards(); ++s) {
      ShardCounters c = counters(s);
      t.enq += c.enq;
      t.deq_hit += c.deq_hit;
      t.deq_empty += c.deq_empty;
      t.ping += c.ping;
      t.stat += c.stat;
      t.bad += c.bad;
      t.runs += c.runs;
    }
    return t;
  }

  /// The STAT payload and the `broker --report` body: per-shard op counters,
  /// each backing's space_stats read live (safe from any thread, exact at
  /// quiescence) and per-tenant rows for dwrr backings. Valid JSON — a
  /// monitoring script can json.load it straight off the socket.
  std::string stat_json() const {
    bool ready = map_ready_.load(std::memory_order_acquire);
    std::ostringstream os;
    os << "{\"schema\":\"wfq-broker-stat-v1\",\"backing\":\"" << cfg_.backing
       << "\"";
    if (raft_) {
      // Raft section: how E15b's prober (and any monitor) finds the leader
      // and watches commit progress. Followers answer STAT too — a stat
      // probe must work exactly when ENQ/DEQ would be redirected.
      os << ",\"raft\":{\"node\":" << raft_->node_id()
         << ",\"cluster\":" << raft_->cluster_size()
         << ",\"term\":" << raft_->term()
         << ",\"role\":\"" << (raft_->is_leader() ? "leader" : "follower")
         << "\",\"leader\":" << raft_->leader_hint()
         << ",\"commit\":" << raft_->commit_index()
         << ",\"applied\":" << raft_->last_applied()
         << ",\"ready\":" << (ready ? "true" : "false") << "}";
    }
    os << ",\"shards\":[";
    for (int s = 0; s < shards(); ++s) {
      ShardCounters c = counters(s);
      if (s > 0) os << ",";
      os << "{\"shard\":" << s << ",\"enq\":" << c.enq
         << ",\"deq_hit\":" << c.deq_hit << ",\"deq_empty\":" << c.deq_empty
         << ",\"ping\":" << c.ping << ",\"stat\":" << c.stat
         << ",\"bad\":" << c.bad << ",\"runs\":" << c.runs;
      api::SpaceStats sp = ready ? map_.space_stats(s) : api::SpaceStats{};
      if (sp.known) {
        os << ",\"live_blocks\":" << sp.live_blocks
           << ",\"ebr_retired\":" << sp.ebr_retired;
      }
      std::vector<TenantRow> tenants =
          ready ? map_.tenant_rows(s) : std::vector<TenantRow>{};
      if (!tenants.empty()) {
        os << ",\"tenants\":[";
        for (size_t t = 0; t < tenants.size(); ++t) {
          if (t > 0) os << ",";
          os << "{\"tenant\":" << tenants[t].tenant
             << ",\"weight\":" << tenants[t].weight
             << ",\"enqueued\":" << tenants[t].enqueued
             << ",\"serviced\":" << tenants[t].serviced << "}";
        }
        os << "]";
      }
      os << "}";
    }
    os << "]}";
    return os.str();
  }

 private:
  /// `cfg` with its listener, loop count and cluster fields checked and
  /// `groups` resolved (0 = one loop per hardware core).
  static BrokerConfig checked(BrokerConfig cfg) {
    if (cfg.uds_path.empty() && cfg.tcp_port < 0)
      throw std::invalid_argument(
          "broker::Broker: need a UDS path and/or a TCP port to listen on");
    if (cfg.cluster) {
      size_t n = cfg.peer_ports.size();
      if (n < 1 || cfg.node_id < 0 || static_cast<size_t>(cfg.node_id) >= n)
        throw std::invalid_argument(
            "broker::Broker: cluster mode needs peer_ports with node_id in "
            "range");
      if (cfg.tcp_port <= 0 ||
          cfg.peer_ports[static_cast<size_t>(cfg.node_id)] !=
              static_cast<uint16_t>(cfg.tcp_port))
        throw std::invalid_argument(
            "broker::Broker: cluster mode requires tcp_port == "
            "peer_ports[node_id] (peers dial fixed ports)");
    }
    if (cfg.groups < 0 || cfg.groups > kMaxGroups)
      throw std::invalid_argument("broker::Broker: groups must be in [0, " +
                                  std::to_string(kMaxGroups) + "]");
    if (cfg.groups == 0)
      cfg.groups = std::min(platform::hardware_cores(), kMaxGroups);
    return cfg;
  }

  /// ERR payload for a SETW the shard map refused (both SETW paths).
  static constexpr const char* kSetwRejected =
      "SETW rejected: dwrr backing required, tenant in range, weight >= 1";

  /// A cluster-mode SETW awaiting its log entry's apply (the raft thread
  /// answers it on loop `loop`; see propose_setw).
  struct PendingSetw {
    int loop = 0;
    uint64_t conn = 0;
    uint32_t key = 0;
    uint16_t flags = 0;
  };

  /// Own cache line per shard: loops bump different shards' counters
  /// concurrently.
  struct alignas(64) ShardState {
    std::atomic<uint64_t> enq{0}, deq_hit{0}, deq_empty{0};
    std::atomic<uint64_t> ping{0}, stat{0}, bad{0}, runs{0};
  };

  /// A loop's reused run buffers, on a line of their own.
  struct alignas(64) LoopScratch {
    ShardMap::Run run;
  };

  /// Loop `loop`'s on_batch: raft-band frames go to the raft service, every
  /// other frame runs inline in arrival order and appends its response to
  /// `out`, which the loop writes in one go when serve returns. ENQ/DEQ
  /// frames run in maximal runs (serve_run); the rest one by one (handle).
  void serve(int loop, uint64_t conn, std::vector<net::Frame>& batch,
             std::string& out) {
    for (size_t i = 0; i < batch.size();) {
      net::Frame& f = batch[i];
      if (raft_ && f.op >= net::Opcode::raft_vote_req &&
          f.op <= net::Opcode::raft_append_resp) {
        raft_->deliver_frame(f);
        ++i;
        continue;
      }
      const size_t end = serve_run(loop, batch, i, out);
      if (end > i) {
        i = end;
        continue;
      }
      handle(loop, conn, f, out);
      ++i;
    }
  }

  /// Serves the run that starts at batch[i] and returns the index past it,
  /// or returns i when batch[i] starts none. A run is the longest stretch
  /// of consecutive frames on one shard shaped ENQ*DEQ* whose ENQs carry
  /// valid payloads; it ends at a frame on another shard, an ENQ after a
  /// DEQ, or any other frame. Within a tree block enqueues precede
  /// dequeues, and the whole run reaches the root before the next request
  /// starts, so request order holds within the connection and across
  /// shards (docs/PROTOCOL.md "Ordering and responses").
  size_t serve_run(int loop, std::vector<net::Frame>& batch, size_t i,
                   std::string& out) {
    ShardMap::Run& run = scratch_[static_cast<size_t>(loop)].run;
    run.clear();
    const uint32_t key = batch[i].key;
    const int shard = map_.shard_of(key);
    size_t end = i;
    for (; end < batch.size(); ++end) {
      const net::Frame& f = batch[end];
      if (f.key != key && map_.shard_of(f.key) != shard) break;
      if (f.op == net::Opcode::deq) {
        run.got.emplace_back();
        continue;
      }
      uint64_t v = 0;
      if (f.op != net::Opcode::enq || !run.got.empty() ||
          !net::decode_value(f.payload, v))
        break;
      run.keys.push_back(f.key);
      run.vals.push_back(v);
    }
    if (end == i) return i;
    const bool refused = not_leader();
    ShardState& st = shard_state_[static_cast<size_t>(shard)];
    if (!refused) {
      map_.run(shard, run);
      st.runs.fetch_add(1, std::memory_order_relaxed);
    }
    uint64_t hits = 0;
    for (size_t j = i, d = 0; j < end; ++j) {
      const net::Frame& req = batch[j];
      net::Frame resp;
      resp.key = req.key;
      resp.flags = req.flags;
      if (refused) {
        fill_not_leader(resp);
      } else if (req.op == net::Opcode::enq) {
        resp.op = net::Opcode::enq_ok;
      } else if (const std::optional<uint64_t>& got = run.got[d]; got) {
        resp.op = net::Opcode::deq_ok;
        resp.payload = net::encode_value(*got);
        // dwrr backings report which tenant the scheduler served; the
        // 16-bit flags field carries it (tenant counts are <= 4096).
        if (run.tenants[d] >= 0)
          resp.flags = static_cast<uint16_t>(run.tenants[d]);
        ++hits;
        ++d;
      } else {
        resp.op = net::Opcode::deq_empty;
        ++d;
      }
      net::encode_frame(resp, out);
    }
    if (!refused) {  // skipping zero adds saves a locked RMW each
      if (!run.vals.empty())
        st.enq.fetch_add(run.vals.size(), std::memory_order_relaxed);
      if (hits > 0) st.deq_hit.fetch_add(hits, std::memory_order_relaxed);
      if (run.got.size() > hits)
        st.deq_empty.fetch_add(run.got.size() - hits,
                               std::memory_order_relaxed);
    }
    return end;
  }

  /// Leader/readiness gate for data-path requests in cluster mode:
  /// followers (and replicas still waiting for the replicated config)
  /// answer ERR_NOT_LEADER carrying the best leader hint, and the client
  /// redirects (docs/PROTOCOL.md). Single-node brokers never take it.
  bool not_leader() const {
    return raft_ && (!map_ready_.load(std::memory_order_acquire) ||
                     !raft_->is_leader());
  }

  void fill_not_leader(net::Frame& resp) const {
    resp.op = net::Opcode::err_not_leader;
    int hint = raft_ ? raft_->leader_hint() : -1;
    resp.payload = net::encode_u32(
        hint >= 0 ? static_cast<uint32_t>(hint) : 0xffffffffu);
  }

  /// Executes one request no run took (PING, STAT, SETW, a malformed ENQ,
  /// a response-band opcode) on its shard, appends the encoded response.
  void handle(int loop, uint64_t conn, net::Frame& req, std::string& out) {
    const int shard = map_.shard_of(req.key);
    ShardState& st = shard_state_[static_cast<size_t>(shard)];
    net::Frame resp;
    resp.key = req.key;
    resp.flags = req.flags;
    switch (req.op) {
      case net::Opcode::enq:
        // serve_run takes every ENQ with a valid payload.
        if (not_leader()) {
          fill_not_leader(resp);
          break;
        }
        st.bad.fetch_add(1, std::memory_order_relaxed);
        resp.op = net::Opcode::err;
        resp.payload = "ENQ payload must be exactly 8 bytes";
        break;
      case net::Opcode::stat:
        st.stat.fetch_add(1, std::memory_order_relaxed);
        resp.op = net::Opcode::stat_ok;
        resp.payload = stat_json();
        break;
      case net::Opcode::ping:
        st.ping.fetch_add(1, std::memory_order_relaxed);
        resp.op = net::Opcode::pong;
        resp.payload = std::move(req.payload);
        break;
      case net::Opcode::setw: {
        uint32_t tenant = 0, weight = 0;
        if (!net::decode_u32_pair(req.payload, tenant, weight)) {
          st.bad.fetch_add(1, std::memory_order_relaxed);
          resp.op = net::Opcode::err;
          resp.payload = "SETW payload must be 8 bytes: u32 tenant, u32 weight";
          break;
        }
        if (not_leader()) {
          fill_not_leader(resp);
          break;
        }
        if (raft_) {
          if (propose_setw(PendingSetw{loop, conn, req.key, req.flags},
                           tenant, weight))
            return;  // answered by the raft thread
          fill_not_leader(resp);  // raft stopped
          break;
        }
        if (map_.set_weight_all(static_cast<int>(tenant), weight)) {
          resp.op = net::Opcode::setw_ok;
        } else {
          st.bad.fetch_add(1, std::memory_order_relaxed);
          resp.op = net::Opcode::err;
          resp.payload = kSetwRejected;
        }
        break;
      }
      default:
        // Response-band opcodes are valid frames but not valid REQUESTS.
        st.bad.fetch_add(1, std::memory_order_relaxed);
        resp.op = net::Opcode::err;
        resp.payload = std::string("unexpected request opcode ") +
                       net::opcode_name(req.op);
        break;
    }
    net::encode_frame(resp, out);
  }

  /// Cluster SETW (loop thread): replicate the weight through the log and
  /// answer from the raft thread once the entry APPLIES (on_raft_apply),
  /// so SETW_OK means "committed and visible on this leader", not
  /// "received". The completion registers the entry's index before that
  /// entry can apply, and answers at once if this replica is no longer
  /// the leader. False after raft stopped (no answer will come).
  bool propose_setw(PendingSetw p, uint32_t tenant, uint32_t weight) {
    return raft_->propose(
        "w|" + std::to_string(tenant) + "|" + std::to_string(weight),
        [this, p](uint64_t idx) {
          if (idx != 0) {
            pending_setw_[idx] = p;
            return;
          }
          net::Frame resp;
          fill_not_leader(resp);
          reply_setw(p, std::move(resp));
        });
  }

  /// Raft apply (raft thread, index order, exactly once per committed
  /// entry). Two command shapes, both replica-deterministic:
  ///   "cfg|<shards>|<backing>" — the cluster topology. The FIRST one to
  ///     apply decides on every replica, and later ones (re-proposals by
  ///     later leaders) are ignored everywhere. A replica whose own CLI
  ///     flags match it starts serving its shard map; one whose flags disagree
  ///     refuses to serve (loud stderr, stays not-ready for good) rather
  ///     than silently diverging. Every replica therefore serves the same
  ///     topology no matter whose CLI won the race.
  ///   "w|<tenant>|<weight>" — DWRR weight update, applied to all shards.
  /// Fields parse strictly (api::parse_num); a malformed entry applies as
  /// not-ok on every replica alike.
  void on_raft_apply(uint64_t index, const std::string& cmd) {
    std::vector<std::string> f = api::split(cmd, '|');
    bool ok = false;
    if (f.size() == 3 && f[0] == "cfg") {
      ok = apply_config(f[1], f[2]);
    } else if (f.size() == 3 && f[0] == "w") {
      ok = apply_weight(f[1], f[2]);
    }
    // If this entry was a SETW this replica proposed, answer the client now
    // — SETW_OK strictly after commit+apply.
    auto it = pending_setw_.find(index);
    if (it == pending_setw_.end()) return;
    net::Frame resp;
    if (ok) {
      resp.op = net::Opcode::setw_ok;
    } else {
      resp.op = net::Opcode::err;
      resp.payload = kSetwRejected;
    }
    reply_setw(it->second, std::move(resp));
    pending_setw_.erase(it);
  }

  bool apply_config(const std::string& shards, const std::string& backing) {
    if (config_applied_) return true;  // a later leader's re-proposal
    config_applied_ = true;
    bool match = false;
    try {
      match = api::parse_num<int>(shards, "config shards", 1, kMaxShards) ==
                  cfg_.shards &&
              backing == cfg_.backing;
    } catch (const std::invalid_argument&) {
    }
    if (!match) {
      std::fprintf(stderr,
                   "broker: replicated config (%s shards, %s) disagrees "
                   "with CLI (%d shards, %s); this replica will NOT "
                   "serve — fix the flags and restart\n",
                   shards.c_str(), backing.c_str(), cfg_.shards,
                   cfg_.backing.c_str());
      return false;
    }
    map_ready_.store(true, std::memory_order_release);
    return true;
  }

  bool apply_weight(const std::string& tenant, const std::string& weight) {
    if (!map_ready_.load(std::memory_order_acquire)) return false;
    try {
      return map_.set_weight_all(
          api::parse_num<int>(tenant, "SETW tenant", 0, 4095),
          api::parse_num<uint32_t>(weight, "SETW weight", 1));
    } catch (const std::invalid_argument&) {
      return false;
    }
  }

  /// Role transitions (raft thread). A new leader proposes this replica's
  /// config while no config entry has applied; duplicates are ignored at
  /// apply. On stepping down, fail every pending SETW with ERR_NOT_LEADER —
  /// the entry may still commit under the new leader, but this replica can
  /// no longer promise to report it, and the weight update is idempotent
  /// for a retrying client.
  void on_raft_role(bool leader) {
    if (leader) {
      if (!config_applied_)
        raft_->propose(
            "cfg|" + std::to_string(cfg_.shards) + "|" + cfg_.backing, {});
      return;
    }
    for (auto& [idx, p] : pending_setw_) {
      net::Frame resp;
      fill_not_leader(resp);
      reply_setw(p, std::move(resp));
    }
    pending_setw_.clear();
  }

  /// Posts the deferred answer to a SETW this replica proposed (raft
  /// thread) to the loop that read it, which writes it to the connection;
  /// `resp` carries the opcode and payload.
  void reply_setw(const PendingSetw& p, net::Frame resp) {
    resp.key = p.key;
    resp.flags = p.flags;
    std::string buf;
    net::encode_frame(resp, buf);
    loops_[static_cast<size_t>(p.loop)]->post(p.conn, std::move(buf));
  }

  BrokerConfig cfg_;
  ShardMap map_;
  // Serving: from birth single-node, from the matching config's apply in
  // cluster mode.
  std::atomic<bool> map_ready_;
  std::deque<ShardState> shard_state_;
  std::vector<LoopScratch> scratch_;  // loop i's run buffers
  std::vector<std::unique_ptr<net::EventLoop>> loops_;  // loop i = slot i
  std::unique_ptr<net::EventLoop> acceptor_;  // owns the listeners
  std::unique_ptr<raft::RaftService> raft_;  // null outside cluster mode
  // Raft thread only: SETWs awaiting their entry's apply (log index ->
  // requester), and whether any config entry has applied.
  std::unordered_map<uint64_t, PendingSetw> pending_setw_;
  bool config_applied_ = false;
  std::vector<std::thread> loop_threads_;
  std::thread accept_thread_;
  uint16_t tcp_port_ = 0;
  bool started_ = false;
  std::atomic<bool> stopped_{false};
};

}  // namespace wfq::broker
