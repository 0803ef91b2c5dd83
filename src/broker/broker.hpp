// Broker daemon core (ISSUE 8 tentpole): owns a ShardMap of registry-built
// backings, an event-loop I/O thread, and one servicer thread per shard
// group. Runs equally as the `broker` binary (broker_main.cpp wires signals
// to stop()) and in-process (the E14 experiments and the end-to-end CTest
// construct a Broker on a temp UDS path directly — same code path, real
// sockets).
//
// Data flow: the I/O thread decodes each connection's read burst into a
// frame batch (net::EventLoop), buckets it by shard group, and pushes ONE
// work-queue append per group per burst. Each servicer drains its group's
// queue in batches, performs the queue/service ops on the shards it owns,
// encodes all responses for a connection into one buffer, and send()s
// directly from its own thread — response syscalls scale with servicers
// instead of funneling through the I/O thread.
//
// Shutdown (stop(), also the SIGINT/SIGTERM path): stop accepting and
// reading, then drain — every request already read is processed and its
// response flushed — then join and leave the final counters readable
// (report()). A group work queue that hits its backlog cap blocks the I/O
// thread (backpressure through the kernel socket buffers), never drops.
//
// Cluster mode (ISSUE 10): with cfg.cluster set, the broker is one replica
// of an N-node raft group (src/raft/). The replicated state machine is the
// broker METADATA — shard count, backing key, DWRR tenant weights — not the
// queue data: the shard map is built when the replicated config entry
// applies, SETW commits through the log before acking, and only the leader
// serves ENQ/DEQ (followers answer ERR_NOT_LEADER + hint; clients follow
// it, see loadgen's ClusterClient). Queue contents are per-replica, so a
// failover can lose items enqueued on the dead leader, and a client that
// retries a timed-out ENQ can duplicate one — there is deliberately NO
// exactly-once data contract across failover; the replicated guarantee
// covers metadata only. Documented in docs/PROTOCOL.md.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
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

struct BrokerConfig {
  int shards = 1;
  /// Servicer threads; 0 = one per shard. Shard s belongs to group
  /// s % groups, so shards spread round-robin over servicers.
  int groups = 0;
  /// Backing key per shard: any make_queue or make_service spelling.
  std::string backing = "ubq";
  /// Listeners: either or both. An empty uds_path and tcp_port < 0 is a
  /// configuration error (a broker nobody can reach).
  std::string uds_path;
  int tcp_port = -1;  // -1 = none, 0 = kernel-picked (read back via tcp_port())
  /// Pin servicer threads to cores (platform::pin_thread_to_core; no-op
  /// where unsupported).
  bool pin_threads = false;
  /// Sizes fixed-segment backings (api::sized_config contract).
  int64_t expected_ops = int64_t{1} << 18;

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
  };

  explicit Broker(BrokerConfig cfg) : cfg_(std::move(cfg)) {
    if (cfg_.uds_path.empty() && cfg_.tcp_port < 0)
      throw std::invalid_argument(
          "broker::Broker: need a UDS path and/or a TCP port to listen on");
    if (cfg_.cluster) {
      size_t n = cfg_.peer_ports.size();
      if (n < 1 || cfg_.node_id < 0 || static_cast<size_t>(cfg_.node_id) >= n)
        throw std::invalid_argument(
            "broker::Broker: cluster mode needs peer_ports with node_id in "
            "range");
      if (cfg_.tcp_port <= 0 ||
          cfg_.peer_ports[static_cast<size_t>(cfg_.node_id)] !=
              static_cast<uint16_t>(cfg_.tcp_port))
        throw std::invalid_argument(
            "broker::Broker: cluster mode requires tcp_port == "
            "peer_ports[node_id] (peers dial fixed ports)");
    }
    if (cfg_.groups <= 0 || cfg_.groups > cfg_.shards)
      cfg_.groups = cfg_.shards;
    if (!cfg_.cluster) {
      // Single-node: the map exists from birth, exactly as before cluster
      // mode was added. Cluster replicas build it when the replicated
      // config entry applies (see on_raft_apply).
      map_ = std::make_unique<ShardMap>(cfg_.shards, cfg_.backing,
                                        cfg_.expected_ops);
      map_ready_.store(true, std::memory_order_release);
    }
    for (int s = 0; s < cfg_.shards; ++s) shard_state_.emplace_back();
    for (int g = 0; g < cfg_.groups; ++g) groups_.emplace_back();
  }

  ~Broker() { stop(); }
  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  /// Binds listeners and spawns the servicer + I/O threads. Throws on bind
  /// failure (daemon has nothing to fall back to).
  void start() {
    net::EventLoop::Callbacks cbs;
    cbs.on_batch = [this](uint64_t conn, std::vector<net::Frame>& batch) {
      route(conn, batch);
    };
    loop_ = std::make_unique<net::EventLoop>(std::move(cbs));
    if (!cfg_.uds_path.empty())
      loop_->add_listener(net::listen_uds(cfg_.uds_path));
    if (cfg_.tcp_port >= 0) {
      net::FdHandle fd = net::listen_tcp(static_cast<uint16_t>(cfg_.tcp_port));
      tcp_port_ = net::bound_tcp_port(fd.get());
      loop_->add_listener(std::move(fd));
    }
    // The RaftService must exist before the I/O thread can route a frame:
    // route() reads raft_ unsynchronized, which is only sound because after
    // this point raft_ never changes until stop(). Peer dials retry, so
    // starting it before the listeners' first accept costs nothing.
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
          [this](bool leader) { on_raft_role(leader); },
          [this]() -> std::optional<std::string> {
            // Leader bootstrap: until SOME config entry has applied, keep
            // proposing ours. Duplicates are idempotent at apply.
            if (map_ready_.load(std::memory_order_acquire))
              return std::nullopt;
            return "cfg|" + std::to_string(cfg_.shards) + "|" + cfg_.backing;
          });
      raft_->start();
    }
    for (int g = 0; g < cfg_.groups; ++g)
      groups_[static_cast<size_t>(g)].thread =
          std::thread([this, g] { servicer_main(g); });
    io_thread_ = std::thread([this] {
      if (cfg_.pin_threads) platform::pin_thread_to_core(0);
      loop_->run();
    });
    started_ = true;
  }

  /// Clean shutdown: stop reading, drain every already-read request through
  /// its servicer, flush responses, join. Idempotent; also the dtor path.
  void stop() {
    if (!started_ || stopped_.exchange(true)) return;
    // Cluster drain: silence raft FIRST — the leader stops heartbeating, so
    // the survivors elect a successor one election timeout later, while this
    // replica still drains every client request it already read.
    if (raft_) raft_->stop();
    loop_->stop();
    io_thread_.join();
    for (Group& g : groups_) {
      {
        std::lock_guard<std::mutex> lk(g.m);
        g.closed = true;
      }
      g.cv.notify_all();
    }
    for (Group& g : groups_) g.thread.join();
    // Every response is queued by now (servicers joined): flush the last
    // bytes out and close, so clients waiting on responses see EOF rather
    // than a silent socket.
    loop_->shutdown_flush_and_close();
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
            s.bad.load(std::memory_order_relaxed)};
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
         << ",\"bad\":" << c.bad;
      api::SpaceStats sp = ready ? map_->space_stats(s) : api::SpaceStats{};
      if (sp.known) {
        os << ",\"live_blocks\":" << sp.live_blocks
           << ",\"ebr_retired\":" << sp.ebr_retired;
      }
      std::vector<TenantRow> tenants =
          ready ? map_->tenant_rows(s) : std::vector<TenantRow>{};
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
  /// Per-group backlog cap: a full group blocks the I/O thread (kernel
  /// socket buffers then throttle the clients) instead of buffering
  /// without bound. 2^20 items ~ tens of MB worst case.
  static constexpr size_t kMaxBacklog = size_t{1} << 20;

  /// ERR payload for a SETW the shard map refused (both SETW paths).
  static constexpr const char* kSetwRejected =
      "SETW rejected: dwrr backing required, tenant in range, weight >= 1";

  /// A cluster-mode SETW awaiting its log entry's apply (the raft thread
  /// answers it; see on_raft_apply).
  struct PendingSetw {
    uint64_t conn = 0;
    uint32_t key = 0;
    uint16_t flags = 0;
  };

  struct WorkItem {
    uint64_t conn = 0;
    int shard = 0;
    net::Frame frame;
  };

  struct Group {
    std::mutex m;
    std::condition_variable cv;       // servicer waits: work or closed
    std::condition_variable cv_room;  // I/O thread waits: below cap
    std::deque<WorkItem> items;
    bool closed = false;
    std::thread thread;
  };

  struct ShardState {
    std::atomic<uint64_t> enq{0}, deq_hit{0}, deq_empty{0};
    std::atomic<uint64_t> ping{0}, stat{0}, bad{0};
  };

  /// I/O-thread callback: bucket the burst by group, one append per group.
  /// Raft-band frames peel off to the raft service here — peer traffic
  /// never enters the work queues, so a backlogged servicer cannot delay a
  /// heartbeat.
  void route(uint64_t conn, std::vector<net::Frame>& batch) {
    route_scratch_.assign(static_cast<size_t>(cfg_.groups), {});
    for (net::Frame& f : batch) {
      if (raft_ && f.op >= net::Opcode::raft_vote_req &&
          f.op <= net::Opcode::raft_append_resp) {
        raft_->deliver_frame(f);
        continue;
      }
      // The free shard_of, not ShardMap's: computable before the
      // replicated map exists (cluster replicas must route — and reject —
      // requests while still waiting for the config entry).
      int shard = shard_of(f.key, cfg_.shards);
      route_scratch_[static_cast<size_t>(shard % cfg_.groups)].push_back(
          WorkItem{conn, shard, std::move(f)});
    }
    for (int g = 0; g < cfg_.groups; ++g) {
      std::vector<WorkItem>& bucket = route_scratch_[static_cast<size_t>(g)];
      if (bucket.empty()) continue;
      Group& grp = groups_[static_cast<size_t>(g)];
      {
        std::unique_lock<std::mutex> lk(grp.m);
        grp.cv_room.wait(lk, [&] {
          return grp.items.size() < kMaxBacklog || grp.closed;
        });
        for (WorkItem& w : bucket) grp.items.push_back(std::move(w));
      }
      grp.cv.notify_one();
    }
  }

  /// Binds this servicer's shards once the map exists. Single-node brokers
  /// bind immediately (the pre-cluster behavior); cluster replicas bind on
  /// the first batch that arrives after the replicated config applied.
  bool bind_if_ready(int g, bool& bound) {
    if (bound) return true;
    if (!map_ready_.load(std::memory_order_acquire)) return false;
    for (int s = g; s < cfg_.shards; s += cfg_.groups) map_->bind_servicer(s);
    bound = true;
    return true;
  }

  void servicer_main(int g) {
    if (cfg_.pin_threads) platform::pin_thread_to_core(1 + g);
    bool bound = false;
    bind_if_ready(g, bound);
    Group& grp = groups_[static_cast<size_t>(g)];
    std::deque<WorkItem> local;
    std::unordered_map<uint64_t, std::string> out;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(grp.m);
        grp.cv.wait(lk, [&] { return !grp.items.empty() || grp.closed; });
        if (grp.items.empty() && grp.closed) break;
        local.swap(grp.items);
      }
      grp.cv_room.notify_all();
      out.clear();
      bool ready = bind_if_ready(g, bound);
      for (WorkItem& w : local) handle(w, out[w.conn], ready);
      local.clear();
      // One send per connection per batch: the whole burst of responses
      // is one buffer, one (usual-case) write syscall from this thread.
      for (auto& [conn, buf] : out) loop_->send(conn, std::move(buf));
    }
  }

  /// Leader/readiness gate for data-path requests in cluster mode:
  /// followers (and replicas still waiting for the replicated config)
  /// answer ERR_NOT_LEADER carrying the best leader hint, and the client
  /// redirects (docs/PROTOCOL.md). Single-node brokers never take it.
  bool not_leader(bool ready) const {
    return raft_ && (!ready || !raft_->is_leader());
  }

  void fill_not_leader(net::Frame& resp) const {
    resp.op = net::Opcode::err_not_leader;
    int hint = raft_ ? raft_->leader_hint() : -1;
    resp.payload = net::encode_u32(
        hint >= 0 ? static_cast<uint32_t>(hint) : 0xffffffffu);
  }

  /// Executes one request on its shard, appends the encoded response.
  /// `ready` = this servicer has a bound shard map (always true outside
  /// cluster mode).
  void handle(WorkItem& w, std::string& out, bool ready) {
    ShardState& st = shard_state_[static_cast<size_t>(w.shard)];
    net::Frame resp;
    resp.key = w.frame.key;
    resp.flags = w.frame.flags;
    switch (w.frame.op) {
      case net::Opcode::enq: {
        if (not_leader(ready)) {
          fill_not_leader(resp);
          break;
        }
        uint64_t v = 0;
        if (!net::decode_value(w.frame.payload, v)) {
          st.bad.fetch_add(1, std::memory_order_relaxed);
          resp.op = net::Opcode::err;
          resp.payload = "ENQ payload must be exactly 8 bytes";
          break;
        }
        map_->enqueue(w.shard, w.frame.key, v);
        st.enq.fetch_add(1, std::memory_order_relaxed);
        resp.op = net::Opcode::enq_ok;
        break;
      }
      case net::Opcode::deq: {
        if (not_leader(ready)) {
          fill_not_leader(resp);
          break;
        }
        int tenant = -1;
        std::optional<uint64_t> got = map_->dequeue(w.shard, tenant);
        if (got) {
          st.deq_hit.fetch_add(1, std::memory_order_relaxed);
          resp.op = net::Opcode::deq_ok;
          resp.payload = net::encode_value(*got);
          // dwrr backings report which tenant the scheduler served; the
          // 16-bit flags field carries it (tenant counts are <= 4096).
          if (tenant >= 0) resp.flags = static_cast<uint16_t>(tenant);
        } else {
          st.deq_empty.fetch_add(1, std::memory_order_relaxed);
          resp.op = net::Opcode::deq_empty;
        }
        break;
      }
      case net::Opcode::stat:
        st.stat.fetch_add(1, std::memory_order_relaxed);
        resp.op = net::Opcode::stat_ok;
        resp.payload = stat_json();
        break;
      case net::Opcode::ping:
        st.ping.fetch_add(1, std::memory_order_relaxed);
        resp.op = net::Opcode::pong;
        resp.payload = std::move(w.frame.payload);
        break;
      case net::Opcode::setw: {
        uint32_t tenant = 0, weight = 0;
        if (!net::decode_u32_pair(w.frame.payload, tenant, weight)) {
          st.bad.fetch_add(1, std::memory_order_relaxed);
          resp.op = net::Opcode::err;
          resp.payload = "SETW payload must be 8 bytes: u32 tenant, u32 weight";
          break;
        }
        if (not_leader(ready)) {
          fill_not_leader(resp);
          break;
        }
        if (raft_) {
          // Replicate through the log; the response is deferred until the
          // entry APPLIES (on_raft_apply), so SETW_OK means "committed and
          // visible on this leader", not "received". pending_mu_ is held
          // across propose-and-register: the raft thread cannot deliver the
          // apply until it can take pending_mu_, so registration wins even
          // if the entry commits instantly.
          std::lock_guard<std::mutex> lk(pending_mu_);
          uint64_t idx = raft_->propose("w|" + std::to_string(tenant) + "|" +
                                        std::to_string(weight));
          if (idx == 0) {
            fill_not_leader(resp);
            break;
          }
          pending_setw_[idx] = PendingSetw{w.conn, w.frame.key, w.frame.flags};
          return;  // no response yet
        }
        if (map_->set_weight_all(static_cast<int>(tenant), weight)) {
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
                       net::opcode_name(w.frame.op);
        break;
    }
    net::encode_frame(resp, out);
  }

  /// Raft apply (raft thread, index order, exactly once per committed
  /// entry). Two command shapes, both replica-deterministic:
  ///   "cfg|<shards>|<backing>" — the cluster topology. The FIRST one to
  ///     apply builds the shard map; every replica therefore serves the
  ///     same topology no matter whose CLI won the race. A replica whose
  ///     own CLI flags disagree with the committed config refuses to serve
  ///     (loud stderr, stays not-ready) rather than silently diverging.
  ///     Later duplicates (bootstrap re-proposals) are ignored.
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
    std::optional<PendingSetw> p;
    {
      std::lock_guard<std::mutex> lk(pending_mu_);
      auto it = pending_setw_.find(index);
      if (it != pending_setw_.end()) {
        p = it->second;
        pending_setw_.erase(it);
      }
    }
    if (p) {
      net::Frame resp;
      if (ok) {
        resp.op = net::Opcode::setw_ok;
      } else {
        resp.op = net::Opcode::err;
        resp.payload = kSetwRejected;
      }
      reply_setw(*p, std::move(resp));
    }
  }

  bool apply_config(const std::string& shards, const std::string& backing) {
    if (map_ready_.load(std::memory_order_acquire))
      return true;  // duplicate bootstrap proposal
    bool match = false;
    try {
      match = api::parse_num<int>(shards, "config shards", 1, 4096) ==
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
    map_ = std::make_unique<ShardMap>(cfg_.shards, cfg_.backing,
                                      cfg_.expected_ops);
    map_ready_.store(true, std::memory_order_release);
    return true;
  }

  bool apply_weight(const std::string& tenant, const std::string& weight) {
    if (!map_ready_.load(std::memory_order_acquire)) return false;
    try {
      return map_->set_weight_all(
          api::parse_num<int>(tenant, "SETW tenant", 0, 4095),
          api::parse_num<uint32_t>(weight, "SETW weight", 1));
    } catch (const std::invalid_argument&) {
      return false;
    }
  }

  /// Role transitions (raft thread). On stepping down, fail every pending
  /// SETW with ERR_NOT_LEADER — the entry may still commit under the new
  /// leader, but this replica can no longer promise to report it, and the
  /// weight update is idempotent for a retrying client.
  void on_raft_role(bool leader) {
    if (leader) return;
    std::unordered_map<uint64_t, PendingSetw> orphans;
    {
      std::lock_guard<std::mutex> lk(pending_mu_);
      orphans.swap(pending_setw_);
    }
    for (auto& [idx, p] : orphans) {
      net::Frame resp;
      fill_not_leader(resp);
      reply_setw(p, std::move(resp));
    }
  }

  /// Sends the deferred answer to a SETW this replica proposed (raft
  /// thread); `resp` carries the opcode and payload.
  void reply_setw(const PendingSetw& p, net::Frame resp) {
    resp.key = p.key;
    resp.flags = p.flags;
    std::string buf;
    net::encode_frame(resp, buf);
    loop_->send(p.conn, std::move(buf));
  }

  BrokerConfig cfg_;
  std::unique_ptr<ShardMap> map_;  // cluster mode: built at config apply
  std::atomic<bool> map_ready_{false};
  std::deque<ShardState> shard_state_;
  std::deque<Group> groups_;
  std::unique_ptr<net::EventLoop> loop_;
  std::unique_ptr<raft::RaftService> raft_;  // null outside cluster mode
  std::mutex pending_mu_;
  std::unordered_map<uint64_t, PendingSetw> pending_setw_;  // log idx -> conn
  std::thread io_thread_;
  std::vector<std::vector<WorkItem>> route_scratch_;  // I/O thread only
  uint16_t tcp_port_ = 0;
  bool started_ = false;
  std::atomic<bool> stopped_{false};
};

}  // namespace wfq::broker
