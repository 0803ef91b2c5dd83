// Socket transport + service thread wrapping raft::Node (ISSUE 10): the
// piece that runs the SAME consensus core the sim harness drives, but over
// real wfb-v1 frames between broker replicas.
//
// Topology: every replica listens on its own client TCP port (the one
// listener serves clients AND peers), and DIALS one outbound connection to
// each peer's port. Messages travel simplex: node A sends to B over A's
// outbound link; B's replies come back over B's own outbound link to A. The
// inbound half rides the broker's existing event loop — raft-band frames
// arriving in on_batch are handed to deliver_frame(), which decodes and
// queues them for the raft thread. No select/poll logic is added anywhere;
// the event loop stays the only reader.
//
// Threading: one raft thread owns the tick loop; a mutex (mu_) serializes
// the Node against propose() and deliver_frame() from the broker's event
// loop threads. Three things deliberately happen OUTSIDE mu_:
//   - outbound sends: buffered while the node runs, flushed after the lock
//     drops — the node never blocks on a socket;
//   - apply/role callbacks: queued under mu_, delivered on the RAFT THREAD
//     only, under a separate cb_mu_ (acquired before re-taking mu_ to swap
//     the queue, so delivery order always matches apply order). propose()
//     never delivers inline, which lets callers atomically register
//     index-keyed completions after proposing. Callbacks must not call
//     propose() (cb_mu_ is held); use the bootstrap hook for leader-driven
//     proposals;
//   - the bootstrap hook: polled on the raft thread while leader, at most
//     once per election timeout; non-nullopt return values are proposed.
//     The broker uses it to (re-)propose the cluster config until the
//     replicated state machine has one — idempotent by apply contract.
//
// Peer links use short connect/send timeouts and on any failure just drop
// the message and reconnect later (rate limited): raft is built on lossy
// links, so "drop and let the protocol retry" needs no bookkeeping.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/frame.hpp"
#include "net/socket.hpp"
#include "platform/affinity.hpp"
#include "raft/raft.hpp"
#include "raft/wire.hpp"

namespace wfq::raft {

struct RaftServiceConfig {
  int node_id = 0;
  /// TCP client/peer port per node id; size = cluster size. The entry at
  /// node_id is this replica's own port (unused for dialing).
  std::vector<uint16_t> peer_ports;
  uint64_t election_timeout_ms = 150;
  uint64_t seed = 0;  // 0 -> node_id + 1
  uint64_t connect_timeout_ms = 100;
  uint64_t send_timeout_ms = 20;
  uint64_t reconnect_backoff_ms = 50;
};

class RaftService {
 public:
  /// `apply` fires once per committed entry, in index order (empty cmd =
  /// election no-op, already filtered out). `on_role` fires on leadership
  /// transitions. Both run WITHOUT the node lock, serialized under the
  /// callback lock; they may call propose() and the lock-free accessors.
  using ApplyFn = std::function<void(uint64_t index, const std::string& cmd)>;
  using RoleFn = std::function<void(bool is_leader)>;
  /// Polled on the raft thread while this replica is leader (at most once
  /// per election timeout); a returned command is proposed.
  using BootstrapFn = std::function<std::optional<std::string>()>;

  RaftService(RaftServiceConfig cfg, ApplyFn apply, RoleFn on_role,
              BootstrapFn bootstrap = nullptr)
      : cfg_(cfg),
        apply_(std::move(apply)),
        on_role_(std::move(on_role)),
        bootstrap_(std::move(bootstrap)) {
    NodeConfig nc;
    nc.id = cfg.node_id;
    nc.peers = static_cast<int>(cfg.peer_ports.size());
    nc.election_timeout_ms = cfg.election_timeout_ms;
    nc.seed = cfg.seed != 0 ? cfg.seed
                            : static_cast<uint64_t>(cfg.node_id) + 1;
    node_ = std::make_unique<Node>(
        nc,
        [this](int to, const Message& m) { outbox_.emplace_back(to, m); },
        [this](uint64_t idx, const std::string& cmd) {
          if (!cmd.empty()) applied_queue_.emplace_back(idx, cmd);
        });
    links_.resize(cfg.peer_ports.size());
    start_ = std::chrono::steady_clock::now();
  }

  ~RaftService() { stop(); }
  RaftService(const RaftService&) = delete;
  RaftService& operator=(const RaftService&) = delete;

  void start() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      node_->start(now_ms());
      publish_locked();
    }
    after_node_work();
    thread_ = std::thread([this] {
      platform::name_thread("wfb-raft");
      run();
    });
  }

  void stop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    for (Link& l : links_) l.fd.reset();
  }

  /// Event-loop thread: hand over a raft-band frame from a peer. Malformed
  /// bodies are dropped (see wire.hpp). Processing happens on the raft
  /// thread at its next wakeup.
  void deliver_frame(const net::Frame& f) {
    Message m;
    if (!from_frame(f, m)) return;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stopped_) return;
      inbox_.push_back(std::move(m));
    }
    cv_.notify_all();
  }

  /// Any thread: propose a command. Returns the log index, or 0 when this
  /// replica is not the leader (caller redirects via leader_hint()). The
  /// apply callback for the entry ALWAYS fires later on the raft thread —
  /// never inline here — so a caller can atomically {propose + register a
  /// completion keyed by the returned index} under its own lock without
  /// racing the apply (the broker's pending-SETW table relies on this).
  uint64_t propose(const std::string& cmd) {
    uint64_t idx;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stopped_) return 0;
      idx = node_->propose(cmd, now_ms());
      publish_locked();
    }
    flush_outbox();
    cv_.notify_all();  // raft thread delivers any queued applies/roles
    return idx;
  }

  // Lock-free snapshots for the request path (ENQ/DEQ gating, STAT).
  bool is_leader() const { return is_leader_.load(std::memory_order_acquire); }
  int leader_hint() const {
    return leader_hint_.load(std::memory_order_acquire);
  }
  uint64_t term() const { return term_.load(std::memory_order_acquire); }
  uint64_t commit_index() const {
    return commit_.load(std::memory_order_acquire);
  }
  uint64_t last_applied() const {
    return applied_.load(std::memory_order_acquire);
  }
  int node_id() const { return cfg_.node_id; }
  int cluster_size() const { return static_cast<int>(cfg_.peer_ports.size()); }

 private:
  struct Link {
    net::FdHandle fd;
    uint64_t next_attempt_ms = 0;
  };

  uint64_t now_ms() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

  void run() {
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mu_);
        if (stopped_) break;
        if (inbox_.empty())
          cv_.wait_for(lk, std::chrono::milliseconds(2));
        if (stopped_) break;
        while (!inbox_.empty()) {
          Message m = std::move(inbox_.front());
          inbox_.pop_front();
          node_->on_message(m, now_ms());
        }
        node_->tick(now_ms());
        publish_locked();
      }
      after_node_work();
      maybe_bootstrap();
    }
    after_node_work();  // deliver anything queued before stop
  }

  /// Caller holds mu_: refresh the lock-free snapshots and record role
  /// transitions for out-of-lock delivery.
  void publish_locked() {
    term_.store(node_->term(), std::memory_order_release);
    leader_hint_.store(node_->leader_hint(), std::memory_order_release);
    commit_.store(node_->commit_index(), std::memory_order_release);
    applied_.store(node_->last_applied(), std::memory_order_release);
    bool leader = node_->role() == Role::leader;
    if (leader != last_published_leader_) {
      last_published_leader_ = leader;
      role_queue_.push_back(leader);
    }
    is_leader_.store(leader, std::memory_order_release);
  }

  /// Flush sends and deliver callbacks, with no node lock held. cb_mu_ is
  /// taken BEFORE mu_ for the queue swap so two racing drainers cannot
  /// reorder apply delivery.
  void after_node_work() {
    flush_outbox();
    std::lock_guard<std::mutex> cb(cb_mu_);
    std::vector<std::pair<uint64_t, std::string>> applies;
    std::vector<bool> roles;
    {
      std::lock_guard<std::mutex> lk(mu_);
      applies.swap(applied_queue_);
      roles.swap(role_queue_);
    }
    for (auto& [idx, cmd] : applies)
      if (apply_) apply_(idx, cmd);
    for (bool leader : roles)
      if (on_role_) on_role_(leader);
  }

  /// Raft thread only: while leader, poll the bootstrap hook (throttled to
  /// one call per election timeout) and propose what it returns.
  void maybe_bootstrap() {
    if (!bootstrap_ || !is_leader()) return;
    uint64_t now = now_ms();
    if (now < next_bootstrap_ms_) return;
    next_bootstrap_ms_ = now + cfg_.election_timeout_ms;
    if (std::optional<std::string> cmd = bootstrap_()) propose(*cmd);
  }

  /// Sends everything the node queued. Called without mu_; outbox_ is
  /// filled under mu_ and swapped out here, so socket writes happen
  /// lock-free. flush_mu_ serializes concurrent flushers so per-link fds
  /// are not raced.
  void flush_outbox() {
    std::vector<std::pair<int, Message>> batch;
    {
      std::lock_guard<std::mutex> lk(mu_);
      batch.swap(outbox_);
    }
    if (batch.empty()) return;
    std::lock_guard<std::mutex> lk(flush_mu_);
    for (auto& [to, msg] : batch) send_to(to, msg);
  }

  void send_to(int to, const Message& m) {
    Link& l = links_[static_cast<size_t>(to)];
    uint64_t now = now_ms();
    if (!l.fd.valid()) {
      if (now < l.next_attempt_ms) return;  // rate-limit reconnects
      l.next_attempt_ms = now + cfg_.reconnect_backoff_ms;
      l.fd = net::connect_tcp_timeout(cfg_.peer_ports[static_cast<size_t>(to)],
                                      cfg_.connect_timeout_ms);
      if (!l.fd.valid()) return;  // peer down: message dropped, raft retries
      net::set_send_timeout(l.fd.get(), cfg_.send_timeout_ms);
    }
    std::string out;
    net::encode_frame(to_frame(m, cfg_.node_id), out);
    if (!net::write_all(l.fd.get(), out)) {
      l.fd.reset();  // stalled or dead peer: drop and redial later
      l.next_attempt_ms = now + cfg_.reconnect_backoff_ms;
    }
  }

  RaftServiceConfig cfg_;
  ApplyFn apply_;
  RoleFn on_role_;
  BootstrapFn bootstrap_;
  std::unique_ptr<Node> node_;
  std::chrono::steady_clock::time_point start_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::deque<Message> inbox_;
  std::vector<std::pair<int, Message>> outbox_;
  std::vector<std::pair<uint64_t, std::string>> applied_queue_;
  std::vector<bool> role_queue_;
  bool last_published_leader_ = false;
  std::thread thread_;

  std::mutex cb_mu_;    // callback delivery order
  std::mutex flush_mu_;  // peer link fds
  std::vector<Link> links_;
  uint64_t next_bootstrap_ms_ = 0;  // raft thread only

  std::atomic<bool> is_leader_{false};
  std::atomic<int> leader_hint_{-1};
  std::atomic<uint64_t> term_{0};
  std::atomic<uint64_t> commit_{0};
  std::atomic<uint64_t> applied_{0};
};

}  // namespace wfq::raft
