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
// posts them to the raft thread. No select/poll logic is added anywhere;
// the event loop stays the only reader.
//
// Threading: one raft thread owns everything — it alone calls the Node,
// writes the peer links and runs the apply and role callbacks, so none of
// that state is locked. Other threads reach it through one mailbox (mu_):
// deliver_frame() posts peer messages and propose() posts proposals. Each
// raft-thread step takes the whole mailbox, feeds the messages to the node,
// then the proposals, then ticks, and only after that delivers the role
// change and the applies the step produced. A proposal's completion runs
// right after Node::propose returns, so it sees its log index before that
// entry's apply runs, even in a 1-replica group, which commits inside
// propose. The callbacks may call propose(); what they propose is taken at
// the next step. Readers that are not the raft thread (the broker's request
// path, STAT) see the node through lock-free snapshots.
//
// Peer links use short connect/send timeouts and on any failure just drop
// the message and reconnect later (rate limited): raft is built on lossy
// links, so "drop and let the protocol retry" needs no bookkeeping.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
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
};

class RaftService {
 public:
  /// `apply` fires once per committed entry, in index order (empty cmd =
  /// election no-op, already filtered out). `on_role` fires on leadership
  /// transitions, before the applies of the same step. Both run on the raft
  /// thread; they may call propose() and the lock-free accessors.
  using ApplyFn = std::function<void(uint64_t index, const std::string& cmd)>;
  using RoleFn = std::function<void(bool is_leader)>;
  /// A proposal's completion (raft thread): the entry's log index, or 0
  /// when this replica was not the leader.
  using ProposeFn = std::function<void(uint64_t index)>;

  RaftService(RaftServiceConfig cfg, ApplyFn apply, RoleFn on_role)
      : cfg_(cfg), apply_(std::move(apply)), on_role_(std::move(on_role)) {
    NodeConfig nc;
    nc.id = cfg.node_id;
    nc.peers = static_cast<int>(cfg.peer_ports.size());
    nc.election_timeout_ms = cfg.election_timeout_ms;
    nc.seed = cfg.seed != 0 ? cfg.seed
                            : static_cast<uint64_t>(cfg.node_id) + 1;
    node_ = std::make_unique<Node>(
        nc, [this](int to, const Message& m) { send_to(to, m); },
        [this](uint64_t idx, const std::string& cmd) {
          if (!cmd.empty()) committed_.emplace_back(idx, cmd);
        });
    links_.resize(cfg.peer_ports.size());
    start_ = std::chrono::steady_clock::now();
  }

  ~RaftService() { stop(); }
  RaftService(const RaftService&) = delete;
  RaftService& operator=(const RaftService&) = delete;

  void start() {
    thread_ = std::thread([this] {
      platform::name_thread("wfb-raft");
      run();
    });
  }

  /// Joins the raft thread. Proposals still in the mailbox complete with 0
  /// on the raft thread before it exits; later ones are refused.
  void stop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stopped_) return;
      stopped_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  /// Any thread: hand over a raft-band frame from a peer. Malformed bodies
  /// are dropped (see wire.hpp). The raft thread takes it at its next step.
  void deliver_frame(const net::Frame& f) {
    Message m;
    if (!from_frame(f, m)) return;
    post([&] { inbox_.push_back(std::move(m)); });
  }

  /// Any thread: propose `cmd`. `on_index` (may be empty) runs on the raft
  /// thread once the node has taken the proposal, with the entry's log
  /// index or 0 when this replica is not the leader (the caller redirects
  /// via leader_hint()); it runs before the entry's apply. False after
  /// stop(): the proposal is refused and `on_index` never runs.
  bool propose(std::string cmd, ProposeFn on_index) {
    return post([&] {
      proposals_.push_back({std::move(cmd), std::move(on_index)});
    });
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
  // Peer link timings: a dial or a send that takes longer drops the message
  // (raft retries it); a failed dial is not retried for kReconnectBackoffMs.
  static constexpr uint64_t kConnectTimeoutMs = 100;
  static constexpr uint64_t kSendTimeoutMs = 20;
  static constexpr uint64_t kReconnectBackoffMs = 50;

  struct Link {
    net::FdHandle fd;
    uint64_t next_attempt_ms = 0;
  };

  struct Proposal {
    std::string cmd;
    ProposeFn on_index;
  };

  uint64_t now_ms() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

  /// Runs `add` on the mailbox under mu_ and wakes the raft thread; false
  /// (nothing added) once stopped.
  template <class Add>
  bool post(Add add) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stopped_) return false;
      add();
    }
    cv_.notify_one();
    return true;
  }

  /// The raft thread: one step per mailbox wakeup or 2 ms tick.
  void run() {
    node_->start(now_ms());
    finish_step();
    std::vector<Message> msgs;
    std::vector<Proposal> props;
    for (;;) {
      bool stopping = false;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait_for(lk, std::chrono::milliseconds(2), [this] {
          return stopped_ || !inbox_.empty() || !proposals_.empty();
        });
        stopping = stopped_;
        msgs.swap(inbox_);
        props.swap(proposals_);
      }
      if (stopping) {
        for (Proposal& p : props)
          if (p.on_index) p.on_index(0);
        break;
      }
      const uint64_t now = now_ms();
      for (const Message& m : msgs) node_->on_message(m, now);
      for (Proposal& p : props) {
        uint64_t idx = node_->propose(p.cmd, now);
        if (p.on_index) p.on_index(idx);
      }
      node_->tick(now);
      finish_step();
      msgs.clear();
      props.clear();
    }
    for (Link& l : links_) l.fd.reset();
  }

  /// After a node step: refresh the lock-free snapshots, then run the role
  /// callback (if leadership changed) and the applies the step produced.
  /// The role change goes first: a leader deposed in this step answers its
  /// pending proposals as not-leader before an entry another leader wrote
  /// at their index applies.
  void finish_step() {
    term_.store(node_->term(), std::memory_order_release);
    leader_hint_.store(node_->leader_hint(), std::memory_order_release);
    commit_.store(node_->commit_index(), std::memory_order_release);
    applied_.store(node_->last_applied(), std::memory_order_release);
    const bool leader = node_->role() == Role::leader;
    if (leader != is_leader_.load(std::memory_order_relaxed)) {
      is_leader_.store(leader, std::memory_order_release);
      if (on_role_) on_role_(leader);
    }
    for (auto& [idx, cmd] : committed_)
      if (apply_) apply_(idx, cmd);
    committed_.clear();
  }

  /// Node send callback (raft thread): write one message to peer `to`,
  /// dialing first if the link is down.
  void send_to(int to, const Message& m) {
    Link& l = links_[static_cast<size_t>(to)];
    uint64_t now = now_ms();
    if (!l.fd.valid()) {
      if (now < l.next_attempt_ms) return;  // rate-limit reconnects
      l.next_attempt_ms = now + kReconnectBackoffMs;
      l.fd = net::connect_tcp_timeout(cfg_.peer_ports[static_cast<size_t>(to)],
                                      kConnectTimeoutMs);
      if (!l.fd.valid()) return;  // peer down: message dropped, raft retries
      net::set_send_timeout(l.fd.get(), kSendTimeoutMs);
    }
    std::string out;
    net::encode_frame(to_frame(m, cfg_.node_id), out);
    if (!net::write_all(l.fd.get(), out)) {
      l.fd.reset();  // stalled or dead peer: drop and redial later
      l.next_attempt_ms = now + kReconnectBackoffMs;
    }
  }

  RaftServiceConfig cfg_;
  ApplyFn apply_;
  RoleFn on_role_;
  std::chrono::steady_clock::time_point start_;

  // The mailbox: the one state shared with other threads.
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::vector<Message> inbox_;
  std::vector<Proposal> proposals_;

  // Raft thread only.
  std::unique_ptr<Node> node_;
  std::vector<Link> links_;
  std::vector<std::pair<uint64_t, std::string>> committed_;  // this step's

  std::atomic<bool> is_leader_{false};
  std::atomic<int> leader_hint_{-1};
  std::atomic<uint64_t> term_{0};
  std::atomic<uint64_t> commit_{0};
  std::atomic<uint64_t> applied_{0};

  std::thread thread_;  // the raft thread; last, after all it uses
};

}  // namespace wfq::raft
