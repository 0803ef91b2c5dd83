// Socket transport + service thread wrapping raft::Node: the piece that
// runs the SAME consensus core the sim harness drives, but over real wfb-v1
// frames between broker replicas.
//
// Topology: every replica listens on its own client TCP port (the one
// listener serves clients AND peers), and DIALS one outbound connection to
// each peer's port. Messages travel simplex: node A sends to B over A's
// outbound link; B's replies come back over B's own outbound link to A. The
// inbound half rides the broker's event loops — raft-band frames arriving
// in on_batch are handed to deliver_frame().
//
// Threading: the raft thread runs a net::EventLoop of its own, and only it
// calls the Node, writes the peer links and runs the apply and role
// callbacks, so none of that state is locked. Other threads reach it
// through the loop's mailbox: deliver_frame() posts a peer message and
// propose() a proposal, each a closure the raft thread runs in arrival
// order. Before every wait the loop's deadline hook ticks the node, then
// delivers the role change and the applies that the closures and the tick
// produced, and returns the time to the node's next deadline (heartbeat or
// election) as the wait's timeout, so an idle replica wakes once per
// deadline. A proposal's completion runs right after Node::propose
// returns, so it sees its log index before that entry's apply runs, even
// in a 1-replica group, which commits inside propose. The callbacks may
// call propose(); what they propose runs at the next wakeup. Readers that
// are not the raft thread (the broker's request path, STAT) see the node
// through lock-free snapshots.
//
// Peer links are connections of that loop, dialed without blocking. A
// message to a peer whose link is gone redials it, at most once per
// heartbeat interval (T/5), and is dropped in between. One sent while the
// connect is in progress waits in the link's outbox; a connect still
// unfinished one election timeout T after its dial (its SYN dropped by a
// full accept queue, it would wait seconds for the retry) is given up for a
// fresh dial; a message that would push the outbox past the loop's
// kMaxOutbox is dropped. Raft is built on lossy links, so "drop and let the
// protocol retry" needs no bookkeeping, and a peer that is down or stalled
// never blocks the raft thread.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/event_loop.hpp"
#include "net/frame.hpp"
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
      : cfg_(cfg),
        apply_(std::move(apply)),
        on_role_(std::move(on_role)),
        loop_(loop_callbacks()) {
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
      node_->start(now_ms());
      loop_.run();
    });
  }

  /// Joins the raft thread. Proposals still in the mailbox complete with 0
  /// on the raft thread before it exits; later ones are refused.
  void stop() {
    loop_.stop();
    if (thread_.joinable()) thread_.join();
  }

  /// Any thread: hand over a raft-band frame from a peer. Malformed bodies
  /// are dropped (see wire.hpp). The raft thread takes it at its next wakeup.
  void deliver_frame(const net::Frame& f) {
    Message m;
    if (!from_frame(f, m)) return;
    loop_.call([this, m = std::move(m)] {
      if (!loop_.stopped()) node_->on_message(m, now_ms());
    });
  }

  /// Any thread: propose `cmd`. `on_index` (may be empty) runs on the raft
  /// thread once the node has taken the proposal, with the entry's log
  /// index or 0 when this replica is not the leader (the caller redirects
  /// via leader_hint()); it runs before the entry's apply. False after
  /// stop(): the proposal is refused and `on_index` never runs.
  bool propose(std::string cmd, ProposeFn on_index) {
    return loop_.call(
        [this, cmd = std::move(cmd), on_index = std::move(on_index)] {
          const uint64_t idx =
              loop_.stopped() ? 0 : node_->propose(cmd, now_ms());
          if (on_index) on_index(idx);
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
  uint64_t now_ms() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

  net::EventLoop::Callbacks loop_callbacks() {
    net::EventLoop::Callbacks cbs;
    // Peers answer over their own links, so what arrives on ours is noise.
    cbs.on_batch = [](uint64_t, std::vector<net::Frame>&, std::string&) {};
    cbs.on_deadline = [this] { return step(); };
    return cbs;
  }

  /// The loop's deadline hook (raft thread, before every wait): tick, then
  /// finish the step; returns the ms left until the node's next deadline.
  int step() {
    const uint64_t now = now_ms();
    node_->tick(now);
    finish_step();
    const uint64_t next = node_->next_deadline_ms();
    return next > now ? static_cast<int>(next - now) : 0;
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
  /// under the peer-link rules of the header comment.
  void send_to(int to, const Message& m) {
    Link& l = links_[static_cast<size_t>(to)];
    const uint64_t now = now_ms();
    if (loop_.connecting(l.conn) &&
        now - *l.dialed_ms >= cfg_.election_timeout_ms)
      loop_.close(l.conn);
    std::string out;
    net::encode_frame(to_frame(m, cfg_.node_id), out);
    if (loop_.write(l.conn, out)) return;
    if (l.dialed_ms && now - *l.dialed_ms < cfg_.election_timeout_ms / 5)
      return;
    l.conn = loop_.dial(cfg_.peer_ports[static_cast<size_t>(to)]);
    l.dialed_ms = now;
    loop_.write(l.conn, out);
  }

  struct Link {
    uint64_t conn = 0;  // a loop connection id; 0 = none
    std::optional<uint64_t> dialed_ms;
  };

  RaftServiceConfig cfg_;
  ApplyFn apply_;
  RoleFn on_role_;
  std::chrono::steady_clock::time_point start_;

  // Its mailbox is the one state shared with other threads.
  net::EventLoop loop_;

  // Raft thread only.
  std::unique_ptr<Node> node_;
  std::vector<Link> links_;  // per peer
  std::vector<std::pair<uint64_t, std::string>> committed_;  // this step's

  std::atomic<bool> is_leader_{false};
  std::atomic<int> leader_hint_{-1};
  std::atomic<uint64_t> term_{0};
  std::atomic<uint64_t> commit_{0};
  std::atomic<uint64_t> applied_{0};

  std::thread thread_;  // the raft thread; last, after all it uses
};

}  // namespace wfq::raft
