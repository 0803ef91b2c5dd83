// Raft consensus core (ISSUE 10 tentpole): terms, randomized-timeout leader
// election, AppendEntries log replication, and commit/apply tracking, in one
// header with NO environment baked in. The node never reads a clock, never
// touches a socket, and never spawns a thread:
//
//   - time is injected: every entry point takes `now_ms`, and the caller
//     decides what a millisecond is (the sim harness uses a virtual clock,
//     the wire service uses steady_clock);
//   - transport is a callback: `send(to, Message)` — the sim harness moves
//     structs through a seeded drop/delay/partition event queue
//     (src/raft/sim_cluster.hpp), the wire service serializes them into the
//     wfb-v1 RAFT opcode band (src/raft/wire.hpp / src/raft/cluster.hpp);
//   - the state machine is a callback: `apply(index, cmd)` fires exactly
//     once per committed entry, in index order.
//
// So the IDENTICAL algorithm runs under the deterministic adversary and over
// real sockets — which is the point: the safety argument is made against
// seeded partition schedules in tests/raft/raft_sim_test.cpp, and the binary
// that serves traffic runs the same code.
//
// Faithfulness to the paper (Ongaro & Ousterhout 2014) and deviations:
//   - election restriction (§5.4.1): votes are granted only to candidates
//     whose log is at least as up-to-date;
//   - commit rule (§5.4.2): the leader only advances commitIndex over
//     majority-matched entries OF ITS OWN TERM; older entries commit
//     transitively. A fresh leader appends an empty no-op entry so the
//     previous term's tail becomes committable without waiting for client
//     traffic;
//   - no stable storage: currentTerm/votedFor/log live in memory. A crashed
//     node must rejoin as a NEW node (empty state), never resume its old
//     identity — the deployments here (sim crash schedules, E15 SIGKILL
//     failover) kill replicas permanently, so the persistence Raft needs
//     across restart-with-same-identity is out of scope and documented
//     rather than faked;
//   - no membership change, no snapshotting: the replicated state is broker
//     metadata (shard-map config + tenant weights), a handful of entries.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/hash.hpp"

namespace wfq::raft {

enum class Role : uint8_t { follower, candidate, leader };

inline const char* role_name(Role r) {
  switch (r) {
    case Role::follower: return "follower";
    case Role::candidate: return "candidate";
    case Role::leader: return "leader";
  }
  return "?";
}

/// One replicated log entry. `cmd` is opaque to the consensus core; the
/// empty string is reserved for the leader's election no-op (state machines
/// must skip it — see apply contract below).
struct LogEntry {
  uint64_t term = 0;
  std::string cmd;
};

/// The four Raft RPCs as one tagged struct. Field use by type:
///   vote_req:    term, from, last_log_index, last_log_term
///   vote_resp:   term, from, granted
///   append_req:  term, from, prev_log_index, prev_log_term, leader_commit,
///                entries (empty = heartbeat)
///   append_resp: term, from, success, match_index (on failure: the
///                follower's last index, a catch-up hint)
struct Message {
  enum class Type : uint8_t {
    vote_req = 0,
    vote_resp = 1,
    append_req = 2,
    append_resp = 3,
  };
  Type type = Type::vote_req;
  int from = -1;
  uint64_t term = 0;
  uint64_t last_log_index = 0;
  uint64_t last_log_term = 0;
  bool granted = false;
  uint64_t prev_log_index = 0;
  uint64_t prev_log_term = 0;
  uint64_t leader_commit = 0;
  std::vector<LogEntry> entries;
  bool success = false;
  uint64_t match_index = 0;
};

inline const char* message_type_name(Message::Type t) {
  switch (t) {
    case Message::Type::vote_req: return "vote_req";
    case Message::Type::vote_resp: return "vote_resp";
    case Message::Type::append_req: return "append_req";
    case Message::Type::append_resp: return "append_resp";
  }
  return "?";
}

struct NodeConfig {
  int id = 0;      // this replica's id, in [0, peers)
  int peers = 1;   // replica-group size n; ids are 0..n-1
  /// Election timeout base T: a follower that hears nothing for a
  /// randomized duration in [T, 2T) starts an election. Heartbeats default
  /// to T/5 (clamped to >= 1ms) so a healthy leader resets follower timers
  /// several times per timeout.
  uint64_t election_timeout_ms = 150;
  uint64_t heartbeat_ms = 0;  // 0 = election_timeout_ms / 5
  /// Seed for the election-jitter stream (core::SplitMix). Replicas must
  /// use DIFFERENT seeds or they dance in lock-step and split every vote.
  uint64_t seed = 1;
};

/// The consensus engine for one replica. Single-threaded by contract: the
/// caller serializes tick/on_message/propose (the sim harness is naturally
/// single-threaded; the wire service calls the node from its raft thread
/// only).
class Node {
 public:
  using SendFn = std::function<void(int to, const Message& m)>;
  /// Fires once per committed entry, in index order, from inside
  /// tick/on_message. `cmd` is empty for leader no-op entries.
  using ApplyFn = std::function<void(uint64_t index, const std::string& cmd)>;

  Node(NodeConfig cfg, SendFn send, ApplyFn apply)
      : cfg_(cfg),
        send_(std::move(send)),
        apply_(std::move(apply)),
        rng_(core::splitmix64(cfg.seed) ^ static_cast<uint64_t>(cfg.id)) {
    if (cfg_.heartbeat_ms == 0)
      cfg_.heartbeat_ms = cfg_.election_timeout_ms / 5;
    if (cfg_.heartbeat_ms == 0) cfg_.heartbeat_ms = 1;
    next_index_.assign(static_cast<size_t>(cfg_.peers), 1);
    match_index_.assign(static_cast<size_t>(cfg_.peers), 0);
  }

  /// Arms the first election timeout. Call once before the first tick.
  void start(uint64_t now_ms) { reset_election_timer(now_ms); }

  /// Drives timeouts: candidates/followers start elections, leaders send
  /// heartbeats (which double as replication catch-up).
  void tick(uint64_t now_ms) {
    if (role_ == Role::leader) {
      if (now_ms >= next_heartbeat_ms_) broadcast_append(now_ms);
      return;
    }
    if (now_ms >= election_deadline_ms_) start_election(now_ms);
  }

  void on_message(const Message& m, uint64_t now_ms) {
    if (m.term > term_) step_down(m.term);
    switch (m.type) {
      case Message::Type::vote_req: on_vote_req(m, now_ms); break;
      case Message::Type::vote_resp: on_vote_resp(m, now_ms); break;
      case Message::Type::append_req: on_append_req(m, now_ms); break;
      case Message::Type::append_resp: on_append_resp(m, now_ms); break;
    }
  }

  /// Leader-only: appends `cmd` to the log and starts replicating it.
  /// Returns the entry's log index, or 0 when this node is not the leader
  /// (the caller should redirect to leader_hint()).
  uint64_t propose(const std::string& cmd, uint64_t now_ms) {
    if (role_ != Role::leader) return 0;
    log_.push_back({term_, cmd});
    broadcast_append(now_ms);
    maybe_advance_commit();  // n == 1: majority is self
    return last_index();
  }

  Role role() const { return role_; }
  uint64_t term() const { return term_; }
  uint64_t commit_index() const { return commit_; }
  uint64_t last_applied() const { return applied_; }
  uint64_t last_index() const { return log_.size(); }
  /// When tick() next has work: the next heartbeat when leader, else the
  /// election deadline.
  uint64_t next_deadline_ms() const {
    return role_ == Role::leader ? next_heartbeat_ms_ : election_deadline_ms_;
  }
  const std::vector<LogEntry>& log() const { return log_; }

  /// Best guess at the current leader's id: self when leader, the sender of
  /// the last valid AppendEntries when follower, -1 when unknown (fresh
  /// follower, candidate mid-election).
  int leader_hint() const {
    return role_ == Role::leader ? cfg_.id : leader_hint_;
  }

 private:
  uint64_t term_at(uint64_t index) const {
    return index == 0 ? 0 : log_[static_cast<size_t>(index - 1)].term;
  }

  void reset_election_timer(uint64_t now_ms) {
    election_deadline_ms_ = now_ms + cfg_.election_timeout_ms +
                            rng_.below(cfg_.election_timeout_ms);
  }

  /// Higher term observed: whatever we were, we are a follower of that term
  /// with a fresh vote.
  void step_down(uint64_t new_term) {
    term_ = new_term;
    role_ = Role::follower;
    voted_for_ = -1;
    leader_hint_ = -1;
  }

  void start_election(uint64_t now_ms) {
    ++term_;
    role_ = Role::candidate;
    voted_for_ = cfg_.id;
    leader_hint_ = -1;
    votes_ = 1;  // self
    reset_election_timer(now_ms);
    if (cfg_.peers == 1) {
      become_leader(now_ms);
      return;
    }
    Message m;
    m.type = Message::Type::vote_req;
    m.from = cfg_.id;
    m.term = term_;
    m.last_log_index = last_index();
    m.last_log_term = term_at(last_index());
    for (int p = 0; p < cfg_.peers; ++p)
      if (p != cfg_.id) send_(p, m);
  }

  void become_leader(uint64_t now_ms) {
    role_ = Role::leader;
    leader_hint_ = cfg_.id;
    for (int p = 0; p < cfg_.peers; ++p) {
      next_index_[static_cast<size_t>(p)] = last_index() + 1;
      match_index_[static_cast<size_t>(p)] = 0;
    }
    // The §5.4.2 no-op: committing it (current term) transitively commits
    // every prior-term entry already majority-replicated, without waiting
    // for client traffic that might never come.
    log_.push_back({term_, std::string()});
    next_heartbeat_ms_ = now_ms;  // announce immediately
    broadcast_append(now_ms);
    maybe_advance_commit();
  }

  void on_vote_req(const Message& m, uint64_t now_ms) {
    Message resp;
    resp.type = Message::Type::vote_resp;
    resp.from = cfg_.id;
    resp.term = term_;
    // Election restriction: the candidate's log must be at least as
    // up-to-date as ours (last term higher, or equal term and length >=).
    bool up_to_date =
        m.last_log_term > term_at(last_index()) ||
        (m.last_log_term == term_at(last_index()) &&
         m.last_log_index >= last_index());
    if (m.term == term_ && (voted_for_ == -1 || voted_for_ == m.from) &&
        up_to_date) {
      voted_for_ = m.from;
      resp.granted = true;
      reset_election_timer(now_ms);  // granting a vote defers our own run
    }
    send_(m.from, resp);
  }

  void on_vote_resp(const Message& m, uint64_t now_ms) {
    if (role_ != Role::candidate || m.term != term_ || !m.granted) return;
    if (++votes_ * 2 > cfg_.peers) become_leader(now_ms);
  }

  void on_append_req(const Message& m, uint64_t now_ms) {
    Message resp;
    resp.type = Message::Type::append_resp;
    resp.from = cfg_.id;
    resp.term = term_;
    if (m.term < term_) {  // stale leader: reject, it will step down
      resp.success = false;
      resp.match_index = last_index();
      send_(m.from, resp);
      return;
    }
    // Valid leader for our term: a candidate concedes, a follower refreshes.
    role_ = Role::follower;
    leader_hint_ = m.from;
    reset_election_timer(now_ms);
    if (m.prev_log_index > last_index() ||
        term_at(m.prev_log_index) != m.prev_log_term) {
      // Log mismatch at prev: ask the leader to back up. Our last index is
      // the natural hint (the leader clamps).
      resp.success = false;
      resp.match_index =
          m.prev_log_index > last_index() ? last_index()
                                          : m.prev_log_index - 1;
      send_(m.from, resp);
      return;
    }
    // Append, truncating any conflicting suffix (same index, different
    // term). Entries we already hold with matching terms are idempotent.
    uint64_t idx = m.prev_log_index;
    for (const LogEntry& e : m.entries) {
      ++idx;
      if (idx <= last_index()) {
        if (term_at(idx) != e.term)
          log_.resize(static_cast<size_t>(idx - 1));
        else
          continue;
      }
      log_.push_back(e);
    }
    if (m.leader_commit > commit_) {
      commit_ = m.leader_commit < last_index() ? m.leader_commit
                                               : last_index();
      apply_committed();
    }
    resp.success = true;
    resp.match_index = idx;
    send_(m.from, resp);
  }

  void on_append_resp(const Message& m, uint64_t /*now_ms*/) {
    if (role_ != Role::leader || m.term != term_) return;
    size_t p = static_cast<size_t>(m.from);
    if (m.success) {
      if (m.match_index > match_index_[p]) match_index_[p] = m.match_index;
      next_index_[p] = match_index_[p] + 1;
      maybe_advance_commit();
    } else {
      // Back up toward the follower's hint, at least one step, floor 1.
      uint64_t ni = next_index_[p] > 1 ? next_index_[p] - 1 : 1;
      if (m.match_index + 1 < ni) ni = m.match_index + 1;
      next_index_[p] = ni > 0 ? ni : 1;
      send_append_to(static_cast<int>(p));  // retry immediately
    }
  }

  /// Commit rule (§5.4.2): highest N > commit with a CURRENT-term entry
  /// replicated on a majority (self counts via last_index()).
  void maybe_advance_commit() {
    for (uint64_t n = last_index(); n > commit_; --n) {
      if (term_at(n) != term_) break;  // older terms commit transitively only
      int count = 1;  // self
      for (int p = 0; p < cfg_.peers; ++p)
        if (p != cfg_.id && match_index_[static_cast<size_t>(p)] >= n)
          ++count;
      if (count * 2 > cfg_.peers) {
        commit_ = n;
        apply_committed();
        break;
      }
    }
  }

  void apply_committed() {
    while (applied_ < commit_) {
      ++applied_;
      apply_(applied_, log_[static_cast<size_t>(applied_ - 1)].cmd);
    }
  }

  /// One AppendEntries to peer p from its next_index (empty = heartbeat).
  /// Batches are capped so one catch-up message stays modest; the follower
  /// acks and the next round continues from there.
  void send_append_to(int p) {
    Message m;
    m.type = Message::Type::append_req;
    m.from = cfg_.id;
    m.term = term_;
    uint64_t ni = next_index_[static_cast<size_t>(p)];
    m.prev_log_index = ni - 1;
    m.prev_log_term = term_at(ni - 1);
    m.leader_commit = commit_;
    const uint64_t kMaxBatch = 64;
    for (uint64_t i = ni; i <= last_index() && m.entries.size() < kMaxBatch;
         ++i)
      m.entries.push_back(log_[static_cast<size_t>(i - 1)]);
    send_(p, m);
  }

  void broadcast_append(uint64_t now_ms) {
    next_heartbeat_ms_ = now_ms + cfg_.heartbeat_ms;
    for (int p = 0; p < cfg_.peers; ++p)
      if (p != cfg_.id) send_append_to(p);
  }

  NodeConfig cfg_;
  SendFn send_;
  ApplyFn apply_;
  core::SplitMix rng_;

  Role role_ = Role::follower;
  uint64_t term_ = 0;
  int voted_for_ = -1;
  int leader_hint_ = -1;
  std::vector<LogEntry> log_;  // log_[i] is index i+1
  uint64_t commit_ = 0;
  uint64_t applied_ = 0;

  int votes_ = 0;
  uint64_t election_deadline_ms_ = 0;
  uint64_t next_heartbeat_ms_ = 0;
  std::vector<uint64_t> next_index_;
  std::vector<uint64_t> match_index_;
};

}  // namespace wfq::raft
