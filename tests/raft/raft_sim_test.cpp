// Deterministic raft safety suite (ISSUE 10): hundreds of seeded adversary
// schedules — message drops, 1..10 ms delays, repeated two-sided partitions,
// and permanent single-node crashes — each replayed over a 5-node
// raft::SimCluster. Per schedule the suite asserts the two safety
// properties the subsystem exists for, plus liveness after the adversary
// stops:
//
//   * election safety — leaders_by_term never records two leaders for the
//     same term (observed after EVERY sim event, so one-event leaderships
//     count);
//   * state-machine safety — all replicas' applied sequences agree on
//     their common prefix (index k+1 carries the same command everywhere,
//     crashed nodes included);
//   * post-heal progress — once the network heals, a marker command
//     commits and every live replica applies it, and the live replicas'
//     applied sequences become identical.
//
// A subset of seeds is replayed twice end-to-end and compared bit-for-bit:
// the whole point of the injected-clock/SendFn design is that a seed tuple
// IS the execution.
//
// argv[1] overrides the schedule count (default 200); CI's raft job widens
// it. The wire section exercises raft/wire.hpp: round-trips for all four
// message types and strict rejection of every truncation of an append
// batch.
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/spec.hpp"
#include "raft/sim_cluster.hpp"
#include "raft/wire.hpp"
#include "tests/test_util.hpp"

using namespace wfq;

namespace {

/// Everything observable about one finished schedule, for determinism
/// comparison.
struct ScheduleTrace {
  std::vector<std::vector<raft::SimCluster::Applied>> applied;
  std::map<uint64_t, std::vector<int>> leaders_by_term;
  uint64_t end_ms = 0;

  bool operator==(const ScheduleTrace& o) const {
    if (end_ms != o.end_ms) return false;
    if (leaders_by_term != o.leaders_by_term) return false;
    if (applied.size() != o.applied.size()) return false;
    for (size_t i = 0; i < applied.size(); ++i) {
      if (applied[i].size() != o.applied[i].size()) return false;
      for (size_t k = 0; k < applied[i].size(); ++k)
        if (applied[i][k].index != o.applied[i][k].index ||
            applied[i][k].cmd != o.applied[i][k].cmd)
          return false;
    }
    return true;
  }
};

ScheduleTrace run_schedule(uint64_t seed) {
  raft::SimClusterConfig cfg;
  cfg.nodes = 5;
  cfg.election_timeout_ms = 50;
  cfg.node_seed_base = seed * 977 + 1;
  cfg.net.seed = seed * 31 + 7;
  // NetPolicyConfig defaults already carry the adversary: ~10% drops,
  // 1..10 ms delays, repartition every 100..400 ms.
  raft::SimCluster c(cfg);

  const std::string tag = std::to_string(seed);
  const bool with_crash = seed % 3 == 0;
  const int crash_victim = static_cast<int>(seed % 5);

  // 3000 ms under fire, proposing along the way. Proposals against stale
  // minority-partition leaders are accepted-then-truncated — exactly the
  // histories the prefix check needs to see.
  for (int segment = 0; segment < 6; ++segment) {
    c.run_for(500);
    c.propose("cmd|" + tag + "|" + std::to_string(segment));
    if (with_crash && segment == 2) c.crash(crash_victim);
  }

  // Adversary off; the cluster must now settle and make progress.
  c.heal();
  c.run_for(500);

  bool committed = false;
  for (int attempt = 0; attempt < 50 && !committed; ++attempt) {
    std::string marker = "final|" + tag + "|" + std::to_string(attempt);
    if (!c.propose(marker)) {
      c.run_for(20);
      continue;
    }
    c.run_for(200);
    committed = true;
    for (int i = 0; i < cfg.nodes && committed; ++i) {
      if (!c.alive(i)) continue;
      bool found = false;
      for (const auto& a : c.applied(i)) found |= (a.cmd == marker);
      committed = found;
    }
  }
  CHECK(committed);  // post-heal progress: a marker commits everywhere

  // Let the final commit index ride the heartbeats to every live node.
  c.run_for(300);

  // Election safety: one leader per term, ever.
  for (const auto& [term, ids] : c.leaders_by_term()) {
    (void)term;
    CHECK_EQ(ids.size(), size_t{1});
  }

  // State-machine safety: applies happen in contiguous index order, and
  // any two replicas (crashed ones included) agree on their common prefix.
  for (int i = 0; i < cfg.nodes; ++i) {
    const auto& ai = c.applied(i);
    for (size_t k = 0; k < ai.size(); ++k) CHECK_EQ(ai[k].index, k + 1);
    for (int j = i + 1; j < cfg.nodes; ++j) {
      const auto& aj = c.applied(j);
      size_t common = ai.size() < aj.size() ? ai.size() : aj.size();
      for (size_t k = 0; k < common; ++k) CHECK_EQ(ai[k].cmd, aj[k].cmd);
    }
  }

  // Convergence: with the adversary gone and commits settled, the live
  // replicas' applied sequences are identical, not merely prefix-related.
  int ref = -1;
  for (int i = 0; i < cfg.nodes; ++i)
    if (c.alive(i)) {
      ref = i;
      break;
    }
  CHECK(ref >= 0);
  for (int i = ref + 1; i < cfg.nodes; ++i) {
    if (!c.alive(i)) continue;
    CHECK_EQ(c.applied(i).size(), c.applied(ref).size());
  }
  CHECK(c.current_leader() >= 0);

  ScheduleTrace t;
  for (int i = 0; i < cfg.nodes; ++i) t.applied.push_back(c.applied(i));
  t.leaders_by_term = c.leaders_by_term();
  t.end_ms = c.now();
  return t;
}

/// Same seed, same execution — twice through the full schedule must yield
/// identical applied logs and leadership history.
void test_determinism(uint64_t seed) {
  ScheduleTrace a = run_schedule(seed);
  ScheduleTrace b = run_schedule(seed);
  CHECK(a == b);
}

raft::Message sample_message(raft::Message::Type t) {
  raft::Message m;
  m.type = t;
  m.from = 3;
  m.term = 0x1122334455667788ULL;
  m.last_log_index = 42;
  m.last_log_term = 7;
  m.granted = true;
  m.prev_log_index = 41;
  m.prev_log_term = 6;
  m.leader_commit = 40;
  m.success = true;
  m.match_index = 39;
  if (t == raft::Message::Type::append_req) {
    m.entries.push_back({5, std::string("w|0|3")});
    m.entries.push_back({5, std::string()});  // no-op entry
    m.entries.push_back({6, std::string("cfg|4|dwrr:4:ubq\x00\x01", 18)});
  }
  return m;
}

void expect_messages_equal(const raft::Message& a, const raft::Message& b) {
  CHECK(a.type == b.type);
  CHECK_EQ(a.from, b.from);
  CHECK_EQ(a.term, b.term);
  switch (a.type) {
    case raft::Message::Type::vote_req:
      CHECK_EQ(a.last_log_index, b.last_log_index);
      CHECK_EQ(a.last_log_term, b.last_log_term);
      break;
    case raft::Message::Type::vote_resp:
      CHECK(a.granted == b.granted);
      break;
    case raft::Message::Type::append_req:
      CHECK_EQ(a.prev_log_index, b.prev_log_index);
      CHECK_EQ(a.prev_log_term, b.prev_log_term);
      CHECK_EQ(a.leader_commit, b.leader_commit);
      CHECK_EQ(a.entries.size(), b.entries.size());
      for (size_t i = 0; i < a.entries.size(); ++i) {
        CHECK_EQ(a.entries[i].term, b.entries[i].term);
        CHECK_EQ(a.entries[i].cmd, b.entries[i].cmd);
      }
      break;
    case raft::Message::Type::append_resp:
      CHECK(a.success == b.success);
      CHECK_EQ(a.match_index, b.match_index);
      break;
  }
}

/// raft/wire.hpp: every message type round-trips through a wfb-v1 frame,
/// and decode_body is strict — every truncation of an append batch and any
/// trailing garbage is rejected, not mis-parsed.
void test_wire_round_trip() {
  const raft::Message::Type kTypes[] = {
      raft::Message::Type::vote_req, raft::Message::Type::vote_resp,
      raft::Message::Type::append_req, raft::Message::Type::append_resp};
  for (raft::Message::Type t : kTypes) {
    raft::Message in = sample_message(t);
    net::Frame f = raft::to_frame(in, in.from);
    CHECK(f.op == raft::opcode_for(t));
    CHECK_EQ(f.key, uint32_t{3});
    raft::Message out;
    CHECK(raft::from_frame(f, out));
    expect_messages_equal(in, out);

    // Strictness: every proper prefix of the body is malformed, as is one
    // trailing junk byte.
    for (size_t cut = 0; cut < f.payload.size(); ++cut) {
      raft::Message junk;
      CHECK(!raft::decode_body(t, 3, f.payload.substr(0, cut), junk));
    }
    raft::Message junk;
    CHECK(!raft::decode_body(t, 3, f.payload + "x", junk));
  }

  // Non-raft opcodes never parse as raft messages.
  net::Frame f;
  f.op = net::Opcode::enq;
  raft::Message m;
  CHECK(!raft::from_frame(f, m));
}

}  // namespace

int main(int argc, char** argv) {
  int schedules = 200;
  try {
    if (argc > 1)
      schedules = wfq::api::parse_num<int>(argv[1], "schedule count", 1);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\nusage: raft_sim_test [schedule_count >= 1]\n";
    return 2;
  }

  test_wire_round_trip();
  for (int s = 1; s <= schedules; ++s) {
    run_schedule(static_cast<uint64_t>(s));
    // Replaying every schedule twice would double the suite; every 16th
    // seed is enough to catch a nondeterminism regression.
    if (s % 16 == 1) test_determinism(static_cast<uint64_t>(s));
  }
  return wfq::test::exit_code();
}
