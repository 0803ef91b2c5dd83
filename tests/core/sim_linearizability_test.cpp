// Simulator-driven linearizability checks for the concurrent queue. The
// deterministic scheduler interleaves p processes at shared-memory-step
// granularity (round-robin and seeded-random adversaries), and the observed
// responses must satisfy FIFO queue semantics:
//   (a) single-producer/single-consumer: the consumer's non-null responses
//       are exactly a prefix of the producer's enqueue order;
//   (b) many producers/consumers: no value dequeued twice, every dequeued
//       value was enqueued, per-(consumer, producer) sequence numbers strictly
//       increase (FIFO order is preserved through any one observer), and
//       enqueued = dequeued + leftover exactly as multisets;
//   (c) dequeues on an empty queue return null.
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "api/spec.hpp"
#include "baselines/kp_queue.hpp"
#include "baselines/sim_queue.hpp"
#include "core/bounded_queue.hpp"
#include "core/unbounded_queue.hpp"
#include "platform/platform.hpp"
#include "sim/adversary.hpp"
#include "sim/scheduler.hpp"
#include "test_util.hpp"

namespace {

using Queue = wfq::core::UnboundedQueue<uint64_t, wfq::platform::SimPlatform>;
using BQueue = wfq::core::BoundedQueue<uint64_t, wfq::platform::SimPlatform>;
using KpQ = wfq::baselines::KpQueue<uint64_t, wfq::platform::SimPlatform>;
using SimQ = wfq::baselines::SimQueue<uint64_t, wfq::platform::SimPlatform>;

void spsc_exact_fifo(std::unique_ptr<wfq::sim::SchedulingPolicy> policy) {
  constexpr int kN = 60;       // values produced
  constexpr int kTries = 120;  // consumer dequeue attempts (some will be null)
  Queue q(2);
  std::vector<uint64_t> got;
  wfq::sim::Scheduler sched(std::move(policy));
  std::vector<std::function<void()>> bodies;
  bodies.emplace_back([&q] {
    q.bind_thread(0);
    for (uint64_t i = 0; i < kN; ++i) q.enqueue(i);
  });
  bodies.emplace_back([&q, &got] {
    q.bind_thread(1);
    for (int k = 0; k < kTries; ++k) {
      auto r = q.dequeue();
      if (r.has_value()) got.push_back(*r);
    }
  });
  sched.run(std::move(bodies));
  // One producer, one consumer: responses must be 0,1,2,... with no gaps.
  for (size_t i = 0; i < got.size(); ++i) CHECK_EQ(got[i], i);
}

/// The mpmc FIFO/conservation check, templated over the queue type so the
/// baseline queues (KP, simq) run the exact same oracle as the paper's
/// queue under any policy.
template <typename QueueT>
void mpmc_fifo_check(std::unique_ptr<wfq::sim::SchedulingPolicy> policy,
                     int procs, int per_proc) {
  QueueT q(procs);
  std::vector<std::vector<uint64_t>> got(static_cast<size_t>(procs));
  wfq::sim::Scheduler sched(std::move(policy));
  std::vector<std::function<void()>> bodies;
  for (int pid = 0; pid < procs; ++pid) {
    bodies.emplace_back([&q, &got, pid, per_proc] {
      q.bind_thread(pid);
      for (int k = 0; k < per_proc; ++k)
        q.enqueue((static_cast<uint64_t>(pid) << 32) |
                  static_cast<uint64_t>(k));
      for (int k = 0; k < per_proc; ++k) {
        auto r = q.dequeue();
        if (r.has_value()) got[static_cast<size_t>(pid)].push_back(*r);
      }
    });
  }
  sched.run(std::move(bodies));

  std::set<uint64_t> enqueued;
  for (int pid = 0; pid < procs; ++pid)
    for (int k = 0; k < per_proc; ++k)
      enqueued.insert((static_cast<uint64_t>(pid) << 32) |
                      static_cast<uint64_t>(k));

  std::set<uint64_t> dequeued;
  for (const auto& list : got) {
    // Per consumer, each producer's sequence numbers must strictly increase
    // (its dequeues are linearized in program order, and FIFO keeps any one
    // producer's values in enqueue order).
    std::map<uint64_t, int64_t> last_seq;
    for (uint64_t v : list) {
      CHECK(enqueued.count(v) == 1);
      CHECK(dequeued.insert(v).second);  // no duplicates across consumers
      uint64_t producer = v >> 32;
      auto seq = static_cast<int64_t>(v & 0xffffffffu);
      auto it = last_seq.find(producer);
      if (it != last_seq.end()) CHECK(seq > it->second);
      last_seq[producer] = seq;
    }
  }

  // Conservation: drain the leftovers single-threaded (outside the sim) and
  // the union must be exactly the enqueued set.
  q.bind_thread(0);
  for (;;) {
    auto r = q.dequeue();
    if (!r.has_value()) break;
    CHECK(dequeued.insert(*r).second);
  }
  CHECK_EQ(dequeued.size(), enqueued.size());
}

void mpmc_fifo(std::unique_ptr<wfq::sim::SchedulingPolicy> policy) {
  mpmc_fifo_check<Queue>(std::move(policy), /*procs=*/8, /*per_proc=*/24);
}

/// Adversary for the GC retention regression below: runs one process for a
/// burst of up to kMaxBurst consecutive shared steps before re-drawing, so
/// both halves of the race window occur — a collector stalled mid-scan
/// while churners complete whole operations, and an op stalled between its
/// slot being scanned and its start publication. Uniform random switching
/// almost never holds a process long enough for the root head to drift
/// past the floor's -2 slack; bursts routinely do.
class BurstPolicy : public wfq::sim::SchedulingPolicy {
 public:
  explicit BurstPolicy(uint64_t seed) : state_(seed * 2 + 1) {}
  int pick(const std::vector<char>& runnable, uint64_t /*step*/) override {
    int n = static_cast<int>(runnable.size());
    if (left_ == 0 || cur_ < 0 || !runnable[static_cast<size_t>(cur_)]) {
      for (int tries = 0; tries < 64; ++tries) {
        int c = static_cast<int>(next() % static_cast<uint64_t>(n));
        if (runnable[static_cast<size_t>(c)]) {
          cur_ = c;
          break;
        }
      }
      if (cur_ < 0 || !runnable[static_cast<size_t>(cur_)]) {
        for (int c = 0; c < n; ++c)
          if (runnable[static_cast<size_t>(c)]) cur_ = c;
      }
      left_ = 1 + static_cast<int>(next() % kMaxBurst);
    }
    --left_;
    return cur_;
  }

 private:
  static constexpr uint64_t kMaxBurst = 96;
  uint64_t next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545f4914f6cdd1dULL;
  }
  uint64_t state_;
  int cur_ = -1;
  int left_ = 0;
};

/// Regression for the GC retention race: collect() must read the root's
/// last block index BEFORE scanning the per-process start slots. If it is
/// read after, an op whose slot was scanned while idle can pin mid-scan and
/// publish a start below the later-read `last`; the archive floor then
/// discards blocks that op's find_response/index_dequeue still needs, and
/// its doubling search converges on the wrong block (wrong element / lost
/// value). G=2 keeps a collection in flight almost constantly and the
/// enqueue/dequeue-pair workload holds the queue near-empty, so the floor
/// chases the head and any retention slip discards a block that is still
/// value-bearing. Swept over many burst schedules plus lock-step.
void bounded_gc_retention(std::unique_ptr<wfq::sim::SchedulingPolicy> policy) {
  constexpr int kProcs = 8;
  constexpr int kRounds = 24;
  BQueue q(kProcs, /*gc_period=*/2);
  std::vector<std::vector<uint64_t>> got(kProcs);
  wfq::sim::Scheduler sched(std::move(policy));
  std::vector<std::function<void()>> bodies;
  for (int pid = 0; pid < kProcs; ++pid) {
    bodies.emplace_back([&q, &got, pid] {
      q.bind_thread(pid);
      for (int k = 0; k < kRounds; ++k) {
        q.enqueue((static_cast<uint64_t>(pid) << 32) |
                  static_cast<uint64_t>(k));
        auto r = q.dequeue();
        if (r.has_value()) got[static_cast<size_t>(pid)].push_back(*r);
      }
    });
  }
  sched.run(std::move(bodies));

  std::set<uint64_t> enqueued;
  for (int pid = 0; pid < kProcs; ++pid)
    for (int k = 0; k < kRounds; ++k)
      enqueued.insert((static_cast<uint64_t>(pid) << 32) |
                      static_cast<uint64_t>(k));

  std::set<uint64_t> dequeued;
  for (const auto& list : got) {
    std::map<uint64_t, int64_t> last_seq;
    for (uint64_t v : list) {
      CHECK(enqueued.count(v) == 1);
      CHECK(dequeued.insert(v).second);  // no duplicates across consumers
      uint64_t producer = v >> 32;
      auto seq = static_cast<int64_t>(v & 0xffffffffu);
      auto it = last_seq.find(producer);
      if (it != last_seq.end()) CHECK(seq > it->second);
      last_seq[producer] = seq;
    }
  }
  q.bind_thread(0);
  for (;;) {
    auto r = q.dequeue();
    if (!r.has_value()) break;
    CHECK(dequeued.insert(*r).second);
  }
  CHECK_EQ(dequeued.size(), enqueued.size());
  CHECK(q.debug_gc_phases() > 0);  // the race window actually existed
}

/// Targeted adversary for the helping protocols (PR 6): parks a process
/// right before a CAS — in the KP queue that is the descriptor-completion /
/// node-append CAS, in simq the combiner's state-install CAS — while the
/// others run at seeded-random order, so completion almost always comes
/// from a HELPER (KP) or a competing combiner (simq), not the announcing
/// process. StallRefreshPolicy covers the deterministic variant of this
/// schedule; here the victim choice and stall length are randomized so a
/// seed sweep lands the park at many different protocol points. One
/// bounded park per pending CAS, and a victim that becomes the only
/// runnable process is released, so every workload terminates.
class HelpStallPolicy : public wfq::sim::SchedulingPolicy {
 public:
  explicit HelpStallPolicy(uint64_t seed) : state_(seed * 2 + 1) {}

  void before_step(int pid, wfq::sim::StepKind kind) override {
    reserve(static_cast<size_t>(pid) + 1);
    next_cas_[static_cast<size_t>(pid)] =
        (kind == wfq::sim::StepKind::cas) ? 1 : 0;
  }

  int pick(const std::vector<char>& runnable, uint64_t /*step*/) override {
    const int n = static_cast<int>(runnable.size());
    reserve(runnable.size());
    // Release the victim when its stall is spent or it already finished;
    // its pending CAS no longer counts for victimization (each pending CAS
    // earns at most one bounded park).
    if (victim_ >= 0 &&
        (stall_left_ == 0 || !runnable[static_cast<size_t>(victim_)])) {
      next_cas_[static_cast<size_t>(victim_)] = 0;
      victim_ = -1;
    }
    if (victim_ < 0) {
      // Reservoir-sample a CAS-pending runnable process as the new victim,
      // but only if someone else stays runnable to make progress past it.
      int cand = -1, seen = 0;
      for (int c = 0; c < n; ++c)
        if (runnable[static_cast<size_t>(c)] &&
            next_cas_[static_cast<size_t>(c)] != 0 &&
            next() % static_cast<uint64_t>(++seen) == 0)
          cand = c;
      if (cand >= 0) {
        bool other = false;
        for (int c = 0; c < n; ++c)
          if (c != cand && runnable[static_cast<size_t>(c)]) other = true;
        if (other) {
          victim_ = cand;
          stall_left_ = 1 + next() % (6 * static_cast<uint64_t>(n) + 10);
        }
      }
    }
    // Run a uniformly random runnable non-victim.
    int chosen = -1, seen = 0;
    for (int c = 0; c < n; ++c)
      if (runnable[static_cast<size_t>(c)] && c != victim_ &&
          next() % static_cast<uint64_t>(++seen) == 0)
        chosen = c;
    if (chosen < 0) {  // only the victim is left: release it
      chosen = victim_;
      victim_ = -1;
    }
    if (victim_ >= 0 && stall_left_ > 0) --stall_left_;
    if (chosen >= 0) next_cas_[static_cast<size_t>(chosen)] = 0;
    return chosen;
  }

 private:
  void reserve(size_t n) {
    if (next_cas_.size() < n) next_cas_.resize(n, 0);
  }
  uint64_t next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545f4914f6cdd1dULL;
  }
  uint64_t state_;
  std::vector<char> next_cas_;
  int victim_ = -1;  // process parked at its pending CAS
  uint64_t stall_left_ = 0;
};

/// Helping-stall conformance for the PR-6 baselines, mirroring the
/// bounded_gc_retention sweep shape: one deterministic stall-refresh run
/// per queue plus a seeded HelpStallPolicy sweep. Any lost/duplicated value
/// or FIFO inversion while a CAS is parked mid-flight fails the oracle.
void helping_stall_sweep(uint64_t sweeps) {
  constexpr int kProcs = 6;
  constexpr int kPerProc = 10;
  mpmc_fifo_check<KpQ>(std::make_unique<wfq::sim::StallRefreshPolicy>(),
                       kProcs, kPerProc);
  mpmc_fifo_check<SimQ>(std::make_unique<wfq::sim::StallRefreshPolicy>(),
                        kProcs, kPerProc);
  for (uint64_t seed = 1; seed <= sweeps; ++seed) {
    mpmc_fifo_check<KpQ>(std::make_unique<HelpStallPolicy>(seed), kProcs,
                         kPerProc);
    mpmc_fifo_check<SimQ>(std::make_unique<HelpStallPolicy>(seed), kProcs,
                          kPerProc);
  }
}

void empty_always_null() {
  constexpr int kProcs = 4;
  Queue q(kProcs);
  int nonnull = 0;
  wfq::sim::Scheduler sched(std::make_unique<wfq::sim::RoundRobinPolicy>());
  std::vector<std::function<void()>> bodies;
  for (int pid = 0; pid < kProcs; ++pid) {
    bodies.emplace_back([&q, &nonnull, pid] {
      q.bind_thread(pid);
      for (int k = 0; k < 10; ++k)
        if (q.dequeue().has_value()) ++nonnull;
    });
  }
  sched.run(std::move(bodies));
  CHECK_EQ(nonnull, 0);
}

}  // namespace

int main(int argc, char** argv) {
  // argv[1] overrides the burst-schedule count of the GC retention sweep
  // (default 40 in the tier-1 suite); argv[2] the seed count of the
  // helping-stall sweep (default 200). The tree-extraction regression gate
  // (ISSUE 5) runs the standalone 400-schedule sweep:
  //   ./sim_linearizability_test 400
  // and the ASan helping-stall gate (ISSUE 6) widens the second sweep:
  //   ./sim_linearizability_test 40 400
  // A malformed count is a hard error — a silent fallback would let a typo
  // report success having swept nothing.
  uint64_t gc_sweeps = 40;
  uint64_t help_sweeps = 200;
  uint64_t* const counts[] = {&gc_sweeps, &help_sweeps};
  try {
    for (int i = 1; i < argc && i <= 2; ++i)
      *counts[i - 1] = wfq::api::parse_num<uint64_t>(argv[i], "sweep count", 1);
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << "\nusage: sim_linearizability_test "
              << "[gc_sweep_count >= 1] [helping_stall_sweep_count >= 1]\n";
    return 2;
  }

  spsc_exact_fifo(std::make_unique<wfq::sim::RoundRobinPolicy>());
  spsc_exact_fifo(std::make_unique<wfq::sim::RandomPolicy>(12345));
  mpmc_fifo(std::make_unique<wfq::sim::RoundRobinPolicy>());
  for (uint64_t seed : {7u, 99u, 2026u})
    mpmc_fifo(std::make_unique<wfq::sim::RandomPolicy>(seed));
  empty_always_null();
  bounded_gc_retention(std::make_unique<wfq::sim::RoundRobinPolicy>());
  for (uint64_t seed = 1; seed <= gc_sweeps; ++seed)
    bounded_gc_retention(std::make_unique<BurstPolicy>(seed));
  helping_stall_sweep(help_sweeps);
  return wfq::test::exit_code();
}
