// Determinism of the cooperative simulator: the step interleaving (trace) is
// a pure function of the policy and the program, so two identical runs — OS
// scheduling notwithstanding — must produce bit-identical traces, and a
// different adversary seed must (for this workload) produce a different one.
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include <stdexcept>
#include <string>

#include "core/unbounded_queue.hpp"
#include "platform/platform.hpp"
#include "sim/adversary.hpp"
#include "sim/scheduler.hpp"
#include "test_util.hpp"

namespace {

using Queue = wfq::core::UnboundedQueue<uint64_t, wfq::platform::SimPlatform>;

/// Runs a fixed mixed workload on p simulated processes; returns the trace.
std::vector<int> run_workload(std::unique_ptr<wfq::sim::SchedulingPolicy> pol) {
  constexpr int kProcs = 6;
  Queue q(kProcs);
  wfq::sim::Scheduler sched(std::move(pol));
  std::vector<std::function<void()>> bodies;
  for (int pid = 0; pid < kProcs; ++pid) {
    bodies.emplace_back([&q, pid] {
      q.bind_thread(pid);
      for (int k = 0; k < 12; ++k) {
        if (k % 3 == 2) {
          (void)q.dequeue();
        } else {
          q.enqueue((static_cast<uint64_t>(pid) << 32) |
                    static_cast<uint64_t>(k));
        }
      }
    });
  }
  sched.run(std::move(bodies));
  return sched.trace();
}

bool make_policy_throws(const std::string& spec) {
  try {
    (void)wfq::sim::make_policy(spec);
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

/// The adversary factory must replay exactly like hand-constructed policies,
/// and seed handling must be explicit: seed 0 (the xorshift64* fixed point,
/// previously remapped silently to a magic constant) is rejected both at the
/// RandomPolicy constructor and in the "random:<seed>" spec.
void factory_and_seed_handling() {
  // Factory-built policies replay the hand-constructed schedules.
  CHECK(run_workload(wfq::sim::make_policy("round-robin")) ==
        run_workload(std::make_unique<wfq::sim::RoundRobinPolicy>()));
  CHECK(run_workload(wfq::sim::make_policy("random:42")) ==
        run_workload(std::make_unique<wfq::sim::RandomPolicy>(42)));

  // Seed 0 is an error, not a silent remap; so are malformed specs.
  bool ctor_threw = false;
  try {
    wfq::sim::RandomPolicy p0(0);
  } catch (const std::invalid_argument&) {
    ctor_threw = true;
  }
  CHECK(ctor_threw);
  CHECK(make_policy_throws("random:0"));
  CHECK(make_policy_throws("random"));      // seed is required
  CHECK(make_policy_throws("random:"));     // empty seed
  CHECK(make_policy_throws("random:abc"));  // non-numeric seed
  CHECK(make_policy_throws("random:7x"));   // trailing garbage
  CHECK(make_policy_throws("random:-1"));   // must not wrap to 2^64-1
  CHECK(make_policy_throws("random:+7"));   // digits only, no sign
  CHECK(make_policy_throws("no-such-adversary"));
  CHECK(make_policy_throws("rr"));  // the retired round-robin alias
  // ...and seed 1 (the old magic remap would have hidden it) is fine and
  // distinct from other seeds.
  CHECK(run_workload(wfq::sim::make_policy("random:1")) ==
        run_workload(wfq::sim::make_policy("random:1")));
  CHECK(run_workload(wfq::sim::make_policy("random:1")) !=
        run_workload(wfq::sim::make_policy("random:2")));

  // The targeted anti-FAA adversary is registered and deterministic.
  auto af1 = run_workload(wfq::sim::make_policy("anti-faa"));
  auto af2 = run_workload(wfq::sim::make_policy("anti-faa"));
  CHECK(!af1.empty());
  CHECK(af1 == af2);
}

/// The bursty:<on>:<off> adversary (ISSUE 7): strict spec parsing in the
/// random:<seed> style, deterministic replay, and the burst structure
/// itself — the trace opens with `on` consecutive steps of one pid.
void bursty_policy() {
  // Malformed spellings are loud errors, never silent defaults.
  CHECK(make_policy_throws("bursty"));        // both lengths required
  CHECK(make_policy_throws("bursty:"));       // ditto
  CHECK(make_policy_throws("bursty:3"));      // off is required
  CHECK(make_policy_throws("bursty:3:"));     // empty off
  CHECK(make_policy_throws("bursty::5"));     // empty on
  CHECK(make_policy_throws("bursty:0:5"));    // zero-length burst
  CHECK(make_policy_throws("bursty:a:5"));    // non-numeric on
  CHECK(make_policy_throws("bursty:3:b"));    // non-numeric off
  CHECK(make_policy_throws("bursty:3:5:7"));  // trailing field
  CHECK(make_policy_throws("bursty:-1:5"));   // must not wrap
  CHECK(make_policy_throws("bursty:3x:5"));   // trailing garbage in on

  // off = 0 is legal (bursts with no cooldown); ctor-level on = 0 throws
  // like the spec-level spelling.
  CHECK(!make_policy_throws("bursty:1:0"));
  bool ctor_threw = false;
  try {
    wfq::sim::BurstyPolicy p(0, 5);
  } catch (const std::invalid_argument&) {
    ctor_threw = true;
  }
  CHECK(ctor_threw);

  // Deterministic replay; different burst shapes give different schedules.
  auto b1 = run_workload(wfq::sim::make_policy("bursty:3:5"));
  auto b2 = run_workload(wfq::sim::make_policy("bursty:3:5"));
  CHECK(!b1.empty());
  CHECK(b1 == b2);
  CHECK(b1 != run_workload(wfq::sim::make_policy("bursty:4:5")));

  // Burst structure: with on=4 the trace starts with 4 steps of one pid,
  // then switches to a different one.
  auto b4 = run_workload(wfq::sim::make_policy("bursty:4:0"));
  CHECK(b4.size() > 5);
  for (int i = 1; i < 4; ++i)
    CHECK_EQ(b4[static_cast<size_t>(i)], b4[0]);
  CHECK(b4[4] != b4[0]);
}

}  // namespace

int main() {
  // Same policy, two runs: identical interleaving, step for step.
  auto rr1 = run_workload(std::make_unique<wfq::sim::RoundRobinPolicy>());
  auto rr2 = run_workload(std::make_unique<wfq::sim::RoundRobinPolicy>());
  CHECK(!rr1.empty());
  CHECK(rr1 == rr2);

  auto ra = run_workload(std::make_unique<wfq::sim::RandomPolicy>(42));
  auto rb = run_workload(std::make_unique<wfq::sim::RandomPolicy>(42));
  CHECK(!ra.empty());
  CHECK(ra == rb);

  // A different seed drives a different schedule (same total work).
  auto rc = run_workload(std::make_unique<wfq::sim::RandomPolicy>(43));
  CHECK(ra != rc);

  // Round-robin really is lock-step: within any window of live processes the
  // pids cycle; check the first full round explicitly.
  for (int i = 0; i < 6; ++i) CHECK_EQ(rr1[static_cast<size_t>(i)], i);

  factory_and_seed_handling();
  bursty_policy();

  return wfq::test::exit_code();
}
