// Adversary (SchedulingPolicy) factory: string specs name scheduling
// policies so benches, tests and the bench_runner CLI can select an
// adversary without naming C++ types (`--adversary anti-faa`). Specs:
//
//   "round-robin"      perfect lock-step (the paper's canonical CAS-retry
//                      adversary).
//   "random:<seed>"    seeded uniform-random schedule; the seed is required
//                      and must be >= 1 (seed 0 is the xorshift64* fixed
//                      point and is rejected — see RandomPolicy).
//   "anti-faa"         targeted schedule that races dequeuers past stalled
//                      enqueuers (ROADMAP: the FAA-array queue's Omega(p)
//                      worst case; see AntiFaaPolicy below and E5b).
//   "stall-refresh"    stall-the-leader schedule against the ordering
//                      tree's double-Refresh: parks a process right before
//                      its CAS while everyone else runs, so the parked
//                      refresher's install CAS loses and its caller must
//                      take the second-Refresh path (see StallRefreshPolicy).
//   "bursty:<on>:<off>" bursty-arrival schedule: each scheduled process runs
//                      `on` consecutive steps then cools down for `off`
//                      steps (E13's arrival pattern under exact step
//                      accounting; see BurstyPolicy).
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/spec.hpp"
#include "sim/scheduler.hpp"

namespace wfq::sim {

/// Targeted adversary for fetch&add-array queues (E5b): processes are split
/// into enqueuers (pids < n/2) and dequeuers (the rest, matching the role
/// assignment of the benches that request this policy). Each round gives
/// every enqueuer exactly one shared step — just enough to execute its FAA
/// slot claim (or the CAS that discovers the slot was poisoned) — then
/// parks it, and hands one victim dequeuer a long exclusive burst. The
/// victim must poison every claimed-but-unpublished cell ahead of it, one
/// CAS per stalled enqueuer, so a single dequeue costs Theta(p) shared
/// steps: the Omega(p) worst-case execution the paper proves exists for
/// FAA-based designs. When only one role remains runnable the policy
/// degenerates to round-robin, so every workload still terminates.
class AntiFaaPolicy : public SchedulingPolicy {
 public:
  int pick(const std::vector<char>& runnable, uint64_t step) override {
    const int n = static_cast<int>(runnable.size());
    const int enqueuers = n / 2;  // pids [0, n/2) stall; the rest race
    if (burst_ == 0) burst_ = 5 * n + 8;

    bool live_enq = any_in(runnable, 0, enqueuers);
    bool live_deq = any_in(runnable, enqueuers, n);
    if (!live_enq || !live_deq) return rr_.pick(runnable, step);

    if (next_enq_ < enqueuers) {  // phase A: one step per enqueuer
      for (; next_enq_ < enqueuers; ++next_enq_) {
        if (runnable[static_cast<size_t>(next_enq_)]) return next_enq_++;
      }
    }
    // Phase B: exclusive burst for the current victim dequeuer.
    if (burst_left_ == 0) {
      burst_left_ = burst_;
      victim_ = next_victim(runnable, enqueuers, n);
    }
    if (victim_ < 0 || !runnable[static_cast<size_t>(victim_)])
      victim_ = next_victim(runnable, enqueuers, n);
    if (--burst_left_ == 0) next_enq_ = 0;  // burst spent: back to phase A
    return victim_;
  }

 private:
  static bool any_in(const std::vector<char>& runnable, int lo, int hi) {
    for (int i = lo; i < hi; ++i)
      if (runnable[static_cast<size_t>(i)]) return true;
    return false;
  }

  int next_victim(const std::vector<char>& runnable, int lo, int hi) {
    for (int k = 1; k <= hi - lo; ++k) {
      int c = lo + (victim_ - lo + k + (hi - lo)) % (hi - lo);
      if (runnable[static_cast<size_t>(c)]) return c;
    }
    return -1;
  }

  int next_enq_ = 0;       // phase-A cursor over enqueuer pids
  int victim_ = 0;         // dequeuer receiving the current burst
  uint64_t burst_ = 0;     // burst length, fixed at 5n+8 on first pick
  uint64_t burst_left_ = 0;
  RoundRobinPolicy rr_;    // degenerate mode once one role has finished
};

/// Stall-the-leader adversary against the ordering tree's double-Refresh
/// (ROADMAP adversary idea; the conformance sweep runs every registered
/// object under it). The scheduler reports each process's upcoming access
/// kind through before_step; when the round-robin cursor reaches a process
/// whose next step is a CAS, the policy parks it there for a burst while
/// every other process keeps running. In the ordering tree the common CAS
/// is Refresh's block-install: by the time the victim's CAS finally
/// executes, a competing refresher has typically installed a block at the
/// index the victim saw empty, so the victim's first Refresh LOSES and its
/// propagate() relies on the second Refresh (plus the helped head-CAS
/// paths) — exactly the double-refresh argument's hard case, which
/// lock-step schedules almost never exercise. Victims rotate with the
/// cursor, and a victim whose stall expires — or that becomes the only
/// runnable process — is released, so every workload still terminates.
class StallRefreshPolicy : public SchedulingPolicy {
 public:
  void before_step(int pid, StepKind kind) override {
    reserve(static_cast<size_t>(pid) + 1);
    next_kind_[static_cast<size_t>(pid)] =
        (kind == StepKind::cas) ? kCas : kOther;
  }

  int pick(const std::vector<char>& runnable, uint64_t /*step*/) override {
    const int n = static_cast<int>(runnable.size());
    reserve(runnable.size());
    if (stall_ == 0) stall_ = 6 * static_cast<uint64_t>(n) + 10;

    // Release the victim when its stall is spent or it already finished.
    // Its pending CAS no longer counts for victimization (else the scan
    // below would re-park it with a fresh stall before it ever ran: each
    // pending CAS earns at most ONE bounded park).
    if (victim_ >= 0 &&
        (stall_left_ == 0 || !runnable[static_cast<size_t>(victim_)])) {
      next_kind_[static_cast<size_t>(victim_)] = kOther;
      victim_ = -1;
    }

    int fallback = -1;  // the victim, if it is the only runnable process
    for (int k = 1; k <= n; ++k) {
      int c = (cursor_ + k) % n;
      if (!runnable[static_cast<size_t>(c)]) continue;
      if (c == victim_) {
        fallback = c;
        continue;
      }
      // A process about to CAS becomes the new victim (parked, skipped)
      // when no stall is in progress; its CAS executes only once released.
      if (victim_ < 0 && next_kind_[static_cast<size_t>(c)] == kCas) {
        victim_ = c;
        stall_left_ = stall_;
        fallback = c;
        continue;
      }
      cursor_ = c;
      if (victim_ >= 0 && stall_left_ > 0) --stall_left_;
      next_kind_[static_cast<size_t>(c)] = kOther;  // step consumed
      return c;
    }
    // Only the victim is left: release it so the run terminates.
    victim_ = -1;
    if (fallback >= 0) {
      cursor_ = fallback;
      next_kind_[static_cast<size_t>(fallback)] = kOther;
    }
    return fallback;
  }

 private:
  static constexpr char kOther = 0;
  static constexpr char kCas = 1;

  void reserve(size_t n) {
    if (next_kind_.size() < n) next_kind_.resize(n, kOther);
  }

  std::vector<char> next_kind_;
  int cursor_ = -1;     // round-robin position among non-victims
  int victim_ = -1;     // process parked at its pending CAS
  uint64_t stall_ = 0;  // stall length, fixed at 6n+10 on first pick
  uint64_t stall_left_ = 0;
};

/// Bursty-arrival schedule (ISSUE 7: the E13 QoS family's arrival pattern,
/// run under exact step accounting): the scheduled process keeps the
/// processor for a burst of `on` consecutive steps, then is parked for
/// `off` steps of cooldown before it becomes eligible again. Eligible
/// runnable processes are picked round-robin; when every runnable process
/// is cooling down, the one whose cooldown expires first runs early (lowest
/// pid on ties), so the schedule stays work-conserving and every workload
/// terminates. `bursty:1:0` degenerates to round-robin.
class BurstyPolicy : public SchedulingPolicy {
 public:
  BurstyPolicy(uint64_t on, uint64_t off) : on_(on), off_(off) {
    if (on < 1)
      throw std::invalid_argument(
          "sim::BurstyPolicy: burst length must be >= 1");
  }

  int pick(const std::vector<char>& runnable, uint64_t step) override {
    const int n = static_cast<int>(runnable.size());
    if (eligible_at_.size() < runnable.size())
      eligible_at_.resize(runnable.size(), 0);

    // Continue the current burst while its owner can still run.
    if (cur_ >= 0 && burst_left_ > 0 && runnable[static_cast<size_t>(cur_)]) {
      --burst_left_;
      return cur_;
    }
    // Burst over (or owner finished): start its cooldown.
    if (cur_ >= 0) eligible_at_[static_cast<size_t>(cur_)] = step + off_;

    // Round-robin among eligible runnable processes; else the runnable
    // process closest to eligibility (lowest pid ties) runs early.
    int next = -1;
    for (int k = 1; k <= n; ++k) {
      int c = (cur_ + k + n) % n;
      if (!runnable[static_cast<size_t>(c)]) continue;
      if (eligible_at_[static_cast<size_t>(c)] <= step) {
        next = c;
        break;
      }
      if (next < 0 || eligible_at_[static_cast<size_t>(c)] <
                          eligible_at_[static_cast<size_t>(next)])
        next = c;
    }
    cur_ = next;
    burst_left_ = on_ - 1;  // this pick consumes the burst's first step
    return next;
  }

 private:
  uint64_t on_;
  uint64_t off_;
  int cur_ = -1;             // owner of the in-progress burst
  uint64_t burst_left_ = 0;  // steps left in the current burst
  std::vector<uint64_t> eligible_at_;
};

/// Spec strings accepted by make_policy, for --help output and docs.
inline std::vector<std::string> policy_names() {
  return {"round-robin", "random:<seed>", "anti-faa", "stall-refresh",
          "bursty:<on>:<off>"};
}

/// Builds a fresh policy from its spec string; throws std::invalid_argument
/// on unknown names, a missing/zero random seed or malformed burst lengths.
/// Each call returns an independent policy instance (policies are stateful).
inline std::unique_ptr<SchedulingPolicy> make_policy(const std::string& spec) {
  if (spec == "round-robin") return std::make_unique<RoundRobinPolicy>();
  if (spec == "anti-faa") return std::make_unique<AntiFaaPolicy>();
  if (spec == "stall-refresh") return std::make_unique<StallRefreshPolicy>();
  const std::vector<std::string> f = api::split(spec, ':');
  if (f[0] == "random") {
    const std::string want =
        "want \"random:<seed>\" with seed >= 1 (seed 0 is the xorshift64* "
        "fixed point, see RandomPolicy)";
    if (f.size() != 2)
      throw std::invalid_argument("sim::make_policy: bad random spec \"" +
                                  spec + "\"; " + want);
    return std::make_unique<RandomPolicy>(api::parse_num<uint64_t>(
        f[1], "seed in \"" + spec + "\" (" + want + ")", 1));
  }
  if (f[0] == "bursty") {
    const std::string want =
        "want \"bursty:<on>:<off>\" with on >= 1 (burst length, in steps) "
        "and off >= 0 (cooldown steps)";
    if (f.size() != 3)
      throw std::invalid_argument("sim::make_policy: bad bursty spec \"" +
                                  spec + "\"; " + want);
    const std::string what = "burst length in \"" + spec + "\" (" + want + ")";
    const uint64_t on = api::parse_num<uint64_t>(f[1], what, 1);
    return std::make_unique<BurstyPolicy>(
        on, api::parse_num<uint64_t>(f[2], what, 0));
  }
  std::string names;
  for (const std::string& n : policy_names()) names += " " + n;
  throw std::invalid_argument("sim::make_policy: unknown adversary \"" + spec +
                              "\"; known:" + names);
}

}  // namespace wfq::sim
