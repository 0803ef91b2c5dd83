// Platform layer: the queue (and baselines) are templated on a Platform that
// supplies Atomic<U>. Every load/store/CAS/fetch&add through an Atomic is one
// shared-memory step in the paper's cost model and is tallied in the calling
// thread's StepCounts.
//
//  - RealPlatform: plain std::atomic operations (plus counting). Used for
//    wall-clock and single-threaded measurements.
//  - SimPlatform: identical, but yields to the cooperative sim scheduler
//    before every access, so the adversary policy controls the interleaving
//    at shared-memory-step granularity.
#pragma once

#include <atomic>

#include "platform/step_counter.hpp"
#include "sim/scheduler.hpp"

namespace wfq::platform {

namespace detail {

/// Yields to the sim scheduler before a shared access, telling the policy
/// what kind of access this process will perform when next granted a step
/// (targeted adversaries like stall-refresh park processes mid-primitive).
template <bool Simulated>
inline void pre_step(sim::StepKind kind) {
  if constexpr (Simulated) sim::Scheduler::yield_point(kind);
  (void)kind;
}

template <bool Simulated, typename U>
class AtomicImpl {
 public:
  AtomicImpl() : v_{} {}
  explicit AtomicImpl(U init) : v_(init) {}

  U load() const {
    pre_step<Simulated>(sim::StepKind::load);
    ++tls_counts().loads;
    return v_.load(std::memory_order_acquire);
  }

  void store(U x) {
    pre_step<Simulated>(sim::StepKind::store);
    ++tls_counts().stores;
    v_.store(x, std::memory_order_release);
  }

  /// store(x) that skips the write when x is already there: the same step,
  /// but a line that other threads read stays shared. For locations with
  /// one writer at a time.
  void store_if_changed(U x) {
    pre_step<Simulated>(sim::StepKind::store);
    ++tls_counts().stores;
    if (v_.load(std::memory_order_relaxed) != x)
      v_.store(x, std::memory_order_release);
  }

  /// Single CAS attempt; counted even on failure (the paper charges the
  /// attempt, which is how the CAS retry problem becomes visible in E4).
  bool cas(U expected, U desired) {
    pre_step<Simulated>(sim::StepKind::cas);
    ++tls_counts().cas_attempts;
    bool ok = v_.compare_exchange_strong(expected, desired,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire);
    if (!ok) ++tls_counts().cas_failures;
    return ok;
  }

  U fetch_add(U d) {
    pre_step<Simulated>(sim::StepKind::faa);
    ++tls_counts().faas;
    return v_.fetch_add(d, std::memory_order_acq_rel);
  }

  /// Uncounted relaxed read for debug introspection (bench printers), or
  /// for a read whose step another access already charged; not a step in
  /// the model.
  U unsafe_peek() const { return v_.load(std::memory_order_relaxed); }

  /// Uncounted initialization store (constructor-time setup only).
  void unsafe_store(U x) { v_.store(x, std::memory_order_release); }

 private:
  std::atomic<U> v_;
};

}  // namespace detail

struct RealPlatform {
  static constexpr bool kSimulated = false;
  template <typename U>
  using Atomic = detail::AtomicImpl<false, U>;
};

struct SimPlatform {
  static constexpr bool kSimulated = true;
  template <typename U>
  using Atomic = detail::AtomicImpl<true, U>;
};

}  // namespace wfq::platform
