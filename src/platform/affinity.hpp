// Thread-pinning and naming helpers: wall-clock experiments (E13c
// service-loop ns/item, the E14 broker rig) pin their servicer/loadgen
// threads so throughput numbers stop wandering with the OS scheduler's
// placement choices run to run. Pinning is best-effort by design: on a
// single-core host (this repo's usual CI class) or a platform without
// pthread_setaffinity_np it is a no-op that reports false, and callers
// proceed unpinned — a bench must never fail because the host cannot pin.
#pragma once

#include <string>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace wfq::platform {

/// Number of logical cores visible to this process (>= 1).
inline int hardware_cores() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

/// Pins the CALLING thread to `core` (wrapped modulo the visible core
/// count, so callers can hand out dense indices without counting cores).
/// Returns true iff the affinity call succeeded; false on non-Linux
/// platforms, on failure, and — by the modulo — never out of range.
inline bool pin_thread_to_core(int core) {
#if defined(__linux__)
  int ncores = hardware_cores();
  if (core < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<size_t>(core % ncores), &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
#else
  (void)core;
  return false;
#endif
}

/// Names the CALLING thread (top -H, /proc/<pid>/task/*/comm, debuggers);
/// Linux keeps the first 15 characters. No-op elsewhere.
inline void name_thread(const std::string& name) {
#if defined(__linux__)
  pthread_setname_np(pthread_self(), name.substr(0, 15).c_str());
#else
  (void)name;
#endif
}

}  // namespace wfq::platform
