// Tenant table for the multi-tenant QoS service layer (ISSUE 7): maps a
// tenant id to its backing queue (any registry key — `ubq`, `bounded:g=8`,
// `faaq`, ... — built through api::make_queue, so the service layer rides
// the same seam as every experiment) plus the per-tenant weight and the
// producer/servicer counters the DWRR scheduler's activation protocol
// needs. Also home of ZipfTraffic, the deterministic Zipf-skew (optionally
// bursty) tenant-arrival generator the E13 experiment family drives its
// workloads with.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/concurrent_queue.hpp"
#include "api/queue_registry.hpp"
#include "core/hash.hpp"

namespace wfq::svc {

/// Per-tenant state. The queue, `weight`, `enqueued` and `active` are
/// written from producer threads; `serviced` and `deficit` are written only
/// by the (single) servicing thread — see DwrrScheduler for the
/// single-servicer contract — but are atomic (relaxed) so stats readers can
/// snapshot them mid-flight without a data race.
template <typename T>
struct TenantEntry {
  explicit TenantEntry(api::AnyQueue<T> q) : queue(std::move(q)) {}

  api::AnyQueue<T> queue;
  /// DWRR weight: the tenant's quantum is weight * quantum_base items per
  /// round. Relaxed atomic so experiments can retune between phases without
  /// a lock; the servicer re-reads it at each round start.
  std::atomic<uint32_t> weight{1};
  /// Completed enqueues, incremented AFTER the backing enqueue returns —
  /// the ordering the scheduler's empty-vs-pending disambiguation relies on.
  std::atomic<uint64_t> enqueued{0};
  /// True while the tenant is in the active ring or queued for activation;
  /// the exchange on this flag is what keeps ring entries unique.
  std::atomic<bool> active{false};
  /// Items handed out by service_next; single-writer (servicer), relaxed
  /// atomic only so concurrent stats snapshots are race-free.
  std::atomic<uint64_t> serviced{0};
  /// DWRR deficit counter (in item-cost units); servicer-written, same
  /// single-writer/relaxed-snapshot contract as `serviced`.
  std::atomic<int64_t> deficit{0};
};

/// Tenant id -> {backing queue, weight, counters}. Entries live in a deque
/// so they never relocate (they hold atomics and the type-erased queue);
/// the tenant count is fixed at construction — "adding a tenant" at this
/// layer means building a wider map, exactly like growing an ordering tree.
template <typename T>
class TenantMap {
 public:
  TenantMap(int ntenants, const std::string& backing_key,
            const api::QueueConfig& cfg)
      : backing_(backing_key) {
    if (ntenants < 1)
      throw std::invalid_argument(
          "svc::TenantMap: tenant count must be >= 1 (got " +
          std::to_string(ntenants) + ")");
    for (int t = 0; t < ntenants; ++t)
      entries_.emplace_back(api::make_queue<T>(backing_key, cfg));
  }

  int size() const { return static_cast<int>(entries_.size()); }
  const std::string& backing() const { return backing_; }

  TenantEntry<T>& entry(int t) {
    if (t < 0 || t >= size())
      throw std::invalid_argument("svc::TenantMap: tenant id " +
                                  std::to_string(t) + " out of range [0, " +
                                  std::to_string(size()) + ")");
    return entries_[static_cast<size_t>(t)];
  }
  const TenantEntry<T>& entry(int t) const {
    return const_cast<TenantMap*>(this)->entry(t);
  }

  /// Weights must stay >= 1: a zero-weight tenant would receive no quantum
  /// and its backlog would sit in the ring forever (DWRR has no concept of
  /// a starved-but-active queue).
  void set_weight(int t, uint32_t w) {
    if (w < 1)
      throw std::invalid_argument(
          "svc::TenantMap: weight must be >= 1 (got " + std::to_string(w) +
          " for tenant " + std::to_string(t) + ")");
    entry(t).weight.store(w, std::memory_order_relaxed);
  }

 private:
  std::string backing_;
  std::deque<TenantEntry<T>> entries_;  // stable addresses, non-movable entries
};

/// Deterministic Zipf-skew tenant-arrival generator: next() returns a
/// tenant id with P(t) proportional to 1/(t+1)^skew (skew 0 = uniform), in
/// bursts of `burst` consecutive arrivals to the same tenant — the bursty
/// arrival pattern E13b's latency runs and E13a's skewed-traffic rows are
/// driven by. xorshift64* over a splitmix64-mixed seed, so any seed
/// (including 0) is valid and the sequence is bit-reproducible.
class ZipfTraffic {
 public:
  ZipfTraffic(int ntenants, double skew, uint64_t seed, int burst = 1)
      : burst_(burst) {
    if (ntenants < 1)
      throw std::invalid_argument(
          "svc::ZipfTraffic: tenant count must be >= 1");
    if (skew < 0)
      throw std::invalid_argument("svc::ZipfTraffic: skew must be >= 0");
    if (burst < 1)
      throw std::invalid_argument("svc::ZipfTraffic: burst must be >= 1");
    // splitmix64 pass (shared finisher, core/hash.hpp): maps every seed
    // (0 included) to a full-period xorshift64* state, unlike feeding the
    // raw seed in (0 is its fixed point — the trap RandomPolicy rejects
    // loudly; here we can mix instead because the seed is never replayed
    // by spec string).
    state_ = core::splitmix64(seed);
    if (state_ == 0) state_ = 0x9e3779b97f4a7c15ULL;
    cdf_.reserve(static_cast<size_t>(ntenants));
    double total = 0;
    for (int t = 0; t < ntenants; ++t) {
      total += 1.0 / std::pow(static_cast<double>(t + 1), skew);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  /// Next arriving tenant id (resampled every `burst` calls).
  int next() {
    if (left_ == 0) {
      // First tenant whose cdf reaches u, clamped to the last tenant (the
      // search range stops short of it) since rounding may leave the last
      // cdf entry a hair under u.
      auto it = std::lower_bound(cdf_.begin(), cdf_.end() - 1, u01());
      cur_ = static_cast<int>(it - cdf_.begin());
      left_ = burst_;
    }
    --left_;
    return cur_;
  }

 private:
  double u01() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    uint64_t x = state_ * 0x2545f4914f6cdd1dULL;
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  }

  std::vector<double> cdf_;
  uint64_t state_;
  int burst_;
  int left_ = 0;
  int cur_ = 0;
};

}  // namespace wfq::svc
