// ZipfTraffic: the deterministic Zipf-skew (optionally bursty)
// tenant-arrival generator the E13 experiment family drives the service
// layer (svc/service.hpp) with.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/hash.hpp"

namespace wfq::svc {

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
