// QoS metrics for the multi-tenant service layer (ISSUE 7): Jain's fairness
// index over per-tenant throughput samples, and the percentile of an
// unsorted latency sample. The rank rule itself lives once, in
// summary.hpp's nearest_rank; this header only adds the copy-and-sort.
#pragma once

#include <algorithm>
#include <vector>

#include "stats/summary.hpp"

namespace wfq::stats {

/// Jain's fairness index (sum x)^2 / (n * sum x^2) over per-tenant
/// allocations: 1.0 when every tenant gets the same share, 1/n when one
/// tenant gets everything. Empty input and all-zero input both read 1.0 —
/// with nothing allocated there is no tenant being favored over another
/// (the conventional "equally (un)served" reading), and E13a's sweeps must
/// not divide by zero on a row where no service happened.
inline double jain_index(const std::vector<double>& xs) {
  if (xs.empty()) return 1.0;
  double sum = 0, sumsq = 0;
  for (double x : xs) {
    sum += x;
    sumsq += x * x;
  }
  if (sumsq == 0) return 1.0;
  return (sum * sum) / (static_cast<double>(xs.size()) * sumsq);
}

/// Nearest-rank percentile of an unsorted sample (stats::nearest_rank over
/// a sorted copy): q is clamped to [0, 100], empty input reads 0.
inline double percentile(const std::vector<double>& xs, double q) {
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  return nearest_rank(sorted, q);
}

}  // namespace wfq::stats
