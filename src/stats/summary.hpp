// Small numeric helpers shared by the benches: distribution summaries,
// least-squares fits (for the "which growth model wins" shape reports), and
// number formatting.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

namespace wfq::stats {

struct Summary {
  size_t n = 0;
  double mean = 0;
  double min = 0;
  double p50 = 0;
  double p99 = 0;
  double max = 0;
};

/// The repo's one nearest-rank percentile: the value at rank
/// ceil(q/100 * n), 1-based, of an ascending-sorted sample. q is clamped to
/// [0, 100] (q = 0 reads the minimum, q = 100 the maximum); empty input
/// reads 0. summarize() and stats::percentile (qos.hpp) both call it.
inline double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  q = std::min(100.0, std::max(0.0, q));
  size_t n = sorted.size();
  size_t r =
      static_cast<size_t>(std::ceil(q / 100.0 * static_cast<double>(n)));
  if (r == 0) r = 1;
  return sorted[std::min(r, n) - 1];
}

/// Mean plus nearest-rank percentiles of a sample vector. Empty input =>
/// all zeros.
inline Summary summarize(const std::vector<double>& xs) {
  Summary s;
  s.n = xs.size();
  if (xs.empty()) return s;
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  double total = 0;
  for (double x : sorted) total += x;
  s.mean = total / static_cast<double>(s.n);
  s.min = sorted.front();
  s.p50 = nearest_rank(sorted, 50);
  s.p99 = nearest_rank(sorted, 99);
  s.max = sorted.back();
  return s;
}

/// Least-squares slope of y against x. Constant x => 0.
inline double fit_slope(const std::vector<double>& xs,
                        const std::vector<double>& ys) {
  size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return 0;
  double mx = 0, my = 0;
  for (size_t i = 0; i < n; ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0, sxx = 0;
  for (size_t i = 0; i < n; ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
  }
  if (sxx == 0) return 0;
  return sxy / sxx;
}

/// Coefficient of determination R^2 of the least-squares line of y on x.
/// Edge cases: constant y is perfectly explained by any model (1.0);
/// constant x with varying y cannot explain anything (0.0).
inline double fit_r2(const std::vector<double>& xs,
                     const std::vector<double>& ys) {
  size_t n = std::min(xs.size(), ys.size());
  if (n < 2) return 1.0;
  double mx = 0, my = 0;
  for (size_t i = 0; i < n; ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0, sxx = 0, syy = 0;
  for (size_t i = 0; i < n; ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
    syy += (ys[i] - my) * (ys[i] - my);
  }
  if (syy == 0) return 1.0;
  if (sxx == 0) return 0.0;
  return (sxy * sxy) / (sxx * syy);
}

/// Fixed-point formatting for doubles (default 2 decimals).
inline std::string fmt(double v, int precision = 2) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << v;
  return os.str();
}

/// Integers format without a decimal point.
template <typename I, typename = std::enable_if_t<std::is_integral_v<I>>>
std::string fmt(I v) {
  return std::to_string(v);
}

}  // namespace wfq::stats
