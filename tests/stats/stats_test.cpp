// Unit tests for the stats helpers the bench tables and shape reports use,
// and for api::repeat, the experiments' one repetition rule built on them.
#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "api/experiment.hpp"
#include "stats/qos.hpp"
#include "stats/shape.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"
#include "test_util.hpp"

namespace {

bool near(double a, double b, double eps = 1e-9) {
  return std::fabs(a - b) < eps;
}

void test_summarize() {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  auto s = wfq::stats::summarize(xs);
  CHECK_EQ(s.n, 100u);
  CHECK(near(s.mean, 50.5));
  CHECK(near(s.min, 1.0));
  CHECK(near(s.p50, 50.0));   // nearest-rank: ceil(0.50*100) = rank 50
  CHECK(near(s.p99, 99.0));   // nearest-rank: ceil(0.99*100) = rank 99
  CHECK(near(s.max, 100.0));

  auto one = wfq::stats::summarize({42.0});
  CHECK(near(one.mean, 42.0));
  CHECK(near(one.p99, 42.0));
  CHECK(near(one.max, 42.0));

  auto empty = wfq::stats::summarize({});
  CHECK_EQ(empty.n, 0u);
  CHECK(near(empty.mean, 0.0));
}

void test_fits() {
  // Perfect linear fit: R^2 exactly 1, slope exactly 2.
  std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys = {3, 5, 7, 9, 11};
  CHECK(near(wfq::stats::fit_r2(xs, ys), 1.0, 1e-12));
  CHECK(near(wfq::stats::fit_slope(xs, ys), 2.0, 1e-12));

  // Constant y: any model explains it perfectly (R^2 = 1, slope 0).
  std::vector<double> flat = {4, 4, 4, 4, 4};
  CHECK(near(wfq::stats::fit_r2(xs, flat), 1.0));
  CHECK(near(wfq::stats::fit_slope(xs, flat), 0.0));

  // Constant x with varying y: nothing explained (R^2 = 0, slope 0).
  std::vector<double> constx = {2, 2, 2, 2, 2};
  CHECK(near(wfq::stats::fit_r2(constx, ys), 0.0));
  CHECK(near(wfq::stats::fit_slope(constx, ys), 0.0));

  // Noisy data: 0 < R^2 < 1, and clearly better for the true model.
  std::vector<double> noisy = {3.1, 4.8, 7.2, 8.9, 11.1};
  double r = wfq::stats::fit_r2(xs, noisy);
  CHECK(r > 0.99 && r < 1.0);
}

// The growth-model selection rule (moved from bench/common.hpp into
// stats/shape.hpp): smallest model wins unless a larger one improves R^2 by
// more than the 2% margin. The margin cases were previously untested.
void test_pick_model_margin() {
  using wfq::stats::pick_model;
  // Clear winners.
  CHECK_EQ(pick_model(0.99, 0.80, 0.70), std::string("log p"));
  CHECK_EQ(pick_model(0.80, 0.99, 0.70), std::string("log^2 p"));
  CHECK_EQ(pick_model(0.50, 0.60, 0.99), std::string("p"));
  // Within-margin ties break toward the smaller model: log^2 p and p each
  // lead log p by <= 0.02, so log p keeps the crown.
  CHECK_EQ(pick_model(0.98, 1.00, 0.70), std::string("log p"));
  CHECK_EQ(pick_model(0.98, 0.70, 1.00), std::string("log p"));
  CHECK_EQ(pick_model(0.99, 1.00, 1.00), std::string("log p"));
  // Just past the margin flips the decision.
  CHECK_EQ(pick_model(0.97, 0.995, 0.70), std::string("log^2 p"));
  CHECK_EQ(pick_model(0.97, 0.70, 0.995), std::string("p"));
  // p must beat the *incumbent* (possibly log^2 p), not log p: here
  // log^2 p takes over from log p, and p's lead over log^2 p is within
  // the margin, so log^2 p stays.
  CHECK_EQ(pick_model(0.90, 0.99, 1.00), std::string("log^2 p"));
  // Chained upgrade: p clears both hurdles.
  CHECK_EQ(pick_model(0.90, 0.94, 0.99), std::string("p"));
}

void test_fit_shape() {
  std::vector<double> ps = {2, 4, 8, 16, 32, 64};
  // Exact logarithmic data: R^2[log p] = 1 and log p wins.
  std::vector<double> ylog, ylog2, ylin;
  for (double p : ps) {
    double l = std::log2(p);
    ylog.push_back(3 * l + 1);
    ylog2.push_back(2 * l * l + 5);
    ylin.push_back(4 * p + 7);
  }
  auto f = wfq::stats::fit_shape(ps, ylog);
  CHECK(near(f.r2_logp, 1.0, 1e-12));
  CHECK_EQ(f.best, std::string("log p"));
  CHECK_EQ(wfq::stats::fit_shape(ps, ylog2).best, std::string("log^2 p"));
  auto flin = wfq::stats::fit_shape(ps, ylin);
  CHECK(near(flin.r2_linp, 1.0, 1e-12));
  CHECK_EQ(flin.best, std::string("p"));
  // p-values below 1 are clamped to log2(1) = 0, not NaN.
  auto clamped = wfq::stats::fit_shape({0.5, 2, 4}, {1, 2, 3});
  CHECK(std::isfinite(clamped.r2_logp));
  // Two points fit every model exactly — no "best" verdict is fabricated.
  auto two = wfq::stats::fit_shape({8, 32}, {10, 40});
  CHECK_EQ(two.best, std::string("indeterminate (<3 points)"));
  CHECK_EQ(wfq::stats::fit_shape({}, {}).best,
           std::string("indeterminate (<3 points)"));
  // Same for constant series (e.g. an unmeasured all-zero step sweep):
  // every model "fits" a flat line, so no growth verdict is claimed.
  auto flat3 = wfq::stats::fit_shape({2, 8, 32}, {0, 0, 0});
  CHECK_EQ(flat3.best, std::string("indeterminate (constant series)"));
  // Degenerate grid (all-equal p, e.g. a single-p sweep with repeats): the
  // predictor has zero variance, so every R^2 is 0 and no model verdict is
  // fabricated out of the sxx==0 convention.
  auto degen = wfq::stats::fit_shape({8, 8, 8}, {1, 2, 3});
  CHECK_EQ(degen.best, std::string("indeterminate (degenerate grid)"));
  CHECK(near(degen.r2_logp, 0.0));
  CHECK(near(degen.r2_log2p, 0.0));
  CHECK(near(degen.r2_linp, 0.0));
  CHECK(std::isfinite(degen.r2_logp) && std::isfinite(degen.r2_linp));
  // Degenerate grid AND constant series: the grid verdict wins (the data
  // says nothing about growth in p either way, but the grid is the root
  // cause a user can fix by widening the sweep).
  CHECK_EQ(wfq::stats::fit_shape({4, 4, 4}, {5, 5, 5}).best,
           std::string("indeterminate (degenerate grid)"));
  // A two-point degenerate grid still reports the <3-points verdict first.
  CHECK_EQ(wfq::stats::fit_shape({8, 8}, {1, 2}).best,
           std::string("indeterminate (<3 points)"));
  // The rendered line keeps the historical format.
  std::string line = wfq::stats::shape_line("series-x", flin);
  CHECK(line.find("shape(series-x)") != std::string::npos);
  CHECK(line.find("-> best: p") != std::string::npos);
}

void test_fmt() {
  CHECK_EQ(wfq::stats::fmt(3.14159, 3), std::string("3.142"));
  CHECK_EQ(wfq::stats::fmt(2.5, 0), std::string("2"));  // banker's-free fixed
  CHECK_EQ(wfq::stats::fmt(42), std::string("42"));
  CHECK_EQ(wfq::stats::fmt(static_cast<uint64_t>(1) << 40),
           std::string("1099511627776"));
  CHECK_EQ(wfq::stats::fmt(-7), std::string("-7"));
  CHECK_EQ(wfq::stats::fmt(1.0), std::string("1.00"));  // default 2 decimals
}

void test_table_alignment() {
  wfq::stats::Table t({"p", "steps/op", "label"});
  t.add_row({"2", "10.25", "x"});
  t.add_row({"64", "7", "longer-label"});
  std::ostringstream os;
  t.print(os);
  std::istringstream is(os.str());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(is, line)) lines.push_back(line);
  CHECK_EQ(lines.size(), 4u);  // header + rule + 2 rows
  // Aligned columns => every line has identical width.
  for (const auto& l : lines) CHECK_EQ(l.size(), lines[0].size());
  // Right-alignment: cells end at the same offset, so "10.25" and the header
  // "steps/op" share their last character column.
  CHECK(lines[0].find("steps/op") != std::string::npos);
  CHECK_EQ(lines[0].find("steps/op") + 8, lines[2].find("10.25") + 5);
}

// QoS helpers for the E13 family (ISSUE 7 satellite): Jain's index and the
// nearest-rank percentile, including the degenerate inputs the experiment
// sweeps can produce.
void test_qos() {
  using wfq::stats::jain_index;
  using wfq::stats::percentile;
  // Jain: empty and single-tenant inputs read 1.0 (nothing to be unfair
  // about), as does any all-equal allocation.
  CHECK(near(jain_index({}), 1.0));
  CHECK(near(jain_index({5.0}), 1.0));
  CHECK(near(jain_index({3.0, 3.0, 3.0}), 1.0));
  CHECK(near(jain_index({0.0, 0.0}), 1.0));  // all-zero: no division blowup
  // One tenant hogging everything reads 1/n.
  CHECK(near(jain_index({1.0, 0.0, 0.0, 0.0}), 0.25));
  // Hand-computed mixed case: (1+2+3+4)^2 / (4 * 30) = 100/120.
  CHECK(near(jain_index({1.0, 2.0, 3.0, 4.0}), 100.0 / 120.0));

  // Percentile: empty reads 0, single sample is every percentile.
  CHECK(near(percentile({}, 99), 0.0));
  CHECK(near(percentile({7.0}, 0), 7.0));
  CHECK(near(percentile({7.0}, 100), 7.0));
  // Nearest-rank over 1..100 matches stats::summarize's convention, and the
  // input need not be sorted.
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);
  CHECK(near(percentile(xs, 50), 50.0));
  CHECK(near(percentile(xs, 99), 99.0));
  CHECK(near(percentile(xs, 100), 100.0));
  CHECK(near(percentile(xs, 0), 1.0));    // q=0 clamps to the minimum
  CHECK(near(percentile(xs, 150), 100.0));  // out-of-range q clamps
}

// The experiments' one repetition rule: api::repeat calls f exactly n
// times and summarizes what it returned with stats::summarize; for odd n
// the median is one of the returned values. The std::array form
// summarizes each field across the same calls.
void test_repeat() {
  using wfq::api::repeat;
  using wfq::stats::Summary;
  const std::vector<double> values = {5.0, -1.0, 9.5, 3.0, 7.25};
  for (int n : {1, 3, 5}) {
    int calls = 0;
    std::vector<double> returned;
    Summary s = repeat(n, [&] {
      double v = values[static_cast<size_t>(calls++)];
      returned.push_back(v);
      return v;
    });
    CHECK_EQ(calls, n);
    Summary want = wfq::stats::summarize(returned);
    CHECK_EQ(s.n, want.n);
    CHECK_EQ(s.mean, want.mean);
    CHECK_EQ(s.min, want.min);
    CHECK_EQ(s.p50, want.p50);
    CHECK_EQ(s.p99, want.p99);
    CHECK_EQ(s.max, want.max);
    CHECK(std::find(returned.begin(), returned.end(), s.p50) !=
          returned.end());
  }
  CHECK_EQ(wfq::api::kReps % 2, 1);  // odd: the median is a real run

  int calls = 0;
  auto [a, b] = repeat(3, [&] {
    ++calls;
    return std::array{double(calls), 10.0 * calls};
  });
  CHECK_EQ(calls, 3);
  CHECK_EQ(a.p50, 2.0);
  CHECK_EQ(b.min, 10.0);
  CHECK_EQ(b.p50, 20.0);
  CHECK_EQ(b.max, 30.0);
}

}  // namespace

int main() {
  test_summarize();
  test_fits();
  test_pick_model_margin();
  test_fit_shape();
  test_fmt();
  test_table_alignment();
  test_qos();
  test_repeat();
  return wfq::test::exit_code();
}
