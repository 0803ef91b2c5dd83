// E13 — the multi-tenant QoS experiment family (ISSUE 7): the DWRR service
// layer (src/svc/) measured on fairness, latency and aggregate throughput,
// swept over multiple backing queue keys.
//
// E13a (fairness vs skew): N tenants behind dwrr:<N>:<backing> receive
// Zipf-skewed bursty traffic; a fixed service budget is drained and Jain's
// index of the per-tenant service counts is reported next to a naive
// FIFO-over-one-shared-queue control fed the identical arrival sequence.
// Expected: DWRR holds Jain ~ 1.0 across the whole skew sweep (an active
// tenant's share is its weight share, independent of its arrival share)
// while the FIFO control's index decays toward the arrival skew. A second
// table gives each tenant a weight (1 + t%3) and checks the measured
// service shares against the weight-proportional targets — the acceptance
// gate: DWRR within 10%, FIFO not.
//
// E13b (per-tenant latency under bursty arrivals): run in the sim under the
// bursty:<on>:<off> adversary so enqueue->service latency is measured in
// exact shared steps. Producer pids each flood one tenant; one servicer pid
// drains in DWRR order. Expected: weight-2 tenants see lower p99 than
// weight-1 tenants — weight buys latency, under identical arrivals.
//
// E13c (aggregate throughput vs tenant count): wall-clock cost of the
// service layer itself — prefill N tenant queues, drain through
// service_next, report ns/op and Mops/s vs N per backing, plus the
// scheduler's round count and per-round service estimate.
#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/experiment.hpp"
#include "api/queue_registry.hpp"
#include "api/service_registry.hpp"
#include "platform/affinity.hpp"
#include "sim/adversary.hpp"
#include "sim/scheduler.hpp"
#include "stats/qos.hpp"
#include "svc/zipf_traffic.hpp"

namespace {

using namespace wfq;

/// Per-tenant service counts after draining `budget` items from a freshly
/// built dwrr:<n>:<backing> facade fed `arrivals` (one enqueue per entry).
std::vector<double> dwrr_service_counts(const std::string& backing,
                                        int ntenants,
                                        const std::vector<int>& arrivals,
                                        int64_t budget,
                                        const std::vector<uint32_t>& weights) {
  api::QueueConfig cfg = api::sized_config(
      1, api::Backend::real, static_cast<int64_t>(arrivals.size()));
  svc::ServiceFacade<uint64_t> s = api::make_service<uint64_t>(
      "dwrr:" + std::to_string(ntenants) + ":" + backing, cfg);
  s.bind_thread(0);
  for (size_t t = 0; t < weights.size(); ++t)
    s.set_weight(static_cast<int>(t), weights[t]);
  std::vector<uint64_t> seq(static_cast<size_t>(ntenants), 0);
  for (int t : arrivals)
    s.enqueue(t, (static_cast<uint64_t>(t) << 32) | seq[static_cast<size_t>(t)]++);
  std::vector<double> counts(static_cast<size_t>(ntenants), 0);
  for (int64_t k = 0; k < budget; ++k) {
    auto got = s.service_next();
    if (!got) break;
    counts[static_cast<size_t>(got->tenant)] += 1;
  }
  return counts;
}

/// The naive control: ONE shared queue of key `backing`, the identical
/// arrival sequence, FIFO drain — service order is arrival order, so the
/// service shares mirror the traffic mix instead of the configured weights.
std::vector<double> fifo_service_counts(const std::string& backing,
                                        int ntenants,
                                        const std::vector<int>& arrivals,
                                        int64_t budget) {
  api::QueueConfig cfg = api::sized_config(
      1, api::Backend::real, static_cast<int64_t>(arrivals.size()));
  api::AnyQueue<uint64_t> q = api::make_queue<uint64_t>(backing, cfg);
  q.bind_thread(0);
  std::vector<uint64_t> seq(static_cast<size_t>(ntenants), 0);
  for (int t : arrivals)
    q.enqueue((static_cast<uint64_t>(t) << 32) | seq[static_cast<size_t>(t)]++);
  std::vector<double> counts(static_cast<size_t>(ntenants), 0);
  for (int64_t k = 0; k < budget; ++k) {
    auto got = q.dequeue();
    if (!got) break;
    counts[static_cast<size_t>(*got >> 32)] += 1;
  }
  return counts;
}

/// Max relative deviation of measured service shares from the
/// weight-proportional targets: max_t |share_t - w_t/W| / (w_t/W).
double max_weight_deviation(const std::vector<double>& counts,
                            const std::vector<uint32_t>& weights) {
  double total = 0, wtotal = 0;
  for (double c : counts) total += c;
  for (uint32_t w : weights) wtotal += w;
  if (total == 0 || wtotal == 0) return 0;
  double dev = 0;
  for (size_t t = 0; t < counts.size(); ++t) {
    double target = static_cast<double>(weights[t]) / wtotal;
    double share = counts[t] / total;
    double d = (share - target) / target;
    if (d < 0) d = -d;
    if (d > dev) dev = d;
  }
  return dev;
}

api::Report run_fairness(const api::RunOptions& opts) {
  api::Report r = api::make_report("qos_fairness");
  const int ntenants = 8;
  const int64_t arrivals_n = opts.ops_or(20'000);
  const int64_t budget = arrivals_n / 10;
  const auto backings = api::queue_keys_or(opts.queues, {"ubq", "faaq"});
  const uint64_t seed = opts.seed;
  r.preamble = {
      "E13a: Jain's fairness index vs Zipf skew, dwrr:" +
          std::to_string(ntenants) + ":<backing> vs FIFO-shared-queue "
          "control",
      "      " + std::to_string(arrivals_n) + " arrivals (burst 16), " +
          std::to_string(budget) + " services, seed " + std::to_string(seed)};

  const std::vector<uint32_t> equal(static_cast<size_t>(ntenants), 1);
  {
    auto& sec = r.section("E13a");
    std::vector<std::string> cols = {"zipf skew"};
    for (const std::string& b : backings) {
      cols.push_back("jain dwrr " + b);
      cols.push_back("jain fifo " + b);
    }
    sec.cols(cols);
    for (double skew : {0.0, 0.6, 1.2, 1.8}) {
      // One arrival sequence per (skew) row, replayed for every backing and
      // for the FIFO control — the comparison must see identical traffic.
      svc::ZipfTraffic traffic(ntenants, skew, seed, /*burst=*/16);
      std::vector<int> arrivals;
      arrivals.reserve(static_cast<size_t>(arrivals_n));
      for (int64_t i = 0; i < arrivals_n; ++i) arrivals.push_back(traffic.next());
      std::vector<api::Cell> row = {api::cell(skew, 1)};
      for (const std::string& b : backings) {
        double jd = stats::jain_index(
            dwrr_service_counts(b, ntenants, arrivals, budget, equal));
        double jf = stats::jain_index(
            fifo_service_counts(b, ntenants, arrivals, budget));
        row.push_back(api::cell(jd, 4));
        row.push_back(api::cell(jf, 4));
        if (skew == 0.0) sec.metric("jain_uniform_dwrr_" + b, jd);
        if (skew == 1.8) sec.metric("jain_zipf18_fifo_" + b, jf);
      }
      sec.rows.push_back(std::move(row));
    }
    sec.note("  gate: jain dwrr >= 0.99 on the skew-0 (uniform) row for");
    sec.note("  every backing; the fifo columns decay with skew because a");
    sec.note("  shared queue serves the traffic mix, not the tenants.");
  }

  {
    auto& sec = r.section("E13a-w");
    sec.pre("");
    sec.pre("E13a-w: weighted shares under Zipf-skewed bursty traffic");
    sec.pre("        (skew 1.2, burst 16), weights 1 + t%3: max relative");
    sec.pre("        deviation of service shares from weight targets");
    sec.pre("");
    std::vector<uint32_t> weights(static_cast<size_t>(ntenants));
    for (int t = 0; t < ntenants; ++t)
      weights[static_cast<size_t>(t)] = 1 + static_cast<uint32_t>(t % 3);
    svc::ZipfTraffic traffic(ntenants, 1.2, seed, /*burst=*/16);
    std::vector<int> arrivals;
    arrivals.reserve(static_cast<size_t>(arrivals_n));
    for (int64_t i = 0; i < arrivals_n; ++i) arrivals.push_back(traffic.next());
    sec.cols({"backing", "maxdev dwrr", "maxdev fifo"});
    for (const std::string& b : backings) {
      double dd = max_weight_deviation(
          dwrr_service_counts(b, ntenants, arrivals, budget, weights),
          weights);
      double df = max_weight_deviation(
          fifo_service_counts(b, ntenants, arrivals, budget), weights);
      sec.row(b, api::cell(dd, 4), api::cell(df, 4));
      sec.metric("maxdev_dwrr_" + b, dd);
      sec.metric("maxdev_fifo_" + b, df);
    }
    sec.note("  gate: maxdev dwrr <= 0.10 (shares track weights within 10%)");
    sec.note("  while maxdev fifo does not — the control serves the Zipf");
    sec.note("  head far beyond its weight share.");
  }
  return r;
}

api::Report run_latency(const api::RunOptions& opts) {
  api::Report r = api::make_report("qos_latency");
  const int ntenants = 4;  // one producer pid per tenant + one servicer pid
  const int procs = ntenants + 1;
  const int64_t K = opts.ops_or(64);
  const std::string adversary = opts.adversary_or("bursty:12:36");
  const auto backings = api::queue_keys_or(opts.queues, {"ubq", "faaq"});
  r.preamble = {
      "E13b: enqueue->service latency in exact shared steps (sim), " +
          std::to_string(ntenants) + " producer pids + 1 servicer pid",
      "      adversary " + adversary + ", K=" + std::to_string(K) +
          " items/tenant, weights 1 + t%2"};

  for (const std::string& b : backings) {
    auto& sec = r.section("E13b:" + b);
    sec.pre("");
    sec.pre("E13b [" + b + "]");
    sec.cols({"tenant", "weight", "p50 steps", "p99 steps"});
    api::QueueConfig cfg;
    cfg.procs = procs;
    cfg.backend = api::Backend::sim;
    svc::ServiceFacade<uint64_t> s = api::make_service<uint64_t>(
        "dwrr:" + std::to_string(ntenants) + ":" + b, cfg);
    for (int t = 0; t < ntenants; ++t)
      s.set_weight(t, 1 + static_cast<uint32_t>(t % 2));

    // arrival_step[t][k], service_step[t][k]: plain memory is fine — the
    // sim baton serializes all bodies, and sched.steps() may be read by
    // whichever body currently holds it.
    std::vector<std::vector<double>> arrival(
        static_cast<size_t>(ntenants),
        std::vector<double>(static_cast<size_t>(K), 0));
    std::vector<std::vector<double>> latency(static_cast<size_t>(ntenants));

    sim::Scheduler sched(sim::make_policy(adversary));
    std::vector<std::function<void()>> bodies;
    for (int t = 0; t < ntenants; ++t) {
      bodies.emplace_back([&, t] {
        s.bind_thread(t);
        for (int64_t k = 0; k < K; ++k) {
          // Arrival stamp BEFORE the enqueue: the servicer may drain the
          // item before this producer runs again.
          arrival[static_cast<size_t>(t)][static_cast<size_t>(k)] =
              static_cast<double>(sched.steps());
          s.enqueue(t, static_cast<uint64_t>(k));
        }
      });
    }
    bodies.emplace_back([&] {
      s.bind_thread(ntenants);
      int64_t total = static_cast<int64_t>(ntenants) * K;
      int64_t got = 0;
      while (got < total) {
        auto item = s.service_next();
        if (!item) {
          // Empty ring: the facade's control state is uncounted, so spin
          // through an explicit yield point or the baton never moves.
          sim::Scheduler::yield_point(sim::StepKind::load);
          continue;
        }
        ++got;
        double now = static_cast<double>(sched.steps());
        latency[static_cast<size_t>(item->tenant)].push_back(
            now - arrival[static_cast<size_t>(item->tenant)]
                         [static_cast<size_t>(item->value)]);
      }
    });
    sched.run(std::move(bodies));

    std::vector<double> w1_all, w2_all;
    for (int t = 0; t < ntenants; ++t) {
      const auto& lat = latency[static_cast<size_t>(t)];
      uint32_t w = 1 + static_cast<uint32_t>(t % 2);
      sec.row(t, w, api::cell(stats::percentile(lat, 50), 0),
              api::cell(stats::percentile(lat, 99), 0));
      auto& bucket = (w == 1) ? w1_all : w2_all;
      bucket.insert(bucket.end(), lat.begin(), lat.end());
    }
    sec.metric("p99_w1_" + b, stats::percentile(w1_all, 99));
    sec.metric("p99_w2_" + b, stats::percentile(w2_all, 99));
    sec.note("  expectation: the weight-2 tenants' p99 sits below the");
    sec.note("  weight-1 tenants' — under identical bursty arrivals, weight");
    sec.note("  buys tail latency.");
  }
  return r;
}

api::Report run_throughput(const api::RunOptions& opts) {
  api::Report r = api::make_report("qos_throughput");
  const auto tenant_counts = opts.procs_or({2, 4, 8, 16, 32});
  const int64_t total_ops = opts.ops_or(40'000);
  const auto backings = api::queue_keys_or(opts.queues, {"ubq", "faaq"});
  r.preamble = {
      "E13c: service-loop throughput vs tenant count (real platform, one",
      "      servicing thread; " + std::to_string(total_ops) +
          " items prefilled round-robin, drained via service_next;",
      "      ns/op is the median of " + std::to_string(api::kReps) +
          " runs)"};
  // Pin the servicing thread for the whole sweep: wall-clock ns/op rows
  // are not comparable if the scheduler migrates the thread mid-sweep
  // (best-effort; no-op where unsupported — see platform/affinity.hpp).
  platform::pin_thread_to_core(0);
  for (const std::string& b : backings) {
    auto& sec = r.section("E13c:" + b);
    sec.pre("");
    sec.pre("E13c [" + b + "]");
    sec.cols({"tenants", "ns/op", "Mops/s", "rounds", "est items/round"});
    for (int n : tenant_counts) {
      const auto [ns, rounds, estimate] = api::repeat(api::kReps, [&] {
        api::QueueConfig cfg = api::sized_config(1, api::Backend::real,
                                                 total_ops);
        svc::ServiceFacade<uint64_t> s = api::make_service<uint64_t>(
            "dwrr:" + std::to_string(n) + ":" + b, cfg);
        s.bind_thread(0);
        for (int64_t i = 0; i < total_ops; ++i)
          s.enqueue(static_cast<int>(i % n), static_cast<uint64_t>(i));
        auto start = std::chrono::steady_clock::now();
        int64_t got = 0;
        while (got < total_ops && s.service_next()) ++got;
        std::chrono::duration<double, std::nano> elapsed =
            std::chrono::steady_clock::now() - start;
        const double ns_per_item =
            elapsed.count() / static_cast<double>(got > 0 ? got : 1);
        return std::array{ns_per_item, static_cast<double>(s.rounds()),
                          s.round_service_estimate()};
      });
      sec.row(n, api::cell(ns.p50, 0),
              api::cell(ns.p50 > 0 ? 1000.0 / ns.p50 : 0.0),
              api::cell(static_cast<int64_t>(rounds.p50)),
              api::cell(estimate.p50));
      if (n == tenant_counts.back())
        sec.metric("ns_per_op_" + b + "_n" + std::to_string(n), ns);
    }
    sec.note("  expectation: ns/op stays near-flat in the tenant count —");
    sec.note("  the ring visit is O(1) per served item while every tenant");
    sec.note("  stays backlogged (deactivation never fires mid-drain).");
  }
  return r;
}

const api::ExperimentRegistrar reg_a{
    {"qos_fairness", "e13a",
     "DWRR fairness (Jain's index, weighted shares) vs Zipf skew over "
     "backing queues",
     13, run_fairness}};
const api::ExperimentRegistrar reg_b{
    {"qos_latency", "e13b",
     "per-tenant enqueue->service latency under bursty arrivals (sim steps)",
     13, run_latency}};
const api::ExperimentRegistrar reg_c{
    {"qos_throughput", "e13c",
     "aggregate service-loop throughput vs tenant count", 13,
     run_throughput}};

}  // namespace
