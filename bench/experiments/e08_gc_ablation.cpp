// E8 — design-choice ablation: the GC period G trades live space against
// per-operation time. The paper picks G = p^2 ceil(log2 p) so a GC phase's
// O(p^2 log p log(p+q)) cost amortizes to O(log p log(p+q)) per op.
//
// Harness (real platform, wall clock): 2 threads run enqueue+dequeue pairs
// with G swept from very aggressive to disabled, each queue built through
// the registry factory's parameterized key (bounded:g=<G>; g=-1 disables
// collection entirely). Expected shape: live blocks grow monotonically
// with G and are unbounded when disabled; ns/op has a mild sweet spot —
// tiny G pays frequent GC phases, huge G pays deeper doubling searches.
#include <chrono>
#include <string>

#include "api/experiment.hpp"
#include "api/harness.hpp"
#include "api/queue_registry.hpp"

namespace {

using namespace wfq;

api::AnyQueue<uint64_t> build(int64_t gc_period, uint64_t pairs) {
  return api::make_queue<uint64_t>(
      "bounded:g=" + std::to_string(gc_period),
      api::sized_config(2, api::Backend::real,
                        static_cast<int64_t>(pairs)));
}

/// Wall clock: ns/op of the contended two-thread producer/consumer run.
double timed_ns_per_op(int64_t gc_period, uint64_t pairs) {
  api::AnyQueue<uint64_t> q = build(gc_period, pairs);
  auto start = std::chrono::steady_clock::now();
  api::run_gated_pairs(q, pairs, /*target_q=*/32);
  std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count() / static_cast<double>(2 * pairs);
}

/// Space: a deterministic single-thread replay of the same op count (the
/// raced run ends wherever the gating lands, so its final block count
/// wobbles by ~a GC window between invocations), sampled at the middle of
/// a GC window — the steady state, where half a window of appends is
/// awaiting the next collection. Sampling exactly on a boundary instead
/// would show every G the same post-collection minimum and hide the
/// G-proportional term of Theorem 31's bound.
api::SpaceStats replay_space(int64_t gc_period, uint64_t pairs) {
  api::AnyQueue<uint64_t> q = build(gc_period, pairs);
  q.bind_thread(0);
  uint64_t total = 32 + 2 * pairs;
  if (gc_period > 0) {
    uint64_t g = static_cast<uint64_t>(gc_period);
    total = ((total + g - 1) / g) * g + g / 2;
  }
  uint64_t ops = 0, next = 0;
  for (; ops < 32; ++ops) q.enqueue(next++);  // hold the queue at ~32
  for (; ops < total; ++ops) {
    if (ops % 2 == 0) {
      q.enqueue(next++);
    } else {
      (void)q.dequeue();
    }
  }
  return q.space_stats();
}

api::Report run(const api::RunOptions& opts) {
  api::Report r = api::make_report("gc_ablation");
  const uint64_t pairs = static_cast<uint64_t>(opts.ops_or(20'000));
  r.preamble = {"E8: GC-period ablation (bounded queue, 2 threads, " +
                    std::to_string(pairs) + " enqueue+dequeue pairs,",
                "    queues built as bounded:g=<G> through the registry;",
                "    ns/op is the median of " + std::to_string(api::kReps) +
                    " runs)",
                "    paper default for p=2 is G = p^2 ceil(log2 p) = 4"};
  auto& sec = r.section("E8");
  sec.cols({"G", "ns/op", "live blocks at end", "EBR backlog"});
  struct Cfg {
    const char* label;
    int64_t g;
  };
  for (Cfg cfg : {Cfg{"4 (paper p^2 log p)", 4}, Cfg{"16", 16}, Cfg{"64", 64},
                  Cfg{"256", 256}, Cfg{"1024", 1024}, Cfg{"disabled", -1}}) {
    const stats::Summary ns = api::repeat(
        api::kReps, [&] { return timed_ns_per_op(cfg.g, pairs); });
    const api::SpaceStats space = replay_space(cfg.g, pairs);
    sec.row(cfg.label, api::cell(ns.p50, 0), space.live_blocks,
            space.ebr_retired);
    sec.metric("live_g" + std::to_string(cfg.g),
               static_cast<double>(space.live_blocks));
  }
  sec.note("  expectation: live blocks grow monotonically with G and are");
  sec.note("  unbounded when GC is disabled (~2*ops*(log p+1) blocks);");
  sec.note("  ns/op worsens at the aggressive end (GC every 4 ops) and");
  sec.note("  flattens once GC is rare.");
  return r;
}

const api::ExperimentRegistrar reg{
    {"gc_ablation", "e8", "GC-period space/time trade-off (Section 6)", 8,
     run}};

}  // namespace
