// E6 — Theorem 31: the bounded-space queue keeps reachable memory at
// O(p*q_max + p^3 log p) words, while the unbounded version's block count
// grows linearly with the number of operations ever performed.
//
// Harness (real platform, 2 threads): run N enqueue+dequeue pairs with the
// queue size held ~q; sample live block counts as N grows. Expected shape:
// unbounded proportional to N; bounded plateaus at a level that scales with
// q and G, not N. Queues are built through the registry factory, so
// --queues can swap in any key (e.g. bounded:g=4,bounded:g=-1; the GC
// period is named only there); --ops N sets the largest pair count of the
// swept grid {N/16, N/4, N}.
#include <algorithm>
#include <string>
#include <vector>

#include "api/experiment.hpp"
#include "api/harness.hpp"
#include "api/queue_registry.hpp"

namespace {

using namespace wfq;

api::Report run(const api::RunOptions& opts) {
  api::Report r = api::make_report("space");
  const std::string bounded_key = "bounded:g=64";
  const uint64_t max_pairs = static_cast<uint64_t>(opts.ops_or(32'000));
  const std::vector<std::string> queues =
      api::queue_keys_or(opts.queues, {"ubq", bounded_key});
  r.preamble = {
      "E6: live blocks vs operations performed (Theorem 31)",
      "    2 threads, queue size held ~q; pair grid {N/16, N/4, N} with",
      "    N=" + std::to_string(max_pairs) + " (--ops N); bounded queue is",
      "    " + bounded_key + " (--queues; default G=64 — the paper's p^2",
      "    log p scaled down so the plateau is visible in a short run)"};
  auto& sec = r.section("E6");
  sec.cols({"queue", "ops (pairs)", "q", "live blocks", "EBR backlog",
            "blocks/pair"});
  const std::vector<uint64_t> grid = {std::max<uint64_t>(1, max_pairs / 16),
                                      std::max<uint64_t>(1, max_pairs / 4),
                                      max_pairs};
  for (const std::string& qname : queues) {
    for (uint64_t q_target : {16u, 256u}) {
      double first = 0, last = 0;
      bool known = true;
      for (uint64_t pairs : grid) {
        api::AnyQueue<uint64_t> q = api::make_queue<uint64_t>(
            qname, api::sized_config(2, api::Backend::real,
                                     static_cast<int64_t>(pairs)));
        api::run_gated_pairs(q, pairs, q_target);
        api::SpaceStats st = q.space_stats();
        sec.row(qname, pairs, q_target,
                st.known ? api::cell(st.live_blocks) : api::cell("-"),
                st.known ? api::cell(st.ebr_retired) : api::cell("-"),
                st.known ? api::cell(static_cast<double>(st.live_blocks) /
                                         static_cast<double>(pairs),
                                     3)
                         : api::cell("-"));
        known = known && st.known;
        if (pairs == grid.front()) first = static_cast<double>(st.live_blocks);
        if (pairs == grid.back()) last = static_cast<double>(st.live_blocks);
      }
      // Plateau headline: final/initial live blocks over a 16x op growth.
      // ~1 for the bounded queue (Theorem 31), ~16 for the unbounded one.
      // Queues with no space surface get no metric — a 0 would read as a
      // perfect plateau in the archived BENCH_space.json.
      if (known)
        sec.metric("growth_" + qname + "_q" + std::to_string(q_target),
                   first > 0 ? last / first : 0);
    }
  }
  sec.note("  paper expectation: unbounded grows ~ 2*(log p + 1)*ops;");
  sec.note("  bounded stays flat as ops grow 16x (the growth_* metrics:");
  sec.note("  ~16 unbounded, ~1 bounded; plateau scales with q and G, not");
  sec.note("  ops). EBR backlog is transient garbage, also bounded.");
  return r;
}

const api::ExperimentRegistrar reg{
    {"space", "e6",
     "live blocks vs operations: unbounded vs bounded queue (Theorem 31)",
     6, run}};

}  // namespace
