// E12 (ablation) — why FindResponse uses a *doubling* search (Bentley-Yao)
// rather than a plain binary search over all root blocks (line 91 /
// Lemma 20): the doubling search costs O(log(b - b_e)) — distance to the
// answer — while a full binary search costs O(log b) — the entire history
// length — which would break Theorem 22's independence from the number of
// operations ever performed.
//
// Harness: build a root blocks array with H total blocks (single process:
// one op per block) where the dequeue frontier sits near the end; count the
// probes of the queue's own search templates (core/ordering_tree.hpp) over
// that real array when resolving the next dequeue's enqueue block:
// gallop_down from the dequeue's block (what find_response runs) against a
// bisect over all of [0, b]. Expected: doubling stays flat as H grows
// (distance is fixed by the queue size), full binary search grows with
// log H.
#include <cmath>
#include <stdexcept>

#include "api/experiment.hpp"
#include "api/harness.hpp"
#include "core/unbounded_queue.hpp"

namespace {

using namespace wfq;
using Queue = core::UnboundedQueue<uint64_t>;
using Block = Queue::Block;
using Node = Queue::Node;

struct Cost {
  int doubling = 0;
  int full_binary = 0;
};

// `b` = dequeue's block (sumenq(b) >= e), `e` = target enqueue rank.
Cost search_costs(const Node* root, int64_t b, int64_t e) {
  Cost c;
  auto counting = [&](int& n) {
    return [&n, root, e](int64_t s) {
      ++n;
      return root->blocks.load(s)->sumenq >= e;
    };
  };
  if (core::gallop_down(b, counting(c.doubling)) !=
      core::bisect(0, b, counting(c.full_binary)))
    throw std::logic_error("E12: the two searches disagree");
  return c;
}

api::Report run(const api::RunOptions& opts) {
  api::Report r = api::make_report("search_ablation");
  (void)opts;
  r.preamble = {"E12: doubling vs full binary search in FindResponse "
                "(Lemma 20 ablation)",
                "     queue size fixed at q=32; history length H grows"};
  auto& sec = r.section("E12");
  sec.cols({"history H (blocks)", "doubling loads", "full-binary loads"});
  std::vector<double> hs, dbl, fb;
  for (int64_t churn : {100, 1'000, 10'000, 100'000}) {
    Queue q(1);
    constexpr int64_t kQ = 32;
    for (int64_t i = 0; i < kQ; ++i) q.enqueue(static_cast<uint64_t>(i));
    for (int64_t i = 0; i < churn; ++i) {
      q.enqueue(static_cast<uint64_t>(kQ + i));
      (void)q.dequeue();
    }
    const Node* root = q.debug_root();
    int64_t head = root->head.unsafe_peek();
    int64_t b = head - 1;  // next dequeue would land right after the frontier
    const Block* prev = root->blocks.load(b - 1);
    int64_t e = 1 + prev->sumenq - prev->size;  // rank of the head element
    Cost c = search_costs(root, b, e);
    sec.row(head - 1, c.doubling, c.full_binary);
    hs.push_back(static_cast<double>(head - 1));
    dbl.push_back(c.doubling);
    fb.push_back(c.full_binary);
  }
  std::vector<double> logh;
  for (double h : hs) logh.push_back(std::log2(h));
  double slope_dbl = stats::fit_slope(logh, dbl);
  double slope_fb = stats::fit_slope(logh, fb);
  sec.metric("slope_doubling_logh", slope_dbl)
      .metric("slope_full_binary_logh", slope_fb);
  sec.note("  slope[doubling ~ log H] = " + stats::fmt(slope_dbl, 2) +
           " (flat);  slope[full-binary ~ log H] = " +
           stats::fmt(slope_fb, 2) + " (~1 load per doubling of H)");
  sec.note("  expectation: doubling cost is set by the queue size (fixed");
  sec.note("  here), so it stays constant while the naive search grows");
  sec.note("  with the total history — the design choice Lemma 20 needs.");
  return r;
}

const api::ExperimentRegistrar reg{
    {"search_ablation", "e12",
     "doubling vs full binary search over the root array (Lemma 20)", 12,
     run}};

}  // namespace
