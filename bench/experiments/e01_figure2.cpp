// E1 — regenerates Figure 2 of the paper: the implicit representation of
// the ordering tree after the worked 14-operation example.
//
// The figure's exact block boundaries depend on the adversary's schedule;
// here the operations run one at a time in the figure's linearization
// order, so every block holds one operation and the implicit fields
// (sumenq / sumdeq / endleft / endright / size / element) can be printed —
// and checked — deterministically. tests/core/figure_example_test.cpp
// asserts the response and size sequences; this experiment renders the
// tree as one row per (node, field).
#include <sstream>
#include <string>
#include <thread>

#include "api/experiment.hpp"
#include "core/unbounded_queue.hpp"

namespace {

using wfq::api::Experiment;
using wfq::api::Report;
using wfq::api::RunOptions;
using Queue = wfq::core::UnboundedQueue<uint64_t>;

struct Op {
  int pid;
  bool is_enq;
  uint64_t arg;
};

// Figure 1's operations in linearization order; per-process program order
// matches the figure (P0: a,b,d,Deq1; P1: Deq2,c,Deq3; P2: e,Deq4,Deq5,f,h;
// P3: g,Deq6).
const Op kOps[] = {
    {0, true, 'a'}, {2, true, 'e'}, {1, false, 0}, {0, true, 'b'},
    {2, false, 0},  {2, false, 0},  {0, true, 'd'}, {2, true, 'f'},
    {2, true, 'h'}, {0, false, 0},  {1, true, 'c'}, {1, false, 0},
    {3, true, 'g'}, {3, false, 0},
};

void run_as(Queue& q, const Op& op) {
  std::thread t([&] {
    q.bind_thread(op.pid);
    if (op.is_enq)
      q.enqueue(op.arg);
    else
      (void)q.dequeue();
  });
  t.join();
}

void add_node(wfq::api::Section& sec, const Queue::Node* v,
              const std::string& name) {
  int64_t head = v->head.unsafe_peek();
  auto row = [&](const char* field, auto get) {
    std::ostringstream vals;
    for (int64_t b = 0; b < head; ++b) {
      const auto* blk = v->blocks.load(b);
      if (b) vals << " ";
      vals << get(blk);
    }
    sec.row(name, field, vals.str());
  };
  if (v->is_leaf) {
    // A leaf block holds an element exactly when it is an enqueue: its
    // sumenq exceeds its predecessor's (block 0 is the zero sentinel).
    const Queue::Block* prev = nullptr;
    row("element", [&prev](const Queue::Block* b) -> std::string {
      bool enq = prev != nullptr && b->sumenq > prev->sumenq;
      prev = b;
      if (!enq) return "null";
      return std::string(1, static_cast<char>(b->element));
    });
  }
  row("sumenq", [](const Queue::Block* b) { return std::to_string(b->sumenq); });
  row("sumdeq", [](const Queue::Block* b) { return std::to_string(b->sumdeq); });
  if (!v->is_leaf) {
    row("endleft",
        [](const Queue::Block* b) { return std::to_string(b->endleft); });
    row("endright",
        [](const Queue::Block* b) { return std::to_string(b->endright); });
  }
  if (v->is_root) {
    row("size", [](const Queue::Block* b) { return std::to_string(b->size); });
  }
}

Report run(const RunOptions& opts) {
  Report r = wfq::api::make_report("figure2");
  (void)opts;  // fixed worked example: no sweep parameters apply
  r.preamble = {
      "E1: Figure 2 — implicit representation of the ordering tree",
      "    after Enq(a) Enq(e) Deq2 | Enq(b) Deq4 Deq5 | Enq(d)",
      "    Enq(f) Enq(h) Deq1 | Enq(c) Deq3 | Enq(g) (+ Deq6),",
      "    driven one operation at a time (each root block = 1 op;",
      "    the figure's multi-op blocks arise under concurrency —",
      "    see tests/core/sim_linearizability_test.cpp)."};

  Queue q(4);
  for (const Op& op : kOps) run_as(q, op);

  // Column 3 spans blocks 0..head-1: block 0 is the zeroed sentinel every
  // node array starts with, matching the paper's 1-based block indexing.
  auto& sec = r.section("E1").cols({"node", "field", "blocks 0..head-1"});
  add_node(sec, q.debug_root(), "root");
  add_node(sec, q.debug_root()->left, "internal L");
  add_node(sec, q.debug_root()->right, "internal R");
  for (int i = 0; i < 4; ++i)
    add_node(sec, q.debug_leaf(i), "leaf P" + std::to_string(i));
  sec.note("  expected responses (paper): Deq2=a Deq4=e Deq5=b Deq1=d "
           "Deq3=f; queue left with {c,g} after Deq6=h.");
  return r;
}

const wfq::api::ExperimentRegistrar reg{
    {"figure2", "e1",
     "implicit ordering-tree representation after the worked example "
     "(Figures 1-2)",
     1, run}};

}  // namespace
