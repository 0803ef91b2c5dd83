// E7 — Theorem 32: the bounded-space queue has amortized step complexity
// O(log p * log(p + q_max)) per operation, including GC phases.
//
// Step accounting: shared atomic accesses (block arrays, heads, floors,
// EBR epochs, archive version pointers) are counted by the platform layer;
// every persistent-RBT node visited or created — in GC-phase updates AND in
// dequeues' archive lookups — is charged one step (pbt::tls_rbt_touches),
// mirroring the paper's model where each RBT operation costs O(log(p+q)).
// The archive holds 64-block chunks, so a GC phase also charges one step
// per block it archives into a chunk: the paper's per-block archive work,
// which the ~64x fewer tree operations would otherwise hide.
//
// Sweeps amortized steps/op vs p (fixed small q) and vs q (fixed p), with
// the GC period scaled down to G=32 so collections
// actually occur within the run at every p — the paper default
// p^2 ceil(log2 p) outgrows a short run past p=8, which would mix
// GC-bearing and GC-free regimes into one fit. The "rbt/op" column shows
// the tree's share of the amortized cost (GC-phase archiving + archive
// lookups).
#include <cmath>

#include "api/experiment.hpp"
#include "api/harness.hpp"
#include "core/bounded_queue.hpp"
#include "pbt/persistent_rbt.hpp"

namespace {

using namespace wfq;
using Queue = core::BoundedQueue<uint64_t, platform::SimPlatform>;

constexpr int64_t kGc = 32;  // the GC period G of every queue swept here

struct Amortized {
  double steps_per_op;  // atomics + RBT touches, GC phases included
  double rbt_per_op;    // the RBT touches alone
  uint64_t gc_phases;
};

// Amortized (atomic steps + RBT touches) per op over a mixed workload,
// GC phases included. Prefill ops count toward the denominator.
Amortized amortized(Queue& q, int p, int64_t prefill, int64_t ops,
                    const std::string& adversary) {
  api::OpSamples s =
      api::run_sim(p, adversary, [&](int pid, api::OpSamples& out) {
        q.bind_thread(pid);
        uint64_t t0 = pbt::tls_rbt_touches();
        platform::StepScope scope;
        for (int64_t k = 0; k < prefill; ++k)
          q.enqueue((static_cast<uint64_t>(pid) << 32) |
                    static_cast<uint64_t>(k));
        for (int64_t k = 0; k < ops; ++k) {
          if (k % 2 == 0)
            q.enqueue((static_cast<uint64_t>(pid) << 40) |
                      static_cast<uint64_t>(k));
          else
            (void)q.dequeue();
        }
        out.add(scope.delta());  // one sample = this process's total atomics
        out.rbt_touches = pbt::tls_rbt_touches() - t0;
      });
  double total_ops =
      static_cast<double>(p) * static_cast<double>(prefill + ops);
  double rbt = static_cast<double>(s.rbt_touches);
  double total_steps = rbt;
  for (double v : s.steps) total_steps += v;
  return {total_steps / total_ops, rbt / total_ops, q.debug_gc_phases()};
}

api::Report run(const api::RunOptions& opts) {
  api::Report r = api::make_report("steps_bounded");
  const std::string adversary = opts.adversary_or("round-robin");
  const int64_t mixed_ops = opts.ops_or(16);
  r.preamble = {"E7: bounded queue amortized RBT-steps/op  (Theorem 32:",
                "    O(log p log(p+q)) amortized, GC included)",
                "    " + adversary + " adversary; G=" + std::to_string(kGc) +
                    " (paper default p^2 log p outgrows short runs)"};
  {
    auto& sec = r.section("E7a");
    sec.pre("E7a: vs p (prefill 8/process, " + std::to_string(mixed_ops) +
            " mixed ops/process)");
    sec.cols({"p", "steps/op", "rbt/op", "GCs",
              "steps/op / (log2 p * log2(p+q))"});
    std::vector<double> ps, ys;
    for (int p : opts.procs_or({2, 4, 8, 16, 32})) {
      Queue q(p, kGc);
      Amortized a = amortized(q, p, 8, mixed_ops, adversary);
      double denom = std::log2(p) * std::log2(p + 8.0 * p);
      sec.row(p, api::cell(a.steps_per_op), api::cell(a.rbt_per_op),
              a.gc_phases, api::cell_ratio(a.steps_per_op, denom));
      ps.push_back(p);
      ys.push_back(a.steps_per_op);
    }
    sec.shape("bounded steps/op vs p", ps, ys);
  }
  {
    auto& sec = r.section("E7b");
    sec.pre("");
    sec.pre("E7b: vs q at p=4 (prefill q/4 per process)");
    sec.cols({"q", "steps/op", "rbt/op", "GCs", "steps/op / log2(p+q)"});
    std::vector<double> qs, ys;
    double rbt_total = 0;
    for (int per : {8, 32, 128, 512}) {
      Queue q(4, kGc);
      Amortized a = amortized(q, 4, per, mixed_ops, adversary);
      double total_q = 4.0 * per;
      sec.row(static_cast<int>(total_q), api::cell(a.steps_per_op),
              api::cell(a.rbt_per_op), a.gc_phases,
              api::cell(a.steps_per_op / std::log2(4 + total_q)));
      qs.push_back(total_q);
      ys.push_back(a.steps_per_op);
      rbt_total += a.rbt_per_op;
    }
    std::vector<double> logq;
    for (double v : qs) logq.push_back(std::log2(v));
    double r2_logq = stats::fit_r2(logq, ys);
    double r2_q = stats::fit_r2(qs, ys);
    sec.metric("r2_steps_logq", r2_logq).metric("r2_steps_q", r2_q);
    sec.metric("rbt_per_op_total", rbt_total);
    sec.note("  R^2[steps ~ log q] = " + stats::fmt(r2_logq, 3) +
             "   R^2[steps ~ q] = " + stats::fmt(r2_q, 3));
    sec.note("  paper expectation: growth ~ log p * log(p+q); the");
    sec.note("  normalized columns stay roughly constant, the log-q fit");
    sec.note("  beats the linear-q fit, and rbt/op is nonzero once a GC");
    sec.note("  phase has archived a chunk (q >= 128 here): the in-array");
    sec.note("  suffix keeps up to 63 blocks past the GC window, so the");
    sec.note("  smallest runs never reach the RBT.");
  }
  return r;
}

const api::ExperimentRegistrar reg{
    {"steps_bounded", "e7",
     "bounded-queue amortized steps incl. RBT touches (Theorem 32)", 7,
     run}};

}  // namespace
