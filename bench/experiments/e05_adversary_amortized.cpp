// E5 — the headline comparison (Section 1): amortized shared-memory steps
// per operation in worst-case executions, wait-free queue vs the wait-free
// Kogan-Petrank predecessor vs the SimQueue combining construction vs
// MS-queue vs FAA-array queue.
//
// E5a (the classic table): p processes alternate enqueue/dequeue in
// lock-step under the round-robin adversary — the canonical CAS-retry
// schedule for the MS-queue. Expected: baselines grow ~ p, ours polylog.
// The FAA queue stays flat HERE because round-robin lock-step is not its
// worst case…
//
// E5b (targeted adversary, ROADMAP item): …its Omega(p) executions need a
// schedule that races dequeuers past stalled enqueuers so every claimed
// cell must be poisoned. The registered "anti-faa" policy builds exactly
// that schedule (see sim/adversary.hpp): enqueuer pids < p/2 are stalled
// one shared step per round (between FAA claim and publish CAS) while one
// dequeuer races ahead. Expected: FAA steps/op flat under round-robin but
// best-fit p under anti-faa — the worst case the paper proves exists.
//
// E5c (combining amortization, PR 6): the two faithful helping baselines
// side by side, measured on the processes being HELPED. Under anti-faa the
// stalled pids get one shared step per round while a victim bursts; a
// stalled simq announcer completes in O(1) of its OWN steps (announce, one
// re-read) because the bursting combiner's Theta(p) round retires every
// announced op at once — but a stalled KP process still pays its own
// maxPhase scan and help() walk, Theta(p) own steps, before anyone can
// help it. Combining amortizes exactly where phase-ordered helping cannot,
// and only a per-role step split makes that visible: the OVERALL mean stays
// ~ p for both (the combiners' scans dominate it by construction).
#include <string>

#include "api/experiment.hpp"
#include "api/harness.hpp"
#include "api/queue_registry.hpp"

namespace {

using namespace wfq;

double amortized_steps(api::AnyQueue<uint64_t>& q, int p, int64_t ops,
                       const std::string& adversary) {
  api::OpSamples s =
      api::measure_ops(q, p, ops, api::OpKind::alternate, adversary);
  return stats::summarize(s.steps).mean;
}

/// E5b workload: enqueuer pids [0, p/2) each perform `ops` enqueues;
/// dequeuer pids [p/2, p) each perform 2*ops dequeue attempts. Returns
/// (mean, max) steps per dequeue operation.
stats::Summary role_split_dequeue_steps(api::AnyQueue<uint64_t>& q, int p,
                                        int64_t ops,
                                        const std::string& adversary) {
  int enqueuers = p / 2;
  api::OpSamples s =
      api::run_sim(p, adversary, [&](int pid, api::OpSamples& out) {
        q.bind_thread(pid);
        if (pid < enqueuers) {
          for (int64_t k = 0; k < ops; ++k)
            q.enqueue((static_cast<uint64_t>(pid) << 32) |
                      static_cast<uint64_t>(k));
        } else {
          for (int64_t k = 0; k < 2 * ops; ++k) {
            platform::StepScope scope;
            (void)q.dequeue();
            out.add(scope.delta());
          }
        }
      });
  return stats::summarize(s.steps);
}

/// E5c workload: stalled announcer pids [0, p/2) each perform `ops`
/// measured enqueues; pids [p/2, p) each perform 2*ops unmeasured dequeue
/// attempts (under anti-faa they are the bursting combiners/helpers).
/// Returns the announcers' own-step summary per enqueue.
stats::Summary role_split_enqueue_steps(api::AnyQueue<uint64_t>& q, int p,
                                        int64_t ops,
                                        const std::string& adversary) {
  int enqueuers = p / 2;
  api::OpSamples s =
      api::run_sim(p, adversary, [&](int pid, api::OpSamples& out) {
        q.bind_thread(pid);
        if (pid < enqueuers) {
          for (int64_t k = 0; k < ops; ++k) {
            platform::StepScope scope;
            q.enqueue((static_cast<uint64_t>(pid) << 32) |
                      static_cast<uint64_t>(k));
            out.add(scope.delta());
          }
        } else {
          for (int64_t k = 0; k < 2 * ops; ++k) (void)q.dequeue();
        }
      });
  return stats::summarize(s.steps);
}

api::Report run(const api::RunOptions& opts) {
  api::Report r =
      api::make_report("adversary_amortized");
  const int64_t ops = opts.ops_or(24);
  const std::string adversary = opts.adversary_or("round-robin");
  const auto procs = opts.procs_or({2, 4, 8, 16, 32, 64});
  const auto queues =
      api::queue_keys_or(opts.queues, {"ubq", "kp", "simq", "msq", "faaq"});
  r.preamble = {"E5: amortized steps/op under the " + adversary +
                    " adversary",
                "    50/50 enqueue-dequeue mix, K=" + std::to_string(ops) +
                    " ops/process"};

  {
    auto& sec = r.section("E5a");
    for (const std::string& qname : queues) {
      std::string warn = api::step_counted_warning(
          qname, api::queue_info(qname).step_counted);
      if (!warn.empty()) sec.pre(warn);
    }
    std::vector<std::string> cols = {"p"};
    for (const std::string& qname : queues) cols.push_back(qname);
    for (size_t qi = 1; qi < queues.size(); ++qi)
      cols.push_back(queues[qi] + "/" + queues[0]);
    sec.cols(cols);
    std::vector<double> ps;
    std::vector<std::vector<double>> series(queues.size());
    for (int p : procs) {
      std::vector<api::Cell> row = {api::cell(p)};
      std::vector<double> vals;
      for (size_t qi = 0; qi < queues.size(); ++qi) {
        api::AnyQueue<uint64_t> q = api::make_queue<uint64_t>(
            queues[qi], api::sized_config(p, api::Backend::sim, ops));
        double v = amortized_steps(q, p, ops, adversary);
        row.push_back(api::cell(v));
        vals.push_back(v);
        series[qi].push_back(v);
      }
      for (size_t qi = 1; qi < vals.size(); ++qi)
        row.push_back(api::cell_ratio(vals[qi], vals[0]));
      sec.rows.push_back(std::move(row));
      ps.push_back(p);
    }
    for (size_t qi = 0; qi < queues.size(); ++qi)
      sec.shape(queues[qi], ps, series[qi]);
    sec.note(
        "  paper expectation: baselines grow ~ p, ours polylog; the");
    sec.note(
        "  ratio columns increase with p (crossover where a ratio passes "
        "1).");
    sec.note(
        "  At small p the baselines' smaller constants win, exactly as");
    sec.note("  Section 7 concedes for the uncontended case.");
  }

  // E5b runs with its two fixed adversaries (the comparison IS the point),
  // so it is included whenever the resolved adversary is the default
  // round-robin — passing "--adversary round-robin" explicitly must not
  // change the emitted document. A non-default adversary skips it loudly.
  if (adversary != "round-robin") {
    r.section("E5b").note(
        "  (E5b skipped: it compares its own fixed adversaries, round-robin"
        " vs anti-faa; drop --adversary " + adversary + " to include it)");
  } else {
    auto& sec = r.section("E5b");
    sec.pre("");
    sec.pre("E5b: FAA-queue worst case needs the targeted adversary "
            "(ROADMAP):");
    sec.pre("     steps per dequeue op, round-robin vs anti-faa "
            "(enqueuers");
    sec.pre("     stalled between slot claim and publish; p/2 each role)");
    sec.pre("");
    sec.cols({"p", "rr mean", "rr max", "anti-faa mean", "anti-faa max",
              "anti-faa max / p"});
    std::vector<double> ps, maxima;
    for (int p : procs) {
      if (p < 4) continue;  // needs at least 2 enqueuers + 2 dequeuers
      // Dequeuers run 2*ops attempts each and anti-faa poisoning forces
      // extra claims; sized_config's margin covers both.
      auto mk = [&] {
        return api::make_queue<uint64_t>(
            "faaq", api::sized_config(p, api::Backend::sim, 2 * ops));
      };
      api::AnyQueue<uint64_t> q_rr = mk();
      auto rr = role_split_dequeue_steps(q_rr, p, ops, "round-robin");
      api::AnyQueue<uint64_t> q_af = mk();
      auto af = role_split_dequeue_steps(q_af, p, ops, "anti-faa");
      sec.row(p, api::cell(rr.mean), api::cell(rr.max, 0),
              api::cell(af.mean), api::cell(af.max, 0),
              api::cell(af.max / p));
      ps.push_back(p);
      maxima.push_back(af.max);
    }
    // Only the max gets a shape fit: wait-freedom's per-op bound is the
    // claim under attack, and most anti-faa dequeues are cheap nulls, so
    // the mean stays flat by construction. Below 3 swept points fit_shape
    // reports "indeterminate" on its own; skip the line entirely when the
    // p<4 filter left nothing.
    if (!ps.empty())
      sec.shape("faaq anti-faa deq max", ps, maxima);
    else
      sec.note("  (shape fit skipped: no process counts >= 4 in the sweep)");
    sec.note(
        "  expectation: round-robin columns stay flat; anti-faa max grows");
    sec.note(
        "  ~ p (each dequeue poisons every stalled claim ahead of it) —");
    sec.note("  the Omega(p) worst case of fetch&add designs.");
  }

  // E5c compares its two fixed adversaries like E5b, so the same gate
  // applies: included under the default round-robin, skipped loudly (with
  // the reason) when a non-default adversary was requested.
  if (adversary != "round-robin") {
    r.section("E5c").note(
        "  (E5c skipped: it compares its own fixed adversaries, round-robin"
        " vs anti-faa; drop --adversary " + adversary + " to include it)");
  } else {
    auto& sec = r.section("E5c");
    sec.pre("");
    sec.pre("E5c: helping-style amortization, phase-ordered (kp) vs "
            "combining (simq):");
    sec.pre("     OWN steps per enqueue of the stalled announcer pids "
            "[0, p/2)");
    sec.pre("     (one shared step per round under anti-faa; the other half");
    sec.pre("     bursts and helps/combines), round-robin for contrast");
    sec.pre("");
    sec.cols({"p", "kp rr", "kp anti-faa", "simq rr", "simq anti-faa",
              "simq/kp anti-faa"});
    std::vector<double> ps, kp_af, simq_af;
    for (int p : procs) {
      if (p < 4) continue;  // anti-faa needs both roles populated
      auto measure = [&](const char* key, const std::string& adv) {
        api::AnyQueue<uint64_t> q = api::make_queue<uint64_t>(
            key, api::sized_config(p, api::Backend::sim, 2 * ops));
        return role_split_enqueue_steps(q, p, ops, adv).mean;
      };
      double v_kp_rr = measure("kp", "round-robin");
      double v_kp_af = measure("kp", "anti-faa");
      double v_sq_rr = measure("simq", "round-robin");
      double v_sq_af = measure("simq", "anti-faa");
      sec.row(p, api::cell(v_kp_rr), api::cell(v_kp_af), api::cell(v_sq_rr),
              api::cell(v_sq_af), api::cell_ratio(v_sq_af, v_kp_af));
      ps.push_back(p);
      kp_af.push_back(v_kp_af);
      simq_af.push_back(v_sq_af);
    }
    if (!ps.empty()) {
      sec.shape("kp anti-faa enq", ps, kp_af);
      sec.shape("simq anti-faa enq", ps, simq_af);
    } else {
      sec.note("  (shape fits skipped: no process counts >= 4 in the sweep)");
    }
    sec.note(
        "  expectation: kp anti-faa grows ~ p (a stalled process still pays");
    sec.note(
        "  its own maxPhase + help scans before anyone can help it); simq");
    sec.note(
        "  anti-faa stays flat or sub-linear — the announce is O(1) and the");
    sec.note(
        "  bursting combiner's round retires it, so stalled announcers ride");
    sec.note("  the victim's scan instead of paying their own.");
  }
  return r;
}

const api::ExperimentRegistrar reg{
    {"adversary_amortized", "e5",
     "amortized steps/op vs baselines under worst-case adversaries", 5,
     run}};

}  // namespace
