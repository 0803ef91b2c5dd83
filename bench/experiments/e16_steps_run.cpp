// E16 — runs: what batching a run of k operations into one leaf append and
// one propagation walk (OrderingTree::append_run) saves per operation.
//
// A run appends k leaf blocks, then runs one fence and one double-Refresh
// walk; the paper's Refresh merges every unmerged child block, so the walk
// that one operation pays is shared by k. The dequeues of a run still index
// and resolve themselves one by one.
//
//   E16a: shared steps per enqueue in runs ENQ^k (each process ceil(K/k)
//         runs, K = --ops, default 40 as in E2);
//   E16b: shared steps per non-null dequeue in runs DEQ^k after each
//         process enqueued as many items as it then dequeues (ceil(K/k)·k,
//         K default 16 as in E3a);
//   E16c: real-thread ns/op (median of api::kReps runs), each thread
//         alternating ENQ^k and DEQ^k runs.
// Sim sections sweep p ∈ {2, 4, 8, 16} (--procs) under every adversary of
// the roster (or --adversary), for ubq and bounded (--queues). A k = 1 run
// is exactly one enqueue or dequeue, so the k = 1 column equals E2's
// (steps_enqueue) and E3a's (steps_dequeue) steps/op mean at the same p,
// ops and adversary.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "api/experiment.hpp"
#include "api/harness.hpp"
#include "api/queue_registry.hpp"

namespace {

using namespace wfq;

const std::vector<int64_t> kRunLengths = {1, 2, 4, 16, 64};

uint64_t tag(int pid, int64_t k) {
  return (static_cast<uint64_t>(pid) << 32) | static_cast<uint64_t>(k);
}

/// A process's run buffers, reused from run to run, and its next value.
struct RunBufs {
  std::vector<uint64_t> vals;
  std::vector<std::optional<uint64_t>> got;
  int64_t seq = 0;
};

/// One run from the calling (bound) process: `nenq` tagged enqueues, then
/// `ndeq` dequeues; returns how many dequeues found a value.
int64_t one_run(api::AnyQueue<uint64_t>& q, int pid, RunBufs& b, int64_t nenq,
                int64_t ndeq) {
  b.vals.clear();
  for (int64_t i = 0; i < nenq; ++i) b.vals.push_back(tag(pid, b.seq++));
  b.got.assign(static_cast<size_t>(ndeq), std::nullopt);
  q.run(std::span<uint64_t>(b.vals),
        std::span<std::optional<uint64_t>>(b.got));
  return std::count_if(b.got.begin(), b.got.end(),
                       [](const auto& g) { return g.has_value(); });
}

/// Mean shared steps per op over runs of length k: ENQ^k runs, or DEQ^k
/// runs after a single-op prefill of as many items (runs with a null
/// dequeue are not sampled, as E3a samples non-null dequeues only).
double steps_per_op(const std::string& qname, int p, int64_t ops, int64_t k,
                    bool deq, const std::string& adversary) {
  const int64_t runs = (ops + k - 1) / k;
  api::AnyQueue<uint64_t> q = api::make_queue<uint64_t>(
      qname, api::sized_config(p, api::Backend::sim, 2 * runs * k));
  api::OpSamples s =
      api::run_sim(p, adversary, [&](int pid, api::OpSamples& out) {
        q.bind_thread(pid);
        RunBufs bufs;
        if (deq)
          for (int64_t i = 0; i < runs * k; ++i)
            q.enqueue(tag(pid, bufs.seq++));
        for (int64_t r = 0; r < runs; ++r) {
          platform::StepScope scope;
          const int64_t hits =
              deq ? one_run(q, pid, bufs, 0, k) : one_run(q, pid, bufs, k, 0);
          const double steps = static_cast<double>(scope.delta().total());
          if (!deq || hits == k) out.steps.push_back(steps / double(k));
        }
      });
  return stats::summarize(s.steps).mean;
}

/// Real threads: each of p threads alternates ENQ^k and DEQ^k runs for
/// `ops` operations; ns per operation over all threads.
double run_ns_per_op(const std::string& qname, int p, int64_t ops,
                     int64_t k) {
  api::AnyQueue<uint64_t> q = api::make_queue<uint64_t>(
      qname, api::sized_config(p, api::Backend::real, ops));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> ts;
  for (int t = 0; t < p; ++t) {
    ts.emplace_back([&, t] {
      q.bind_thread(t);
      RunBufs bufs;
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int64_t done = 0; done < ops; done += 2 * k) {
        (void)one_run(q, t, bufs, k, 0);
        (void)one_run(q, t, bufs, 0, k);
      }
    });
  }
  while (ready.load(std::memory_order_acquire) < p) std::this_thread::yield();
  auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& t : ts) t.join();
  std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  const int64_t per_thread = (ops + 2 * k - 1) / (2 * k) * 2 * k;
  return elapsed.count() / static_cast<double>(per_thread * p);
}

std::vector<std::string> k_columns(std::vector<std::string> head,
                                   const std::string& unit) {
  for (int64_t k : kRunLengths)
    head.push_back(unit + " k=" + std::to_string(k));
  return head;
}

api::Report run(const api::RunOptions& opts) {
  api::Report r = api::make_report("steps_run");
  const auto procs = opts.procs_or({2, 4, 8, 16});
  const auto queues = api::queue_keys_or(opts.queues, {"ubq", "bounded"});
  const std::vector<std::string> adversaries =
      opts.adversary.empty()
          ? std::vector<std::string>{"round-robin", "random:1", "anti-faa",
                                     "stall-refresh", "bursty:12:36"}
          : std::vector<std::string>{opts.adversary};
  const int64_t enq_ops = opts.ops_or(40);
  const int64_t deq_ops = opts.ops_or(16);
  const int64_t real_ops = 4096;
  r.preamble = {
      "E16: runs ENQ^k / DEQ^k, one leaf append and one propagation walk "
      "per run",
      "    steps/op: simulator, K=" + std::to_string(enq_ops) +
          " enqueues (E16a) and " + std::to_string(deq_ops) +
          " dequeues (E16b) per process, rounded up to whole runs",
      "    ns/op: real threads, " + std::to_string(real_ops) +
          " ops/thread alternating ENQ^k and DEQ^k, median of " +
          std::to_string(api::kReps) + " runs"};

  for (const std::string& qname : queues) {
    for (bool deq : {false, true}) {
      auto& sec = r.section(std::string(deq ? "E16b:" : "E16a:") + qname);
      sec.pre(std::string(deq ? "dequeue" : "enqueue") +
              " steps/op vs run length k (" + qname + ")");
      sec.cols(k_columns({"adversary", "p"}, "steps/op"));
      for (const std::string& adv : adversaries) {
        for (int p : procs) {
          std::vector<api::Cell> row = {api::cell(adv), api::cell(p)};
          double k1 = 0, last = 0;
          for (int64_t k : kRunLengths) {
            last = steps_per_op(qname, p, deq ? deq_ops : enq_ops, k, deq,
                                adv);
            if (k == 1) k1 = last;
            row.push_back(api::cell(last));
          }
          sec.rows.push_back(std::move(row));
          if (adv == adversaries.front() && p == procs.back())
            sec.metric("k64_over_k1_p" + std::to_string(p), last / k1);
        }
      }
      sec.note("  k = 1 is one " + std::string(deq ? "dequeue" : "enqueue") +
               ": that column equals " + (deq ? "E3a" : "E2") +
               "'s steps/op mean at the same p, --ops and --adversary.");
    }
    auto& sec = r.section("E16c:" + qname);
    sec.pre("ns/op vs run length k, real threads (" + qname + ")");
    sec.cols(k_columns({"threads"}, "ns/op"));
    for (int p : procs) {
      std::vector<api::Cell> row = {api::cell(p)};
      for (int64_t k : kRunLengths)
        row.push_back(api::cell(
            api::repeat(api::kReps,
                        [&] { return run_ns_per_op(qname, p, real_ops, k); })
                .p50,
            0));
      sec.rows.push_back(std::move(row));
    }
  }
  return r;
}

const api::ExperimentRegistrar reg{
    {"steps_run", "e16",
     "steps/op and ns/op vs run length k: one propagation walk per run", 16,
     run}};

}  // namespace
