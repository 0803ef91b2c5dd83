// E9 — real-thread wall-clock throughput over EVERY registered queue:
// enqueue+dequeue pairs per second vs thread count. Previously a
// google-benchmark binary with one hand-written fixture per queue class;
// now a registry sweep — a new queue shows up here by being registered,
// with zero bench-code changes. All queues pay the same AnyQueue virtual
// hop, so relative ordering is preserved.
//
// Caveat recorded since the seed: CI-class machines may have ONE physical
// core, so multi-threaded rows measure the oversubscribed (preemption)
// regime, not cache-contention scaling. The paper itself predicts the
// shape seen here: "our queue has a higher cost than the MS-queue in the
// best case (when an operation runs by itself)" (Section 7) — the polylog
// advantage is a worst-case-adversary property (see E4/E5), not a
// single-thread win.
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "api/experiment.hpp"
#include "api/harness.hpp"
#include "api/queue_registry.hpp"

namespace {

using namespace wfq;

/// Runs `iters` enqueue+dequeue pairs on each of `threads` real threads,
/// all hammering one queue; returns ns per operation (2 ops per pair).
/// A countdown barrier lines the threads up before the clock starts.
double pairs_ns_per_op(api::AnyQueue<uint64_t>& q, int threads,
                       uint64_t iters) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> ts;
  ts.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] {
      q.bind_thread(t);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (uint64_t i = 0; i < iters; ++i) {
        q.enqueue((static_cast<uint64_t>(t) << 32) | i);
        (void)q.dequeue();
      }
    });
  }
  // Clock starts only once every thread is spawned, bound and spinning at
  // the barrier — thread-creation cost must not leak into ns/op.
  while (ready.load(std::memory_order_acquire) < threads)
    std::this_thread::yield();
  auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& t : ts) t.join();
  std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count() / (2.0 * static_cast<double>(iters) * threads);
}

api::Report run(const api::RunOptions& opts) {
  api::Report r = api::make_report("throughput");
  const uint64_t iters = static_cast<uint64_t>(opts.ops_or(20'000));
  const auto thread_counts = opts.procs_or({1, 2, 4});
  const auto queues = api::queue_keys_or(opts.queues, api::queue_names());
  r.preamble = {
      "E9: wall-clock throughput, enqueue+dequeue pairs (real threads,",
      "    " + std::to_string(iters) + " pairs/thread; all registered "
      "queues via AnyQueue; ns/op is the median of " +
          std::to_string(api::kReps) + " runs)"};
  auto& sec = r.section("E9");
  std::vector<std::string> cols = {"queue"};
  for (int t : thread_counts) cols.push_back("ns/op @" + std::to_string(t));
  cols.push_back("Mops/s @" + std::to_string(thread_counts.back()));
  sec.cols(cols);
  int max_threads = 1;
  for (int t : thread_counts) max_threads = std::max(max_threads, t);
  for (const std::string& qname : queues) {
    std::vector<api::Cell> row = {api::cell(qname)};
    double last_ns = 0;
    for (int t : thread_counts) {
      // iters enqueue+dequeue pairs per thread = 2*iters claims per thread
      // on the FAA queue; sized_config keeps the cell array ahead of them.
      last_ns = api::repeat(api::kReps, [&] {
        api::AnyQueue<uint64_t> q = api::make_queue<uint64_t>(
            qname, api::sized_config(max_threads, api::Backend::real,
                                     static_cast<int64_t>(2 * iters)));
        return pairs_ns_per_op(q, t, iters);
      }).p50;
      row.push_back(api::cell(last_ns, 0));
    }
    row.push_back(api::cell(last_ns > 0 ? 1000.0 / last_ns : 0.0));
    sec.rows.push_back(std::move(row));
  }
  sec.note("  expectation (Section 7): baselines win uncontended — the");
  sec.note("  polylog advantage is a worst-case-adversary property (E4/");
  sec.note("  E5), not a single-thread wall-clock win. Single-core hosts");
  sec.note("  measure the oversubscribed regime at >1 thread.");
  return r;
}

const api::ExperimentRegistrar reg{
    {"throughput", "e9",
     "wall-clock enqueue+dequeue throughput over all registered queues", 9,
     run}};

}  // namespace
