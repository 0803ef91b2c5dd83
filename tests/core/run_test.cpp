// Runs (OrderingTree::append_run through the queues' run()): a run
// ENQ^a DEQ^b appends a + b leaf blocks and propagates them with one walk.
// Checked for `ubq` and `bounded:g=4` at p = 2..4 and every (a, b) in
// [0, 8]^2:
//   (a) idle: on a queue nothing else touches, the run's b dequeues return
//       its own first min(a, b) items in order, then nulls, and the
//       leftovers drain in order; then the same through AnyQueue::run for
//       every registered queue (the seam's default loops single ops);
//   (b) concurrent, on real threads and on the sim under every adversary
//       of the roster: each process cycles through all 81 shapes; no value
//       is dequeued twice or out of thin air, each consumer sees each
//       producer's values in enqueue order, and dequeued + leftover is
//       exactly what was enqueued;
//   (c) GC period: after N ops a bounded:g=4 queue has run N / 4 phases,
//       however the N ops are split into runs (a run of 8 crosses two
//       multiples of 4 and runs two phases);
//   (d) landing record: after every run in (b), and after every append of
//       a `wfvec` run the same way, OrderingTree::debug_check_run holds:
//       each ancestor's block at the recorded bound merges the run, each
//       exact level holds the run in its recorded block alone, and every
//       block of the run indexes to the same (root block, rank) with the
//       record and without it (sim and real threads; `wfvec` on the sim
//       only, at p = 2..4 and 8). `wfvec`'s appends also get dense,
//       distinct indices whose get() returns the appended value.
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/queue_registry.hpp"
#include "core/bounded_queue.hpp"
#include "core/unbounded_queue.hpp"
#include "core/wait_free_vector.hpp"
#include "platform/platform.hpp"
#include "sim/adversary.hpp"
#include "sim/scheduler.hpp"
#include "test_util.hpp"

namespace {

using namespace wfq;

constexpr int kMaxRun = 8;  // a and b range over [0, kMaxRun]
constexpr int64_t kGc = 4;

template <typename Platform>
using Ubq = core::UnboundedQueue<uint64_t, Platform>;
template <typename Platform>
using Bq = core::BoundedQueue<uint64_t, Platform>;
template <typename Platform>
using Vec = core::WaitFreeVector<uint64_t, Platform>;

uint64_t tag(int pid, uint64_t seq) {
  return (static_cast<uint64_t>(pid) << 32) | seq;
}

/// Runs ENQ^a DEQ^b of `vals` on q from the calling (bound) thread.
template <typename Q>
std::vector<std::optional<uint64_t>> run_once(Q& q, std::vector<uint64_t> vals,
                                              int b) {
  std::vector<std::optional<uint64_t>> got(static_cast<size_t>(b));
  q.run(std::span<uint64_t>(vals), std::span<std::optional<uint64_t>>(got));
  return got;
}

/// Runs ENQ^a DEQ^b of `vals` like run_once and checks the landing record
/// (d), keeping the first failure in `err`.
template <typename Platform>
std::vector<std::optional<uint64_t>> run_checked(Ubq<Platform>& q,
                                                 std::vector<uint64_t> vals,
                                                 int b, std::string& err) {
  auto got = run_once(q, std::move(vals), b);
  if (err.empty()) err = q.debug_check_run();
  return got;
}
template <typename Platform>
std::vector<std::optional<uint64_t>> run_checked(Bq<Platform>& q,
                                                 std::vector<uint64_t> vals,
                                                 int b, std::string& err) {
  std::vector<std::optional<uint64_t>> got(static_cast<size_t>(b));
  std::string e = q.debug_run_checked(std::span<uint64_t>(vals),
                                      std::span<std::optional<uint64_t>>(got));
  if (err.empty()) err = e;
  return got;
}

void report(const std::string& err, const std::string& what) {
  if (!err.empty()) std::cerr << what << ": landing record: " << err << "\n";
  CHECK(err.empty());
}

/// (a) on one queue, reused across all shapes from rotating pids: each run
/// finds the queue empty and leaves it empty after draining.
template <typename Q>
void idle_runs(Q& q, int p, const std::string& what) {
  uint64_t next = 0;
  int pid = 0;
  for (int a = 0; a <= kMaxRun; ++a) {
    for (int b = 0; b <= kMaxRun; ++b) {
      q.bind_thread(pid);
      pid = (pid + 1) % p;
      std::vector<uint64_t> vals;
      for (int i = 0; i < a; ++i) vals.push_back(next++);
      const uint64_t first = vals.empty() ? 0 : vals[0];
      auto got = run_once(q, vals, b);
      const int hits = std::min(a, b);
      bool ok = true;
      for (int j = 0; j < b; ++j) {
        std::optional<uint64_t> want;
        if (j < hits) want = first + static_cast<uint64_t>(j);
        ok = ok && got[static_cast<size_t>(j)] == want;
      }
      for (int j = hits; j < a; ++j)  // the leftovers, in order
        ok = ok && q.dequeue() == std::optional<uint64_t>(first + j);
      ok = ok && !q.dequeue().has_value();
      if (!ok)
        std::cerr << what << " p=" << p << " ENQ^" << a << " DEQ^" << b
                  << ": wrong results on an idle queue\n";
      CHECK(ok);
    }
  }
}

/// One process's share of (b): all 81 shapes, starting at a per-process
/// offset, values tagged (pid, seq); records what its dequeues returned.
template <typename Q>
void cycle_shapes(Q& q, int pid, std::vector<uint64_t>& got,
                  uint64_t& produced, std::string& err) {
  q.bind_thread(pid);
  constexpr int kShapes = (kMaxRun + 1) * (kMaxRun + 1);
  for (int s = 0; s < kShapes; ++s) {
    const int shape = (s + 7 * pid) % kShapes;
    const int a = shape / (kMaxRun + 1), b = shape % (kMaxRun + 1);
    std::vector<uint64_t> vals;
    for (int i = 0; i < a; ++i) vals.push_back(tag(pid, produced++));
    for (const auto& r : run_checked(q, vals, b, err))
      if (r) got.push_back(*r);
  }
}

/// (b)'s oracle over per-consumer results and the drained leftovers.
template <typename Q>
void check_history(Q& q, const std::vector<std::vector<uint64_t>>& got,
                   const std::vector<uint64_t>& produced,
                   const std::string& what) {
  std::set<uint64_t> seen;
  bool ok = true;
  auto take = [&](const std::vector<uint64_t>& list) {
    std::map<uint64_t, int64_t> last;  // producer -> last seq seen here
    for (uint64_t v : list) {
      const uint64_t producer = v >> 32;
      const auto seq = static_cast<int64_t>(v & 0xffffffffu);
      ok = ok && producer < produced.size() &&
           static_cast<uint64_t>(seq) < produced[producer];  // not phantom
      ok = ok && seen.insert(v).second;                      // not twice
      auto it = last.find(producer);
      ok = ok && (it == last.end() || seq > it->second);  // producer FIFO
      last[producer] = seq;
    }
  };
  for (const auto& list : got) take(list);
  q.bind_thread(0);
  std::vector<uint64_t> rest;
  while (std::optional<uint64_t> v = q.dequeue()) rest.push_back(*v);
  take(rest);
  uint64_t total = 0;
  for (uint64_t n : produced) total += n;
  ok = ok && seen.size() == total;  // conservation
  if (!ok) std::cerr << what << ": history check failed\n";
  CHECK(ok);
}

template <typename Q>
void concurrent_real(int p, const std::string& what, Q& q) {
  std::vector<std::vector<uint64_t>> got(static_cast<size_t>(p));
  std::vector<uint64_t> produced(static_cast<size_t>(p), 0);
  std::vector<std::string> errs(static_cast<size_t>(p));
  std::vector<std::thread> ts;
  for (int pid = 0; pid < p; ++pid)
    ts.emplace_back([&, pid] {
      const auto i = static_cast<size_t>(pid);
      cycle_shapes(q, pid, got[i], produced[i], errs[i]);
    });
  for (auto& t : ts) t.join();
  const std::string where = what + " real p=" + std::to_string(p);
  for (const std::string& err : errs) report(err, where);
  check_history(q, got, produced, where);
}

template <typename Q>
void concurrent_sim(int p, const std::string& adversary,
                    const std::string& what, Q& q) {
  std::vector<std::vector<uint64_t>> got(static_cast<size_t>(p));
  std::vector<uint64_t> produced(static_cast<size_t>(p), 0);
  std::vector<std::string> errs(static_cast<size_t>(p));
  sim::Scheduler sched(sim::make_policy(adversary));
  std::vector<std::function<void()>> bodies;
  for (int pid = 0; pid < p; ++pid)
    bodies.emplace_back([&, pid] {
      const auto i = static_cast<size_t>(pid);
      cycle_shapes(q, pid, got[i], produced[i], errs[i]);
    });
  sched.run(std::move(bodies));
  const std::string where =
      what + " sim " + adversary + " p=" + std::to_string(p);
  for (const std::string& err : errs) report(err, where);
  check_history(q, got, produced, where);
}

/// (d) for `wfvec` on the sim: each process appends kAppends tagged values
/// and checks the landing record after each; then the indices must be
/// 0..n-1, each once, and get(i) must read the value appended at i.
void vector_sim(int p, const std::string& adversary) {
  constexpr int kAppends = 40;
  Vec<platform::SimPlatform> v(p);
  std::vector<std::map<int64_t, uint64_t>> at(static_cast<size_t>(p));
  std::vector<std::string> errs(static_cast<size_t>(p));
  sim::Scheduler sched(sim::make_policy(adversary));
  std::vector<std::function<void()>> bodies;
  for (int pid = 0; pid < p; ++pid)
    bodies.emplace_back([&, pid] {
      const auto i = static_cast<size_t>(pid);
      v.bind_thread(pid);
      for (uint64_t seq = 0; seq < kAppends; ++seq) {
        at[i][v.append(tag(pid, seq))] = tag(pid, seq);
        if (errs[i].empty()) errs[i] = v.debug_check_run();
      }
    });
  sched.run(std::move(bodies));
  const std::string where = "wfvec sim " + adversary + " p=" + std::to_string(p);
  for (const std::string& err : errs) report(err, where);
  std::map<int64_t, uint64_t> all;
  for (const auto& m : at) all.insert(m.begin(), m.end());
  bool ok = static_cast<int>(all.size()) == p * kAppends &&
            all.begin()->first == 0 &&
            all.rbegin()->first == p * kAppends - 1;
  v.bind_thread(0);
  for (const auto& [idx, val] : all) ok = ok && v.get(idx) == val;
  if (!ok) std::cerr << where << ": indices or values wrong\n";
  CHECK(ok);
}

/// (c): runs of the given lengths (each split ENQ^ceil(k/2) DEQ^floor(k/2))
/// on one thread; after every run the phase count is ops so far / G.
void gc_phases_per_op(const std::vector<int>& lengths) {
  Bq<platform::RealPlatform> q(2, kGc);
  q.bind_thread(0);
  int64_t ops = 0;
  bool ok = true;
  for (int k : lengths) {
    std::vector<uint64_t> vals(static_cast<size_t>((k + 1) / 2), 7);
    (void)run_once(q, vals, k / 2);
    ops += k;
    ok = ok && q.debug_gc_phases() == static_cast<uint64_t>(ops / kGc);
  }
  if (!ok) {
    std::cerr << "gc phases: run lengths";
    for (int k : lengths) std::cerr << " " << k;
    std::cerr << " ran " << q.debug_gc_phases() << " phases for " << ops
              << " ops\n";
  }
  CHECK(ok);
}

}  // namespace

int main() {
  using platform::RealPlatform;
  using platform::SimPlatform;
  const std::vector<std::string> roster = {"round-robin", "random:1",
                                           "random:2", "anti-faa",
                                           "stall-refresh", "bursty:12:36"};
  for (int p = 2; p <= 4; ++p) {
    {
      Ubq<RealPlatform> q(p);
      idle_runs(q, p, "ubq");
    }
    {
      Bq<RealPlatform> q(p, kGc);
      idle_runs(q, p, "bounded:g=4");
    }
    {
      Ubq<RealPlatform> q(p);
      concurrent_real(p, "ubq", q);
    }
    {
      Bq<RealPlatform> q(p, kGc);
      concurrent_real(p, "bounded:g=4", q);
    }
    for (const std::string& adv : roster) {
      {
        Ubq<SimPlatform> q(p);
        concurrent_sim(p, adv, "ubq", q);
      }
      {
        Bq<SimPlatform> q(p, kGc);
        concurrent_sim(p, adv, "bounded:g=4", q);
      }
      vector_sim(p, adv);
    }
  }

  // Three levels: a bound that stops advancing once a level is inexact
  // uses a leaf index two levels up, which p <= 4 rarely exposes.
  for (const std::string& adv : roster) vector_sim(8, adv);

  // The seam: every registered queue takes runs through AnyQueue::run.
  for (const std::string& name : api::queue_names()) {
    api::AnyQueue<uint64_t> q = api::make_queue<uint64_t>(
        name, api::sized_config(2, api::Backend::real, 1 << 10));
    idle_runs(q, 2, name);
  }

  gc_phases_per_op(std::vector<int>(48, 1));
  gc_phases_per_op(std::vector<int>(6, 8));
  gc_phases_per_op({3, 5, 8, 1, 7, 2, 16, 6});
  gc_phases_per_op({0, 9, 0, 13, 2});
  return test::exit_code();
}
