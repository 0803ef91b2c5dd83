// Real-thread conservation tests for the ordering tree's concurrent edges.
//
// Busy SIBLING leaves: 4 threads bound to leaves 0-3 of a 4-process tree,
// so both leaf parents have two active children. A leaf block is published
// with release stores and the owner's first parent refresh reads the
// sibling leaf with acquire loads; without the fence in
// OrderingTree::append_run, TSO hardware lets those loads pass the buffered
// stores, an operation goes unmerged, and the queue duplicates one item and
// loses another.
//
// Install race: a tree builds only its root, and a process's first
// operation installs its leaf and the missing nodes on its root path by
// CAS. Fresh trees at p = 3, 4 and 8 have every active thread's first
// operation released by one barrier, so siblings and cousins race for the
// same internal nodes; the loser of each CAS deletes its own node (a leaked
// one shows under ASan/LSan). After the run the tree must hold exactly the
// union of the active processes' root paths.
//
// Every value is tagged pid << 32 | seq. Checked per round: per-producer
// FIFO at every consumer, no value dequeued twice, and count and sum
// conservation after a quiescent drain. A store-buffer reordering is
// invisible to ASan and TSan, so only repetition catches it; CI loops this
// binary in release mode.
#include <barrier>
#include <bit>
#include <cstdint>
#include <iostream>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/bounded_queue.hpp"
#include "core/unbounded_queue.hpp"
#include "test_util.hpp"

namespace {

using wfq::core::BoundedQueue;
using wfq::core::UnboundedQueue;

/// Nodes on the root paths of `pids` in a tree for `procs` processes: one
/// per distinct (level, leaf position >> level).
size_t path_union(int procs, const std::vector<int>& pids) {
  const int levels = std::bit_width(std::bit_ceil(static_cast<unsigned>(procs)));
  std::set<std::pair<int, int>> nodes;
  for (int pid : pids)
    for (int l = 0; l < levels; ++l) nodes.emplace(l, pid >> l);
  return nodes.size();
}

/// One round on a fresh queue: the threads bound to `pids` start together
/// and each runs `pairs` enqueue+dequeue pairs.
template <typename Queue>
void run_round(Queue& q, const char* name, const std::vector<int>& pids,
               uint64_t pairs) {
  const size_t n = pids.size();
  std::vector<std::vector<uint64_t>> got(n);
  std::barrier start(static_cast<std::ptrdiff_t>(n));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      const auto pid = static_cast<uint64_t>(pids[t]);
      q.bind_thread(pids[t]);
      auto& mine = got[t];
      mine.reserve(pairs);
      start.arrive_and_wait();  // every first operation at once
      for (uint64_t k = 0; k < pairs; ++k) {
        q.enqueue((pid << 32) | k);
        if (auto r = q.dequeue()) mine.push_back(*r);
      }
    });
  }
  for (auto& t : threads) t.join();

  const int procs = q.procs();
  // Before the drain, which operates as pid 0 and would build its path.
  const size_t nodes = q.debug_nodes();
  q.bind_thread(0);
  std::vector<uint64_t> drained;
  while (auto r = q.dequeue()) drained.push_back(*r);

  std::vector<std::vector<bool>> seen(static_cast<size_t>(procs),
                                      std::vector<bool>(pairs, false));
  uint64_t count = 0, sum = 0;
  bool valid = true, unique = true, fifo = true;
  auto take = [&](uint64_t v) {
    uint64_t producer = v >> 32, seq = v & 0xffffffffu;
    if (producer >= static_cast<uint64_t>(procs) || seq >= pairs) {
      valid = false;
      return false;
    }
    if (seen[producer][seq]) unique = false;
    seen[producer][seq] = true;
    ++count;
    sum += v;
    return true;
  };
  for (const auto& list : got) {
    std::vector<int64_t> last(static_cast<size_t>(procs), -1);
    for (uint64_t v : list) {
      if (!take(v)) continue;
      auto& due = last[v >> 32];  // per-producer FIFO at this consumer
      auto seq = static_cast<int64_t>(v & 0xffffffffu);
      if (seq <= due) fifo = false;
      due = seq;
    }
  }
  for (uint64_t v : drained) take(v);

  uint64_t want_sum = 0;
  for (int pid : pids)
    for (uint64_t k = 0; k < pairs; ++k)
      want_sum += (static_cast<uint64_t>(pid) << 32) | k;
  int before = wfq::test::failures();
  CHECK(valid);
  CHECK(unique);
  CHECK(fifo);
  CHECK_EQ(count, n * pairs);
  CHECK_EQ(sum, want_sum);
  CHECK_EQ(nodes, path_union(procs, pids));
  if (wfq::test::failures() > before)
    std::cerr << "  (queue " << name << ", p = " << procs << ", "
              << n << " active)\n";
}

void busy_siblings() {
  constexpr int kRounds = 4;
  constexpr uint64_t kPairs = 40'000;
  const std::vector<int> all{0, 1, 2, 3};
  for (int r = 0; r < kRounds; ++r) {
    UnboundedQueue<uint64_t> q(4);
    run_round(q, "ubq", all, kPairs);
  }
  for (int r = 0; r < kRounds; ++r) {
    BoundedQueue<uint64_t> q(4, /*gc_period=*/8);
    run_round(q, "bounded:g=8", all, kPairs);
  }
}

/// Rounds alternate between every process and the odd pids alone, so
/// some internal nodes stay unbuilt.
void install_race() {
  constexpr int kRounds = 40;
  constexpr uint64_t kPairs = 64;
  for (int procs : {3, 4, 8}) {
    std::vector<int> all, odd;
    for (int pid = 0; pid < procs; ++pid) {
      all.push_back(pid);
      if (pid % 2 == 1) odd.push_back(pid);
    }
    for (int r = 0; r < kRounds; ++r) {
      const std::vector<int>& pids = r % 2 == 0 ? all : odd;
      UnboundedQueue<uint64_t> u(procs);
      run_round(u, "ubq", pids, kPairs);
      BoundedQueue<uint64_t> b(procs, /*gc_period=*/8);
      run_round(b, "bounded:g=8", pids, kPairs);
    }
  }
}

}  // namespace

int main() {
  busy_siblings();
  install_race();
  return wfq::test::exit_code();
}
