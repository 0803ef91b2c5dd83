// Real-platform stress test for the bounded queue's reclamation paths,
// aimed at the CI ASan job: 4 OS threads hammer enqueue/dequeue across
// thousands of GC phases (tiny G), so truncated blocks, archive versions
// and EBR buckets are created, read concurrently, and freed under real
// contention. Any use-after-free (a block freed while a dequeue still
// navigates it), double free (BlockArray dtor vs EBR) or leak (archive
// versions, retired blocks) fails the suite under -DWFQ_SANITIZE=ON.
//
// A prefilled run starts the queue thousands deep, so the workers'
// dequeues read blocks through archived chunks while the GC phases their
// ops trigger erase those chunks and free them (with their blocks) through
// EBR.
//
// Semantics are also checked: no duplicated or invented values, exact
// multiset conservation after a drain, and per-producer FIFO order at
// every consumer (the prefill counts as one more producer). A fifth,
// unbound thread calls space() throughout, the way
// a live broker's STAT does: the archive version it would otherwise read
// is retired by the GC phases the workers run, so a space() that touched
// it fails under ASan (use-after-free) and TSan (data race).
//
// A thread's archive-lookup memo outlives no operation: a broker loop
// drives many queues in turn (one per shard and DWRR tenant), so the memo
// case has each thread cycle through several prefilled queues whose tiny G
// makes archive versions die and their addresses come back between one
// queue's operation and the next's. A memo entry kept across operations
// would hand a dequeue another queue's chunk (a value tagged with the wrong
// queue; plain builds reuse a freed address at once, ASan's quarantine
// delays it) or a freed one (use-after-free under ASan).
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/bounded_queue.hpp"
#include "test_util.hpp"

namespace {

constexpr int kProcs = 4;
constexpr uint64_t kOpsPerThread = 12'000;

/// Value `seq` of `producer` (the prefill is producer kProcs).
uint64_t tag(uint64_t producer, uint64_t seq) { return producer << 32 | seq; }

void stress(int64_t gc_period, uint64_t prefill = 0) {
  wfq::core::BoundedQueue<uint64_t> q(kProcs, gc_period);
  q.bind_thread(0);
  for (uint64_t k = 0; k < prefill; ++k) q.enqueue(tag(kProcs, k));
  CHECK(q.debug_archived_blocks() >= prefill / 2);  // most of it archived
  std::vector<std::vector<uint64_t>> got(kProcs);
  std::atomic<int> running{kProcs};
  std::thread reader([&q, &running] {
    // Bounds far above any real count: a wrapped or torn read trips them.
    constexpr uint64_t kSane = uint64_t{1} << 40;
    do {
      wfq::core::Space s = q.space();
      CHECK(s.live_blocks < kSane);
      CHECK(s.ebr_retired < kSane);
    } while (running.load() > 0);
  });
  std::vector<std::thread> threads;
  for (int pid = 0; pid < kProcs; ++pid) {
    threads.emplace_back([&q, &got, &running, pid] {
      q.bind_thread(pid);
      got[static_cast<size_t>(pid)].reserve(kOpsPerThread);
      for (uint64_t k = 0; k < kOpsPerThread; ++k) {
        // 2 enqueues then 2 dequeues keeps the queue near its starting depth
        // (shallow unless prefilled) but busy, so GC retention repeatedly
        // crosses the live front under contention.
        if (k % 4 < 2) {
          q.enqueue(tag(static_cast<uint64_t>(pid), k));
        } else {
          auto r = q.dequeue();
          if (r.has_value()) got[static_cast<size_t>(pid)].push_back(*r);
        }
      }
      running.fetch_sub(1);
    });
  }
  for (auto& t : threads) t.join();
  reader.join();

  std::set<uint64_t> enqueued;
  for (uint64_t k = 0; k < prefill; ++k) enqueued.insert(tag(kProcs, k));
  for (int pid = 0; pid < kProcs; ++pid)
    for (uint64_t k = 0; k < kOpsPerThread; ++k)
      if (k % 4 < 2) enqueued.insert(tag(static_cast<uint64_t>(pid), k));

  std::set<uint64_t> dequeued;
  for (const auto& list : got) {
    std::map<uint64_t, int64_t> last_seq;  // per-producer FIFO at a consumer
    for (uint64_t v : list) {
      CHECK(enqueued.count(v) == 1);
      CHECK(dequeued.insert(v).second);
      uint64_t producer = v >> 32;
      auto seq = static_cast<int64_t>(v & 0xffffffffu);
      auto it = last_seq.find(producer);
      if (it != last_seq.end()) CHECK(seq > it->second);
      last_seq[producer] = seq;
    }
  }

  q.bind_thread(0);
  for (;;) {
    auto r = q.dequeue();
    if (!r.has_value()) break;
    CHECK(dequeued.insert(*r).second);
  }
  CHECK_EQ(dequeued.size(), enqueued.size());
  CHECK(q.debug_gc_phases() > 0);
  CHECK(q.debug_ebr().freed_count() > 0);
}

void memo_across_queues(int threads) {
  constexpr int kQueues = 4;
  constexpr uint64_t kPrefill = 1024;
  constexpr uint64_t kOps = 20'000;
  using Queue = wfq::core::BoundedQueue<uint64_t>;
  std::vector<std::unique_ptr<Queue>> qs;
  for (int j = 0; j < kQueues; ++j) {
    qs.push_back(std::make_unique<Queue>(threads, /*gc_period=*/4));
    qs.back()->bind_thread(0);
    for (uint64_t k = 0; k < kPrefill; ++k) {
      qs.back()->enqueue(static_cast<uint64_t>(j) << 48 | tag(kProcs, k));
    }
  }
  // Per thread: the values it dequeued from each queue.
  std::vector<std::vector<std::vector<uint64_t>>> got(
      static_cast<size_t>(threads), std::vector<std::vector<uint64_t>>(kQueues));
  std::vector<std::thread> workers;
  for (int pid = 0; pid < threads; ++pid) {
    workers.emplace_back([&qs, &got, pid] {
      for (auto& q : qs) q->bind_thread(pid);
      for (uint64_t k = 0; k < kOps; ++k) {
        // Each queue in turn: an enqueue, then a dequeue.
        const auto j = static_cast<size_t>(k / 2 % kQueues);
        if (k % 2 == 0) {
          qs[j]->enqueue(uint64_t{j} << 48 |
                         tag(static_cast<uint64_t>(pid), k));
        } else {
          auto r = qs[j]->dequeue();
          CHECK(r.has_value());  // the prefill outlasts every drain
          if (r.has_value()) got[static_cast<size_t>(pid)][j].push_back(*r);
        }
      }
    });
  }
  for (auto& t : workers) t.join();

  for (size_t j = 0; j < kQueues; ++j) {
    std::set<uint64_t> dequeued;
    for (const auto& per_thread : got) {
      std::map<uint64_t, int64_t> last_seq;  // per-producer FIFO
      for (uint64_t v : per_thread[j]) {
        CHECK_EQ(v >> 48, uint64_t{j});  // never another queue's value
        CHECK(dequeued.insert(v).second);
        uint64_t producer = (v >> 32) & 0xffffu;
        auto seq = static_cast<int64_t>(v & 0xffffffffu);
        auto it = last_seq.find(producer);
        if (it != last_seq.end()) CHECK(seq > it->second);
        last_seq[producer] = seq;
      }
    }
    CHECK(qs[j]->debug_gc_phases() > 0);
    CHECK(qs[j]->debug_ebr().freed_count() > 0);
  }
}

}  // namespace

int main() {
  stress(/*gc_period=*/8);   // thousands of GC phases
  stress(/*gc_period=*/64);  // coarser windows, deeper archive churn
  stress(/*gc_period=*/8, /*prefill=*/4096);  // dequeues through the archive
  memo_across_queues(/*threads=*/1);
  memo_across_queues(/*threads=*/2);
  return wfq::test::exit_code();
}
