// Per-process block pools of the ordering tree (DESIGN.md "Block pools"):
//  (a) recycling reaches every process: a bounded queue at p = 2, G = 2
//      whose ops alternate pids makes pid 1 the collector of every phase,
//      yet pid 0's appends reuse the blocks pid 1 spills, so the slabs stop
//      growing (a collector that kept every block would leave pid 0
//      carving fresh slabs forever);
//  (b) a refresh that loses its CAS keeps its candidate: under the
//      stall-refresh adversary every block carved is installed or is one
//      process's spare;
//  (c) a recycled block is poisoned in ASan builds, so a read through a
//      stale pointer reports like a use after free; in every build a
//      recycled block comes back value-initialized;
//  (d) the spill crosses threads: blocks one thread's pool recycled past
//      its cap are taken whole, value-initialized, by another thread's
//      pool (the one cross-thread pool path; the TSan job runs this);
//  (e) a block whose element owns memory is destroyed exactly once,
//      whether it is recycled, kept as a spare or still installed when
//      the queue goes (in ASan builds a missed destroy reports as a leak,
//      a second one as a double free);
//  (f) blocks are carved sizeof(Block) apart, not a cache line apart: a
//      full slab's bytes over the blocks carved from it (its header takes
//      one block's place) are the 40-byte block, not 64;
//  (g) a spill links the excess list by its tracked tail: two spills of
//      more than 2 * kFreeCap blocks in all, the second onto a nonempty
//      spill, and every spilled block comes back exactly once through
//      another pool's get().
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/bounded_queue.hpp"
#include "core/unbounded_queue.hpp"
#include "platform/platform.hpp"
#include "sim/adversary.hpp"
#include "sim/scheduler.hpp"
#include "test_util.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define WFQ_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define WFQ_TEST_ASAN 1
#endif
#endif

namespace {

using wfq::core::BoundedQueue;
using wfq::core::PoolStats;
using wfq::core::TreeBlock;
using wfq::core::UnboundedQueue;

/// Whether `b` reads as poisoned. It probes a field past the free-list
/// link, whose word the debug_pool() walk unpoisons and poisons again.
bool poisoned(const TreeBlock<uint64_t>* b) {
#ifdef WFQ_TEST_ASAN
  return __asan_address_is_poisoned(&b->size) != 0;
#else
  (void)b;
  return true;
#endif
}

void slabs_plateau_with_one_collector() {
  constexpr uint64_t kHold = 64;
  constexpr uint64_t kOps = 1'000'000;
  BoundedQueue<uint64_t> q(2, /*gc_period=*/2);
  uint64_t next = 0, expect = 0;
  auto pair = [&] {
    q.bind_thread(0);  // op 2k + 1: pid 0 enqueues
    q.enqueue(next++);
    q.bind_thread(1);  // op 2k + 2 crosses the G = 2 boundary: pid 1 collects
    std::optional<uint64_t> got = q.dequeue();
    CHECK(got.has_value());
    if (got.has_value()) CHECK_EQ(*got, expect);
    ++expect;
  };
  q.bind_thread(0);
  for (uint64_t i = 0; i < kHold; ++i) q.enqueue(next++);  // 32 phases: pid 0
  for (uint64_t i = 0; i < kOps / 20; ++i) pair();
  PoolStats warm = q.debug_pool();
  for (uint64_t i = kOps / 20; i < kOps / 2; ++i) pair();
  PoolStats end = q.debug_pool();
  CHECK(warm.slab_bytes > 0);
  CHECK_EQ(end.slab_bytes, warm.slab_bytes);
  // Recycling ran. pid 0 never collects after the prefill, so the plateau
  // is pid 0 living on the blocks pid 1 spills.
  CHECK(end.free + end.spilled > 0);
  CHECK(end.carved < 4096);
}

void spare_keeps_lost_candidates() {
  using Queue = UnboundedQueue<uint64_t, wfq::platform::SimPlatform>;
  constexpr int kProcs = 4;
  constexpr int kPairs = 200;
  Queue q(kProcs);
  uint64_t cas_failures[kProcs] = {};
  wfq::sim::Scheduler sched(wfq::sim::make_policy("stall-refresh"));
  std::vector<std::function<void()>> bodies;
  for (int pid = 0; pid < kProcs; ++pid) {
    bodies.emplace_back([&q, &cas_failures, pid] {
      q.bind_thread(pid);
      wfq::platform::StepScope steps;
      for (int k = 0; k < kPairs; ++k) {
        q.enqueue(static_cast<uint64_t>(k));
        (void)q.dequeue();
      }
      cas_failures[pid] = steps.delta().cas_failures;
    });
  }
  sched.run(std::move(bodies));
  uint64_t failures = 0;
  for (uint64_t f : cas_failures) failures += f;
  CHECK(failures > 0);  // the adversary did make CASes lose
  PoolStats s = q.debug_pool();
  CHECK_EQ(s.carved, q.space().live_blocks + s.spares);
  CHECK(s.spares <= uint64_t{kProcs});
  CHECK_EQ(s.free + s.spilled, uint64_t{0});  // ubq never recycles
}

void recycled_blocks_are_poisoned() {
  using Block = TreeBlock<uint64_t>;
  using Pool = wfq::core::BlockPool<Block>;
  Pool pool;
  Pool::Spill spill{nullptr};
  Block* b = pool.get(spill);
  b->sumenq = 7;
  b->sumdeq = 8;
  b->set_element(9);
  pool.recycle(b);
  CHECK(poisoned(b));
  Block* again = pool.get(spill);  // the free list is LIFO
  CHECK_EQ(again, b);
  CHECK_EQ(again->sumenq, int64_t{0});
  CHECK_EQ(again->sumdeq, int64_t{0});

  // Through the queue: p = 1 (the leaf is the root), so the first blocks a
  // GC phase recycles include the leaf's first block. It is recycled first
  // and lies at the bottom of the LIFO free list, so the one allocation
  // that may follow before the check cannot have reused it.
  BoundedQueue<uint64_t> q(1, /*gc_period=*/4);
  q.bind_thread(0);
  q.enqueue(0);
  const Block* first = q.debug_leaf(0)->blocks.unsafe_peek(1);
  for (uint64_t i = 1; q.debug_pool().free == 0 && i < 100'000; ++i) {
    q.enqueue(i);
    (void)q.dequeue();
  }
  CHECK(q.debug_pool().free > 0);
  CHECK(poisoned(first));
}

void spill_across_threads() {
  using Block = TreeBlock<uint64_t>;
  using Pool = wfq::core::BlockPool<Block>;
  constexpr int kRounds = 8;
  constexpr int64_t kCap = Pool::kFreeCap;
  Pool collector, taker;
  Pool::Spill spill{nullptr};
  std::vector<Block*> batch(static_cast<size_t>(2 * kCap));
  uint64_t dirty = 0;
  // The threads share nothing but the spill: the relaxed spins only pace
  // the rounds, so the spill's push and take alone must order the
  // collector's writes before the taker's.
  std::thread collect([&] {
    for (int r = 0; r < kRounds; ++r) {
      while (spill.load(std::memory_order_relaxed) != nullptr) {
      }
      for (Block*& b : batch) {
        b = collector.get(spill);
        b->sumenq = b->endright = r + 1;
      }
      for (Block* b : batch) collector.recycle(b);
      collector.spill_excess(spill);  // the kCap it cannot keep
    }
  });
  std::thread take([&] {
    for (int r = 0; r < kRounds; ++r) {
      while (spill.load(std::memory_order_relaxed) == nullptr) {
      }
      for (int64_t i = 0; i < kCap; ++i) {
        Block* b = taker.get(spill);  // the first takes the whole spill
        if (b->sumenq != 0 || b->endright != 0) ++dirty;
        b->sumdeq = r + 1;
      }
    }
  });
  collect.join();
  take.join();
  CHECK_EQ(dirty, uint64_t{0});
  PoolStats s;
  taker.add_stats(s);
  CHECK_EQ(s.carved, uint64_t{0});  // every block it used came off the spill
  CHECK_EQ(s.free, uint64_t{0});
}

void blocks_carved_at_the_stride() {
  using Block = TreeBlock<uint64_t>;
  using Pool = wfq::core::BlockPool<Block>;
  Pool pool;
  Pool::Spill spill{nullptr};
  auto stats = [&pool] {
    PoolStats s;
    pool.add_stats(s);
    return s;
  };
  const auto* first = reinterpret_cast<const std::byte*>(pool.get(spill));
  const auto* second = reinterpret_cast<const std::byte*>(pool.get(spill));
  CHECK_EQ(second - first, static_cast<std::ptrdiff_t>(sizeof(Block)));
  // Carve until a second slab appears: `full` is the first one, full.
  PoolStats full = stats();
  for (PoolStats s = full; s.slab_bytes == full.slab_bytes; s = stats()) {
    full = s;
    (void)pool.get(spill);
  }
  CHECK(full.carved > 2);
  CHECK_EQ(full.slab_bytes / (full.carved + 1), uint64_t{sizeof(Block)});
}

void every_spilled_block_comes_back() {
  using Block = TreeBlock<uint64_t>;
  using Pool = wfq::core::BlockPool<Block>;
  constexpr int64_t kCap = Pool::kFreeCap;
  Pool other, collector, taker;
  Pool::Spill spill{nullptr}, unused{nullptr};
  std::set<Block*> spilled;
  // The collector keeps its first kCap blocks and spills 2 * kCap.
  std::vector<Block*> batch;
  for (int64_t i = 0; i < 3 * kCap; ++i) batch.push_back(collector.get(spill));
  for (Block* b : batch) collector.recycle(b);
  spilled.insert(batch.begin() + kCap, batch.end());
  collector.spill_excess(spill);
  // Its free list is full, so all kCap + 1 of these go out in the second
  // spill, linked in front of the first.
  batch.clear();
  for (int64_t i = 0; i <= kCap; ++i) batch.push_back(other.get(unused));
  for (Block* b : batch) collector.recycle(b);
  spilled.insert(batch.begin(), batch.end());
  collector.spill_excess(spill);
  CHECK_EQ(spilled.size(), static_cast<size_t>(3 * kCap + 1));

  std::set<Block*> back;
  for (size_t i = 0; i < spilled.size(); ++i) back.insert(taker.get(spill));
  CHECK(back == spilled);
  CHECK(spill.load() == nullptr);
  PoolStats s;
  taker.add_stats(s);
  CHECK_EQ(s.carved, uint64_t{0});
  CHECK_EQ(s.free, uint64_t{0});
}

void owning_elements_destroyed_once() {
  // Long enough to live on the heap, not in the string's inline buffer.
  auto value = [](uint64_t i) {
    return std::string(64, 'a') + std::to_string(i);
  };
  for (int64_t g : {int64_t{2}, int64_t{-1}}) {  // recycled / never recycled
    BoundedQueue<std::string> q(2, g);
    for (uint64_t i = 0; i < 2000; ++i) {
      q.bind_thread(static_cast<int>(i % 2));
      q.enqueue(value(i));
      if (i % 3 != 0) {
        std::optional<std::string> got = q.dequeue();
        CHECK(got.has_value());
      }
    }
    CHECK(g < 0 || q.debug_pool().free + q.debug_pool().spilled > 0);
  }
  UnboundedQueue<std::string> u(2);
  for (uint64_t i = 0; i < 500; ++i) {
    u.bind_thread(static_cast<int>(i % 2));
    u.enqueue(value(i));
  }
  u.bind_thread(0);
  CHECK_EQ(u.dequeue().value_or(""), value(0));
}

}  // namespace

int main() {
  slabs_plateau_with_one_collector();
  spare_keeps_lost_candidates();
  recycled_blocks_are_poisoned();
  spill_across_threads();
  owning_elements_destroyed_once();
  blocks_carved_at_the_stride();
  every_spilled_block_comes_back();
  return wfq::test::exit_code();
}
