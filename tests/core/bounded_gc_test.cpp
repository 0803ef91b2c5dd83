// GC correctness + space regression for the bounded queue:
//  (a) FIFO correctness across many GC phases: a long single-threaded
//      mixed run at a tiny G against std::queue (deterministic, so every
//      archive lookup path is replayed exactly);
//  (b) Theorem 31 regression: the bounded queue's live blocks plateau as
//      ops grow 4x while the unbounded queue's grow ~4x, and disabling GC
//      (g=-1) makes the bounded queue grow like the unbounded one;
//  (c) the machinery demonstrably ran: GC phases fired, blocks were
//      archived into the persistent RBT, and EBR actually freed memory;
//  (d) chunk boundaries: a deep prefill drained under G below, at and above
//      the archive's chunk size, with FIFO and conservation asserted and
//      dead chunks erased afterwards;
//  (e) the archive itself plateaus as ops grow;
//  (f) the slot index is bounded too: whole slot pages below every node's
//      floor go back to the kernel, so a long run's resident memory stays
//      far below an unbounded queue's;
//  (g) elements that own memory survive the archive: a deep queue of heap
//      strings archives several chunks and drains in FIFO order with exact
//      values (under ASan a missed destroy of an archived block is an LSan
//      leak, a doubled one a double free);
//  (h) a tree costs what it carries: an idle tree is its root alone (a
//      process that never operated has no leaf and no per-process block),
//      an 8-process tree where only pid 5 operated holds the 4 nodes of
//      its root path and one per-process block (the leaf pointer lives in
//      it), and the resident bytes of idle 4-process bounded queues stay
//      below what even one process's block pool per tree costs;
//  (i) the archive holds blocks by reference: archiving copies no element,
//      and a queue destroyed with archived chunks still live (some held
//      only by a retired archive version, so they die in the EBR layer's
//      teardown) destroys every element exactly once;
//  (j) the archive search: on quiescent queues with erased chunks and a
//      straddling chunk whose low slots hold the discarded sentinel, the
//      floor-crossing search a dequeue runs (one archive descent) returns,
//      for every target at every node, what a plain gallop_down over
//      historical block loads returns;
//  (k) the GC cadence: the default period is max(kChunk, p^2 ceil(log2 p))
//      (64 up to p = 4, the paper's value from p = 5 on), a queue built
//      from an explicit bounded:g=<G> key (even below a chunk, and -1)
//      behaves like one built with that G, and a default p = 2 queue runs
//      exactly one phase per 64 single ops.
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <queue>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "api/queue_registry.hpp"
#include "core/bounded_queue.hpp"
#include "core/unbounded_queue.hpp"
#include "test_util.hpp"

namespace {

using wfq::core::BoundedQueue;
using wfq::core::UnboundedQueue;

void fifo_across_gc_phases() {
  constexpr int kProcs = 2;
  BoundedQueue<uint64_t> q(kProcs, /*gc_period=*/3);
  std::queue<uint64_t> model;
  std::mt19937_64 rng(0xfeed);
  uint64_t next = 1;
  for (int k = 0; k < 6000; ++k) {
    q.bind_thread(static_cast<int>(rng() % kProcs));
    // Drift the mix so the queue repeatedly grows to ~100s and drains to
    // empty, crossing GC retention through both regimes.
    bool enq = (rng() % 100) < ((k / 1500) % 2 == 0 ? 65 : 35);
    if (enq) {
      q.enqueue(next);
      model.push(next);
      ++next;
    } else {
      std::optional<uint64_t> got = q.dequeue();
      if (model.empty()) {
        CHECK(!got.has_value());
      } else {
        CHECK(got.has_value());
        if (got.has_value()) CHECK_EQ(*got, model.front());
        model.pop();
      }
    }
  }
  while (!model.empty()) {
    std::optional<uint64_t> got = q.dequeue();
    CHECK(got.has_value());
    if (got.has_value()) CHECK_EQ(*got, model.front());
    model.pop();
  }
  CHECK(!q.dequeue().has_value());
  CHECK(q.debug_gc_phases() > 0);
  CHECK(q.debug_ebr().freed_count() > 0);
}

/// Live blocks after `pairs` enqueue+dequeue pairs with the queue held at
/// ~q_hold, single-threaded (deterministic).
template <typename Queue>
size_t live_after(Queue& q, uint64_t pairs, uint64_t q_hold) {
  q.bind_thread(0);
  for (uint64_t i = 0; i < q_hold; ++i) q.enqueue(i);
  for (uint64_t i = 0; i < pairs; ++i) {
    q.enqueue(q_hold + i);
    (void)q.dequeue();
  }
  return q.space().live_blocks;
}

void space_plateau() {
  constexpr uint64_t kHold = 32;
  constexpr uint64_t kSmall = 2000, kBig = 8000;  // 4x op growth

  UnboundedQueue<uint64_t> u_small(2), u_big(2);
  size_t us = live_after(u_small, kSmall, kHold);
  size_t ub = live_after(u_big, kBig, kHold);
  double unbounded_ratio =
      static_cast<double>(ub) / static_cast<double>(us);

  BoundedQueue<uint64_t> b_small(2, /*gc_period=*/8), b_big(2, 8);
  size_t bs = live_after(b_small, kSmall, kHold);
  size_t bb = live_after(b_big, kBig, kHold);
  double bounded_ratio = static_cast<double>(bb) / static_cast<double>(bs);

  // Theorem 31's shape: 4x the ops leaves the bounded queue's reachable
  // blocks flat (ratio ~1) while the unbounded queue's scale with ops
  // (ratio ~4). The gates are loose on purpose — they assert the shape,
  // not the constants.
  CHECK(unbounded_ratio > 3.0);
  CHECK(bounded_ratio < 1.5);
  CHECK(bb * 20 < ub);  // and the absolute plateau is far below unbounded

  // The plateau really comes from collection: disabling GC (g=-1) makes
  // the bounded queue grow like the unbounded one.
  BoundedQueue<uint64_t> off_small(2, -1), off_big(2, -1);
  size_t os = live_after(off_small, kSmall, kHold);
  size_t ob = live_after(off_big, kBig, kHold);
  CHECK(static_cast<double>(ob) / static_cast<double>(os) > 3.0);
  CHECK_EQ(off_big.debug_gc_phases(), uint64_t{0});
  CHECK_EQ(off_big.debug_ebr().retired_count(), uint64_t{0});

  // The subsystem surfaces agree the machinery ran on the collected runs.
  CHECK(b_big.debug_gc_phases() > 0);
  CHECK(b_big.debug_archived_blocks() > 0);
  CHECK(b_big.debug_ebr().freed_count() > 0);
}

/// The archive stores whole chunks of BoundedQueue::kChunk blocks. A deep
/// prefill archives many of them; the drain then moves the archive floor
/// through every chunk, so straddling chunks, chunk-aligned array floors and
/// erasure of dead chunks are all crossed, with G on both sides of kChunk.
void deep_drain_across_chunks(int64_t gc_period) {
  constexpr int kProcs = 8;  // paper default G = 192, three chunks
  constexpr uint64_t kDepth = 4096;
  BoundedQueue<uint64_t> q(kProcs, gc_period);
  std::queue<uint64_t> model;
  uint64_t next = 1, sum_in = 0, sum_out = 0;
  auto enq = [&](int k) {
    q.bind_thread(k % kProcs);
    q.enqueue(next);
    model.push(next);
    sum_in += next++;
  };
  auto deq = [&](int k) {
    q.bind_thread(k % kProcs);
    std::optional<uint64_t> got = q.dequeue();
    CHECK(got.has_value());
    if (!got.has_value() || model.empty()) return;
    CHECK_EQ(*got, model.front());
    sum_out += *got;
    model.pop();
  };
  for (int k = 0; k < static_cast<int>(kDepth); ++k) enq(k);
  size_t peak = q.debug_archived_blocks();
  // Half the drain mixed with enqueues (the archive keeps filling while the
  // floor rises), the rest a pure drain.
  for (int k = 0; k < static_cast<int>(kDepth); ++k) {
    if (k % 2 == 0) enq(k);
    deq(k);
  }
  for (int k = 0; !model.empty(); ++k) deq(k);
  // Retention keeps the drain's dequeue blocks until the front passes the
  // last enqueue; pairs on the empty queue move it past.
  for (int k = 0; k < 1024; ++k) {
    enq(k);
    deq(k + 1);
  }
  CHECK(!q.dequeue().has_value());
  CHECK_EQ(sum_out, sum_in);
  // Chunks dead after the drain are erased, not leaked.
  CHECK(peak >= kDepth / 2);
  CHECK(q.debug_archived_blocks() * 8 < peak);
}

/// (j): the search that finishes under a floor with one descent over the
/// archived chunks must agree with probing every block through load_block.
/// A quiescent single-thread build: pairs on an empty queue (the archive
/// floor follows the front, so chunks go in with sentinel low slots and die
/// again), then a deep fill (the floor stops, and the chunk straddling it
/// stays).
void archive_search_matches_probing(int procs, int64_t gc_period) {
  using Queue = BoundedQueue<uint64_t>;
  using Node = Queue::Node;
  Queue q(procs, gc_period);
  uint64_t next = 1;
  std::set<uint64_t> seen_keys;
  auto note_keys = [&] {
    for (const auto& [key, sentinels] : q.debug_chunks()) seen_keys.insert(key);
  };
  for (int k = 0; k < 3000; ++k) {
    q.bind_thread(k % procs);
    q.enqueue(next++);
    q.bind_thread((k + 1) % procs);
    CHECK(q.dequeue().has_value());
    if (k % 50 == 0) note_keys();
  }
  for (int k = 0; k < 2500; ++k) {
    q.bind_thread(k % procs);
    q.enqueue(next++);
    if (k % 50 == 0) note_keys();
  }

  // The archive holds what the search must handle: chunks erased since
  // they were seen, and a chunk past a node's first whose low slots are
  // the sentinel.
  std::set<uint64_t> now_keys;
  bool straddling = false;
  constexpr uint64_t kIndexMask = (uint64_t{1} << 44) - 1;
  for (const auto& [key, sentinels] : q.debug_chunks()) {
    now_keys.insert(key);
    straddling |= (key & kIndexMask) > 0 && sentinels > 0 &&
                  sentinels < Queue::kChunk;
  }
  bool erased = false;
  for (uint64_t key : seen_keys) erased |= now_keys.count(key) == 0;
  CHECK(erased);
  CHECK(straddling);

  const Node* root = q.debug_leaf(0);
  while (root->parent != nullptr) root = root->parent;
  int64_t compared = 0, under_floor = 0;
  std::vector<const Node*> stack{root};
  while (!stack.empty()) {
    const Node* v = stack.back();
    stack.pop_back();
    if (!v->is_leaf) {
      stack.push_back(v->left());
      stack.push_back(v->right());
    }
    int64_t last = v->head.unsafe_peek() - 1;  // quiescent: head is past it
    if (last < 1) continue;
    const int64_t floor = v->floor.unsafe_peek();
    const int64_t total = q.debug_load(v, last)->sumenq;
    for (int64_t e = 1; e <= total; ++e) {
      auto reaches = [e](const Queue::Block* b) { return b->sumenq >= e; };
      // The probing search every dequeue ran before the archive descent.
      auto probing = [&](int64_t hi) {
        return wfq::core::gallop_down(
            hi, [&](int64_t s) { return reaches(q.debug_load(v, s)); });
      };
      int64_t want = probing(last);
      under_floor += want < floor;
      // From the last block, and from just above the answer, where the
      // search's first probes already fall under the floor.
      for (int64_t hi : {last, std::min(last, want + 1),
                         std::min(last, want + 70)}) {
        int64_t got = q.debug_search_down(v, hi, reaches);
        CHECK_EQ(got, probing(hi));
        ++compared;
      }
    }
  }
  CHECK(compared > 0);
  CHECK(under_floor > 0);  // the descent really ran
}

/// Archived blocks plateau as ops grow: a held queue depth bounds the
/// archive, whatever the run length. With G = 256 and the queue held at 160
/// the archive floor overtakes the old array floor by more than a chunk in
/// every phase, so a chunk inserted already dead (never erased) would make
/// the archive grow with every phase.
void archive_plateau() {
  constexpr uint64_t kHold = 160;
  BoundedQueue<uint64_t> q(2, /*gc_period=*/256);
  q.bind_thread(0);
  for (uint64_t i = 0; i < kHold; ++i) q.enqueue(i);
  size_t max_first = 0, max_rest = 0;
  for (uint64_t i = 0; i < 16'000; ++i) {
    q.enqueue(kHold + i);
    (void)q.dequeue();
    size_t& max = i < 4'000 ? max_first : max_rest;
    max = std::max(max, q.debug_archived_blocks());
  }
  CHECK(max_first > 0);
  CHECK(max_rest <= max_first);
}

// Sanitizer allocators keep freed memory resident (ASan's quarantine holds
// every retired block), so there the resident set measures the sanitizer,
// not the queue; slot_pages_released compares it only in plain builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kRssMeasurable = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kRssMeasurable = false;
#else
constexpr bool kRssMeasurable = true;
#endif
#else
constexpr bool kRssMeasurable = true;
#endif

/// Resident set of this process in bytes (/proc/self/statm).
int64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  int64_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<int64_t>(::sysconf(_SC_PAGESIZE));
}

/// Resident growth over `ops` single-thread operations (enqueue+dequeue
/// pairs) on `q`.
template <typename Queue>
int64_t rss_growth(Queue& q, uint64_t ops) {
  q.bind_thread(0);
  int64_t before = resident_bytes();
  for (uint64_t i = 0; i < ops / 2; ++i) {
    q.enqueue(i);
    CHECK(q.dequeue().has_value());
  }
  return resident_bytes() - before;
}

void slot_pages_released() {
  constexpr uint64_t kOps = 1'000'000;
  using Array = BoundedQueue<uint64_t>::BlockArray;
  const int64_t per_page = Array::slots_per_page();
  BoundedQueue<uint64_t> b(2, /*gc_period=*/4);
  int64_t bounded = rss_growth(b, kOps);
  auto floors = b.debug_floors();
  CHECK_EQ(floors.size(), size_t{3});
  for (auto [kfloor, released] : floors) {
    CHECK(released <= kfloor);
    CHECK(kfloor - released < per_page);  // within one page of the floor
  }
  CHECK(floors[0].second > int64_t{kOps} / 2);  // the root really released
  if (!kRssMeasurable) return;

  UnboundedQueue<uint64_t> u(2);
  int64_t unbounded = rss_growth(u, kOps);
  // The unbounded queue keeps every block and slot (~78 MB on x86-64
  // Linux: 40-byte pooled blocks plus 8-byte slots); the bounded one its
  // live suffixes and < one dead page per node (~45 KiB). Keeping the dead
  // slot pages alone would make it ~17 MB, which the generous 16x margin
  // still catches.
  CHECK(unbounded > 0);
  CHECK(std::max<int64_t>(bounded, 0) * 16 < unbounded);
}

void archived_owning_elements() {
  constexpr int kProcs = 2;
  constexpr uint64_t kDepth = 1024;
  using Queue = BoundedQueue<std::string>;
  // Long enough to live on the heap, not in the string's inline buffer.
  auto value = [](uint64_t i) {
    return std::string(48, 'v') + std::to_string(i);
  };
  Queue q(kProcs, /*gc_period=*/4);
  uint64_t next = 0, expect = 0;
  auto drain_one = [&](uint64_t k) {
    q.bind_thread(static_cast<int>(k % kProcs));
    std::optional<std::string> got = q.dequeue();
    CHECK(got.has_value());
    if (got.has_value()) CHECK_EQ(*got, value(expect));
    ++expect;
  };
  for (; next < kDepth; ++next) {
    q.bind_thread(static_cast<int>(next % kProcs));
    q.enqueue(value(next));
  }
  const size_t peak = q.debug_archived_blocks();
  CHECK(peak >= size_t{2 * Queue::kChunk});
  for (uint64_t k = 0; k < kDepth; ++k) drain_one(k);
  CHECK(!q.dequeue().has_value());
  // Pairs on the empty queue move the retention front past the drain, so
  // the archived chunks die and are erased, and their strings with them.
  for (uint64_t k = 0; k < 1024; ++k) {
    q.bind_thread(static_cast<int>(k % kProcs));
    q.enqueue(value(next++));
    drain_one(k + 1);
  }
  CHECK(q.debug_archived_blocks() * 4 < peak);
}

/// An element that counts its copies and live instances, and reports a
/// second destruction.
struct Counted {
  static constexpr uint64_t kAlive = 0x600dc0ffee;
  static inline uint64_t copies = 0;
  static inline int64_t live = 0;
  uint64_t v = 0;
  uint64_t alive = kAlive;

  explicit Counted(uint64_t x) : v(x) { ++live; }
  Counted(const Counted& o) : v(o.v) {
    ++copies;
    ++live;
  }
  Counted(Counted&& o) noexcept : v(o.v) { ++live; }
  Counted& operator=(const Counted& o) {
    v = o.v;
    ++copies;
    return *this;
  }
  Counted& operator=(Counted&& o) noexcept {
    v = o.v;
    return *this;
  }
  ~Counted() {
    CHECK_EQ(alive, kAlive);
    alive = 0;
    --live;
  }
};

void archive_holds_references() {
  constexpr int kProcs = 2;
  constexpr uint64_t kDepth = 1024;
  using Queue = BoundedQueue<Counted>;
  auto fill = [](Queue& q) {
    for (uint64_t i = 0; i < kDepth; ++i) {
      q.bind_thread(static_cast<int>(i % kProcs));
      q.enqueue(Counted(i));
    }
  };
  Counted::copies = 0;
  {
    Queue q(kProcs, /*gc_period=*/4);
    fill(q);
    CHECK(q.debug_archived_blocks() >= size_t{2 * Queue::kChunk});
    // Enqueues move; a copied archive would have copied 64 per chunk.
    CHECK_EQ(Counted::copies, uint64_t{0});
    for (uint64_t k = 0; k < kDepth; ++k) {
      q.bind_thread(static_cast<int>(k % kProcs));
      std::optional<Counted> got = q.dequeue();
      CHECK(got.has_value());
      if (got.has_value()) CHECK_EQ(got->v, k);
    }
    CHECK(!q.dequeue().has_value());
    // The one copy per dequeue hands the value out of its immutable block;
    // the chunks archived during the drain copied nothing either.
    CHECK_EQ(Counted::copies, kDepth);
  }
  CHECK_EQ(Counted::live, int64_t{0});

  {
    Queue q(kProcs, /*gc_period=*/4);
    fill(q);
    // Drain until a GC phase erases a chunk. The version that still held
    // it was retired into EBR in that phase and has not been freed yet, so
    // that chunk dies in the EBR layer's destructor with the queue.
    size_t prev = q.debug_archived_blocks();
    bool erased = false;
    for (uint64_t k = 0; k < kDepth && !erased; ++k) {
      q.bind_thread(static_cast<int>(k % kProcs));
      std::optional<Counted> got = q.dequeue();
      CHECK(got.has_value());
      if (got.has_value()) CHECK_EQ(got->v, k);
      erased = q.debug_archived_blocks() < prev;
      prev = q.debug_archived_blocks();
    }
    CHECK(erased);
    CHECK(prev > 0);  // and the current version still holds chunks
  }
  CHECK_EQ(Counted::live, int64_t{0});
}

void idle_trees_are_small() {
  {
    BoundedQueue<uint64_t> q(8);
    CHECK_EQ(q.debug_nodes(), size_t{1});
    q.bind_thread(5);
    q.enqueue(5);
    CHECK(q.dequeue() == std::optional<uint64_t>(5));
    CHECK_EQ(q.debug_nodes(), size_t{4});
    for (int pid = 0; pid < 8; ++pid)
      CHECK((q.debug_leaf(pid) != nullptr) == (pid == 5));
  }
  if (!kRssMeasurable) return;
  constexpr int kTrees = 2048;
  std::vector<std::unique_ptr<BoundedQueue<uint64_t>>> trees;
  trees.reserve(kTrees);
  int64_t before = resident_bytes();
  for (int i = 0; i < kTrees; ++i) {
    trees.push_back(std::make_unique<BoundedQueue<uint64_t>>(4));
  }
  int64_t per_tree = (resident_bytes() - before) / kTrees;
  std::cout << "idle 4-process bounded tree: " << per_tree
            << " resident bytes\n";
  // x86-64 Linux, glibc: ~1.7 KB, the root node (~0.6 KB with its first
  // index segment) and ~0.3 KB per process (start slot, EBR slot and a
  // per-process pointer). With every process's 64-byte block pool built
  // up front it read ~2.2 KB; a tree that built all seven nodes read
  // ~5.7 KB.
  CHECK(per_tree < 1900);
}

void gc_cadence() {
  for (auto [p, g] : {std::pair{1, 64}, {2, 64}, {3, 64}, {4, 64}, {5, 75},
                      {6, 108}, {8, 192}})
    CHECK_EQ(BoundedQueue<uint64_t>(p).gc_period(), int64_t{g});
  // Explicit keys are not floored: a queue built through the registry
  // behaves, op for op, like one built with the period its key names (4,
  // -1, or the constructor's default for plain "bounded"). The three periods
  // give three different space traces, so the comparison tells them apart.
  auto space_trace = [](auto& q) {
    q.bind_thread(0);
    std::vector<std::pair<uint64_t, uint64_t>> trace;
    for (uint64_t n = 1; n <= 64 * 6; ++n) {
      if (n % 3 == 0) {
        (void)q.dequeue();
      } else {
        q.enqueue(n);
      }
      if constexpr (requires { q.space_stats(); }) {
        auto s = q.space_stats();
        trace.emplace_back(s.live_blocks, s.ebr_retired);
      } else {
        auto s = q.space();
        trace.emplace_back(s.live_blocks, s.ebr_retired);
      }
    }
    return trace;
  };
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> traces;
  for (auto [key, g] : {std::pair{"bounded:g=4", int64_t{4}},
                        {"bounded:g=-1", int64_t{-1}},
                        {"bounded", int64_t{0}}}) {
    auto via_registry = wfq::api::make_queue<uint64_t>(key, {.procs = 2});
    BoundedQueue<uint64_t> direct(2, g);
    traces.push_back(space_trace(via_registry));
    CHECK(traces.back() == space_trace(direct));
  }
  CHECK(traces[0] != traces[1] && traces[0] != traces[2] &&
        traces[1] != traces[2]);
  BoundedQueue<uint64_t> q(2);
  q.bind_thread(0);
  bool ok = true;
  for (uint64_t n = 1; n <= 64 * 10 + 37; ++n) {
    if (n % 2 == 1) {
      q.enqueue(n);
    } else {
      ok = ok && q.dequeue() == std::optional<uint64_t>(n - 1);
    }
    ok = ok && q.debug_gc_phases() == n / 64;
  }
  CHECK(ok);
  CHECK_EQ(q.debug_gc_phases(), uint64_t{10});
}

}  // namespace

int main() {
  idle_trees_are_small();  // first: before other tests leave freed memory
  fifo_across_gc_phases();
  space_plateau();
  for (int64_t g : {2, 5, 63, 64, 65, 0}) deep_drain_across_chunks(g);
  archive_plateau();
  slot_pages_released();
  archived_owning_elements();
  archive_holds_references();
  archive_search_matches_probing(/*procs=*/2, /*gc_period=*/3);
  archive_search_matches_probing(/*procs=*/6, /*gc_period=*/5);
  gc_cadence();
  return wfq::test::exit_code();
}
