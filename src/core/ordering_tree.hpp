// The shared ordering-tree core (ISSUE 5 tentpole): the machinery the
// paper's queue and its Section-7 extensions have in common, extracted so
// the unbounded queue, the bounded-space queue and the wait-free vector are
// thin clients of ONE implementation instead of three diverged copies.
//
// Structure: a static tournament ("ordering") tree with one leaf per
// process. Every node holds an append-only array of immutable Blocks plus a
// head index. Only the root is built up front: a process's first operation
// installs its leaf and the missing nodes on its root path, and a child not
// built yet reads as one shared empty node (an idle leaf), so a tree costs
// what its operating processes' paths carry. An operation appends a block
// at its own leaf, then propagates to the root with the double-Refresh
// idiom: each Refresh tries to CAS one new block into the parent that
// merges every child block not yet merged. Agreement on the root's block sequence induces the linearization: blocks
// in index order; within a block, enqueues before dequeues; within each
// kind, left-subtree operations before right-subtree ones.
//
// Blocks carry the paper's "implicit" fields materialized at creation time
// (each is written once before the block is published, so readers never see
// partial values):
//   sumenq/sumdeq — cumulative enqueue/dequeue counts in this node's subtree
//                   up to and including this block;
//   endleft/endright — index of the last child block merged (internal nodes);
//   element — the enqueued value (leaf enqueue blocks; a leaf block is an
//             enqueue exactly when its sumenq exceeds its predecessor's);
//   size — queue size after this block's operations (root only), clamped at 0
//          so null dequeues do not drive it negative;
//   super — hint: parent's head index read just before this block was
//           published; the true superblock index is >= super and within the
//           append contention of it, so a gallop from the hint costs
//           O(log contention) (the paper's log-c factor).
// No node kind reads all of them, so size (root) shares a word with super
// (other nodes), and endleft/endright (internal nodes) two with the element
// (leaves): a TreeBlock<uint64_t> is five words, 40 bytes.
//
// The Storage customization point. Clients differ ONLY in how historical
// blocks are read back: the unbounded queue and the vector load the array
// slot directly; the bounded queue routes indices under a node's GC floor
// through its persistent-RBT archive (and tombstoned slots likewise). Every
// historical read inside the tree goes through
//
//   storage.load_block(const Node* v, int64_t i) -> const Block*
//   storage.search_down(const Node* v, int64_t hi, pred) -> int64_t
//
// the second being the one search that can run far below a floor (the
// doubling search of find_response): the first index in (0, hi] whose block
// satisfies the monotone block predicate, given that hi's does. Frontier
// operations (null-scan at the head, install CAS, head helping) stay direct
// array accesses — a frontier slot is never truncated, in either client.
// DirectStorage below is the trivial hook (search_down is gallop_down over
// load_block); the bounded queue supplies its floor/tombstone/archive-aware
// one, whose search finishes under the floor with one archive descent.
//
// Operation surface the clients compose:
//   append_run(pid, enqs, ndeq) a run of leaf Appends (enqueues, then
//                              dequeues) + one fence and one double-Refresh
//                              propagation for the whole run (a lone
//                              operation is the run of one);
//   index_op(pid, b, is_enq)   locate the leaf block in the root ordering
//                              (IndexDequeue generalized to either op kind —
//                              the vector indexes its appends with the same
//                              walk a dequeue uses to index itself);
//   find_response(b, r)        queue dequeue resolution: null-vs-value from
//                              the root size prefix + Lemma-20 doubling
//                              search (storage.search_down) + root-to-leaf
//                              descent;
//   find_enqueue(e)            vector get: index-directed binary search
//                              (bisect) over root blocks + the same descent;
//   enqueue_rank(b, r)         global rank of a located enqueue (the index a
//                              vector append returns).
// Every index search behind these (the superblock gallop of index_op, the
// doubling search, the per-level binary search of the descent) is one of
// the three monotone-search templates below: bisect, gallop_down and
// gallop_up (the bounded client's search_down runs the same gallop_down
// probes while they stay in the array).
//
// Hot-path constant factors: each leaf keeps an owner-local cache of its
// last block's index and cumulative sums (ROADMAP perf item). The leaf is
// single-writer, so the cache is plain non-atomic state with the same
// owner-only contract as the leaf array itself; it saves the head load and
// the previous-block load — two counted shared steps — on every append.
// (The cache holds VALUES, not the block pointer: under the bounded client
// a truncated block is eventually recycled through EBR, and a pointer
// cached across operations — outside any epoch pin — could dangle.)
// Propagation remembers where the run landed: it carries, level by level,
// a bound on the index of the block holding the run's last leaf block, so
// a refresh that loses its CAS reads the winner once and skips the second
// refresh when the winner merged the run (the double refresh still runs
// when it did not). On the levels where the whole run entered one block,
// propagate records that block's index and the pointers to it and its
// predecessor, which the refresh already holds, and index_op reads them
// instead of searching for the superblock; it also skips the two sum
// differences its indices already say are zero. Per level an enqueue thus
// costs at most two refreshes and one winner read.
// Blocks come from a per-process BlockPool, carved back to back from slabs,
// so an operation calls no allocator; a refresh that loses its CAS keeps
// its candidate as the process's spare instead of freeing it. The pool and
// the landing record form one per-process block, allocated by the
// process's first operation with its leaf.
// Every node's block 0 is one shared zero sentinel, and a node's head
// index, which every refresher CASes, sits on a cache line of its own.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <sys/mman.h>
#include <unistd.h>

#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>  // no-op macros outside ASan builds
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#define ASAN_UNPOISON_MEMORY_REGION(addr, size) ((void)(addr), (void)(size))
#endif

#include "platform/platform.hpp"

namespace wfq::core {

// --- monotone search -------------------------------------------------------
//
// Every search in the tree runs over a block field that is nondecreasing in
// the block index (sumenq, endleft, endright), so "field >= target" is a
// monotone predicate: false up to some index, true from it on. The three
// templates below return that first true index. The caller passes ends it
// already knows the answer at, and those are never probed. Each probe is one
// counted load in the paper's cost model, so the probe sequence IS the step
// count.
//
// Probes may land below a bounded client's archive floor. Its storage policy
// answers them with a discarded-block sentinel whose monotone fields read -1
// ("before everything"), so the predicate reads false there and the search
// steers back up toward retained indices. That is safe because every
// answer lies in retained history (bounded_queue.hpp's retention
// argument), so false is what a monotone predicate reads below it anyway;
// value-bearing loads never land on the sentinel.

/// First true index in (lo, hi], given pred(lo) false and pred(hi) true.
template <typename Pred>
int64_t bisect(int64_t lo, int64_t hi, Pred&& pred) {
  while (lo + 1 < hi) {
    int64_t mid = lo + (hi - lo) / 2;
    if (pred(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

/// First true index in (0, hi], given pred(hi) true and pred(0) false:
/// probes hi-1, hi-2, hi-4, ... down to the first false one, then bisects
/// that bracket. O(log(hi - answer)) probes, however long the array
/// (Bentley-Yao unbounded search; the paper's Lemma 20).
template <typename Pred>
int64_t gallop_down(int64_t hi, Pred&& pred) {
  const int64_t top = hi;
  int64_t step = 1;
  int64_t lo = top - step;
  while (lo > 0 && pred(lo)) {
    hi = lo;
    step <<= 1;
    lo = top - step;
  }
  return bisect(std::max<int64_t>(lo, 0), hi, pred);
}

/// First true index in (lo, last], given pred(lo) false and pred(last)
/// true: the mirror of gallop_down, probing lo+1, lo+2, lo+4, ... below
/// last. O(log(answer - lo)) probes.
template <typename Pred>
int64_t gallop_up(int64_t lo, int64_t last, Pred&& pred) {
  const int64_t bottom = lo;
  int64_t step = 1;
  int64_t hi = bottom + step;
  while (hi < last && !pred(hi)) {
    lo = hi;
    step <<= 1;
    hi = bottom + step;
  }
  return bisect(lo, std::min(hi, last), pred);
}

/// Immutable operation/merge block; see the field glossary above.
template <typename T>
struct TreeBlock {
  /// Only an element whose copy or destruction is more than its bytes
  /// needs a flag saying the block holds one; for the rest `held` is empty.
  static constexpr bool kFlagged = !std::is_trivially_copyable_v<T>;
  struct NoFlag {};

  int64_t sumenq = 0;
  int64_t sumdeq = 0;
  union {
    int64_t size = 0;  // root blocks only
    int64_t super;     // superblock-index hint (every other node's blocks)
  };
  union {
    struct {
      int64_t endleft;   // internal nodes only
      int64_t endright;  // internal nodes only
    };
    T element;  // leaf enqueue blocks only
  };
  [[no_unique_address]] std::conditional_t<kFlagged, bool, NoFlag> held{};

  TreeBlock() : endleft(0), endright(0) {}
  // A block lives where its pool carved it: arrays and archive chunks hold
  // pointers, so nothing copies one.
  TreeBlock(const TreeBlock&) = delete;
  TreeBlock& operator=(const TreeBlock&) = delete;
  ~TreeBlock() requires(!kFlagged) = default;
  ~TreeBlock() requires kFlagged {
    if (held) std::destroy_at(&element);
  }

  /// Makes this (fresh, leaf) block an enqueue of `x`.
  void set_element(T&& x) {
    std::construct_at(&element, std::move(x));
    if constexpr (kFlagged) held = true;
  }
};
static_assert(sizeof(TreeBlock<uint64_t>) == 40, "five words per block");
static_assert(!std::is_copy_constructible_v<TreeBlock<std::string>>);

/// What a tree's debug_pool() reports, summed over its block pools. Read
/// it at quiescence: the per-process lists are owner-only state.
struct PoolStats {
  uint64_t slab_bytes = 0;  // slabs allocated
  uint64_t carved = 0;      // blocks ever handed out from slabs
  uint64_t spares = 0;      // lost refresh candidates held for reuse
  uint64_t free = 0;        // recycled blocks on per-process lists
  uint64_t spilled = 0;     // recycled blocks on the tree-wide spill
};

/// One process's block allocator for one ordering tree (DESIGN.md "Block
/// pools"). Owner-only, under the leaf's single-writer contract: only
/// process pid's thread calls pid's pool, and the bounded client's
/// collector recycles into its own. The one shared piece is the tree-wide
/// Spill. Blocks are carved back to back from slabs whose sizes double
/// from one page to 64 KiB; slabs are released with the pool.
///
/// get() prefers, in order: the spare (a refresh candidate that lost its
/// CAS), the recycled free list, a spill taken earlier, the whole spill
/// (one exchange), and only then a fresh block from the slab. recycle()
/// keeps up to kFreeCap blocks and queues the rest, tail tracked, for
/// spill_excess(), which pushes them onto the spill with one CAS and no
/// walk (a dying archive chunk recycles 64 at once). A block on a list is
/// ASan-poisoned, so reading a recycled block reports like a use after
/// free. None of this is a shared step of the paper's model: the spill is
/// a plain std::atomic, like the segment directory.
template <typename Block>
class alignas(64) BlockPool {
 public:
  /// Link of a block on a free list or the spill (its first word).
  struct FreeNode {
    FreeNode* next;
  };
  /// The tree-wide overflow list. Only the collector pushes onto it (the
  /// bounded client's GC lock), and a taker swaps the whole list for null.
  using Spill = std::atomic<FreeNode*>;

  /// Recycled blocks a process keeps; the collector spills the rest. A cap
  /// of 256 measured ~2% less peak RSS on a 16-tree broker but ~7% more CPU
  /// per op on a busy bounded queue.
  static constexpr int64_t kFreeCap = 1024;

  BlockPool() = default;
  BlockPool(const BlockPool&) = delete;
  BlockPool& operator=(const BlockPool&) = delete;

  ~BlockPool() {
    if (spare_ != nullptr) std::destroy_at(spare_);
    while (slabs_ != nullptr) {
      Slab* s = slabs_;
      slabs_ = s->next;
      ASAN_UNPOISON_MEMORY_REGION(s, s->bytes);
      ::operator delete(static_cast<void*>(s), std::align_val_t{64});
    }
  }

  /// A value-initialized block.
  Block* get(Spill& spill) {
    void* m = spare_;
    if (m != nullptr) {
      std::destroy_at(spare_);
      spare_ = nullptr;
    } else if ((m = pop(spill)) == nullptr) {
      m = carve();
    }
    return ::new (m) Block{};
  }

  /// Keeps a refresh candidate that lost its install CAS (it was never
  /// published); the next get() hands it out again.
  void keep_spare(Block* b) {
    assert(spare_ == nullptr);  // the candidate came from get(): spare used
    spare_ = b;
  }

  /// Ends a truncated block's life once no operation can still read it
  /// (run by the bounded client's collector: a discarded block's EBR
  /// deleter, or an archive chunk dying with its last version).
  void recycle(Block* b) {
    std::destroy_at(b);
    auto* n = ::new (static_cast<void*>(b)) FreeNode{nullptr};
    if (nfree_ < kFreeCap) {
      n->next = free_;
      free_ = n;
      ++nfree_;
    } else {
      if (excess_ == nullptr) excess_tail_ = n;
      n->next = excess_;
      excess_ = n;
    }
    ASAN_POISON_MEMORY_REGION(n, kStride);
  }

  /// Pushes what recycle() could not keep onto the spill: one CAS, or two
  /// when a taker emptied the spill in between (takers only swap in null,
  /// and nobody else pushes).
  void spill_excess(Spill& spill) {
    if (excess_ == nullptr) return;
    FreeNode* tail = excess_tail_;
    ASAN_UNPOISON_MEMORY_REGION(tail, sizeof(FreeNode));
    FreeNode* head = spill.load(std::memory_order_relaxed);
    do {
      tail->next = head;
    } while (!spill.compare_exchange_strong(head, excess_,
                                            std::memory_order_release,
                                            std::memory_order_relaxed));
    ASAN_POISON_MEMORY_REGION(tail, sizeof(FreeNode));
    excess_ = nullptr;
  }

  /// Adds this pool's numbers to `s` (at quiescence).
  void add_stats(PoolStats& s) const {
    for (const Slab* sl = slabs_; sl != nullptr; sl = sl->next) {
      s.slab_bytes += sl->bytes;
      s.carved += sl->bytes / kStride - 1;  // the header takes one block
    }
    s.carved -= static_cast<uint64_t>(left_);
    s.spares += spare_ != nullptr ? 1 : 0;
    s.free += length(free_) + length(taken_) + length(excess_);
  }

  /// Blocks on a list (at quiescence).
  static uint64_t length(FreeNode* n) {
    uint64_t k = 0;
    for (; n != nullptr; n = next_of(n)) ++k;
    return k;
  }

 private:
  struct Slab {
    Slab* next;
    size_t bytes;
  };

  static constexpr size_t kStride = sizeof(Block);  // a multiple of alignof
  static constexpr size_t kMaxSlab = size_t{64} << 10;

  /// Reads the link of a poisoned list block.
  static FreeNode* next_of(FreeNode* n) {
    ASAN_UNPOISON_MEMORY_REGION(n, sizeof(FreeNode));
    FreeNode* next = n->next;
    ASAN_POISON_MEMORY_REGION(n, sizeof(FreeNode));
    return next;
  }

  void* pop(Spill& spill) {
    if (free_ != nullptr) {
      --nfree_;
      return unlink(free_);
    }
    if (taken_ == nullptr &&
        spill.load(std::memory_order_relaxed) != nullptr) {
      taken_ = spill.exchange(nullptr, std::memory_order_acquire);
    }
    return taken_ != nullptr ? unlink(taken_) : nullptr;
  }

  /// Removes and unpoisons the first block of a nonempty list.
  static void* unlink(FreeNode*& list) {
    FreeNode* n = list;
    ASAN_UNPOISON_MEMORY_REGION(n, kStride);
    list = n->next;
    return n;
  }

  void* carve() {
    if (left_ == 0) add_slab();
    --left_;
    std::byte* m = cur_;
    cur_ += kStride;
    ASAN_UNPOISON_MEMORY_REGION(m, kStride);
    return m;
  }

  void add_slab() {
    static const size_t first =
        std::max(static_cast<size_t>(::sysconf(_SC_PAGESIZE)), 2 * kStride);
    size_t bytes = slabs_ == nullptr
                       ? first
                       : std::min(slabs_->bytes * 2, std::max(kMaxSlab, first));
    auto* s = static_cast<Slab*>(::operator new(bytes, std::align_val_t{64}));
    s->next = slabs_;
    s->bytes = bytes;
    slabs_ = s;
    auto* base = reinterpret_cast<std::byte*>(s);
    cur_ = base + kStride;  // the header takes the first block's place
    left_ = static_cast<int32_t>(bytes / kStride - 1);
    ASAN_POISON_MEMORY_REGION(cur_, static_cast<size_t>(left_) * kStride);
  }

  Block* spare_ = nullptr;
  FreeNode* free_ = nullptr;         // recycled here, counted by nfree_
  FreeNode* taken_ = nullptr;        // the rest of a spill this process took
  FreeNode* excess_ = nullptr;       // recycled past kFreeCap, for the spill
  FreeNode* excess_tail_ = nullptr;  // excess_'s last node, when nonempty
  std::byte* cur_ = nullptr;         // bump cursor in the newest slab
  Slab* slabs_ = nullptr;
  int32_t nfree_ = 0;  // blocks on free_ (<= kFreeCap); shares a word with
  int32_t left_ = 0;   // the newest slab's blocks not carved yet
};
static_assert(sizeof(BlockPool<TreeBlock<uint64_t>>) == 64,
              "one cache line per pool");

/// Append-only unbounded block array: geometrically growing segments
/// installed on demand with an (uncounted, bookkeeping-only) directory CAS,
/// so a slot lookup is one directory load plus one slot access. Slot
/// accesses go through Platform atomics and count as shared steps.
///
/// Segments of a page or more come straight from mmap: their zero pages
/// read as null slots and cost no memory until a slot on them is written
/// (no value-initializing pass touches them up front). `take`,
/// `tombstone` and `release_below` exist for the bounded client's GC
/// truncation; clients without collection simply never call them. The
/// blocks belong to the tree's BlockPools, not to the array.
template <typename T, typename Platform>
class TreeBlockArray {
 public:
  using Block = TreeBlock<T>;

  TreeBlockArray() = default;
  TreeBlockArray(const TreeBlockArray&) = delete;
  TreeBlockArray& operator=(const TreeBlockArray&) = delete;

  ~TreeBlockArray() {
    for (int k = 0; k < kSegments; ++k) {
      Slot* seg = segs_[k].load(std::memory_order_acquire);
      if (!seg) continue;
      if constexpr (!std::is_trivially_destructible_v<Block>) {
        for (int64_t j = 0; j < seg_slots(k); ++j) {
          Block* b = seg[j].unsafe_peek();
          if (b != nullptr && b != tombstone() && b != zero()) {
            std::destroy_at(b);
          }
        }
      }
      free_segment(k, seg);
    }
  }

  /// Every node's block 0: all fields zero, shared by all nodes.
  static Block* zero() {
    static Block z;
    return &z;
  }

  /// Reserved marker stored into truncated slots. Slots go null -> block
  /// -> tombstone and never back while an operation may still target
  /// them: if take() nulled the slot instead, a refresher that built its
  /// block long ago and stalled before its install CAS (which expects
  /// null) could resurrect a STALE block into a truncated index (ABA), and
  /// readers still holding the old floor would read wrong sums through it.
  /// (release_below zeroes tombstoned slots again, but only once no
  /// operation can still hold their index; see there.)
  static Block* tombstone() {
    static Block t;
    return &t;
  }

  Block* load(int64_t i) const { return slot(i).load(); }

  /// Single-writer publish (leaf appends).
  void store(int64_t i, Block* b) { slot(i).store(b); }

  /// One CAS attempt to install `b` at slot `i` (internal appends).
  bool cas(int64_t i, Block* b) { return slot(i).cas(nullptr, b); }

  /// GC truncation: detaches and returns the block at `i` (the slot
  /// becomes a tombstone; the caller retires the block through EBR).
  Block* take(int64_t i) {
    Slot& s = slot(i);
    Block* b = s.load();
    s.store(tombstone());
    return b;
  }

  /// GC truncation of the index itself: hands every whole page of slots
  /// below `floor` that was not handed out before to `retire(page)`,
  /// uncounted. The caller must have tombstoned those slots already, and
  /// must defer release_page(page) until no operation can still read or
  /// CAS an index below `floor` (the bounded queue retires pages through
  /// its EBR). The pages stay mapped, so a late read returns null.
  /// Single caller at a time (the GC lock).
  template <typename Retire>
  void release_below(int64_t floor, Retire&& retire) {
    const int64_t per_page = slots_per_page();
    while (released_ < floor) {
      int k = segment_of(released_);
      int64_t base = seg_base(k);
      int64_t end = base + seg_slots(k);
      if (!page_backed(k)) {  // too small to hand pages back: skip it
        released_ = std::min(end, floor);
        continue;
      }
      int64_t next = released_ + per_page;  // released_ is page-aligned here
      if (next > floor) break;  // the floor's page is still partly live
      Slot* seg = segs_[k].load(std::memory_order_acquire);
      retire(static_cast<void*>(seg + (released_ - base)));
      released_ = next;
    }
  }

  /// The deferred half of release_below: returns one page to the kernel.
  /// It stays mapped and reads as zeros (null slots) from then on.
  static void release_page(void* page) {
    ::madvise(page, page_bytes(), MADV_DONTNEED);
  }

  /// Slots per kernel page: release_below's unit.
  static int64_t slots_per_page() {
    return static_cast<int64_t>(page_bytes() / sizeof(Slot));
  }

  /// Uncounted accessors for construction, debug introspection and reads
  /// whose step is charged elsewhere (OrderingTree::last_child_index).
  Block* unsafe_peek(int64_t i) const { return slot(i).unsafe_peek(); }
  void unsafe_install(int64_t i, Block* b) { slot(i).unsafe_store(b); }
  /// Every page-backed slot below this index has been handed to a
  /// release_below callback (collector-owned; read it at quiescence).
  int64_t debug_released() const { return released_; }

 private:
  using Slot = typename Platform::template Atomic<Block*>;
  // mmap'd zero pages are taken as arrays of null slots without running a
  // constructor: that needs a slot to be a bare lock-free pointer.
  static_assert(sizeof(Slot) == sizeof(Block*) &&
                std::is_trivially_destructible_v<Slot> &&
                std::atomic<Block*>::is_always_lock_free);
  static constexpr int kBaseBits = 3;  // first segment: 8 slots
  static constexpr int kSegments = 42;

  static size_t page_bytes() {
    static const size_t n = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
    return n;
  }
  static int64_t seg_slots(int k) { return int64_t{1} << (k + kBaseBits); }
  static int64_t seg_base(int k) { return seg_slots(k) - seg_slots(0); }
  static int segment_of(int64_t i) {
    uint64_t base = static_cast<uint64_t>(i) + (uint64_t{1} << kBaseBits);
    return std::bit_width(base) - 1 - kBaseBits;
  }
  static size_t seg_bytes(int k) {
    return static_cast<size_t>(seg_slots(k)) * sizeof(Slot);
  }
  static bool page_backed(int k) { return seg_bytes(k) >= page_bytes(); }

  Slot& slot(int64_t i) const {
    int k = segment_of(i);
    return segment(k)[i - seg_base(k)];
  }

  Slot* segment(int k) const {
    Slot* seg = segs_[k].load(std::memory_order_acquire);
    if (seg) return seg;
    Slot* fresh = alloc_segment(k);
    Slot* expected = nullptr;
    if (segs_[k].compare_exchange_strong(expected, fresh,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      return fresh;
    }
    free_segment(k, fresh);
    return expected;
  }

  static Slot* alloc_segment(int k) {
    if (!page_backed(k)) return new Slot[static_cast<size_t>(seg_slots(k))]();
    void* m = ::mmap(nullptr, seg_bytes(k), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (m == MAP_FAILED) throw std::bad_alloc();
    return static_cast<Slot*>(m);
  }

  static void free_segment(int k, Slot* seg) {
    if (!page_backed(k)) {
      delete[] seg;
    } else {
      ::munmap(seg, seg_bytes(k));
    }
  }

  mutable std::atomic<Slot*> segs_[kSegments] = {};
  int64_t released_ = 0;  // release_below's progress (collector-only)
};

/// Cache-line layout: links, flags and floor are read-mostly and share the
/// first line with the collector's mirrors (written once per GC phase);
/// head, which every refresher CASes, has the second line to itself; the
/// segment directory and, behind its never-used tail, the leaf owner's
/// append cache follow.
template <typename T, typename Platform>
struct TreeNode {
  using Block = TreeBlock<T>;

  TreeNode() : TreeNode(empty()) {}

  /// Stands in for every child not built yet, in every tree of this
  /// instantiation: head 1 and block 0 the zero sentinel, so it reads as
  /// an idle leaf. Its children are itself, so a walk that counts levels
  /// (the bounded collector's) can descend through it. Nothing writes it
  /// after construction.
  static TreeNode* empty() {
    static TreeNode e{EmptyTag{}};
    return &e;
  }

  TreeNode* left() const { return kids[0].load(std::memory_order_acquire); }
  TreeNode* right() const { return kids[1].load(std::memory_order_acquire); }

  TreeNode* parent = nullptr;
  /// Set once, by OrderingTree::build_path's CAS; empty() until then.
  std::atomic<TreeNode*> kids[2];
  bool is_leaf = false;
  bool is_root = false;
  int id = 0;  // preorder position: archive key prefix (bounded client)
  /// Lowest index still present in the array; indices in [1, floor) have
  /// been truncated (archived or discarded). Raised (release) before the
  /// slots are tombstoned, so a stale slot under the floor is unambiguous.
  /// Clients without collection leave it at 1 forever.
  typename Platform::template Atomic<int64_t> floor{1};
  // Collector-only mirrors (guarded by the bounded client's gc lock, never
  // read by operations):
  int64_t af = 1;      // archive floor: lowest index kept anywhere
  int64_t kfloor = 1;  // mirror of `floor` without counted loads
  // Next free block slot; blocks[0] is the zero sentinel, so head starts at
  // 1 and lags the filled frontier by at most one (helpers CAS it forward).
  // A leaf's owner publishes its head once per run, so while it appends a
  // run last_block_index reads a prefix of it.
  alignas(64) typename Platform::template Atomic<int64_t> head{1};
  alignas(64) TreeBlockArray<T, Platform> blocks;
  // Owner-local append cache (leaves only): the index and cumulative sums
  // of the last block this leaf's owner appended. Same single-writer
  // contract as the leaf's head/array; lets append_leaf skip the head load
  // and previous-block load (two counted shared steps per operation).
  int64_t cache_idx = 0;
  int64_t cache_sumenq = 0;
  int64_t cache_sumdeq = 0;
  int64_t cache_size = 0;  // root-leaf (p == 1) only

 private:
  struct EmptyTag {};
  explicit TreeNode(EmptyTag) : TreeNode(this) { is_leaf = true; }
  explicit TreeNode(TreeNode* kid) : kids{kid, kid} {
    blocks.unsafe_install(0, TreeBlockArray<T, Platform>::zero());
  }
};

/// What an ordering-tree object's `space()` reports: reachable blocks and
/// the EBR backlog (retired, not yet freed; 0 for clients that never free).
/// Uncounted and safe from any thread at any time. Exact at quiescence;
/// while operations run, the bounded queue's count may be off by the chunks
/// one GC phase is moving from the arrays into the archive, and is never
/// torn.
struct Space {
  uint64_t live_blocks = 0;
  uint64_t ebr_retired = 0;
};

/// Where a run landed at one ancestor, as propagate saw it: `s` bounds the
/// index of the ancestor's block that holds the run's last leaf block (at
/// every level); on the levels the whole run entered one block, s is that
/// block's index and sb, sp are blocks s and s - 1 (null elsewhere).
template <typename Block>
struct Landing {
  int64_t s;
  const Block* sb;
  const Block* sp;
};

/// Everything only process pid touches, built by its first operation
/// (OrderingTree::build_path), so an idle process costs the tree a pointer:
/// its block pool (one line), its leaf, and where its last run [first,
/// last] of leaf blocks landed. propagate writes the landing record and
/// index_op reads it; `levels` Landings follow the header, so on a tree
/// of two leaves the leaf pointer and the whole record share one line
/// (each further level adds 24 bytes).
template <typename Block, typename Node>
struct ProcState {
  BlockPool<Block> pool;
  Node* leaf = nullptr;
  int64_t first = 1;
  int64_t last = 0;
  int64_t exact = 0;  // levels [0, exact) hold exact landings

  Landing<Block>* landed() {
    return reinterpret_cast<Landing<Block>*>(
        reinterpret_cast<std::byte*>(this) + kLandedAt);
  }

  static ProcState* make(int levels) {
    void* m = ::operator new(bytes(levels), std::align_val_t{64});
    auto* ps = ::new (m) ProcState;
    std::uninitialized_value_construct_n(ps->landed(), levels);
    return ps;
  }
  static void destroy(ProcState* ps) {
    std::destroy_at(ps);
    ::operator delete(static_cast<void*>(ps), std::align_val_t{64});
  }

 private:
  // Past the pool's line and the four words above.
  static constexpr size_t kLandedAt = sizeof(BlockPool<Block>) + 32;
  static size_t bytes(int levels) {
    size_t n = kLandedAt + static_cast<size_t>(levels) * sizeof(Landing<Block>);
    return std::max(sizeof(ProcState), (n + 63) / 64 * 64);
  }
};

/// The trivial Storage hook: every historical read is a direct (counted)
/// array load, and search_down is gallop_down over those loads. Used by the
/// unbounded queue and the wait-free vector.
struct DirectStorage {
  template <typename Node>
  auto* load_block(const Node* v, int64_t i) const {
    return v->blocks.load(i);
  }

  template <typename Node, typename Pred>
  int64_t search_down(const Node* v, int64_t hi, Pred&& pred) const {
    return gallop_down(hi, [&](int64_t s) { return pred(load_block(v, s)); });
  }
};

template <typename T, typename Platform, typename Storage>
class OrderingTree {
 public:
  using Block = TreeBlock<T>;
  using Node = TreeNode<T, Platform>;
  using BlockArray = TreeBlockArray<T, Platform>;
  using Pool = BlockPool<Block>;
  using Proc = ProcState<Block, Node>;

  /// The tree holds a reference to the client's storage policy; the client
  /// owns it (and any archive state behind it) for the tree's lifetime.
  /// Builds the root only; build_path adds the rest on first use.
  OrderingTree(int procs, Storage& storage)
      : p_(procs < 1 ? 1 : procs),
        width_(std::bit_ceil(static_cast<unsigned>(p_))),
        levels_(std::countr_zero(width_)),
        storage_(&storage),
        procs_(static_cast<size_t>(p_), nullptr),
        root_(new Node) {
    root_->is_root = true;
    root_->is_leaf = width_ == 1;
  }

  OrderingTree(const OrderingTree&) = delete;
  OrderingTree& operator=(const OrderingTree&) = delete;

  /// The nodes go before the pools: the pools' slabs hold the blocks the
  /// nodes' arrays point at.
  ~OrderingTree() {
    destroy(root_);
    for (Proc* ps : procs_) {
      if (ps != nullptr) Proc::destroy(ps);
    }
  }

  // --- the operation surface ----------------------------------------------

  /// Appends a run of operations at pid's (single-writer) leaf: one enqueue
  /// block per element of `enqs` (moved from), in order, then `ndeq`
  /// dequeue blocks. Then one fence and one double-Refresh propagation to
  /// the root: a Refresh merges every child block not yet merged, so that
  /// one walk puts the whole run into the root ordering, where a block's
  /// enqueues precede its dequeues. Returns the leaf index of the run's
  /// first block; the others follow it. An empty run appends nothing.
  int64_t append_run(int pid, std::span<T> enqs, int64_t ndeq) {
    Proc* ps = procs_[static_cast<size_t>(pid)];
    if (ps == nullptr) [[unlikely]] ps = build_path(pid);
    Node* leaf = ps->leaf;
    const int64_t first = leaf->cache_idx + 1;
    if (enqs.empty() && ndeq == 0) return first;
    append_leaf(leaf, ps->pool, enqs, ndeq);
    // The leaf blocks are published with plain release stores, and the
    // first refresh below reads the sibling leaf with acquire loads; TSO
    // hardware may satisfy those loads before the stores drain. Two busy
    // siblings can then each build parent blocks that miss the other's new
    // leaf blocks, both of this run's refreshes fail on blocks that never
    // merged them, and the double-refresh argument breaks (one item
    // duplicated, another lost). Higher levels publish by CAS, a full
    // barrier already.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    propagate(*ps, pid, first);
    return first;
  }

  /// Walks the operation appended as pid's leaf block `b` up to the root,
  /// returning (root block index, rank of this operation among that block's
  /// operations of the same kind). This is the paper's IndexDequeue,
  /// generalized over the op kind: a dequeue locates itself among a root
  /// block's dequeues (`is_enq` false), a vector append among its enqueues.
  /// For a block of pid's last run, the levels where propagate saw the
  /// whole run enter one block take that block from the landing record;
  /// the levels above search for it.
  std::pair<int64_t, int64_t> index_op(int pid, int64_t b, bool is_enq) {
    Proc& ps = *procs_[static_cast<size_t>(pid)];
    const bool in_run = b >= ps.first && b <= ps.last;
    return index_walk(ps, pid, b, is_enq, in_run ? ps.exact : 0);
  }

  /// Resolves the dequeue that is the r-th dequeue of root block `b`: null
  /// if the queue is empty at its linearization point, otherwise the element
  /// of the e-th enqueue overall, located with the doubling search
  /// (Lemma 20) and a root-to-leaf descent.
  std::optional<T> find_response(int64_t b, int64_t r) {
    const Block* prev = load(root_, b - 1);
    const Block* cur = load(root_, b);
    int64_t numenq = cur->sumenq - prev->sumenq;
    if (r > prev->size + numenq) return std::nullopt;
    int64_t e = prev->sumenq - prev->size + r;
    // Doubling search backward from b (sumenq(b) >= e here); its cost
    // tracks the distance b - b_e, not the total number of root blocks.
    int64_t be = storage_->search_down(
        root_, b, [e](const Block* blk) { return blk->sumenq >= e; });
    int64_t i = e - load(root_, be - 1)->sumenq;
    return get_enqueue(root_, be, i);
  }

  /// Element of the e-th enqueue overall (1-based), or nullopt when fewer
  /// than e enqueues have propagated to the root. The vector's get(i):
  /// index-directed binary search over the root blocks (root sumenq is
  /// nondecreasing; O(log #blocks) = O(log n)) followed by the same
  /// root-to-leaf descent a dequeue uses (O(log p) levels, O(log c) binary
  /// search per level — the paper's O(log^2 p + log n) get).
  std::optional<T> find_enqueue(int64_t e) {
    if (e < 1) return std::nullopt;
    int64_t last = last_block_index(root_);
    if (load(root_, last)->sumenq < e) return std::nullopt;
    int64_t be = bisect(0, last, sumenq_reaches(root_, e));
    int64_t i = e - load(root_, be - 1)->sumenq;
    return get_enqueue(root_, be, i);
  }

  /// Global 1-based rank of the r-th enqueue of root block `b` (the inverse
  /// of find_enqueue; what a vector append reports as its landing index).
  int64_t enqueue_rank(int64_t b, int64_t r) {
    return load(root_, b - 1)->sumenq + r;
  }

  /// Total enqueues agreed at the root (the vector's size()).
  int64_t root_sumenq() {
    return load(root_, last_block_index(root_))->sumenq;
  }

  /// Index of the last appended block of `v` (head may lag it by one).
  /// Frontier reads only — valid under every Storage.
  int64_t last_block_index(const Node* v) const {
    int64_t h = v->head.load();
    if (v->blocks.load(h) != nullptr) return h;
    return h - 1;
  }

  /// last_block_index of v's child on `side` (0 left, 1 right), which it
  /// stores in `c`. A child not built yet costs the two loads an idle one
  /// does, taken on the empty node, with a look for the child after each:
  /// in the sim a step yields before its access, so a child installed
  /// during that wait is read as the step would have read it, and no
  /// process's first operation moves another's steps. Those uncounted
  /// reads may be stale, which is safe: this refresh looked before the
  /// child had a block, so the double-refresh argument does not need it,
  /// and what it merges is still at least the parent's last end index, 0.
  int64_t last_child_index(const Node* v, int side, Node*& c) const {
    const auto& kid = v->kids[side];
    c = kid.load(std::memory_order_acquire);
    if (c != Node::empty()) return last_block_index(c);
    (void)c->head.load();
    if ((c = kid.load(std::memory_order_acquire)) != Node::empty()) {
      int64_t h = c->head.unsafe_peek();
      return c->blocks.load(h) != nullptr ? h : h - 1;
    }
    (void)c->blocks.load(1);
    if ((c = kid.load(std::memory_order_acquire)) == Node::empty()) return 0;
    return c->blocks.unsafe_peek(1) != nullptr ? 1 : 0;
  }

  // --- structure access (clients: GC walks, debug surfaces) ---------------

  Node* root() { return root_; }
  const Node* root() const { return root_; }
  /// pid's leaf, or null while pid has not operated yet (read it from
  /// pid's thread or at quiescence: pid's first operation sets it).
  const Node* leaf(int pid) const {
    const Proc* ps = procs_[static_cast<size_t>(pid)];
    return ps != nullptr ? ps->leaf : nullptr;
  }
  int procs() const { return p_; }
  /// Leaf positions of the complete tree, bit_ceil(procs): a node at depth
  /// d spans width() >> d of them.
  unsigned width() const { return width_; }

  /// pid's block pool, once pid has operated: pid's thread allocates from
  /// it, and the bounded client's collector recycles truncated blocks into
  /// its own.
  Pool& pool(int pid) { return procs_[static_cast<size_t>(pid)]->pool; }

  /// Moves what pid's pool could not keep onto the tree-wide spill (the
  /// collector, after recycling a phase's blocks).
  void spill_excess(int pid) { pool(pid).spill_excess(spill_); }

  /// Slab, spare and free-list totals over the pools of the processes
  /// that have operated (at quiescence).
  PoolStats debug_pool() const {
    PoolStats s;
    for (const Proc* ps : procs_) {
      if (ps != nullptr) ps->pool.add_stats(s);
    }
    s.spilled = Pool::length(spill_.load(std::memory_order_acquire));
    return s;
  }

  /// Checks pid's last nonempty run against the tree, uncounted (see
  /// platform::Uncounted), from pid's thread while the run's blocks are
  /// still retained (the bounded client: inside the run's pin). At every
  /// ancestor the block at the recorded bound must merge the run; on each
  /// exact level the run must lie in the recorded block alone, and sb, sp
  /// must be blocks s and s - 1; and every block of the run must index to
  /// the same (root block, rank) with the record as by index_op's search
  /// alone. Returns what failed first, or "" when nothing did.
  std::string debug_check_run(int pid) {
    platform::Uncounted scope;
    return check_run(pid);
  }

  /// Blocks present in the arrays, sentinels excluded: [floor, frontier)
  /// per node, i.e. every block ever appended for clients that never
  /// truncate (their floor stays 1). Uncounted, and safe from any thread:
  /// relaxed peeks of head, floor and one slot per node, no block is
  /// dereferenced.
  size_t live_blocks() const {
    size_t total = 0;
    for_each_node(root_, [&total](const Node* n) {
      // The floor trails the head; read mid-GC, a raised floor may still
      // meet an older head, and the h > lo guard counts that node as empty.
      int64_t lo = n->floor.unsafe_peek();
      int64_t h = n->head.unsafe_peek();
      if (n->blocks.unsafe_peek(h) != nullptr) ++h;  // head lags the frontier
      if (h > lo) total += static_cast<size_t>(h - lo);
    });
    return total;
  }

  /// Nodes built so far: the union of the root paths of the processes that
  /// have operated (uncounted, safe from any thread).
  size_t debug_nodes() const {
    size_t n = 0;
    for_each_node(root_, [&n](const Node*) { ++n; });
    return n;
  }

 private:
  // --- tree construction ---------------------------------------------------

  /// Installs pid's leaf and the nodes missing on its root path, top-down:
  /// one CAS per missing level, uncounted bookkeeping like the segment
  /// directory's. A process that loses a CAS deletes its own node and goes
  /// on from the winner's; an installed node is never removed, so no
  /// reader needs a grace period. A node's id is its preorder position in
  /// the complete tree of width() leaves (a left child follows its parent,
  /// a right child its parent's w - 1 left-subtree nodes), so a client's
  /// keys do not depend on which paths exist.
  /// pid's per-process state is allocated here too, after the path, so
  /// that a process which never operates costs its tree one pointer.
  Proc* build_path(int pid) {
    Node* v = root_;
    for (unsigned w = width_; w > 1; w /= 2) {
      const bool right = (static_cast<unsigned>(pid) & (w / 2)) != 0;
      Node* c = v->kids[right].load(std::memory_order_acquire);
      if (c == Node::empty()) {
        auto* fresh = new Node;
        fresh->parent = v;
        fresh->is_leaf = w == 2;
        fresh->id = v->id + (right ? static_cast<int>(w) : 1);
        if (v->kids[right].compare_exchange_strong(c, fresh)) {
          c = fresh;
        } else {
          delete fresh;
        }
      }
      v = c;
    }
    Proc* ps = Proc::make(levels_);
    ps->leaf = v;
    procs_[static_cast<size_t>(pid)] = ps;
    return ps;
  }

  /// Calls f on every built node under (and including) n, parents first.
  template <typename F>
  static void for_each_node(const Node* n, F&& f) {
    if (n == Node::empty()) return;
    f(n);
    for_each_node(n->left(), f);  // a leaf's children are the empty node
    for_each_node(n->right(), f);
  }

  static void destroy(Node* n) {
    if (n == Node::empty()) return;
    destroy(n->left());
    destroy(n->right());
    delete n;
  }

  // --- historical reads go through the client's storage policy -------------

  const Block* load(const Node* v, int64_t i) const {
    return storage_->load_block(v, i);
  }

  /// The monotone predicate "block s of v has sumenq >= target".
  auto sumenq_reaches(const Node* v, int64_t target) const {
    return [this, v, target](int64_t s) {
      return load(v, s)->sumenq >= target;
    };
  }

  // --- append & propagation ------------------------------------------------

  /// Appends a run's blocks (enqueues, then ndeq dequeues) at the
  /// (single-writer) leaf and publishes the leaf head once, after the last.
  /// The previous block's cumulative fields come from the owner-local
  /// cache — the leaf is single-writer, so the cache is always exact —
  /// saving the head load and prev-block load on the hot path. One
  /// superblock hint, read before the first block is published, serves the
  /// whole run: the parent's head only grows, so it is a lower bound for
  /// every block of the run.
  void append_leaf(Node* leaf, Pool& pool, std::span<T> enqs, int64_t ndeq) {
    const auto nenq = static_cast<int64_t>(enqs.size());
    const int64_t super = leaf->is_root ? 0 : leaf->parent->head.load();
    int64_t h = leaf->cache_idx;
    for (int64_t j = 0; j < nenq + ndeq; ++j) {
      const bool is_enq = j < nenq;
      Block* b = pool.get(spill_);
      if (is_enq) b->set_element(std::move(enqs[static_cast<size_t>(j)]));
      b->sumenq = leaf->cache_sumenq += is_enq ? 1 : 0;
      b->sumdeq = leaf->cache_sumdeq += is_enq ? 0 : 1;
      if (leaf->is_root) {
        b->size = leaf->cache_size =
            std::max<int64_t>(0, leaf->cache_size + (is_enq ? 1 : -1));
      } else {
        b->super = super;
      }
      leaf->blocks.store(++h, b);
    }
    leaf->head.store(h + 1);
    leaf->cache_idx = h;
  }

  /// Side (0 left, 1 right) of pid's level-k ancestor (the leaf is level
  /// 0) under its parent: build_path places pid's leaf by pid's bits.
  static int side_of(int pid, int k) { return (pid >> k) & 1; }

  /// The end index on `side` of an internal node's block.
  static int64_t end_of(const Block* blk, int side) {
    return side == 0 ? blk->endleft : blk->endright;
  }

  /// After the leaf append, one Refresh pair per ancestor suffices: if both
  /// calls lose their CAS, the two winning blocks were both created after our
  /// child block was published, so the second winner merged it (the f-array
  /// double-refresh argument; each failure below is a genuine CAS loss on a
  /// slot we saw empty, which is what the argument needs).
  ///
  /// The walk carries x, a bound on the index, at the current node, of the
  /// block holding the run's last leaf block (at the leaf, the run's last
  /// block), and moves it up one level per ancestor: to the block the
  /// refresh installed, to the winner's block, or to h - 1 when the
  /// ancestor had merged everything already. So the first refresh's loss
  /// needs no second refresh when the winner, read once, merged child
  /// block x: the run is in. Only a winner that did not carry the run
  /// leaves the double-refresh argument to do its work. While the whole
  /// run [f, x] at the child enters one block s (block s - 1 ends below f,
  /// and the block merged x), the level's landing is exact: s and the
  /// pointers to blocks s and s - 1, which the refresh already holds, go
  /// into pid's record for index_op. The bound advances at every level,
  /// exact or not.
  void propagate(Proc& ps, int pid, int64_t first) {
    Landing<Block>* lv = ps.landed();
    Node* v = ps.leaf;
    int64_t f = first;
    int64_t x = v->cache_idx;
    ps.first = first;
    ps.last = x;
    ps.exact = 0;
    bool whole = true;
    for (int k = 0; !v->is_root; ++k) {
      v = v->parent;
      const int side = side_of(pid, k);
      Landing<Block>& at = lv[k];
      refresh(v, ps.pool, side, x, true, at);
      if (at.sb == nullptr && at.sp != nullptr) {
        refresh(v, ps.pool, side, x, false, at);
      }
      // A landing with both pointers merged child block x (its refresh
      // read the child's frontier at or past x), so it is exact when the
      // block before it ends below f.
      whole = whole && at.sp != nullptr && end_of(at.sp, side) < f;
      if (whole) {
        ps.exact = k + 1;
      } else {
        at.sb = at.sp = nullptr;
      }
      f = x = at.s;
    }
  }

  /// Tries to append one block to internal node `v` merging all child blocks
  /// not yet merged, on behalf of a run whose block on the child's `side`
  /// is bounded by x, and writes where the run landed into `at` (see
  /// Landing): nothing to merge gives {h - 1, null, null}; a won CAS gives
  /// {h, candidate, block h - 1}. A lost CAS leaves the candidate with the
  /// pool as its spare and, when `read_winner`, reads the winner once:
  /// {h, winner, block h - 1} if it merged child block x, else {h, null,
  /// block h - 1}, which tells propagate to refresh again. The second
  /// refresh does not read its winner: the double-refresh argument says it
  /// merged the run, {h, null, null}. (A winner read after a bounded
  /// client's collector truncated slot h is the tombstone, whose zero ends
  /// read "did not merge": x >= 1.) `at` is the record's own slot: a
  /// Landing returned by value and copied there measured ~13 ns more per
  /// single-thread enqueue on a three-level tree (x86-64, gcc -O2).
  void refresh(Node* v, Pool& pool, int side, int64_t x, bool read_winner,
               Landing<Block>& at) {
    int64_t h = v->head.load();
    while (v->blocks.load(h) != nullptr) {  // stale head: help it forward
      v->head.cas(h, h + 1);
      h = v->head.load();
    }
    const Block* prev = load(v, h - 1);
    Node* l;
    Node* r;
    int64_t lend = last_child_index(v, 0, l);
    int64_t rend = last_child_index(v, 1, r);
    if (lend == prev->endleft && rend == prev->endright) {
      at = {h - 1, nullptr, nullptr};
      return;
    }
    Block* nb = pool.get(spill_);
    nb->endleft = lend;
    nb->endright = rend;
    const Block* lb = load(l, lend);
    const Block* rb = load(r, rend);
    nb->sumenq = lb->sumenq + rb->sumenq;
    nb->sumdeq = lb->sumdeq + rb->sumdeq;
    if (v->is_root) {
      int64_t numenq = nb->sumenq - prev->sumenq;
      int64_t numdeq = nb->sumdeq - prev->sumdeq;
      nb->size = std::max<int64_t>(0, prev->size + numenq - numdeq);
    } else {
      nb->super = v->parent->head.load();
    }
    if (v->blocks.cas(h, nb)) {
      v->head.cas(h, h + 1);
      at = {h, nb, prev};
      return;
    }
    pool.keep_spare(nb);
    v->head.cas(h, h + 1);  // a winner exists; help advance past it
    if (!read_winner) {
      at = {h, nullptr, nullptr};
      return;
    }
    const Block* won = v->blocks.load(h);
    at = {h, end_of(won, side) >= x ? won : nullptr, prev};
  }

  /// index_op's walk: levels [0, exact) take the superblock from pid's
  /// landing record, the rest search for it from the block's hint. A
  /// difference of two sums that is zero by its indices is not loaded.
  std::pair<int64_t, int64_t> index_walk(Proc& ps, int pid, int64_t b,
                                         bool is_enq, int64_t exact) {
    auto sum = [is_enq](const Block* blk) {
      return is_enq ? blk->sumenq : blk->sumdeq;
    };
    const Landing<Block>* lv = ps.landed();
    Node* v = ps.leaf;
    int64_t i = 1;
    for (int k = 0; !v->is_root; ++k) {
      Node* par = v->parent;
      const int side = side_of(pid, k);
      Landing<Block> at;
      if (k < exact) {
        at = lv[k];
      } else {
        at.s = find_superblock(par, side == 0, b, load(v, b)->super);
        at.sb = load(par, at.s);
        at.sp = load(par, at.s - 1);
      }
      // Same-kind ops of this child merged earlier in the same superblock.
      const int64_t start = end_of(at.sp, side);
      if (start != b - 1) i += sum(load(v, b - 1)) - sum(load(v, start));
      if (side == 1 && at.sb->endleft != at.sp->endleft) {
        // Left-child ops of the superblock precede all right-child ones.
        i += sum(load(par->left(), at.sb->endleft)) -
             sum(load(par->left(), at.sp->endleft));
      }
      v = par;
      b = at.s;
    }
    return {b, i};
  }

  /// debug_check_run's body.
  std::string check_run(int pid) {
    Proc* ps = procs_[static_cast<size_t>(pid)];
    if (ps == nullptr || ps->first > ps->last) return "";
    const Landing<Block>* lv = ps->landed();
    Node* v = ps->leaf;
    int64_t lo = ps->first;  // the run's first and last blocks at v
    int64_t hi = ps->last;
    for (int k = 0; !v->is_root; ++k) {
      Node* par = v->parent;
      const int side = side_of(pid, k);
      const std::string at = "level " + std::to_string(k) + ": ";
      if (end_of(load(par, last_block_index(par)), side) < hi) {
        return at + "the run has not reached the parent";
      }
      const Block* bound = load(par, lv[k].s);
      if (bound == nullptr || end_of(bound, side) < hi) {
        return at + "the block at the recorded bound " +
               std::to_string(lv[k].s) + " does not merge the run";
      }
      const int64_t s_lo = find_superblock(par, side == 0, lo, load(v, lo)->super);
      const int64_t s_hi = find_superblock(par, side == 0, hi, load(v, hi)->super);
      if (k < ps->exact &&
          (s_lo != s_hi || s_hi != lv[k].s || lv[k].sb != bound ||
           lv[k].sp != load(par, s_hi - 1))) {
        return at + "the run landed in blocks " + std::to_string(s_lo) +
               ".." + std::to_string(s_hi) + ", recorded exactly as " +
               std::to_string(lv[k].s);
      }
      v = par;
      lo = s_lo;
      hi = s_hi;
    }
    const Node* leaf = ps->leaf;
    for (int64_t b = ps->first; b <= ps->last; ++b) {
      const bool is_enq = load(leaf, b)->sumenq > load(leaf, b - 1)->sumenq;
      auto rec = index_walk(*ps, pid, b, is_enq, ps->exact);
      auto alone = index_walk(*ps, pid, b, is_enq, 0);
      if (rec != alone) {
        return "leaf block " + std::to_string(b) + ": indexed at (" +
               std::to_string(rec.first) + ", " + std::to_string(rec.second) +
               ") with the record, (" + std::to_string(alone.first) + ", " +
               std::to_string(alone.second) + ") without";
      }
    }
    return "";
  }

  // --- search & descent ----------------------------------------------------

  /// Smallest parent block index s with end{left|right}(s) >= b, i.e. the
  /// block of `par` that merged child block `b`: gallops out from the hint
  /// in whichever direction it is wrong (end* is nondecreasing in s).
  int64_t find_superblock(Node* par, bool from_left, int64_t b, int64_t hint) {
    auto merged = [&](int64_t s) {
      const Block* blk = load(par, s);
      return (from_left ? blk->endleft : blk->endright) >= b;
    };
    // propagate() guarantees merged(last).
    int64_t last = last_block_index(par);
    int64_t h0 = std::clamp<int64_t>(hint, 1, last);
    return merged(h0) ? gallop_down(h0, merged) : gallop_up(h0, last, merged);
  }

  /// Element of the i-th enqueue of block `b` at node `v`: descend to the
  /// leaf holding it. Within a block, left-child enqueues precede right-child
  /// ones; the per-level binary search spans only the merged subblocks, so it
  /// costs O(log contention) per level. At the leaf it lands on the first
  /// block whose sumenq reaches the target, an enqueue block, so the element
  /// it reads is one.
  std::optional<T> get_enqueue(Node* v, int64_t b, int64_t i) {
    while (!v->is_leaf) {
      const Block* cur = load(v, b);
      const Block* prev = load(v, b - 1);
      Node* child;
      int64_t lo, hi;
      Node* l = v->left();
      int64_t numleft = load(l, cur->endleft)->sumenq -
                        load(l, prev->endleft)->sumenq;
      if (i <= numleft) {
        child = l;
        lo = prev->endleft;
        hi = cur->endleft;
      } else {
        child = v->right();
        lo = prev->endright;
        hi = cur->endright;
        i -= numleft;
      }
      int64_t target = load(child, lo)->sumenq + i;
      b = bisect(lo, hi, sumenq_reaches(child, target));
      i = target - load(child, b - 1)->sumenq;
      v = child;
    }
    return load(v, b)->element;
  }

  int p_;
  unsigned width_;
  int levels_;  // ancestors of a leaf: log2(width_)
  Storage* storage_;
  typename Pool::Spill spill_{nullptr};
  std::vector<Proc*> procs_;  // entry pid: written by pid's thread only
  Node* root_;                // last: nothing after it can throw
};

}  // namespace wfq::core
