// Bounded-space variant of the wait-free queue (paper Section 6, Theorems
// 31/32). Thin client of the shared ordering-tree core
// (core/ordering_tree.hpp) — leaf Append, double-Refresh propagation,
// IndexDequeue, FindResponse are the one shared implementation — plus the
// three cooperating layers that keep every node down to a *live suffix* of
// its block array:
//
//  - Every G completed operations (the `gc_period`; 0 selects the paper
//    default G = p^2 ceil(log2 p), negative disables collection for the E8
//    ablation) the operation crossing the boundary runs a GC phase (a run
//    of k operations that crosses m boundaries runs m).
//  - The GC phase computes, per node, an archive floor `af` (everything
//    below it is dead: unreachable by the live queue contents and by every
//    in-flight operation) and an array floor `k` (the suffix that stays in
//    the mutable block array, sized by the GC window ~ G and moved in whole
//    chunks of kChunk = 64 blocks). Blocks in [af, k) move, by reference,
//    into immutable chunks held by a path-copying persistent red-black tree
//    (pbt/persistent_rbt.hpp) keyed by (node id, chunk index): blocks are
//    immutable, so a chunk points at them rather than copying them, and
//    owns them from then on. Blocks below af are discarded, and a chunk is
//    erased only once it lies entirely below af (one straddling af stays
//    whole; its dead slots point at the discarded sentinel). Truncated
//    array slots are tombstoned — never reset to null, so a stalled
//    refresher's install CAS cannot resurrect a stale block into a
//    collected index. Discarded blocks are retired into an epoch-based-
//    reclamation layer (core/ebr.hpp), and a chunk dies with the last
//    archive version holding it, which that layer frees, so a concurrent
//    reader holding a raw pointer never sees a recycled block. Either way a
//    block ends up back in the collector's BlockPool, not deleted.
//  - Readers route every historical block access through the tree's Storage
//    hook, which lands in load_block() below: an index under the node's
//    floor falls back to a lookup in the current archive version. Archive
//    versions are immutable RBT snapshots swapped atomically; superseded
//    versions are EBR-retired, which is exactly why the tree must be
//    persistent — a dequeue may keep reading an old version while a GC
//    phase installs the next one. The searches that run far under a floor
//    (a dequeue's doubling search, the collector's retention search) probe
//    the array as before and finish with ONE descent over the archive
//    (PersistentRbt::first_where) plus a bisect inside the chunk it finds,
//    instead of one RBT lookup per probe. The loads that remain (the
//    root-to-leaf descent reads neighbouring blocks of one chunk per level)
//    go through a per-thread memo of (archive version, key) -> chunk that
//    lives for one operation.
//
// Liveness reasoning for the archive floor (what makes discarding safe):
// every operation publishes the root index observed at its start. The
// collector reads `last` (the root's last block index) *before* scanning
// the start slots, so any op that pins after its slot was scanned
// publishes a start >= last (the head is monotone). With
// m = min(active starts, root last) the oldest enqueue any in-flight or
// future dequeue can be assigned is front(m-1) = sumenq(m-1)-size(m-1)+1,
// so retaining root blocks >= min(block of front(m-1), m) - 2 — and, per
// child, everything from the end-pointers of the block PRECEDING the
// parent's archive floor (readers consume parent blocks in pairs (j-1, j),
// so the pair at the floor itself spans child blocks from the end-pointers
// of floor - 1) — covers every value-bearing load. Searches may *probe*
// below the floor and read the discarded-block sentinel there; why that is
// safe is stated once, at the monotone-search templates (bisect, gallop_*)
// in core/ordering_tree.hpp.
//
// Reachable space: in-array suffixes are O(G) per node (+ < kChunk), the
// archive holds O(q_max + p) live blocks (+ < kChunk per node: the chunk
// straddling af), and the EBR backlog is transient (bounded by ~3 GC
// phases) — Theorem 31's O(p q_max + p^3 log p) with G = p^2 log p. The
// slot index follows the blocks: whole slot pages below a node's floor go
// back to the kernel through the same EBR, so each node keeps < one page
// of dead slots plus its live suffix's pages. Every RBT node visited or
// created and every block archived into a chunk is charged through
// note_rbt_touch (the paper's model), so E7 measures Theorem 32's
// amortized O(log p log(p+q)) including GC: a search under a floor costs
// one O(log(p+q)) descent, as Theorem 32 charges it; a memo hit costs no
// touch.
//
// Deviations from the paper (documented in DESIGN.md): the archive's unit
// is a chunk of block pointers, not a block, so a path copy copies one
// pointer per 64 blocks.
// GC phases are serialized by a try-lock and run by the boundary-crossing
// process alone (no helping), so the collector's worst-case — not
// amortized — bound is weaker than Theorem 32 under a targeted adversary.
// Space and amortized step shapes are faithful.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/ebr.hpp"
#include "core/ordering_tree.hpp"
#include "pbt/persistent_rbt.hpp"
#include "platform/platform.hpp"

namespace wfq::core {

template <typename T, typename Platform = platform::RealPlatform>
class BoundedQueue {
 public:
  using Ebr = core::Ebr<Platform>;
  using Block = TreeBlock<T>;

  /// The archive's unit: kChunk consecutive blocks of one node, by
  /// reference, shared across RBT versions by pointer (a path copy copies
  /// the chunk pointer, never the blocks). The chunk owns its blocks: it
  /// dies with the last archive version holding it, which EBR frees only
  /// after that version's readers are done, and then hands them back to
  /// the collector's pool (at teardown it just destroys them).
  static constexpr int64_t kChunk = 64;
  struct Chunk {
    const Block* b[kChunk] = {};  // filled by collect() before publication
    BoundedQueue* q;
    explicit Chunk(BoundedQueue* owner) : q(owner) {}
    Chunk(const Chunk&) = delete;
    Chunk& operator=(const Chunk&) = delete;
    ~Chunk() {
      for (const Block* x : b) {
        if (x != &discarded_block()) {
          recycle_block(const_cast<Block*>(x), q->chunk_pool_);
        }
      }
    }
  };
  using Rbt = pbt::PersistentRbt<std::shared_ptr<const Chunk>>;

  /// The tree's Storage hook: every historical read is floor-, tombstone-
  /// and archive-aware (the historical-block-load customization point the
  /// shared core exists for).
  struct ArchiveStorage {
    BoundedQueue* q = nullptr;
    template <typename Node>
    const Block* load_block(const Node* v, int64_t i) const {
      return q->load_block(v, i);
    }
    template <typename Node, typename Pred>
    int64_t search_down(const Node* v, int64_t hi, const Pred& pred) const {
      return q->search_down(v, hi, pred);
    }
  };

  using Tree = OrderingTree<T, Platform, ArchiveStorage>;
  using Node = typename Tree::Node;
  using BlockArray = typename Tree::BlockArray;
  using Pool = typename Tree::Pool;

  /// gc_period == 0 selects the paper default G = p^2 ceil(log2 p);
  /// gc_period < 0 (canonically -1) disables collection entirely (the E8
  /// ablation baseline: behaves like the unbounded queue).
  explicit BoundedQueue(int procs, int64_t gc_period = 0)
      : p_(procs < 1 ? 1 : procs),
        storage_{this},
        tree_(p_, storage_),
        ebr_(p_) {
    if (gc_period < 0) {
      g_ = -1;
    } else if (gc_period == 0) {
      auto lg = static_cast<int64_t>(std::bit_width(
          static_cast<unsigned>(p_ > 1 ? p_ - 1 : 1)));  // ceil(log2 p)
      g_ = std::max<int64_t>(4, static_cast<int64_t>(p_) * p_ * lg);
    } else {
      g_ = gc_period;
    }
    window_ = std::max<int64_t>(g_ < 0 ? 4 : g_, 4);
    starts_.reset(new StartSlot[static_cast<size_t>(p_)]);
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  ~BoundedQueue() { delete archive_.unsafe_peek(); }

  /// Associates the calling thread with leaf `pid` (0-based, < procs).
  void bind_thread(int pid) {
    assert(pid >= 0 && pid < p_);
    platform::bind_thread(pid);
  }

  void enqueue(T x) { run(std::span<T>(&x, 1), {}); }

  std::optional<T> dequeue() {
    std::optional<T> out;
    run({}, std::span<std::optional<T>>(&out, 1));
    return out;
  }

  /// A run: enqueues `enqs` in order (moved from), then one dequeue per
  /// slot of `deqs`, in order, each slot receiving its result. One pin and
  /// one start publication cover the run, its blocks reach the root in one
  /// propagation walk (OrderingTree::append_run), and it counts as
  /// enqs.size() + deqs.size() completed operations for the GC period.
  /// enqueue/dequeue are the one-op runs.
  void run(std::span<T> enqs, std::span<std::optional<T>> deqs) {
    const auto k = static_cast<int64_t>(enqs.size() + deqs.size());
    if (k == 0) return;
    int pid = platform::current_pid();
    {
      OpGuard guard(this, pid);
      int64_t b =
          tree_.append_run(pid, enqs, static_cast<int64_t>(deqs.size())) +
          static_cast<int64_t>(enqs.size());
      for (std::optional<T>& out : deqs) {
        auto [rb, r] = tree_.index_op(pid, b++, /*is_enq=*/false);
        out = tree_.find_response(rb, r);
      }
    }
    after_ops(pid, k);
  }

  // --- debug/introspection surface (uncounted) -----------------------------

  /// Reachable blocks (in-array live suffixes plus archived chunk slots)
  /// and the EBR backlog; see core::Space. Theorem 31: live blocks plateau
  /// as ops grow (the unbounded queue's grow ~ ops).
  Space space() const {
    return {tree_.live_blocks() + debug_archived_blocks(),
            ebr_.retired_count()};
  }

  /// Block slots of the chunks archived in the persistent RBT (test surface).
  size_t debug_archived_blocks() const {
    return archived_.load(std::memory_order_relaxed);
  }

  /// Completed GC phases (test surface).
  uint64_t debug_gc_phases() const {
    return gc_phases_.load(std::memory_order_relaxed);
  }

  const Ebr& debug_ebr() const { return ebr_; }

  /// Block-pool totals (test surface; read at quiescence).
  PoolStats debug_pool() const { return tree_.debug_pool(); }

  /// pid's leaf, or null while pid has not operated (test surface: its
  /// blocks' addresses; read at quiescence).
  const Node* debug_leaf(int pid) const { return tree_.leaf(pid); }

  /// Tree nodes built so far (test surface; see OrderingTree::debug_nodes).
  size_t debug_nodes() const { return tree_.debug_nodes(); }

  /// Archived chunks of the current version, in key order: (key, slots
  /// holding the discarded sentinel) (test surface; read at quiescence).
  std::vector<std::pair<uint64_t, int>> debug_chunks() const {
    std::vector<std::pair<uint64_t, int>> out;
    if (const ArchiveVersion* av = archive_.unsafe_peek()) {
      Rbt::for_each(av->root, [&out](uint64_t key, const auto& c) {
        out.emplace_back(key, static_cast<int>(std::count(
                                  std::begin(c->b), std::end(c->b),
                                  &discarded_block())));
      });
    }
    return out;
  }

  /// Block i of v as every historical read sees it, and the monotone search
  /// find_response runs (test surface: the search is checked against a
  /// gallop_down over these loads).
  const Block* debug_load(const Node* v, int64_t i) const {
    return load_block(v, i);
  }
  template <typename Pred>
  int64_t debug_search_down(const Node* v, int64_t hi,
                            const Pred& pred) const {
    return search_down(v, hi, pred);
  }

  /// Per tree position, in id order: the array floor and the index below
  /// which its slot pages have been handed back; a node not built yet reads
  /// (1, 0) (test surface; read at quiescence).
  std::vector<std::pair<int64_t, int64_t>> debug_floors() const {
    std::vector<std::pair<int64_t, int64_t>> out;
    collect_floors(tree_.root(), tree_.width(), out);
    return out;
  }

  /// Resolved GC period: the actual G in use, or -1 when disabled.
  int64_t gc_period() const { return g_; }

  int procs() const { return p_; }

 private:
  // --- operation prologue/epilogue (EBR pin + start publication) -----------

  static constexpr int64_t kStartNone = INT64_MAX;
  static constexpr int64_t kStartPending = -1;

  struct alignas(64) StartSlot {
    typename Platform::template Atomic<int64_t> v{kStartNone};
  };

  /// Pins the epoch and publishes the root index observed at op start (the
  /// GC retention scan's input). kStartPending bridges the gap between the
  /// pin and the root read: a scan that observes it skips discarding this
  /// round rather than guessing what the op saw.
  struct OpGuard {
    BoundedQueue* q;
    int pid;
    OpGuard(BoundedQueue* q_in, int pid_in) : q(q_in), pid(pid_in) {
      q->ebr_.pin(pid);
      memo().open();
      auto& s = q->starts_[static_cast<size_t>(pid)].v;
      s.store(kStartPending);
      s.store(q->tree_.root()->head.load());
    }
    ~OpGuard() {
      q->starts_[static_cast<size_t>(pid)].v.store(kStartNone);
      memo().is_open = false;
      q->ebr_.unpin(pid);
    }
  };

  /// Counts k completed operations and runs one GC phase per multiple of G
  /// the count crossed, so a run of k ops triggers as many phases as k
  /// single ops would.
  void after_ops(int pid, int64_t k) {
    if (g_ < 0) return;
    int64_t n = opcount_.fetch_add(k) + k;
    // Multiples of G in (n - k, n], with one division on the common path.
    int64_t past = n % g_;
    for (int64_t m = past < k ? 1 + (k - 1 - past) / g_ : 0; m > 0; --m)
      gc_phase(pid);
  }

  // --- block access with archive fallback ----------------------------------

  /// One immutable archive snapshot (swapped whole, retired through EBR).
  struct ArchiveVersion {
    typename Rbt::Ptr root;
  };

  // A key's low 44 bits hold the chunk index (~1P blocks per node before
  // overflow); masking keeps an out-of-range index from aliasing another
  // node's keys.
  static constexpr uint64_t kIndexBits = 44;
  static constexpr uint64_t kIndexMask = (uint64_t{1} << kIndexBits) - 1;

  static uint64_t key_of(const Node* v, int64_t c) {
    assert(c >= 0 && static_cast<uint64_t>(c) <= kIndexMask);
    return (static_cast<uint64_t>(static_cast<uint32_t>(v->id)) << kIndexBits) |
           (static_cast<uint64_t>(c) & kIndexMask);
  }

  /// Sentinel for probes into discarded history: its monotone fields read
  /// -1 ("before everything"); see the monotone-search templates.
  struct Discarded : Block {
    Discarded() {
      this->sumenq = this->sumdeq = this->endleft = this->endright = -1;
    }
  };
  static const Block& discarded_block() {
    static const Discarded d;
    return d;
  }

  /// The calling thread's archive-lookup memo: (version, key) -> chunk,
  /// direct-mapped. It is open only between an operation's pin and unpin
  /// (OpGuard), and an entry counts only in the operation that filled it:
  /// while pinned, no version the operation loaded can be freed, so no
  /// address in it can be reused by another version or another queue.
  /// Outside an operation (the collector runs after unpin) lookups bypass
  /// it.
  struct Memo {
    static constexpr int kWays = 8;
    struct Entry {
      uint64_t op;  // the operation that filled it
      const ArchiveVersion* av;
      uint64_t key;
      const Chunk* chunk;  // null: no chunk under key in av
    };
    Entry e[kWays];
    uint64_t op;  // operations opened on this thread
    bool is_open;

    void open() {
      ++op;
      is_open = true;
    }
    /// The entry this operation filled for (av, key), or null.
    const Entry* find(const ArchiveVersion* av, uint64_t key) const {
      const Entry& x = e[way(key)];
      return is_open && x.op == op && x.av == av && x.key == key ? &x
                                                                 : nullptr;
    }
    void put(const ArchiveVersion* av, uint64_t key, const Chunk* chunk) {
      if (is_open) e[way(key)] = {op, av, key, chunk};
    }
    static size_t way(uint64_t key) {
      return (key ^ (key >> kIndexBits)) % kWays;
    }
  };
  static Memo& memo() {
    thread_local Memo m{};
    return m;
  }

  /// The chunk under `key` in version av, or null.
  const Chunk* chunk_at(const ArchiveVersion* av, uint64_t key) const {
    Memo& m = memo();
    if (const auto* hit = m.find(av, key)) return hit->chunk;
    const auto* c = Rbt::find(av->root, key);
    const Chunk* chunk = c != nullptr ? c->get() : nullptr;
    m.put(av, key, chunk);
    return chunk;
  }

  const Block* archived(const Node* v, int64_t i) const {
    const ArchiveVersion* av = archive_.load();
    if (i >= 0 && av != nullptr) {
      const Chunk* c = chunk_at(av, key_of(v, i / kChunk));
      if (c != nullptr) return c->b[i % kChunk];
    }
    return &discarded_block();
  }

  /// Every historical block read goes through here (via ArchiveStorage):
  /// array first, archive under the floor. Returns nullptr only for
  /// genuinely unfilled frontier slots (the tree's head-helping paths read
  /// the array directly instead).
  const Block* load_block(const Node* v, int64_t i) const {
    if (i == 0) return v->blocks.load(0);  // sentinel is never truncated
    if (i < v->floor.load()) return archived(v, i);
    return load_present(v, i);
  }

  /// load_block for an index at or above the floor as last read.
  const Block* load_present(const Node* v, int64_t i) const {
    const Block* b = v->blocks.load(i);
    if (b == BlockArray::tombstone()) return archived(v, i);
    if (b != nullptr) return b;
    // Lost a race with a GC truncation: the floor store precedes the slot
    // tombstone, so re-reading the floor disambiguates truncated vs
    // genuinely unfilled frontier slots.
    if (i < v->floor.load()) return archived(v, i);
    return nullptr;
  }

  // --- monotone searches that cross the floor ------------------------------
  //
  // `pred` is a monotone block predicate (false up to some index, true from
  // it on). In the array the searches probe exactly as gallop_down and
  // bisect do, each probe one floor load plus one slot load, as load_block
  // charges. The first probe that would land under the floor ends the
  // probing: one first_where descent over the node's archived chunks,
  // testing each chunk's last slot (always a real block: a chunk is
  // inserted only from the chunk of its first live index on), finds the
  // chunk holding the answer, and a bisect over that chunk's 64 slots
  // (<= 6 probes, uncounted, like every read inside a chunk) finishes.
  // Discarded-sentinel slots and erased chunks read false, as they do
  // through load_block. The floor is read before the archive version, and
  // a version is published before the floors that rely on it rise, so the
  // version holds every live chunk under the floor read.

  /// First true index in (0, hi], given pred of block hi true
  /// (find_response's doubling search, Lemma 20; the collector's retention
  /// search).
  template <typename Pred>
  int64_t search_down(const Node* v, int64_t hi, const Pred& pred) const {
    const int64_t top = hi;
    int64_t step = 1;
    int64_t lo = top - step;
    while (lo > 0) {
      int64_t f = v->floor.load();
      if (lo < f) return search_archive(v, 0, f, hi, pred);
      if (!pred(load_present(v, lo))) break;
      hi = lo;
      step <<= 1;
      lo = top - step;
    }
    return bisect_down(v, std::max<int64_t>(lo, 0), hi, pred);
  }

  /// First true index in (lo, hi], given pred false at lo (or lo == 0) and
  /// true at hi.
  template <typename Pred>
  int64_t bisect_down(const Node* v, int64_t lo, int64_t hi,
                      const Pred& pred) const {
    while (lo + 1 < hi) {
      int64_t mid = lo + (hi - lo) / 2;
      int64_t f = v->floor.load();
      if (mid < f) return search_archive(v, lo, f, hi, pred);
      if (pred(load_present(v, mid))) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    return hi;
  }

  /// The finish of both searches once a probe fell under the floor `f`:
  /// first true index in (lo, hi], pred false at lo (or lo == 0), true at
  /// hi.
  template <typename Pred>
  int64_t search_archive(const Node* v, int64_t lo, int64_t f, int64_t hi,
                         const Pred& pred) const {
    const int64_t c_hi = std::min(f - 1, hi) / kChunk;
    const typename Rbt::Node* n = nullptr;
    const ArchiveVersion* av = archive_.load();
    if (av != nullptr) {
      n = Rbt::first_where(
          av->root, key_of(v, lo / kChunk), key_of(v, c_hi),
          [&](const std::shared_ptr<const Chunk>& c) {
            return pred(c->b[kChunk - 1]);
          });
    }
    if (n == nullptr) {  // every archived chunk in range reads false
      int64_t past = c_hi * kChunk + kChunk - 1;
      return past >= hi ? hi : bisect_down(v, std::max(lo, past), hi, pred);
    }
    const Chunk* c = n->val.get();
    memo().put(av, n->key, c);
    const int64_t base = static_cast<int64_t>(n->key & kIndexMask) * kChunk;
    return bisect(std::max(lo, base - 1), std::min(hi, base + kChunk - 1),
                  [&](int64_t s) { return pred(c->b[s - base]); });
  }

  // --- the GC phase --------------------------------------------------------

  struct Plan {
    Node* v;
    int64_t af_new;
    int64_t k_new;
  };

  void gc_phase(int pid) {
    if (!gclock_.cas(0, 1)) return;  // a collection is already running
    collect(pid);
    gc_phases_.fetch_add(1, std::memory_order_relaxed);
    gclock_.store(0);
  }

  /// A truncated block's end of life: back into the collector's pool, or,
  /// at teardown (pool null, the tree still holds its slabs), just
  /// destroyed.
  static void recycle_block(void* p, void* pool) {
    auto* b = static_cast<Block*>(p);
    if (pool != nullptr) {
      static_cast<Pool*>(pool)->recycle(b);
    } else {
      std::destroy_at(b);
    }
  }

  void collect(int pid) {
    Node* root = tree_.root();
    // 1. Retention scan: the oldest root index any in-flight op observed.
    // `last` MUST be read before the start slots are scanned: an op whose
    // slot was idle when scanned can pin afterwards, and the root head is
    // monotone, so the start it then publishes is >= this `last` and its
    // reads are covered by m <= last. Reading `last` after the scan would
    // let such an op publish a start below a later head — the floor
    // min(be, m) - 2 could then discard blocks its find_response /
    // index_dequeue still needs.
    int64_t last = tree_.last_block_index(root);
    int64_t m = kStartNone;
    bool pending = false;
    for (int i = 0; i < p_; ++i) {
      int64_t s = starts_[static_cast<size_t>(i)].v.load();
      if (s == kStartPending) {
        pending = true;
      } else if (s != kStartNone) {
        m = std::min(m, s);
      }
    }
    m = std::min(m, last);
    if (m < 1) m = 1;

    // 2. New root archive floor: nothing below (block of the oldest enqueue
    // any dequeue that started at or after m can be assigned) - slack may
    // ever be read again. A pending publication freezes discarding this
    // round (truncation into the archive is always safe and proceeds).
    int64_t af_root = root->af;
    if (!pending) {
      const Block* bm = load_block(root, m - 1);
      int64_t e_ret = bm->sumenq - bm->size + 1;
      int64_t be = oldest_root_block_with_sumenq(e_ret, last);
      af_root = std::max(af_root, std::min(be, m) - 2);
      af_root = std::clamp<int64_t>(af_root, 1, last);
    }

    // 3. Array floors (the in-array live suffix, sized by the GC window)
    // and per-child floors derived from retained boundary blocks.
    std::vector<Plan>& plans = plans_;
    plans.clear();
    plan_node(root, tree_.last_block_index(root), af_root, last - window_ + 1,
              tree_.width(), plans);

    // 4. New archive version: move the live part of [kfloor, k_new) in as
    // whole chunks, drop the chunks now entirely below af_new (a chunk
    // straddling af_new stays whole). Slots under max(kfloor, af_new) point
    // at the discarded sentinel, so probes there still steer with -1
    // fields.
    const ArchiveVersion* old_av = archive_.load();
    typename Rbt::Ptr aroot = old_av ? old_av->root : Rbt::empty();
    size_t count = archived_.load(std::memory_order_relaxed);
    for (const Plan& pl : plans) {
      for (int64_t c = pl.v->af / kChunk; c < pl.af_new / kChunk; ++c) {
        typename Rbt::Ptr next = Rbt::erase(aroot, key_of(pl.v, c));
        if (next != aroot) count -= kChunk;
        aroot = std::move(next);
      }
      // Starting at the chunk of max(kfloor, af_new) never inserts a chunk
      // that is already entirely dead (the erase above would never see it).
      int64_t lo = std::max(pl.v->kfloor, pl.af_new);
      if (lo >= pl.k_new) continue;
      assert(pl.k_new % kChunk == 0);  // plan_node moved it a whole chunk
      for (int64_t c = lo / kChunk; c * kChunk < pl.k_new; ++c) {
        auto chunk = std::make_shared<Chunk>(this);
        for (int64_t j = 0; j < kChunk; ++j) {
          int64_t i = c * kChunk + j;
          if (i < lo) {
            chunk->b[j] = &discarded_block();
          } else {
            chunk->b[j] = pl.v->blocks.load(i);
            pbt::note_rbt_touch();  // the paper's per-block archive charge
          }
        }
        aroot = Rbt::insert(aroot, key_of(pl.v, c), std::move(chunk));
        count += kChunk;
      }
    }
    if (aroot == (old_av ? old_av->root : Rbt::empty())) {
      // No chunk moved: republish the same version (the store keeps a
      // phase's step count independent of whether a chunk moved).
      archive_.store(old_av);
    } else {
      archive_.store(new ArchiveVersion{std::move(aroot)});
      archived_.store(count, std::memory_order_relaxed);
      if (old_av != nullptr) {
        ebr_.retire(const_cast<ArchiveVersion*>(old_av), +[](void* p, void*) {
          delete static_cast<ArchiveVersion*>(p);
        });
      }
    }

    // 5. Truncate the arrays (floor first — release — then tombstone slots)
    // and retire the detached blocks below af_new (the rest now belong to
    // their chunks), then the whole slot pages now below the floor
    // (DESIGN.md "TreeBlockArray": after the grace period no op holds an
    // index below the floor); then give the epoch a push. What it frees —
    // retired blocks and the blocks of chunks whose last version went —
    // lands in this process's pool, which spills its excess. A node whose
    // floors did not move has nothing to truncate and is not written at
    // all: the shared empty node is one, and writing it from every tree's
    // collector cost a two-loop broker ~6% CPU per message.
    for (const Plan& pl : plans) {
      pl.v->floor.store_if_changed(pl.k_new);
      if (pl.k_new == pl.v->kfloor && pl.af_new == pl.v->af) continue;
      for (int64_t i = pl.v->kfloor; i < pl.k_new; ++i) {
        Block* b = pl.v->blocks.take(i);
        if (i < pl.af_new) ebr_.retire(b, &recycle_block);
      }
      pl.v->blocks.release_below(pl.k_new, [this](void* page) {
        ebr_.retire(page, +[](void* pg, void*) {
          BlockArray::release_page(pg);
        });
      });
      pl.v->kfloor = pl.k_new;
      pl.v->af = pl.af_new;
    }
    chunk_pool_ = &tree_.pool(pid);
    ebr_.try_advance(chunk_pool_);
    chunk_pool_ = nullptr;
    tree_.spill_excess(pid);
  }

  /// Smallest retained root index whose sumenq reaches e (last+1 if none).
  int64_t oldest_root_block_with_sumenq(int64_t e, int64_t last) const {
    const Node* root = tree_.root();
    auto reaches = [e](const Block* b) { return b->sumenq >= e; };
    int64_t lo = root->af;  // collector-only mirror; lowest readable index
    if (reaches(load_block(root, lo))) return lo;
    if (!reaches(load_block(root, last))) return last + 1;
    return bisect_down(root, lo, last, reaches);
  }

  /// Plans node v (last block lastv), which spans w leaf positions, and
  /// its subtree. The walk visits every position of the complete tree,
  /// built or not (a position not built yet is the empty node, whose
  /// children are itself), so a phase's steps do not depend on which paths
  /// exist.
  void plan_node(Node* v, int64_t lastv, int64_t af_in, int64_t k_in,
                 unsigned w, std::vector<Plan>& out) {
    auto plan_child = [&](int side, int64_t af, int64_t k) {
      Node* c;
      int64_t lastc = tree_.last_child_index(v, side, c);
      plan_node(c, lastc, af, k, w / 2, out);
    };
    if (lastv < 1) {
      // Sentinel-only node (an idle process's leaf, or a subtree whose
      // appends have not propagated here yet): nothing to archive or
      // truncate, and no boundary block to derive child floors from —
      // keep the children's floors where they are.
      out.push_back({v, v->af, v->kfloor});
      if (w > 1) {
        plan_child(0, 1, 1);
        plan_child(1, 1, 1);
      }
      return;
    }
    int64_t af_new = std::clamp<int64_t>(std::max(v->af, af_in), 1, lastv);
    // The array floor moves in whole chunks (never below kfloor), so the
    // in-array suffix keeps < kChunk extra blocks per node.
    int64_t k_new =
        std::clamp<int64_t>(std::max(v->kfloor, k_in), af_new, lastv);
    k_new = std::max(v->kfloor, k_new / kChunk * kChunk);
    out.push_back({v, af_new, k_new});
    if (w > 1) {
      // Readers retained at this node use block PAIRS (j-1, j) for
      // j >= af_new, and the pair (af_new - 1, af_new) spans child blocks
      // starting just past end*(af_new - 1) — so the children's floors must
      // be seeded from the end pointers of block af_new - 1, not af_new
      // (seeding from af_new discards child blocks that pair still needs).
      // When af_new did not move this round, block af_new - 1 was discarded
      // by the round that set it; the sentinel's -1 endpoints then leave
      // the children's floors unchanged, which is exactly right because
      // that earlier round already seeded them from this pair.
      const Block* baf = load_block(v, af_new - 1);
      const Block* bk = load_block(v, std::max(k_new - 1, af_new));
      plan_child(0, baf->endleft, bk->endleft);
      plan_child(1, baf->endright, bk->endright);
    }
  }

  static void collect_floors(const Node* v, unsigned w,
                             std::vector<std::pair<int64_t, int64_t>>& out) {
    out.emplace_back(v->kfloor, v->blocks.debug_released());
    if (w == 1) return;
    collect_floors(v->left(), w / 2, out);
    collect_floors(v->right(), w / 2, out);
  }

  // --- members -------------------------------------------------------------

  int p_;
  int64_t g_;       // resolved GC period (-1 = disabled)
  int64_t window_;  // in-array suffix target per node (~G)
  ArchiveStorage storage_;
  Tree tree_;
  std::unique_ptr<StartSlot[]> starts_;
  // Where a dying chunk's blocks go: the collector's pool while its epoch
  // push frees versions, else null (teardown destroys them). Declared
  // before ebr_, whose destructor drops the last retired versions.
  Pool* chunk_pool_ = nullptr;
  Ebr ebr_;
  typename Platform::template Atomic<int64_t> opcount_{0};
  typename Platform::template Atomic<int> gclock_{0};
  typename Platform::template Atomic<const ArchiveVersion*> archive_{nullptr};
  // Block slots in the current archive version: written by the collector
  // only, so space() never dereferences a version another GC may retire.
  std::atomic<size_t> archived_{0};
  std::atomic<uint64_t> gc_phases_{0};
  std::vector<Plan> plans_;  // collect()'s scratch (guarded by the gc lock)
};

}  // namespace wfq::core
