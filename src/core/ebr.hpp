// Epoch-based reclamation for the bounded-space queue (paper Section 6):
// blocks truncated out of a node's array — and superseded archive versions —
// must not be freed while a concurrent operation may still hold a raw
// pointer to them. Readers pin the global epoch for the duration of one
// queue operation; the GC phase retires garbage into the current epoch's
// bucket and frees a bucket only once every pinned reader has observably
// moved past it (the classic three-bucket, two-grace-period scheme).
//
// Division of labor with the queue:
//  - pin/unpin are called by every operation (O(1) shared steps each, so
//    they disappear into the amortized bound);
//  - retire/advance are called only from inside a GC phase, which the
//    queue serializes with its gc lock, so the retire buckets need no
//    internal synchronization;
//  - each GC phase ends with one advance, which moves the epoch up to
//    three times while no pinned reader lags: a phase with no reader
//    behind frees its own garbage before it returns, so a phase that runs
//    rarely does not hold three phases' worth;
//  - retired_count() is the E6/E8 introspection surface: the backlog of
//    retired-but-not-yet-freed objects, which stays bounded because every
//    GC phase attempts an advance.
//  - "Freed" means the object's deleter ran. A deleter gets the context
//    the freeing advance was given (the bounded queue passes the
//    collector's block pool, so truncated blocks are recycled, not
//    deleted); the destructor's late deleters get nullptr.
//
// Epoch accesses go through Platform atomics: each pin/unpin/scan access is
// a shared-memory step in the paper's model (and a yield point under the
// sim scheduler), so reclamation overhead is measured, not hidden.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "platform/platform.hpp"

namespace wfq::core {

template <typename Platform = platform::RealPlatform>
class Ebr {
 public:
  /// Slot value meaning "no operation in flight on this process".
  static constexpr uint64_t kIdle = ~uint64_t{0};

  explicit Ebr(int procs)
      : procs_(procs < 1 ? 1 : procs),
        slots_(new Slot[static_cast<size_t>(procs_)]) {}

  Ebr(const Ebr&) = delete;
  Ebr& operator=(const Ebr&) = delete;

  /// Ends a retired object's life: del(p, ctx), ctx from advance.
  using Deleter = void (*)(void* p, void* ctx);

  ~Ebr() {
    for (auto& bucket : buckets_) free_bucket(bucket, nullptr);
  }

  /// Marks process `pid` as reading under the current epoch. The seq_cst
  /// fence keeps the pin store from reordering past the operation's first
  /// pointer load on TSO hardware (fences are bookkeeping, not modeled
  /// steps; the store itself is a counted shared step).
  void pin(int pid) {
    slots_[static_cast<size_t>(pid)].epoch.store(epoch_.load());
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  void unpin(int pid) {
    slots_[static_cast<size_t>(pid)].epoch.store(kIdle);
  }

  /// Hands `p` to the collector; freed via `del` by the third epoch advance
  /// after this call. GC-phase only (serialized by the queue's gc lock).
  void retire(void* p, Deleter del) {
    buckets_[epoch_.unsafe_peek() % 3].push_back({p, del});
    // Single writer (the gc lock): a plain increment, no locked RMW.
    retired_.store(retired_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
  }

  /// Advances the global epoch while every pinned process has caught up
  /// with it, at most three times, freeing at each advance the bucket that
  /// just became unreachable (filled three epochs before the new one) and
  /// passing `ctx` to its deleters. Each advance re-checks every slot, so
  /// this is the three-bucket scheme run up to three times in a row: with
  /// no reader behind, the third advance frees what the caller just
  /// retired; a reader pinned at epoch e stops the advance past e + 1.
  /// GC-phase only. Returns true if the epoch moved at all.
  bool advance(void* ctx) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    int moved = 0;
    for (; moved < 3; ++moved) {
      uint64_t g = epoch_.load();
      for (int i = 0; i < procs_; ++i) {
        uint64_t e = slots_[static_cast<size_t>(i)].epoch.load();
        if (e != kIdle && e != g) return moved > 0;  // a reader is behind
      }
      if (!epoch_.cas(g, g + 1)) break;
      free_bucket(buckets_[(g + 1) % 3], ctx);  // epoch g-2's garbage
    }
    return moved > 0;
  }

  /// Backlog of retired-but-not-yet-freed objects (E6's "EBR backlog"
  /// column). Transient garbage: bounded by ~3 GC phases' worth, and 0
  /// after a phase that no pinned reader held back. Safe from any thread:
  /// freed_ is read first (acquire, pairing with the release in
  /// free_bucket), so the retires of everything counted freed are visible
  /// and the difference cannot wrap.
  uint64_t retired_count() const {
    uint64_t freed = freed_.load(std::memory_order_acquire);
    return retired_.load(std::memory_order_relaxed) - freed;
  }

  /// Total objects ever reclaimed (the gc tests assert this goes nonzero).
  uint64_t freed_count() const {
    return freed_.load(std::memory_order_relaxed);
  }

  uint64_t epoch() const { return epoch_.unsafe_peek(); }

 private:
  struct Retired {
    void* p;
    Deleter del;
  };

  struct alignas(64) Slot {
    typename Platform::template Atomic<uint64_t> epoch{kIdle};
  };

  void free_bucket(std::vector<Retired>& bucket, void* ctx) {
    for (const Retired& r : bucket) r.del(r.p, ctx);
    freed_.fetch_add(bucket.size(), std::memory_order_release);
    bucket.clear();
  }

  int procs_;
  std::unique_ptr<Slot[]> slots_;
  typename Platform::template Atomic<uint64_t> epoch_{0};
  std::vector<Retired> buckets_[3];  // GC-lock-guarded; indexed epoch % 3
  std::atomic<uint64_t> retired_{0};
  std::atomic<uint64_t> freed_{0};
};

}  // namespace wfq::core
