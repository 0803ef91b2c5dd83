// Kogan–Petrank wait-free queue baseline (E4/E5), ported faithfully from
// "Wait-Free Queues With Multiple Enqueuers and Dequeuers" (PPoPP 2011).
// This replaced the PR-2 stub whose helping was observational only: here the
// full phase-based helping protocol runs on shared state, so any process can
// complete any other process's announced operation.
//
// Protocol shape (all of it counted through Platform atomics):
//  - per-process announcement slots hold immutable operation descriptors
//    {phase, pending, enqueue, node}; an operation publishes itself at phase
//    1 + max over all announced phases (the Theta(p) maxPhase scan);
//  - help(phase) walks every slot and completes all pending operations with
//    lower-or-equal phase before returning — the wait-freedom argument: an
//    op at phase P is helped by every op that starts after it;
//  - nodes are enqTid-tagged at allocation and deqTid-tagged by CAS(-1, tid)
//    so concurrent helpers agree on exactly one winner per list slot: an
//    enqueue is decided by the unique successful next-CAS of its node, a
//    dequeue by the unique successful deqTid-CAS on the current head, and
//    the tail/head/descriptor CASes after either are idempotent helping.
//
// Memory: nodes and descriptors are never reclaimed during operation (which
// also sidesteps ABA, exactly like the MS-queue baseline); every allocation
// is threaded onto an uncounted intrusive list and freed by the destructor.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "platform/platform.hpp"

namespace wfq::baselines {

template <typename T, typename Platform = platform::RealPlatform>
class KpQueue {
 public:
  explicit KpQueue(int procs)
      : procs_(procs < 1 ? 1 : procs),
        state_(static_cast<size_t>(procs_)) {
    Node* dummy = alloc_node(T{}, /*enq_tid=*/-1);
    head_.unsafe_store(dummy);
    tail_.unsafe_store(dummy);
    // Initial descriptors: completed, phase -1, so maxPhase starts at -1 and
    // the first real operation announces at phase 0.
    for (Slot& s : state_)
      s.desc.unsafe_store(alloc_desc(-1, false, true, nullptr));
  }

  KpQueue(const KpQueue&) = delete;
  KpQueue& operator=(const KpQueue&) = delete;

  ~KpQueue() {
    Node* n = node_allocs_.load(std::memory_order_acquire);
    while (n != nullptr) {
      Node* next = n->alloc_next;
      delete n;
      n = next;
    }
    OpDesc* d = desc_allocs_.load(std::memory_order_acquire);
    while (d != nullptr) {
      OpDesc* next = d->alloc_next;
      delete d;
      d = next;
    }
  }

  void bind_thread(int pid) { platform::bind_thread(pid); }

  void enqueue(T x) {
    const int self = me();
    Node* n = alloc_node(std::move(x), self);
    int64_t phase = max_phase() + 1;
    announce(self, alloc_desc(phase, true, true, n));
    help(phase);
    help_finish_enq();
  }

  std::optional<T> dequeue() {
    const int self = me();
    int64_t phase = max_phase() + 1;
    announce(self, alloc_desc(phase, true, false, nullptr));
    help(phase);
    help_finish_deq();
    OpDesc* d = state_[static_cast<size_t>(self)].desc.load();
    if (d->node == nullptr) return std::nullopt;  // linearized against empty
    // d->node is the node that preceded ours when we won the deqTid CAS; its
    // successor holds our value. next is write-once, so this read is stable.
    Node* winner = d->node->next.load();
    return winner->val;
  }

 private:
  struct Node {
    T val{};
    int enq_tid = -1;  // immutable tag: which process allocated this node
    typename Platform::template Atomic<Node*> next{nullptr};
    typename Platform::template Atomic<int64_t> deq_tid{-1};
    Node* alloc_next = nullptr;  // uncounted bookkeeping chain for the dtor
  };

  /// Immutable once published; transitions happen by CASing the slot to a
  /// freshly allocated descriptor (pending -> completed keeps the same node
  /// for enqueues and records the predecessor node for dequeues).
  struct OpDesc {
    int64_t phase = -1;
    bool pending = false;
    bool enqueue = true;
    Node* node = nullptr;
    OpDesc* alloc_next = nullptr;
  };

  struct alignas(64) Slot {
    typename Platform::template Atomic<OpDesc*> desc{nullptr};
  };

  int me() const {
    return static_cast<int>(static_cast<size_t>(platform::current_pid()) %
                            state_.size());
  }

  /// The defining Theta(p) cost: every operation scans all p announcement
  /// slots to pick a phase larger than everything already announced.
  int64_t max_phase() {
    int64_t mp = -1;
    for (Slot& s : state_) {
      OpDesc* d = s.desc.load();
      if (d->phase > mp) mp = d->phase;
    }
    return mp;
  }

  /// Publishes self's new operation descriptor. The paper's announcement
  /// is a sequentially consistent (Java volatile) write; here it is a
  /// release store, and help() then reads the other slots with acquire
  /// loads, which TSO hardware may satisfy before the store drains. A
  /// helper whose announcement is still buffered can see another process's
  /// operation pending under its phase; that process can finish it and
  /// announce its next one at a phase no larger (its max_phase scan missed
  /// the buffered store), and the helper then helps the new operation as
  /// the old kind. A dequeue's recorded head appended as an enqueue's node
  /// closes the list into a cycle, and every thread spins forever. The
  /// fence restores the order the phase argument needs.
  void announce(int self, OpDesc* d) {
    state_[static_cast<size_t>(self)].desc.store(d);
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  bool is_still_pending(int tid, int64_t phase) {
    OpDesc* d = state_[static_cast<size_t>(tid)].desc.load();
    return d->pending && d->phase <= phase;
  }

  /// Completes every announced operation whose phase is <= `phase` — our own
  /// included, which is what makes enqueue/dequeue wait-free.
  void help(int64_t phase) {
    for (size_t i = 0; i < state_.size(); ++i) {
      OpDesc* d = state_[i].desc.load();
      if (d->pending && d->phase <= phase) {
        if (d->enqueue)
          help_enq(static_cast<int>(i), phase);
        else
          help_deq(static_cast<int>(i), phase);
      }
    }
  }

  void help_enq(int tid, int64_t phase) {
    while (is_still_pending(tid, phase)) {
      Node* last = tail_.load();
      Node* next = last->next.load();
      if (last != tail_.load()) continue;
      if (next == nullptr) {
        // Re-check pending right before the append CAS: if tid's op was
        // completed meanwhile, its node is already linked and tail has (or
        // will have) advanced — appending it again would corrupt the list.
        // The CAS can only succeed while the node was never linked (next
        // pointers are write-once and tail never passes an unlinked node).
        OpDesc* d = state_[static_cast<size_t>(tid)].desc.load();
        if (d->pending && d->phase <= phase) {
          if (last->next.cas(nullptr, d->node)) {
            help_finish_enq();
            return;
          }
        }
      } else {
        help_finish_enq();  // an enqueue is mid-flight: finish it first
      }
    }
  }

  /// Completes the enqueue whose node hangs off the current tail: CAS the
  /// owner's descriptor to completed, then swing the tail. Both CASes are
  /// idempotent helping — losers observe a later state and back off.
  void help_finish_enq() {
    Node* last = tail_.load();
    Node* next = last->next.load();
    if (next == nullptr) return;
    int tid = next->enq_tid;
    if (tid < 0) return;  // unreachable: only the initial dummy is untagged
    OpDesc* cur = state_[static_cast<size_t>(tid)].desc.load();
    if (last == tail_.load() && cur->node == next) {
      state_[static_cast<size_t>(tid)].desc.cas(
          cur, alloc_desc(cur->phase, false, true, next));
      tail_.cas(last, next);
    }
  }

  void help_deq(int tid, int64_t phase) {
    while (is_still_pending(tid, phase)) {
      Node* first = head_.load();
      Node* last = tail_.load();
      Node* next = first->next.load();
      if (first != head_.load()) continue;
      if (first == last) {
        if (next == nullptr) {
          // Queue observed empty: complete with node == nullptr, but only
          // if the op is still pending under an unchanged tail.
          OpDesc* cur = state_[static_cast<size_t>(tid)].desc.load();
          if (last == tail_.load() && cur->pending && cur->phase <= phase) {
            state_[static_cast<size_t>(tid)].desc.cas(
                cur, alloc_desc(cur->phase, false, false, nullptr));
          }
        } else {
          help_finish_enq();  // tail is lagging: finish that enqueue first
        }
      } else {
        OpDesc* cur = state_[static_cast<size_t>(tid)].desc.load();
        Node* node = cur->node;
        if (!(cur->pending && cur->phase <= phase)) break;
        if (first == head_.load() && node != first) {
          // Record the candidate predecessor in the descriptor BEFORE the
          // deqTid CAS, so every helper that sees the claimed head agrees on
          // which descriptor (and therefore which value) it completes.
          if (!state_[static_cast<size_t>(tid)].desc.cas(
                  cur, alloc_desc(cur->phase, true, false, first))) {
            continue;
          }
        }
        first->deq_tid.cas(int64_t{-1}, static_cast<int64_t>(tid));
        help_finish_deq();
      }
    }
  }

  /// Completes the dequeue that tagged the current head: CAS the winner's
  /// descriptor to completed (keeping its recorded predecessor node), then
  /// advance the head. The head never advances past a node whose deq_tid is
  /// still -1, which is what makes the deqTid CAS the decision point.
  void help_finish_deq() {
    Node* first = head_.load();
    Node* next = first->next.load();
    int64_t tid = first->deq_tid.load();
    if (tid == -1) return;
    OpDesc* cur = state_[static_cast<size_t>(tid)].desc.load();
    if (first == head_.load() && next != nullptr) {
      state_[static_cast<size_t>(tid)].desc.cas(
          cur, alloc_desc(cur->phase, false, false, cur->node));
      head_.cas(first, next);
    }
  }

  Node* alloc_node(T x, int enq_tid) {
    Node* n = new Node;
    n->val = std::move(x);
    n->enq_tid = enq_tid;
    Node* old = node_allocs_.load(std::memory_order_relaxed);
    do {
      n->alloc_next = old;
    } while (!node_allocs_.compare_exchange_weak(old, n,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_relaxed));
    return n;
  }

  OpDesc* alloc_desc(int64_t phase, bool pending, bool enqueue, Node* node) {
    OpDesc* d = new OpDesc{phase, pending, enqueue, node, nullptr};
    OpDesc* old = desc_allocs_.load(std::memory_order_relaxed);
    do {
      d->alloc_next = old;
    } while (!desc_allocs_.compare_exchange_weak(old, d,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_relaxed));
    return d;
  }

  int procs_;
  std::vector<Slot> state_;
  typename Platform::template Atomic<Node*> head_{nullptr};
  typename Platform::template Atomic<Node*> tail_{nullptr};
  std::atomic<Node*> node_allocs_{nullptr};
  std::atomic<OpDesc*> desc_allocs_{nullptr};
};

}  // namespace wfq::baselines
