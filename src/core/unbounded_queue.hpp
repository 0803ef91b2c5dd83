// The paper's wait-free FIFO queue with polylogarithmic worst-case step
// complexity (Naderibeni & Ruppert, PODC 2023), unbounded-space variant.
//
// Thin client of the shared ordering-tree core (core/ordering_tree.hpp,
// ISSUE 5): an enqueue is a leaf Append + double-Refresh propagation; a
// dequeue appends its own block, locates itself in the root ordering
// (IndexDequeue: walk up, O(log p) levels, gallop-from-hint per level),
// decides null-vs-value from the root block's size prefix, and finds the
// enqueue it returns with the Lemma-20 doubling search (cost grows with the
// distance back to the enqueue's block — i.e. with log of the queue size —
// not with the total history length; see experiments E10/E12), then descends
// to the enqueue's leaf to read the element. A run of enqueues then
// dequeues (run()) appends all its blocks and propagates them once.
//
// Storage policy: DirectStorage — every historical block read is a plain
// (counted) array load; nothing is ever truncated. The bounded-space variant
// (core/bounded_queue.hpp) instantiates the same tree with an archive-aware
// policy instead.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>

#include "core/ordering_tree.hpp"
#include "platform/platform.hpp"

namespace wfq::core {

template <typename T, typename Platform = platform::RealPlatform>
class UnboundedQueue {
 public:
  using Tree = OrderingTree<T, Platform, DirectStorage>;
  using Block = typename Tree::Block;
  using Node = typename Tree::Node;

  explicit UnboundedQueue(int procs) : tree_(procs, storage_) {}

  UnboundedQueue(const UnboundedQueue&) = delete;
  UnboundedQueue& operator=(const UnboundedQueue&) = delete;

  /// Associates the calling thread with leaf `pid` (0-based, < procs).
  void bind_thread(int pid) {
    assert(pid >= 0 && pid < tree_.procs());
    platform::bind_thread(pid);
  }

  void enqueue(T x) { run(std::span<T>(&x, 1), {}); }

  std::optional<T> dequeue() {
    std::optional<T> out;
    run({}, std::span<std::optional<T>>(&out, 1));
    return out;
  }

  /// A run: enqueues `enqs` in order (moved from), then one dequeue per
  /// slot of `deqs`, in order, each slot receiving its result. The whole run
  /// is appended at the caller's leaf and propagated with one walk
  /// (OrderingTree::append_run); each dequeue then indexes and resolves
  /// itself as a lone one does. enqueue/dequeue are the one-op runs.
  void run(std::span<T> enqs, std::span<std::optional<T>> deqs) {
    int pid = platform::current_pid();
    int64_t b = tree_.append_run(pid, enqs, static_cast<int64_t>(deqs.size())) +
                static_cast<int64_t>(enqs.size());
    for (std::optional<T>& out : deqs) {
      auto [rb, r] = tree_.index_op(pid, b++, /*is_enq=*/false);
      out = tree_.find_response(rb, r);
    }
  }

  // --- debug/introspection surface (uncounted) -----------------------------

  const Node* debug_root() const { return tree_.root(); }
  /// pid's leaf, or null while pid has not operated (read at quiescence).
  const Node* debug_leaf(int pid) const { return tree_.leaf(pid); }
  /// Tree nodes built so far (see OrderingTree::debug_nodes).
  size_t debug_nodes() const { return tree_.debug_nodes(); }

  /// Every block ever appended (nothing is freed); see core::Space.
  Space space() const { return {tree_.live_blocks(), 0}; }

  /// Block-pool totals (read at quiescence): nothing is ever recycled, so
  /// every block carved is installed or a process's spare.
  PoolStats debug_pool() const { return tree_.debug_pool(); }

  int procs() const { return tree_.procs(); }

 private:
  DirectStorage storage_;
  Tree tree_;
};

}  // namespace wfq::core
