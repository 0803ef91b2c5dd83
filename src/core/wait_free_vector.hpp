// Wait-free vector from the paper's Section 7 extension ("our routines
// easily adapt"), now actually built on the shared ordering-tree core
// (core/ordering_tree.hpp, ISSUE 5) instead of the flat-FAA stub (which
// lives on as baselines::FaaVector, registry key "faavec"):
//
//  - append(x) is an enqueue-like operation: leaf Append + double-Refresh
//    propagation (O(log p) steps like Theorem 22's enqueue), followed by
//    the IndexDequeue walk generalized to enqueues to learn the index the
//    value landed at — the position of this append in the root's agreed
//    linearization. Indices are dense, start at 0, and never change.
//  - get(i) is an index-directed search: binary search over root blocks by
//    cumulative sumenq (O(log #blocks) = O(log n)) then the same
//    root-to-leaf descent a dequeue's FindResponse uses (O(log p) levels ×
//    O(log contention) per level) — the paper's O(log^2 p + log n).
//  - size() reads the root's last agreed block (appends still inside
//    propagation are not yet counted; they appear atomically when their
//    root merge lands, which is the linearization point).
//
// get(i) for i < size() always returns a value: an index is only assigned
// once the append's block reaches the root, and its element was published
// at the leaf before propagation began. No capacity, no abort: the block
// arrays grow geometrically like the queue's.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "core/ordering_tree.hpp"
#include "platform/platform.hpp"

namespace wfq::core {

template <typename T, typename Platform = platform::RealPlatform>
class WaitFreeVector {
 public:
  using Tree = OrderingTree<T, Platform, DirectStorage>;
  using Block = typename Tree::Block;
  using Node = typename Tree::Node;

  explicit WaitFreeVector(int procs) : tree_(procs, storage_) {}

  WaitFreeVector(const WaitFreeVector&) = delete;
  WaitFreeVector& operator=(const WaitFreeVector&) = delete;

  /// Associates the calling thread with leaf `pid` (0-based, < procs).
  void bind_thread(int pid) {
    assert(pid >= 0 && pid < tree_.procs());
    platform::bind_thread(pid);
  }

  /// Appends and returns the (0-based) index the value landed at.
  int64_t append(T x) {
    int pid = platform::current_pid();
    int64_t b = tree_.append_run(pid, std::span<T>(&x, 1), 0);
    auto [rb, r] = tree_.index_op(pid, b, /*is_enq=*/true);
    return tree_.enqueue_rank(rb, r) - 1;
  }

  /// Value at index i, or nullopt if i is past the current end.
  std::optional<T> get(int64_t i) {
    if (i < 0) return std::nullopt;
    return tree_.find_enqueue(i + 1);
  }

  /// Appends agreed at the root so far.
  int64_t size() { return tree_.root_sumenq(); }

  // --- debug/introspection surface (uncounted) -----------------------------

  /// Checks the calling process's last run against the tree
  /// (OrderingTree::debug_check_run; call it from that process between
  /// operations): "" or what failed.
  std::string debug_check_run() {
    return tree_.debug_check_run(platform::current_pid());
  }

  /// Every block ever appended (nothing is freed); see core::Space.
  Space space() const { return {tree_.live_blocks(), 0}; }

  int procs() const { return tree_.procs(); }

 private:
  DirectStorage storage_;
  Tree tree_;
};

}  // namespace wfq::core
