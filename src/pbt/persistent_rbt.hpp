// Path-copying persistent red-black tree (paper Section 6): the bounded
// queue's GC phases move each node's old blocks into this tree, and
// concurrent dequeues read *old* versions while a GC phase installs a new
// one. Persistence comes from path copying: insert/erase never mutate an
// existing node — they rebuild the root-to-target path (O(log n) fresh
// nodes) and share every untouched subtree with the previous version, so a
// version root, once obtained, is an immutable snapshot.
//
// Balancing follows the functional red-black scheme of Okasaki (insert) and
// Kahrs (delete): a black parent absorbs red-red violations with the
// five-case balance rotation; deletion tracks the "missing black" with
// balance_left/balance_right and fuse. Both invariants (no red child of a
// red parent; equal black height on every path) are checked by validate(),
// which the tier-1 RBT test runs after randomized operation sequences.
//
// Step accounting (the paper's model: every RBT node visited or created in
// a GC phase costs one shared step): every descent step and every node
// constructed calls note_rbt_touch(). Color/key peeks at already-visited
// children during rebalancing are not charged again — a constant factor per
// level, as in the paper's accounting. Per-operation visited/created splits
// are exposed through last_op_stats() so tests can assert the tally exactly.
//
// Searches: find() looks up one key; first_where() finds the smallest key in
// a range whose value satisfies a monotone predicate, with the same single
// descent. The bounded queue's archive searches use the latter, so a search
// that crosses a node's floor costs one descent, not one find() per probe.
//
// Memory: nodes are shared_ptr-linked, so structure sharing across versions
// is reference counted and a version's unshared nodes are freed when the
// last root pointing at them is dropped (the bounded queue retires whole
// version handles through its EBR layer; the control-block refcounts make
// concurrent drops safe).
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>

namespace wfq::pbt {

/// Thread-local count of RBT nodes touched (visited or created); mirrors
/// platform::tls_counts() for the tree's part of the step model.
inline uint64_t& tls_rbt_touches_ref() {
  thread_local uint64_t touches = 0;
  return touches;
}

inline uint64_t tls_rbt_touches() { return tls_rbt_touches_ref(); }

inline void note_rbt_touch(uint64_t n = 1) { tls_rbt_touches_ref() += n; }

/// visited/created split of the calling thread's most recent RBT operation
/// (find/first_where/insert/erase); their sum is exactly what it added to
/// tls_rbt_touches, which the RBT unit test asserts.
struct RbtOpStats {
  uint64_t visited = 0;
  uint64_t created = 0;
};

inline RbtOpStats& last_op_stats() {
  thread_local RbtOpStats stats;
  return stats;
}

/// Persistent red-black tree mapping uint64_t keys to values of type V.
/// All operations are static over version roots: they take a root, return
/// a new root, and never mutate shared state, so distinct threads may
/// operate on (distinct or identical) versions without coordination.
template <typename V>
class PersistentRbt {
 public:
  struct Node;
  using Ptr = std::shared_ptr<const Node>;

  struct Node {
    uint64_t key;
    V val;
    bool red;
    Ptr left;
    Ptr right;
  };

  /// The empty version.
  static Ptr empty() { return nullptr; }

  /// Value stored under `key` in this version, or nullptr. The returned
  /// pointer lives as long as any version containing the node does.
  static const V* find(const Ptr& root, uint64_t key) {
    last_op_stats() = {};
    const Node* n = root.get();
    while (n != nullptr) {
      visit();
      if (key < n->key) {
        n = n->left.get();
      } else if (key > n->key) {
        n = n->right.get();
      } else {
        return &n->val;
      }
    }
    return nullptr;
  }

  /// The node with the smallest key in [lo, hi] whose value satisfies
  /// `pred`, or nullptr if none does. `pred` must be monotone over that
  /// range in key order (false up to some key, true from it on), so one
  /// root-to-leaf descent decides it: a node in range whose value is true
  /// is a candidate and the search continues left, a false one sends it
  /// right. Each node visited is one touch, at most the tree's height.
  template <typename Pred>
  static const Node* first_where(const Ptr& root, uint64_t lo, uint64_t hi,
                                 Pred&& pred) {
    last_op_stats() = {};
    const Node* best = nullptr;
    const Node* n = root.get();
    while (n != nullptr) {
      visit();
      if (n->key < lo) {
        n = n->right.get();
      } else if (n->key > hi) {
        n = n->left.get();
      } else if (pred(n->val)) {
        best = n;
        n = n->left.get();
      } else {
        n = n->right.get();
      }
    }
    return best;
  }

  /// New version with key -> val (insert-or-assign). O(log n) created
  /// nodes; the old version is untouched.
  static Ptr insert(const Ptr& root, uint64_t key, V val) {
    last_op_stats() = {};
    return blacken(ins(root, key, std::move(val)));
  }

  /// New version without `key`; returns the old root unchanged (and charges
  /// only the lookup) when the key is absent — the delete rebalancing below
  /// is only sound for keys actually present.
  static Ptr erase(const Ptr& root, uint64_t key) {
    if (find(root, key) == nullptr) return root;
    // find() reset the per-op stats and charged the lookup; del() keeps
    // accumulating onto it, so the whole erase reads as one operation.
    return blacken(del(root, key));
  }

  /// Number of keys (walks the whole version; test/debug only, uncounted).
  static size_t size(const Ptr& root) {
    if (!root) return 0;
    return 1 + size(root->left) + size(root->right);
  }

  /// Checks the red-black and BST invariants, returning the black height.
  /// Throws std::logic_error on violation (test/debug only, uncounted).
  static int validate(const Ptr& root) {
    if (is_red(root)) throw std::logic_error("rbt: red root");
    return check(root.get(), nullptr, nullptr);
  }

  /// In-order key traversal (test/debug only, uncounted).
  template <typename F>
  static void for_each(const Ptr& root, F&& f) {
    if (!root) return;
    for_each(root->left, f);
    f(root->key, root->val);
    for_each(root->right, f);
  }

 private:
  // --- step accounting -----------------------------------------------------

  static void visit() {
    ++last_op_stats().visited;
    note_rbt_touch();
  }

  static Ptr mk(bool red, Ptr left, uint64_t key, V val, Ptr right) {
    ++last_op_stats().created;
    note_rbt_touch();
    return std::make_shared<const Node>(Node{
        key, std::move(val), red, std::move(left), std::move(right)});
  }

  /// Copy of `src`'s key/value with new color and children.
  static Ptr mk_from(bool red, Ptr left, const Ptr& src, Ptr right) {
    return mk(red, std::move(left), src->key, src->val, std::move(right));
  }

  static bool is_red(const Ptr& n) { return n != nullptr && n->red; }
  static bool is_black_node(const Ptr& n) { return n != nullptr && !n->red; }

  static Ptr paint(const Ptr& n, bool red) {
    return mk(red, n->left, n->key, n->val, n->right);
  }

  // --- insert (Okasaki) ----------------------------------------------------

  static Ptr blacken(const Ptr& n) {
    if (n == nullptr || !n->red) return n;
    return paint(n, false);
  }

  static Ptr ins(const Ptr& t, uint64_t key, V val) {
    if (t == nullptr) return mk(true, nullptr, key, std::move(val), nullptr);
    visit();
    if (key == t->key)  // assign: path-copied node with the new value
      return mk(t->red, t->left, key, std::move(val), t->right);
    if (!t->red) {
      if (key < t->key)
        return balance(ins(t->left, key, std::move(val)), t, t->right);
      return balance(t->left, t, ins(t->right, key, std::move(val)));
    }
    if (key < t->key)
      return mk_from(true, ins(t->left, key, std::move(val)), t, t->right);
    return mk_from(true, t->left, t, ins(t->right, key, std::move(val)));
  }

  /// The five-case rebalance of a black node `t` rebuilt with children
  /// (l, r): absorbs any red-red violation one of them carries (insert) or
  /// the red-pushed configurations produced by delete's balance_left/right.
  static Ptr balance(const Ptr& l, const Ptr& t, const Ptr& r) {
    if (is_red(l) && is_red(r))  // color flip: push the red up
      return mk_from(true, paint(l, false), t, paint(r, false));
    if (is_red(l) && is_red(l->left))
      return mk_from(true, paint(l->left, false), l,
                     mk_from(false, l->right, t, r));
    if (is_red(l) && is_red(l->right))
      return mk_from(true, mk_from(false, l->left, l, l->right->left),
                     l->right, mk_from(false, l->right->right, t, r));
    if (is_red(r) && is_red(r->right))
      return mk_from(true, mk_from(false, l, t, r->left), r,
                     paint(r->right, false));
    if (is_red(r) && is_red(r->left))
      return mk_from(true, mk_from(false, l, t, r->left->left), r->left,
                     mk_from(false, r->left->right, r, r->right));
    return mk_from(false, l, t, r);
  }

  // --- delete (Kahrs) ------------------------------------------------------

  static Ptr del(const Ptr& t, uint64_t key) {
    // Caller guarantees the key is present, so t is never null here.
    visit();
    if (key < t->key) {
      if (is_black_node(t->left))
        return balance_left(del(t->left, key), t, t->right);
      return mk_from(true, del(t->left, key), t, t->right);
    }
    if (key > t->key) {
      if (is_black_node(t->right))
        return balance_right(t->left, t, del(t->right, key));
      return mk_from(true, t->left, t, del(t->right, key));
    }
    return fuse(t->left, t->right);
  }

  /// Left subtree `l` just lost a black node; restore the invariant using
  /// the (untouched) right sibling `r`. `t` supplies the parent key/value.
  static Ptr balance_left(const Ptr& l, const Ptr& t, const Ptr& r) {
    if (is_red(l)) return mk_from(true, paint(l, false), t, r);
    if (is_black_node(r)) return balance(l, t, paint(r, true));
    // r is red with a black left child (invariant of a valid RB tree).
    const Ptr& rl = r->left;
    return mk_from(true, mk_from(false, l, t, rl->left), rl,
                   balance(rl->right, r, paint(r->right, true)));
  }

  static Ptr balance_right(const Ptr& l, const Ptr& t, const Ptr& r) {
    if (is_red(r)) return mk_from(true, l, t, paint(r, false));
    if (is_black_node(l)) return balance(paint(l, true), t, r);
    // l is red with a black right child.
    const Ptr& lr = l->right;
    return mk_from(true, balance(paint(l->left, true), l, lr->left), lr,
                   mk_from(false, lr->right, t, r));
  }

  /// Joins the two subtrees of a removed node into one tree with the same
  /// black height on the outside (possibly red-rooted; callers rebalance).
  static Ptr fuse(const Ptr& l, const Ptr& r) {
    if (l == nullptr) return r;
    if (r == nullptr) return l;
    if (l->red && r->red) {
      Ptr m = fuse(l->right, r->left);
      if (is_red(m))
        return mk_from(true, mk_from(true, l->left, l, m->left), m,
                       mk_from(true, m->right, r, r->right));
      return mk_from(true, l->left, l, mk_from(true, m, r, r->right));
    }
    if (!l->red && !r->red) {
      Ptr m = fuse(l->right, r->left);
      if (is_red(m))
        return mk_from(true, mk_from(false, l->left, l, m->left), m,
                       mk_from(false, m->right, r, r->right));
      return balance_left(l->left, l, mk_from(false, m, r, r->right));
    }
    if (r->red) return mk_from(true, fuse(l, r->left), r, r->right);
    return mk_from(true, l->left, l, fuse(l->right, r));
  }

  // --- validation ----------------------------------------------------------

  static int check(const Node* n, const uint64_t* lo, const uint64_t* hi) {
    if (n == nullptr) return 1;  // null leaves are black
    if (lo != nullptr && !(*lo < n->key))
      throw std::logic_error("rbt: BST order violated (left)");
    if (hi != nullptr && !(n->key < *hi))
      throw std::logic_error("rbt: BST order violated (right)");
    if (n->red && (is_red(n->left) || is_red(n->right)))
      throw std::logic_error("rbt: red node with red child");
    int bl = check(n->left.get(), lo, &n->key);
    int br = check(n->right.get(), &n->key, hi);
    if (bl != br) throw std::logic_error("rbt: unequal black heights");
    return bl + (n->red ? 0 : 1);
  }
};

}  // namespace wfq::pbt
