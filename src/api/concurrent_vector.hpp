// The vector half of the multi-object API seam (ISSUE 5 tentpole, part 3):
//
//  - wfq::api::ConcurrentVector<V, T>: the C++20 concept formalizing the
//    bind_thread/append/get/size contract shared by the ordering-tree
//    vector and the flat-FAA baseline, over both Real and Sim platforms.
//  - wfq::api::AnyVector<T>: a type-erased owning handle, the vector
//    sibling of AnyQueue<T>, so registries, experiment sweeps and
//    conformance tests can hold "some vector" chosen at runtime by name
//    (see the vector section of queue_registry.hpp). AnyVector<T> itself
//    satisfies ConcurrentVector<T>.
//
// Semantics the concept implies: append is total and returns the (0-based)
// index the value landed at — indices are dense and permanent; get(i)
// returns nullopt past the current end (the flat baseline may also return
// nullopt inside a claimed-but-unpublished window; the tree vector never
// does); size() is the number of appends linearized so far.
#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "api/concurrent_queue.hpp"

namespace wfq::api {

template <typename V, typename T = uint64_t>
concept ConcurrentVector = requires(V v, T x, int pid, int64_t i) {
  v.bind_thread(pid);
  { v.append(std::move(x)) } -> std::same_as<int64_t>;
  { v.get(i) } -> std::same_as<std::optional<T>>;
  { v.size() } -> std::same_as<int64_t>;
};

/// Type-erased owning handle over any ConcurrentVector implementation.
/// Construct with AnyVector<T>::of<Impl>(name, ctor args...); the impl is
/// built in place (vector types hold atomics, so they are neither copyable
/// nor movable).
template <typename T>
class AnyVector {
 public:
  AnyVector() = default;
  AnyVector(AnyVector&&) noexcept = default;
  AnyVector& operator=(AnyVector&&) noexcept = default;

  template <typename V, typename... Args>
    requires ConcurrentVector<V, T>
  static AnyVector of(std::string name, Args&&... args) {
    AnyVector a;
    a.impl_ = std::make_unique<Impl<V>>(std::forward<Args>(args)...);
    a.name_ = std::move(name);
    return a;
  }

  void bind_thread(int pid) { impl_->bind_thread(pid); }
  int64_t append(T x) { return impl_->append(std::move(x)); }
  std::optional<T> get(int64_t i) { return impl_->get(i); }
  int64_t size() { return impl_->size(); }

  /// Block-space snapshot, same contract as AnyQueue::space_stats;
  /// `known == false` for the flat baseline.
  SpaceStats space_stats() const { return impl_->space_stats(); }

  /// Registry name the handle was created under ("" if default-constructed).
  const std::string& name() const { return name_; }
  explicit operator bool() const { return impl_ != nullptr; }

 private:
  struct Iface {
    virtual ~Iface() = default;
    virtual void bind_thread(int pid) = 0;
    virtual int64_t append(T x) = 0;
    virtual std::optional<T> get(int64_t i) = 0;
    virtual int64_t size() = 0;
    virtual SpaceStats space_stats() const = 0;
  };

  template <typename V>
  struct Impl final : Iface {
    template <typename... Args>
    explicit Impl(Args&&... args) : v(std::forward<Args>(args)...) {}
    void bind_thread(int pid) override { v.bind_thread(pid); }
    int64_t append(T x) override { return v.append(std::move(x)); }
    std::optional<T> get(int64_t i) override { return v.get(i); }
    int64_t size() override { return v.size(); }
    SpaceStats space_stats() const override {
      if constexpr (requires { v.space(); }) {
        auto s = v.space();
        return {s.live_blocks, s.ebr_retired, true};
      } else {
        return {};
      }
    }
    V v;
  };

  std::unique_ptr<Iface> impl_;
  std::string name_;
};

static_assert(ConcurrentVector<AnyVector<uint64_t>, uint64_t>,
              "AnyVector must satisfy the concept it erases");

}  // namespace wfq::api
