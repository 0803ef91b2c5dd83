// The API seam every queue variant plugs into (ISSUE 3 tentpole):
//
//  - wfq::api::ConcurrentQueue<Q, T>: the C++20 concept that formalizes the
//    previously informal bind_thread/enqueue/dequeue convention shared by
//    the ordering-tree queue and every baseline, over both Real and Sim
//    platforms.
//  - wfq::api::AnyQueue<T>: a type-erased owning handle so registries,
//    experiment sweeps and conformance tests can hold "some queue" chosen
//    at runtime by name (see queue_registry.hpp) without templates leaking
//    into bench code. AnyQueue<T> itself satisfies ConcurrentQueue<T>.
//
// The virtual hop costs a few ns per op; experiments that measure shared-
// memory *steps* are unaffected (step counts are taken inside the platform
// layer), and wall-clock experiments (E9) pay it uniformly for every queue.
#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>

namespace wfq::api {

/// A FIFO queue usable from concurrently bound threads: `bind_thread(pid)`
/// pins the calling thread to process slot `pid` (leaf index for the
/// ordering-tree queues, ignored by baselines that need no pinning),
/// `enqueue` is total, and `dequeue` returns nullopt iff the queue was
/// observably empty.
template <typename Q, typename T = uint64_t>
concept ConcurrentQueue = requires(Q q, T v, int pid) {
  q.bind_thread(pid);
  q.enqueue(std::move(v));
  { q.dequeue() } -> std::same_as<std::optional<T>>;
};

/// Space introspection snapshot surfaced through AnyQueue so the space
/// experiments (E6/E8) can sweep queues by registry name: `live_blocks`
/// counts reachable blocks (array suffixes + archived RBT entries for the
/// bounded queue, total appended blocks for the unbounded one) and
/// `ebr_retired` the reclamation backlog (core::Space). `known` is false
/// for objects with no `space()` member (baselines), whose rows read "-".
struct SpaceStats {
  uint64_t live_blocks = 0;
  uint64_t ebr_retired = 0;
  bool known = false;
};

/// Type-erased owning handle over any ConcurrentQueue implementation.
/// Construct with AnyQueue<T>::of<Impl>(name, ctor args...); the impl is
/// built in place (queue types are neither copyable nor movable — they
/// hold atomics and mutexes).
template <typename T>
class AnyQueue {
 public:
  AnyQueue() = default;
  AnyQueue(AnyQueue&&) noexcept = default;
  AnyQueue& operator=(AnyQueue&&) noexcept = default;

  template <typename Q, typename... Args>
    requires ConcurrentQueue<Q, T>
  static AnyQueue of(std::string name, Args&&... args) {
    AnyQueue a;
    a.impl_ = std::make_unique<Impl<Q>>(std::forward<Args>(args)...);
    a.name_ = std::move(name);
    return a;
  }

  void bind_thread(int pid) { impl_->bind_thread(pid); }
  void enqueue(T x) { impl_->enqueue(std::move(x)); }
  std::optional<T> dequeue() { return impl_->dequeue(); }

  /// A run: enqueues `enqs` in order (moved from), then one dequeue per
  /// slot of `deqs`, in order, each slot receiving its result. Queues with
  /// their own run() (the ordering-tree queues, which propagate the whole
  /// run in one walk) take it as one call; the rest loop enqueue/dequeue.
  void run(std::span<T> enqs, std::span<std::optional<T>> deqs) {
    impl_->run(enqs, deqs);
  }

  /// Block-space snapshot (uncounted); `known == false` when the wrapped
  /// implementation exposes no space introspection. Safe from any thread
  /// at any time, exact at quiescence (core::Space states the contract).
  SpaceStats space_stats() const { return impl_->space_stats(); }

  /// Registry name the handle was created under ("" if default-constructed).
  const std::string& name() const { return name_; }
  explicit operator bool() const { return impl_ != nullptr; }

 private:
  struct Iface {
    virtual ~Iface() = default;
    virtual void bind_thread(int pid) = 0;
    virtual void enqueue(T x) = 0;
    virtual std::optional<T> dequeue() = 0;
    virtual void run(std::span<T> enqs, std::span<std::optional<T>> deqs) = 0;
    virtual SpaceStats space_stats() const = 0;
  };

  template <typename Q>
  struct Impl final : Iface {
    template <typename... Args>
    explicit Impl(Args&&... args) : q(std::forward<Args>(args)...) {}
    void bind_thread(int pid) override { q.bind_thread(pid); }
    void enqueue(T x) override { q.enqueue(std::move(x)); }
    std::optional<T> dequeue() override { return q.dequeue(); }
    void run(std::span<T> enqs, std::span<std::optional<T>> deqs) override {
      if constexpr (requires { q.run(enqs, deqs); }) {
        q.run(enqs, deqs);
      } else {
        for (T& x : enqs) q.enqueue(std::move(x));
        for (std::optional<T>& out : deqs) out = q.dequeue();
      }
    }
    SpaceStats space_stats() const override {
      if constexpr (requires { q.space(); }) {
        auto s = q.space();
        return {s.live_blocks, s.ebr_retired, true};
      } else {
        return {};
      }
    }
    Q q;
  };

  std::unique_ptr<Iface> impl_;
  std::string name_;
};

static_assert(ConcurrentQueue<AnyQueue<uint64_t>, uint64_t>,
              "AnyQueue must satisfy the concept it erases");

}  // namespace wfq::api
