// ServiceFacade: the one object E13 and user code talk to — owns the
// TenantMap and the DwrrScheduler, exposes enqueue(tenant, v) /
// service_next() plus per-tenant counters. Producers and the servicer
// first bind_thread(pid) like on any registry object; the facade re-binds
// the backing queues lazily on each call because one logical tenant queue
// is touched by many threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "svc/dwrr.hpp"
#include "svc/tenant_map.hpp"

namespace wfq::svc {

template <typename T>
class ServiceFacade {
 public:
  ServiceFacade(int ntenants, const std::string& backing_key,
                const api::QueueConfig& cfg, int64_t quantum_base = 1)
      : map_(std::make_unique<TenantMap<T>>(ntenants, backing_key, cfg)),
        sched_(std::make_unique<DwrrScheduler<T>>(*map_, quantum_base)) {}

  // Movable (unique_ptr members keep the scheduler's reference into the
  // map valid across moves), not copyable.
  ServiceFacade(ServiceFacade&&) noexcept = default;
  ServiceFacade& operator=(ServiceFacade&&) noexcept = default;

  /// Bind the calling thread to a process slot, like AnyQueue::bind_thread;
  /// the slot is forwarded to every backing-queue op this thread performs.
  void bind_thread(int pid) {
    std::vector<int>& binds = thread_binds();
    if (bind_id_ >= binds.size()) binds.resize(bind_id_ + 1, 0);
    binds[bind_id_] = pid;
  }

  /// Producer op: enqueue v for `tenant`. The order here is the whole
  /// correctness story — backing enqueue, then the completed-enqueue
  /// counter, then activation (see dwrr.hpp's header comment).
  void enqueue(int tenant, T v) {
    TenantEntry<T>& e = map_->entry(tenant);
    e.queue.bind_thread(bound_pid());
    e.queue.enqueue(std::move(v));
    e.enqueued.fetch_add(1, std::memory_order_release);
    sched_->notify_enqueue(tenant);
  }

  /// Servicer op (single thread): next item in DWRR order.
  std::optional<Serviced<T>> service_next() {
    return sched_->service_next(bound_pid());
  }

  void set_weight(int tenant, uint32_t w) { map_->set_weight(tenant, w); }

  int tenants() const { return map_->size(); }
  const std::string& backing() const { return map_->backing(); }

  struct TenantStats {
    uint32_t weight = 1;
    uint64_t enqueued = 0;
    uint64_t serviced = 0;
    int64_t deficit = 0;
    bool active = false;
  };

  /// Snapshot of one tenant's counters. Exact when the servicer is quiesced
  /// (how the tests read it); a race-free monotone under-estimate mid-flight
  /// (serviced/deficit are relaxed atomics, single-writer on the servicer).
  TenantStats tenant_stats(int tenant) const {
    const TenantEntry<T>& e = map_->entry(tenant);
    return TenantStats{e.weight.load(std::memory_order_relaxed),
                       e.enqueued.load(std::memory_order_acquire),
                       e.serviced.load(std::memory_order_relaxed),
                       e.deficit.load(std::memory_order_relaxed),
                       e.active.load(std::memory_order_acquire)};
  }

  uint64_t total_serviced() const {
    uint64_t total = 0;
    for (int t = 0; t < map_->size(); ++t)
      total += map_->entry(t).serviced.load(std::memory_order_relaxed);
    return total;
  }

  /// Aggregate over every tenant's backing queue: summed live blocks and
  /// EBR backlog. `known` only when every backing reports — a mixed or
  /// baseline-backed facade must read "-", not a partial sum that looks
  /// total. This is the surface the broker's STAT opcode and --report
  /// expose, so E6-style space gates can be read from a live process.
  api::SpaceStats space_stats() const {
    api::SpaceStats total;
    total.known = true;
    for (int t = 0; t < map_->size(); ++t) {
      api::SpaceStats s = map_->entry(t).queue.space_stats();
      total.live_blocks += s.live_blocks;
      total.ebr_retired += s.ebr_retired;
      total.known = total.known && s.known;
    }
    return total;
  }

  uint64_t rounds() const { return sched_->rounds(); }
  double round_service_estimate() const {
    return sched_->round_service_estimate();
  }

 private:
  /// Per-(facade, thread) binding: each facade gets a never-reused id and
  /// each thread keeps its own pid table indexed by that id, so a thread
  /// that binds different pids on two facades does not clobber one binding
  /// with the other (a single static thread_local would), and a lookup is
  /// one load however many facades the thread has bound (a broker loop
  /// binds every shard's). Ids survive moves (the moved-from facade keeps
  /// the value but its map_ is null, so it is unusable anyway) and are
  /// never recycled, so a new facade can't inherit a stale binding. A
  /// thread's table holds one int per facade id up to the highest it bound;
  /// an unbound facade reads pid 0.
  static size_t next_bind_id() {
    static std::atomic<size_t> n{0};
    return n.fetch_add(1, std::memory_order_relaxed);
  }

  static std::vector<int>& thread_binds() {
    static thread_local std::vector<int> binds;
    return binds;
  }

  int bound_pid() const {
    const std::vector<int>& binds = thread_binds();
    return bind_id_ < binds.size() ? binds[bind_id_] : 0;
  }

  std::unique_ptr<TenantMap<T>> map_;
  std::unique_ptr<DwrrScheduler<T>> sched_;
  size_t bind_id_ = next_bind_id();
};

}  // namespace wfq::svc
