// Shard map for the broker daemon: N backing objects built through the api
// seam. The backing key is one a daemon can run forever on (check_backing):
// a tree queue ("ubq", "bounded:g=64") or a dwrr service over one
// ("dwrr:4:bounded"), resolved with the same strict parsers the seam uses
// everywhere, so malformed keys fail at construction with the registry's
// own messages, not at first traffic.
//
// Routing: shard_of(key) = splitmix64(key) % nshards. Inside a dwrr-backed
// shard, key % ntenants picks the tenant — so one client key always lands
// on one shard AND one tenant, which is what makes per-key FIFO a testable
// broker property.
//
// Threading contract: every backing is a `procs`-process object, and each
// thread that calls enqueue/dequeue binds its own process slot first
// (bind_servicer(s, pid), pid < procs; the broker's event loop i is slot i
// on every shard). Queue backings are then used concurrently as the
// paper's p-process queue. A dwrr backing's enqueue is multi-producer, and
// its service_next serializes on the facade's own lock, so dequeue is one
// call either way. space_stats() and tenant_rows() read uncounted,
// race-free surfaces and may be called from any thread at any time.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/queue_registry.hpp"
#include "api/service_registry.hpp"
#include "core/hash.hpp"
#include "svc/service.hpp"

namespace wfq::broker {

/// Shard-routing mix: the shared splitmix64 finisher (core/hash.hpp) —
/// cheap, well-mixed, deterministic across runs, so the shard route of a
/// key is stable and FIFO-per-key is meaningful.
inline uint64_t mix_key(uint64_t x) { return core::splitmix64(x); }

/// The one routing formula: the shard of `key` among `nshards`.
inline int shard_of(uint32_t key, int nshards) {
  return static_cast<int>(mix_key(key) % static_cast<uint64_t>(nshards));
}

/// Most shards a map may have (ShardMap, the replicated config entry and
/// the broker's --shards flag all check this one bound).
inline constexpr int kMaxShards = 4096;

/// Ceiling on the ordering-tree nodes a map builds per tenant queue, summed
/// over its shards. A backing for p processes is a tree of
/// 2 * bit_ceil(p) - 1 nodes, each holding about 0.8 KB even when idle (the
/// node, its first index segment and its share of the tree's pools), so
/// memory grows with shards x procs; this caps it at about 26 MB per tenant
/// queue.
inline constexpr int64_t kMaxTreeNodes = int64_t{1} << 15;

/// The most processes a map of `nshards` shards may be built for: the
/// largest power of two p with nshards * (2p - 1) <= kMaxTreeNodes.
inline int max_procs(int nshards) {
  return static_cast<int>(std::bit_floor(
      static_cast<uint64_t>((kMaxTreeNodes / std::max(nshards, 1) + 1) / 2)));
}

/// Throws std::invalid_argument unless procs is in [1, max_procs(nshards)].
inline void check_procs(int nshards, int procs) {
  if (procs >= 1 && procs <= max_procs(nshards)) return;
  throw std::invalid_argument(
      "broker::ShardMap: " + std::to_string(procs) +
      " process slots (event loops) over " + std::to_string(nshards) +
      " shards is out of range; at most " + std::to_string(max_procs(nshards)) +
      " at this shard count (tree nodes per tenant queue are capped at " +
      std::to_string(kMaxTreeNodes) + ")");
}

/// Throws std::invalid_argument unless `key` is a backing a daemon can run
/// forever on: ubq, bounded[:g=<G>], or dwrr:<n>: over one of them. The
/// rest of the roster stays for the experiments: msq, kp and simq never
/// free memory during operation, faaq exhausts its fixed cell array, and
/// twolock and mutex take locks.
inline void check_backing(const std::string& key) {
  const std::optional<api::ServiceKey> sk = api::parse_service_key(key);
  const std::string& queue = sk ? sk->backing : key;
  const std::string base = queue.substr(0, queue.find(':'));
  if (base != "ubq" && base != "bounded")
    throw std::invalid_argument(
        "broker: backing \"" + key +
        "\" cannot serve forever; want ubq, bounded[:g=<G>] or "
        "dwrr:<n>:<one of those>");
  (void)api::queue_info(queue);  // the registry's message for bad params
}

/// One tenant row of a STAT report (dwrr-backed shards only).
struct TenantRow {
  int tenant = 0;
  uint32_t weight = 1;
  uint64_t enqueued = 0;
  uint64_t serviced = 0;
};

class ShardMap {
 public:
  /// Builds `nshards` backings of `backing_key` (check_backing) for `procs`
  /// processes (check_procs bounds procs by the shard count). The int64_t
  /// sizes nothing, since no accepted backing has a fixed capacity; it
  /// stays because the frozen benchmark's shard replay passes an op count.
  ShardMap(int nshards, const std::string& backing_key, int64_t,
           int procs = 1) {
    if (nshards < 1 || nshards > kMaxShards)
      throw std::invalid_argument(
          "broker::ShardMap: shard count must be in [1, " +
          std::to_string(kMaxShards) + "] (got " + std::to_string(nshards) +
          ")");
    check_procs(nshards, procs);
    check_backing(backing_key);
    backing_ = backing_key;
    const api::QueueConfig cfg{.procs = procs};
    if (auto sk = api::parse_service_key(backing_key)) {
      ntenants_ = sk->ntenants;
      for (int s = 0; s < nshards; ++s)
        services_.push_back(api::make_service<uint64_t>(backing_key, cfg));
    } else {
      for (int s = 0; s < nshards; ++s)
        queues_.push_back(api::make_queue<uint64_t>(backing_key, cfg));
    }
    nshards_ = nshards;
  }

  int shards() const { return nshards_; }
  const std::string& backing() const { return backing_; }
  bool service_backed() const { return !services_.empty(); }
  int tenants_per_shard() const { return ntenants_; }

  int shard_of(uint32_t key) const { return broker::shard_of(key, nshards_); }

  /// Per-thread setup: binds the calling thread to process slot `pid` on
  /// shard `s`'s backing.
  void bind_servicer(int s, int pid = 0) {
    if (service_backed())
      services_[static_cast<size_t>(s)].bind_thread(pid);
    else
      queues_[static_cast<size_t>(s)].bind_thread(pid);
  }

  /// One ENQ on shard `s` for routing key `key` (caller bound a slot on
  /// `s`); the broker itself serves through run().
  void enqueue(int s, uint32_t key, uint64_t v) {
    if (service_backed())
      services_[static_cast<size_t>(s)].enqueue(
          static_cast<int>(key % static_cast<uint32_t>(ntenants_)), v);
    else
      queues_[static_cast<size_t>(s)].enqueue(v);
  }

  /// DEQ on shard `s`: FIFO for queue backings; DWRR service order for
  /// service backings (the key routed here but the scheduler picks the
  /// tenant). `tenant_out` reports which tenant was served (-1 for queues).
  std::optional<uint64_t> dequeue(int s, int& tenant_out) {
    if (service_backed()) {
      auto got = services_[static_cast<size_t>(s)].service_next();
      if (!got) return std::nullopt;
      tenant_out = got->tenant;
      return got->value;
    }
    tenant_out = -1;
    return queues_[static_cast<size_t>(s)].dequeue();
  }

  /// One run's buffers (see run): the ENQs' routing keys and values in
  /// request order, then one result slot per DEQ. A caller keeps one and
  /// reuses it, so a run allocates nothing once the buffers have grown.
  struct Run {
    std::vector<uint32_t> keys;
    std::vector<uint64_t> vals;
    std::vector<std::optional<uint64_t>> got;
    std::vector<int> tenants;  // the tenant each DEQ served; -1 on queues

    void clear() {
      keys.clear();
      vals.clear();
      got.clear();
    }
  };

  /// The broker's ENQ/DEQ call: runs `r`'s ENQs on shard `s` in order, then
  /// its got.size() DEQs, filling got and tenants (caller bound a slot on
  /// `s`). A queue shard takes the run as one AnyQueue::run, which its tree
  /// propagates in one walk; a dwrr shard loops its facade's per-item
  /// enqueue and service_next.
  void run(int s, Run& r) {
    r.tenants.assign(r.got.size(), -1);
    if (!service_backed()) {
      queues_[static_cast<size_t>(s)].run(r.vals, r.got);
      return;
    }
    svc::ServiceFacade<uint64_t>& f = services_[static_cast<size_t>(s)];
    for (size_t i = 0; i < r.vals.size(); ++i)
      f.enqueue(static_cast<int>(r.keys[i] % static_cast<uint32_t>(ntenants_)),
                r.vals[i]);
    for (size_t i = 0; i < r.got.size(); ++i) {
      auto got = f.service_next();
      r.got[i] = got ? std::optional<uint64_t>(got->value) : std::nullopt;
      if (got) r.tenants[i] = got->tenant;
    }
  }

  /// Space snapshot of shard `s`'s backing (AnyQueue::space_stats
  /// contract: any thread, exact at quiescence).
  api::SpaceStats space_stats(int s) const {
    if (service_backed())
      return services_[static_cast<size_t>(s)].space_stats();
    return queues_[static_cast<size_t>(s)].space_stats();
  }

  /// Sets tenant `t`'s DWRR weight on EVERY shard. Safe from any thread
  /// (the facade's set_weight is an atomic store the schedulers read at
  /// their next refresh) — the raft apply path calls this from the raft
  /// thread while the loops run. No-op for queue backings or out-of-range
  /// tenants; returns whether it applied.
  bool set_weight_all(int t, uint32_t w) {
    if (!service_backed() || t < 0 || t >= ntenants_ || w == 0) return false;
    for (auto& svc : services_) svc.set_weight(t, w);
    return true;
  }

  /// Per-tenant counters of shard `s` (dwrr backings; empty for queues).
  /// Safe from any thread: reads the facade's atomic snapshot counters.
  std::vector<TenantRow> tenant_rows(int s) const {
    std::vector<TenantRow> rows;
    if (!service_backed()) return rows;
    const svc::ServiceFacade<uint64_t>& f = services_[static_cast<size_t>(s)];
    for (int t = 0; t < ntenants_; ++t) {
      auto st = f.tenant_stats(t);
      rows.push_back({t, st.weight, st.enqueued, st.serviced});
    }
    return rows;
  }

 private:
  std::string backing_;
  int nshards_ = 0;
  int ntenants_ = 0;
  std::vector<api::AnyQueue<uint64_t>> queues_;
  std::vector<svc::ServiceFacade<uint64_t>> services_;
};

}  // namespace wfq::broker
