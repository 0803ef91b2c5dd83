// ServiceFacade: deficit-weighted round robin (DWRR; Shreedhar and
// Varghese, SIGCOMM '95) over N registry-built tenant queues, in one object
// — the tenant table, the active ring, the activation stack and the round
// estimate, in the spirit of MQ-ECN's dwrr.cc (SNIPPETS §1), reshaped from
// a packet switch into a dequeue-service loop over wait-free queues. E13,
// the broker and user code all talk to it.
//
// Model: any number of producer threads enqueue(tenant, v) into per-tenant
// backing queues without a lock; any thread may call service_next(), and
// those calls serialize on the facade's own mutex, so the scheduler state
// behind it is plain data. Each call drains tenants in DWRR order: each
// visit grants the front tenant a quantum of `weight` items, the tenant is
// served until its deficit runs out (rotate to tail, deficit carries) or
// its queue goes empty (deactivate, deficit resets — an empty queue must
// not bank credit, the classic DWRR rule).
//
// Activation protocol (the producer/servicer seam): a producer that takes a
// tenant's `active` flag false->true pushes the tenant onto a Treiber stack
// of ids; the servicer drains that stack (reversed, so activation order is
// enqueue order) into the tail of its ring. Deactivation stores
// active=false and then RE-CHECKS the pending count — a producer that saw
// active==true while the servicer was concurrently deactivating did not
// push, so the servicer must claim the flag back and re-activate, or the
// tenant's items would strand. The store-then-recheck against the
// producer's increment-then-exchange is Dekker-shaped (the SB litmus: two
// threads each store then load; release/acquire alone allows BOTH loads to
// read old values, e.g. on x86 via store-buffer forwarding), so each side
// puts a seq_cst fence between its store and its load — see the fences in
// enqueue and deactivate_front; the total fence order guarantees at least
// one side observes the other's store. `enqueued` is incremented only
// after the backing enqueue completed, so pending > 0 guarantees a fresh
// dequeue observes a value (only the lock holder removes items) — an empty
// dequeue with pending > 0 is a stale read and is simply retried.
//
// Producers and servicers first bind_thread(pid) like on any registry
// object; the facade re-binds the backing queues on each call because one
// logical tenant queue is touched by many threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/concurrent_queue.hpp"
#include "api/queue_registry.hpp"

namespace wfq::svc {

/// One serviced item: which tenant it came from plus the value.
template <typename T>
struct Serviced {
  int tenant = -1;
  T value{};
};

template <typename T>
class ServiceFacade {
 public:
  ServiceFacade(int ntenants, const std::string& backing_key,
                const api::QueueConfig& cfg) {
    if (ntenants < 1)
      throw std::invalid_argument(
          "svc::ServiceFacade: tenant count must be >= 1 (got " +
          std::to_string(ntenants) + ")");
    s_ = std::make_unique<State>(ntenants, backing_key);
    for (int t = 0; t < ntenants; ++t)
      s_->tenants[static_cast<size_t>(t)].queue =
          api::make_queue<T>(backing_key, cfg);
  }

  // Movable (the state, with its mutex and atomics, stays put behind the
  // unique_ptr), not copyable.
  ServiceFacade(ServiceFacade&&) noexcept = default;
  ServiceFacade& operator=(ServiceFacade&&) noexcept = default;

  /// Bind the calling thread to a process slot, like AnyQueue::bind_thread;
  /// the slot is forwarded to every backing-queue op this thread performs.
  void bind_thread(int pid) {
    std::vector<int>& binds = thread_binds();
    if (bind_id_ >= binds.size()) binds.resize(bind_id_ + 1, 0);
    binds[bind_id_] = pid;
  }

  /// Producer op, lock-free: enqueue v for `tenant`. The order here is the
  /// whole correctness story — backing enqueue, then the completed-enqueue
  /// counter, then activation (see the header comment).
  void enqueue(int tenant, T v) {
    Tenant& e = entry(tenant);
    e.queue.bind_thread(bound_pid());
    e.queue.enqueue(std::move(v));
    e.enqueued.fetch_add(1, std::memory_order_release);
    // Producer half of the deactivation handshake: the increment above
    // must be globally ordered before this read of `active`, or the
    // exchange could read a stale true while the deactivating servicer's
    // pending re-check misses the increment — neither side activates and
    // the item strands. The loser of the exchange does nothing: the tenant
    // is already in the ring or on the activation stack.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!e.active.exchange(true, std::memory_order_acq_rel))
      push_activation(tenant);
  }

  /// Servicer op, any thread (calls serialize on the facade's lock): the
  /// next item under DWRR order, or nullopt when no tenant has serviceable
  /// backlog.
  std::optional<Serviced<T>> service_next() {
    std::lock_guard<std::mutex> lk(s_->mu);
    const int pid = bound_pid();
    drain_activations();
    while (!s_->ring.empty()) {
      int t = s_->ring.front();
      Tenant& e = entry(t);
      if (!s_->front_visited) begin_visit(t, e);
      // serviced/deficit are written only under the lock: relaxed RMWs are
      // plain load/op/store pairs, atomic only for stats snapshots.
      if (e.deficit.load(std::memory_order_relaxed) > 0) {
        std::optional<T> v = dequeue_retry(e, pid);
        if (v.has_value()) {
          e.deficit.fetch_sub(1, std::memory_order_relaxed);
          e.serviced.fetch_add(1, std::memory_order_relaxed);
          ++s_->serviced_this_round;
          // End the visit eagerly: drain to empty deactivates, a spent
          // quantum rotates NOW (not lazily on the next call) so tenants
          // activated between calls join the ring behind the rotation —
          // ring order stays activation order, the property the sequential
          // differential vs the reference round-robin model pins down.
          if (pending(e) == 0)
            deactivate_front(t, e);
          else if (e.deficit.load(std::memory_order_relaxed) <= 0)
            rotate_front();
          return Serviced<T>{t, std::move(*v)};
        }
        deactivate_front(t, e);  // observably empty: deficit must not bank
        continue;
      }
      rotate_front();  // quantum spent; remaining deficit carries over
    }
    return std::nullopt;
  }

  /// Weights must stay >= 1: a zero-weight tenant would receive no quantum
  /// and its backlog would sit in the ring forever (DWRR has no concept of
  /// a starved-but-active queue). A relaxed store, safe from any thread:
  /// the servicer re-reads the weight at each visit.
  void set_weight(int tenant, uint32_t w) {
    if (w < 1)
      throw std::invalid_argument(
          "svc::ServiceFacade: weight must be >= 1 (got " + std::to_string(w) +
          " for tenant " + std::to_string(tenant) + ")");
    entry(tenant).weight.store(w, std::memory_order_relaxed);
  }

  int tenants() const { return s_->ntenants; }
  const std::string& backing() const { return s_->backing; }

  struct TenantStats {
    uint32_t weight = 1;
    uint64_t enqueued = 0;
    uint64_t serviced = 0;
    int64_t deficit = 0;
    bool active = false;
  };

  /// Snapshot of one tenant's counters, lock-free. Exact when no
  /// service_next is running (how the tests read it); a race-free monotone
  /// under-estimate mid-flight (serviced/deficit are relaxed atomics
  /// written under the lock).
  TenantStats tenant_stats(int tenant) const {
    const Tenant& e = entry(tenant);
    return TenantStats{e.weight.load(std::memory_order_relaxed),
                       e.enqueued.load(std::memory_order_acquire),
                       e.serviced.load(std::memory_order_relaxed),
                       e.deficit.load(std::memory_order_relaxed),
                       e.active.load(std::memory_order_acquire)};
  }

  uint64_t total_serviced() const {
    uint64_t total = 0;
    for (int t = 0; t < tenants(); ++t)
      total += entry(t).serviced.load(std::memory_order_relaxed);
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
    for (int t = 0; t < tenants(); ++t) {
      api::SpaceStats s = entry(t).queue.space_stats();
      total.live_blocks += s.live_blocks;
      total.ebr_retired += s.ebr_retired;
      total.known = total.known && s.known;
    }
    return total;
  }

  /// Completed ring rotations (a round ends when the marker tenant — the
  /// ring front when the round began — is granted its next quantum).
  uint64_t rounds() const {
    std::lock_guard<std::mutex> lk(s_->mu);
    return s_->rounds;
  }

  /// EWMA (alpha = 0.75, the MQ-ECN estimate_round_alpha_ idiom) of items
  /// serviced per completed round — the service layer's round-time
  /// estimate, in item units rather than the switch's bytes.
  double round_service_estimate() const {
    std::lock_guard<std::mutex> lk(s_->mu);
    return s_->round_estimate;
  }

 private:
  static constexpr int kNone = -1;

  /// Per-tenant state. The queue, `weight`, `enqueued`, `active` and
  /// `act_next` are written from producer threads (the last two also by the
  /// lock holder); `serviced` and `deficit` only under the lock, but are
  /// atomic (relaxed) so stats readers can snapshot them mid-flight without
  /// a data race.
  struct Tenant {
    api::AnyQueue<T> queue;
    /// DWRR weight: the tenant's quantum in items per round.
    std::atomic<uint32_t> weight{1};
    /// Completed enqueues, incremented AFTER the backing enqueue returns —
    /// the ordering the empty-vs-pending disambiguation relies on.
    std::atomic<uint64_t> enqueued{0};
    /// True while the tenant is in the ring or on the activation stack;
    /// the exchange on this flag is what keeps ring entries unique.
    std::atomic<bool> active{false};
    std::atomic<uint64_t> serviced{0};  // items handed out by service_next
    std::atomic<int64_t> deficit{0};    // DWRR deficit, in items
    std::atomic<int> act_next{kNone};   // activation-stack link
  };

  /// Everything behind the one unique_ptr: never relocates, so the atomics,
  /// the mutex and the type-erased queues stay put when the facade moves.
  struct State {
    State(int n, std::string key)
        : backing(std::move(key)),
          ntenants(n),
          tenants(std::make_unique<Tenant[]>(static_cast<size_t>(n))) {}

    const std::string backing;
    const int ntenants;
    const std::unique_ptr<Tenant[]> tenants;  // fixed: no tenant is added

    // Producer-shared activation stack (multi-producer Treiber, whole-stack
    // drain). A tenant id is on it at most once (guarded by its active
    // flag), so one intrusive link per tenant suffices and nothing
    // allocates.
    std::atomic<int> act_head{kNone};

    // Servicer state, guarded by `mu`.
    std::mutex mu;
    std::deque<int> ring;        // active tenants, service order
    bool front_visited = false;  // has the current front received its quantum
    int round_marker = kNone;    // ring front when the current round began
    uint64_t rounds = 0;
    uint64_t serviced_this_round = 0;
    double round_estimate = 0;
  };

  Tenant& entry(int t) const {
    if (t < 0 || t >= s_->ntenants)
      throw std::invalid_argument("svc::ServiceFacade: tenant id " +
                                  std::to_string(t) + " out of range [0, " +
                                  std::to_string(s_->ntenants) + ")");
    return s_->tenants[static_cast<size_t>(t)];
  }

  /// Completed-but-unserviced items. `enqueued` is incremented after its
  /// enqueue returned; `serviced` is written under the lock the caller
  /// holds.
  static uint64_t pending(const Tenant& e) {
    return e.enqueued.load(std::memory_order_acquire) -
           e.serviced.load(std::memory_order_relaxed);
  }

  /// Dequeue that distinguishes "observably empty" from "a producer's
  /// completed enqueue raced past my attempt": with pending > 0 the item is
  /// committed and only the lock holder dequeues, so a retry finds it.
  static std::optional<T> dequeue_retry(Tenant& e, int pid) {
    e.queue.bind_thread(pid);
    for (;;) {
      std::optional<T> v = e.queue.dequeue();
      if (v.has_value() || pending(e) == 0) return v;
    }
  }

  void begin_visit(int t, Tenant& e) {
    State& s = *s_;
    s.front_visited = true;
    e.deficit.fetch_add(e.weight.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    if (t == s.round_marker) {
      // The round marker came back around: one full rotation completed.
      const auto items = static_cast<double>(s.serviced_this_round);
      s.round_estimate =
          s.rounds == 0 ? items : 0.75 * s.round_estimate + 0.25 * items;
      s.serviced_this_round = 0;
      ++s.rounds;
    } else if (s.round_marker == kNone) {
      s.round_marker = t;  // ring was empty (or marker deactivated): new round
    }
  }

  void rotate_front() {
    int t = s_->ring.front();
    s_->ring.pop_front();
    s_->ring.push_back(t);
    s_->front_visited = false;
  }

  void deactivate_front(int t, Tenant& e) {
    s_->ring.pop_front();
    s_->front_visited = false;
    e.deficit.store(0, std::memory_order_relaxed);
    if (t == s_->round_marker) s_->round_marker = kNone;
    e.active.store(false, std::memory_order_release);
    // Servicer half of the deactivation handshake: the fence orders the
    // store above before the pending re-check below against the producer's
    // increment-then-fence-then-exchange in enqueue, forbidding the SB
    // outcome where both sides read stale values. A producer that
    // completed an enqueue between our empty observation and the store
    // above saw active==true and skipped its push; whoever wins this
    // exchange re-activates.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (pending(e) != 0 && !e.active.exchange(true, std::memory_order_acq_rel))
      push_activation(t);
  }

  void push_activation(int t) {
    int head = s_->act_head.load(std::memory_order_relaxed);
    do {
      entry(t).act_next.store(head, std::memory_order_relaxed);
    } while (!s_->act_head.compare_exchange_weak(head, t,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_relaxed));
  }

  void drain_activations() {
    int head = s_->act_head.exchange(kNone, std::memory_order_acq_rel);
    // Pushes are LIFO; reverse so tenants join the ring in activation
    // (enqueue) order — what makes single-threaded histories match the
    // reference round-robin model exactly.
    int rev = kNone;
    while (head != kNone) {
      int nxt = entry(head).act_next.load(std::memory_order_relaxed);
      entry(head).act_next.store(rev, std::memory_order_relaxed);
      rev = head;
      head = nxt;
    }
    while (rev != kNone) {
      s_->ring.push_back(rev);
      rev = entry(rev).act_next.load(std::memory_order_relaxed);
    }
  }

  /// Per-(facade, thread) binding: each facade gets a never-reused id and
  /// each thread keeps its own pid table indexed by that id, so a thread
  /// that binds different pids on two facades does not clobber one binding
  /// with the other (a single static thread_local would), and a lookup is
  /// one load however many facades the thread has bound (a broker loop
  /// binds every shard's). Ids survive moves (the moved-from facade keeps
  /// the value but its state is null, so it is unusable anyway) and are
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

  std::unique_ptr<State> s_;
  size_t bind_id_ = next_bind_id();
};

}  // namespace wfq::svc
