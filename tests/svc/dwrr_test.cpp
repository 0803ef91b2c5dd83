// Tier-1 tests for the multi-tenant QoS subsystem (ISSUE 7): DWRR
// quantum/deficit accounting, activation/deactivation, a sequential
// differential against a reference round-robin model, deterministic service
// order under the sim scheduler, concurrent servicers, service-key parsing,
// and the ZipfTraffic generator.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/service_registry.hpp"
#include "sim/adversary.hpp"
#include "sim/scheduler.hpp"
#include "svc/zipf_traffic.hpp"
#include "test_util.hpp"

namespace {

using namespace wfq;

svc::ServiceFacade<uint64_t> make(const std::string& key, int procs = 1) {
  api::QueueConfig cfg;
  cfg.procs = procs;
  return api::make_service<uint64_t>(key, cfg);
}

// --- quantum/deficit accounting ---------------------------------------------
// Two backlogged tenants, weights 1 and 2: each DWRR round serves one item
// from tenant 0 and two from tenant 1, so after any whole number of rounds
// the service counts split exactly 1:2 — and the per-round service ORDER is
// 0,1,1 (tenant 0 activated first).
void test_weighted_accounting() {
  auto s = make("dwrr:2:ubq");
  s.bind_thread(0);
  s.set_weight(1, 2);
  for (uint64_t i = 0; i < 300; ++i) {
    s.enqueue(0, i);
    s.enqueue(1, 1000 + i);
  }
  std::vector<int> order;
  for (int k = 0; k < 90; ++k) {
    auto got = s.service_next();
    CHECK(got.has_value());
    order.push_back(got->tenant);
  }
  CHECK_EQ(s.tenant_stats(0).serviced, 30u);
  CHECK_EQ(s.tenant_stats(1).serviced, 60u);
  const int expect[9] = {0, 1, 1, 0, 1, 1, 0, 1, 1};
  for (int k = 0; k < 9; ++k) CHECK_EQ(order[static_cast<size_t>(k)], expect[k]);
  // FIFO within a tenant: values come back in enqueue order.
  // (spot-check via another 3 services: values continue 30.., 1060..)
  auto a = s.service_next();
  CHECK(a.has_value() && a->tenant == 0 && a->value == 30);
  // Round bookkeeping: 30 completed rounds of ~3 items each.
  CHECK(s.rounds() >= 29 && s.rounds() <= 31);
  CHECK(s.round_service_estimate() > 2.5 && s.round_service_estimate() < 3.5);
}

// --- empty-queue deactivation and reactivation ------------------------------
void test_deactivation_reactivation() {
  auto s = make("dwrr:3:ubq");
  s.bind_thread(0);
  s.enqueue(1, 11);
  CHECK(s.tenant_stats(1).active);
  CHECK(!s.tenant_stats(0).active);
  auto got = s.service_next();
  CHECK(got.has_value() && got->tenant == 1 && got->value == 11);
  // Drained on service: the tenant left the ring and its deficit reset.
  CHECK(!s.tenant_stats(1).active);
  CHECK_EQ(s.tenant_stats(1).deficit, int64_t{0});
  CHECK(!s.service_next().has_value());
  // Re-enqueue reactivates; service works again.
  s.enqueue(1, 12);
  CHECK(s.tenant_stats(1).active);
  got = s.service_next();
  CHECK(got.has_value() && got->tenant == 1 && got->value == 12);
  CHECK(!s.service_next().has_value());
  CHECK_EQ(s.total_serviced(), 2u);
}

// --- sequential differential vs a reference round-robin model ---------------
// Equal weights (a quantum of one item each) make DWRR equivalent to plain
// round-robin over the active tenants (activation order = first-enqueue
// order, a served tenant that stays backlogged rotates to the tail). The
// model: per-tenant FIFO queues plus an active list with exactly those
// rules.
struct RrModel {
  std::vector<std::queue<uint64_t>> qs;
  std::deque<int> active;

  explicit RrModel(int n) : qs(static_cast<size_t>(n)) {}

  void enqueue(int t, uint64_t v) {
    if (qs[static_cast<size_t>(t)].empty()) {
      bool in = false;
      for (int a : active) in |= (a == t);
      if (!in) active.push_back(t);
    }
    qs[static_cast<size_t>(t)].push(v);
  }

  std::optional<std::pair<int, uint64_t>> service() {
    if (active.empty()) return std::nullopt;
    int t = active.front();
    active.pop_front();
    uint64_t v = qs[static_cast<size_t>(t)].front();
    qs[static_cast<size_t>(t)].pop();
    if (!qs[static_cast<size_t>(t)].empty()) active.push_back(t);
    return std::make_pair(t, v);
  }
};

void test_differential_vs_rr_model() {
  const int n = 5;
  auto s = make("dwrr:5:ubq");
  s.bind_thread(0);
  RrModel model(n);
  // Deterministic op mix: ~2/3 enqueues (xorshift64*), interleaved with
  // services; then a full drain. Every service must match the model.
  uint64_t state = 42;
  auto rnd = [&] {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545f4914f6cdd1dULL;
  };
  uint64_t next_val = 0;
  for (int i = 0; i < 4000; ++i) {
    if (rnd() % 3 != 0) {
      int t = static_cast<int>(rnd() % n);
      s.enqueue(t, next_val);
      model.enqueue(t, next_val);
      ++next_val;
    } else {
      auto got = s.service_next();
      auto want = model.service();
      CHECK_EQ(got.has_value(), want.has_value());
      if (got && want) {
        CHECK_EQ(got->tenant, want->first);
        CHECK_EQ(got->value, want->second);
      }
    }
  }
  for (;;) {
    auto got = s.service_next();
    auto want = model.service();
    CHECK_EQ(got.has_value(), want.has_value());
    if (!got || !want) break;
    CHECK_EQ(got->tenant, want->first);
    CHECK_EQ(got->value, want->second);
  }
  CHECK_EQ(s.total_serviced(), next_val);
}

// --- deterministic service order under the sim scheduler --------------------
// Concurrent producers + one servicer under a seeded random policy: the
// exact service sequence is a function of the schedule only, so two runs
// with the same seed must produce identical sequences (and schedules).
struct SimService {
  std::vector<std::pair<int, uint64_t>> seq;  // (tenant, value) served
  std::vector<int> trace;                     // the scheduler's pid trace
};

SimService sim_service_sequence(uint64_t seed) {
  const int producers = 3;
  const int64_t K = 40;
  api::QueueConfig cfg;
  cfg.procs = producers + 1;
  cfg.backend = api::Backend::sim;
  auto s = api::make_service<uint64_t>("dwrr:3:ubq", cfg);
  std::vector<std::pair<int, uint64_t>> seq;
  sim::Scheduler sched(
      std::make_unique<sim::RandomPolicy>(seed));
  std::vector<std::function<void()>> bodies;
  for (int t = 0; t < producers; ++t) {
    bodies.emplace_back([&s, t] {
      s.bind_thread(t);
      for (int64_t k = 0; k < K; ++k)
        s.enqueue(t, static_cast<uint64_t>(k));
    });
  }
  bodies.emplace_back([&] {
    s.bind_thread(producers);
    int64_t got = 0;
    while (got < producers * K) {
      auto item = s.service_next();
      if (!item) {
        // The facade's empty-ring path touches no counted shared memory;
        // yield explicitly or the servicer would hold the baton forever.
        sim::Scheduler::yield_point(sim::StepKind::load);
        continue;
      }
      seq.emplace_back(item->tenant, item->value);
      ++got;
    }
  });
  sched.run(std::move(bodies));
  return {std::move(seq), sched.trace()};
}

void test_sim_deterministic_order() {
  auto a = sim_service_sequence(5);
  auto b = sim_service_sequence(5);
  CHECK_EQ(a.seq.size(), size_t{120});
  CHECK(a.seq == b.seq);
  CHECK(a.trace == b.trace);
  // A different seed produces a different interleaving (overwhelmingly).
  auto c = sim_service_sequence(6);
  CHECK(a.trace != c.trace);
  // The service order has few outcomes (DWRR settles into a fixed tenant
  // rotation), so two given seeds can serve alike; seeds 5..9 give 4
  // distinct orders. Per-tenant FIFO holds under every one of them.
  std::vector<std::vector<std::pair<int, uint64_t>>> orders;
  for (uint64_t seed = 5; seed <= 9; ++seed) {
    auto run = seed == 5 ? a : seed == 6 ? c : sim_service_sequence(seed);
    uint64_t next_per_tenant[3] = {0, 0, 0};
    for (auto& [t, v] : run.seq) CHECK_EQ(v, next_per_tenant[t]++);
    if (std::find(orders.begin(), orders.end(), run.seq) == orders.end())
      orders.push_back(run.seq);
  }
  CHECK(orders.size() >= 4);
}

// --- concurrent activation/deactivation stress (real threads) ---------------
// Regression for the deactivation lost-wakeup: deactivate_front's
// store(active=false) followed by its pending re-check races the producer's
// enqueued-increment followed by its active-exchange — the SB litmus, which
// release/acquire alone permits (both sides read stale values, neither
// activates, the item strands). Producers throttle to a tiny backlog so
// tenants cross the empty->deactivate / re-enqueue->reactivate edge
// constantly; a stranded item deadlocks the handshake, which the servicer's
// watchdog turns into a CHECK failure instead of a hang. A stats thread
// snapshots counters mid-flight the whole time (race-free now that
// serviced/deficit are atomics; the ASan/TSan legs watch this).
void test_concurrent_activation_stress() {
  const int producers = 3;
  const uint64_t per_producer = 4'000;
  const uint64_t total = producers * per_producer;
  api::QueueConfig cfg;
  cfg.procs = producers + 1;
  auto s = api::make_service<uint64_t>("dwrr:2:ubq", cfg);
  std::atomic<uint64_t> enqueued{0}, drained{0};
  std::atomic<bool> done{false}, stuck{false};
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      s.bind_thread(p);
      for (uint64_t k = 0; k < per_producer && !stuck.load(); ++k) {
        // Keep at most a handful of items in flight: the servicer drains
        // dry between arrivals, so deactivation fires all the time. Yield
        // while throttled — single-core runners otherwise burn whole
        // scheduling quanta spinning.
        while (enqueued.load() - drained.load() > 4 && !stuck.load())
          std::this_thread::yield();
        s.enqueue(static_cast<int>(k % 2), (static_cast<uint64_t>(p) << 32) | k);
        enqueued.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&] {
    s.bind_thread(producers);
    auto last_progress = std::chrono::steady_clock::now();
    while (drained.load() < total) {
      auto item = s.service_next();
      if (item.has_value()) {
        drained.fetch_add(1);
        last_progress = std::chrono::steady_clock::now();
      } else {
        if (std::chrono::steady_clock::now() - last_progress >
            std::chrono::seconds(30)) {
          // No service progress for 30s: an item stranded.
          stuck.store(true);
          break;
        }
        std::this_thread::yield();
      }
    }
  });
  threads.emplace_back([&] {
    while (!done.load()) {
      uint64_t snap = 0;
      for (int t = 0; t < 2; ++t) snap += s.tenant_stats(t).serviced;
      CHECK(snap <= total);
      CHECK(s.total_serviced() <= total);
      std::this_thread::yield();
    }
  });
  for (size_t i = 0; i + 1 < threads.size(); ++i) threads[i].join();
  done.store(true);
  threads.back().join();
  CHECK(!stuck.load());
  CHECK_EQ(drained.load(), total);
  CHECK_EQ(s.total_serviced(), total);
  CHECK(!s.service_next().has_value());
}

// --- concurrent servicers (real threads) -------------------------------------
// Any thread may call service_next: two servicers drain one facade while
// two producers fill it, and their calls serialize on the facade's lock.
// Every value must come out exactly once under the tenant it went in for
// (conservation, no phantoms), and since the backing queues are FIFO and
// the lock orders the dequeues, each servicer's own output keeps every
// (tenant, producer) stream increasing. Values are producer << 32 | k, for
// tenant k % 3. The TSan leg watches the lock and the activation handshake.
void test_concurrent_servicers() {
  const int producers = 2;
  const int servicers = 2;
  const int tenants = 3;
  const uint64_t per_producer = 20'000;
  const uint64_t total = producers * per_producer;
  api::QueueConfig cfg;
  cfg.procs = producers + servicers;
  auto s = api::make_service<uint64_t>("dwrr:3:bounded", cfg);
  std::atomic<uint64_t> served{0};
  std::atomic<bool> stuck{false};
  std::vector<std::vector<svc::Serviced<uint64_t>>> out(servicers);
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      s.bind_thread(p);
      for (uint64_t k = 0; k < per_producer; ++k)
        s.enqueue(static_cast<int>(k % tenants),
                  (static_cast<uint64_t>(p) << 32) | k);
    });
  }
  for (int c = 0; c < servicers; ++c) {
    threads.emplace_back([&, c] {
      s.bind_thread(producers + c);
      auto last_progress = std::chrono::steady_clock::now();
      while (served.load() < total && !stuck.load()) {
        if (auto item = s.service_next()) {
          out[static_cast<size_t>(c)].push_back(*item);
          served.fetch_add(1);
          last_progress = std::chrono::steady_clock::now();
        } else if (std::chrono::steady_clock::now() - last_progress >
                   std::chrono::seconds(30)) {
          stuck.store(true);  // an item stranded
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  CHECK(!stuck.load());
  std::vector<std::vector<int>> times_served(
      producers, std::vector<int>(per_producer, 0));
  uint64_t phantoms = 0, out_of_order = 0;
  for (const auto& mine : out) {
    std::vector<int64_t> last(tenants * producers, -1);
    for (const svc::Serviced<uint64_t>& item : mine) {
      const uint64_t p = item.value >> 32;
      const uint64_t k = item.value & 0xffffffffu;
      if (p >= producers || k >= per_producer ||
          item.tenant != static_cast<int>(k % tenants)) {
        ++phantoms;
        continue;
      }
      ++times_served[p][k];
      int64_t& prev = last[static_cast<size_t>(item.tenant) * producers + p];
      if (static_cast<int64_t>(k) <= prev) ++out_of_order;
      prev = static_cast<int64_t>(k);
    }
  }
  uint64_t not_once = 0;
  for (const auto& row : times_served)
    for (int n : row) not_once += (n != 1) ? 1 : 0;
  CHECK_EQ(phantoms, 0u);
  CHECK_EQ(not_once, 0u);
  CHECK_EQ(out_of_order, 0u);
  CHECK_EQ(out[0].size() + out[1].size(), total);
  CHECK_EQ(s.total_serviced(), total);
  CHECK(!s.service_next().has_value());
}

// --- per-facade thread binding -----------------------------------------------
// Regression: bound_pid used to be one static thread_local shared by every
// ServiceFacade<T>, so binding pid 1 on a wider facade clobbered the pid-0
// binding on a single-proc one and forwarded the out-of-range slot to its
// backing tree. Bindings must be per-(facade, thread) and survive moves.
void test_per_facade_binding() {
  auto a = make("dwrr:1:ubq", /*procs=*/1);
  auto b = make("dwrr:1:ubq", /*procs=*/2);
  a.bind_thread(0);
  b.bind_thread(1);  // must not disturb a's binding
  a.enqueue(0, 1);
  b.enqueue(0, 2);
  auto ga = a.service_next();
  CHECK(ga.has_value() && ga->value == 1);
  auto gb = b.service_next();
  CHECK(gb.has_value() && gb->value == 2);
  // The binding travels with a moved facade.
  auto c = std::move(a);
  c.enqueue(0, 3);
  auto gc = c.service_next();
  CHECK(gc.has_value() && gc->value == 3);
}

// --- service-key parsing -----------------------------------------------------
void test_service_keys() {
  auto throws = [](const std::string& key) {
    try {
      api::QueueConfig cfg;
      (void)api::make_service<uint64_t>(key, cfg);
    } catch (const std::invalid_argument&) {
      return true;
    }
    return false;
  };
  // Malformed dwrr keys and bad backings are loud.
  CHECK(throws("dwrr"));
  CHECK(throws("dwrr:"));
  CHECK(throws("dwrr:4"));
  CHECK(throws("dwrr:4:"));
  CHECK(throws("dwrr:0:ubq"));
  CHECK(throws("dwrr:-1:ubq"));
  CHECK(throws("dwrr:x:ubq"));
  CHECK(throws("dwrr:4x:ubq"));
  CHECK(throws("dwrr:5000:ubq"));   // over the 4096 cap
  CHECK(throws("dwrr:4:nosuch"));   // unknown backing
  CHECK(throws("dwrr:4:kp:1"));     // parameterized non-parameterized queue
  CHECK(throws("dwrr:4:wfvec"));    // vectors can't back a service
  CHECK(throws("nosched:4:ubq"));   // unknown discipline
  // Non-dwrr names pass through as "not a service key" (nullopt), so the
  // factory reports unknown-service; parse returns nullopt, not a throw.
  CHECK(!api::parse_service_key("ubq").has_value());
  CHECK(!api::parse_service_key("dwrrx").has_value());

  // Good keys build, including a parameterized backing.
  auto a = make("dwrr:4:ubq");
  CHECK_EQ(a.tenants(), 4);
  CHECK_EQ(a.backing(), std::string("ubq"));
  auto b = make("dwrr:2:bounded:g=4");
  CHECK_EQ(b.tenants(), 2);
  CHECK_EQ(b.backing(), std::string("bounded:g=4"));
  auto c = make("dwrr:1:faaq");
  c.bind_thread(0);
  c.enqueue(0, 9);
  auto got = c.service_next();
  CHECK(got.has_value() && got->value == 9);

  // Out-of-range tenant ids and zero weights are loud too.
  bool threw = false;
  try {
    a.enqueue(4, 1);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
  threw = false;
  try {
    a.set_weight(0, 0);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
}

// --- ZipfTraffic -------------------------------------------------------------
void test_zipf_traffic() {
  // Deterministic: same (n, skew, seed, burst) => same sequence.
  svc::ZipfTraffic a(8, 1.2, 7, 4), b(8, 1.2, 7, 4);
  for (int i = 0; i < 200; ++i) CHECK_EQ(a.next(), b.next());
  // Burst grouping: arrivals come in runs of exactly `burst`.
  svc::ZipfTraffic c(8, 0.9, 3, 5);
  for (int i = 0; i < 40; ++i) {
    int first = c.next();
    for (int k = 1; k < 5; ++k) CHECK_EQ(c.next(), first);
  }
  // Skew orders tenants: with heavy skew, tenant 0 dominates tenant 7.
  svc::ZipfTraffic d(8, 1.8, 11);
  int count0 = 0, count7 = 0;
  for (int i = 0; i < 4000; ++i) {
    int t = d.next();
    CHECK(t >= 0 && t < 8);
    count0 += (t == 0) ? 1 : 0;
    count7 += (t == 7) ? 1 : 0;
  }
  CHECK(count0 > 10 * count7);
  // Skew 0 is uniform-ish: every tenant shows up with a sane share.
  svc::ZipfTraffic e(4, 0.0, 13);
  int counts[4] = {0, 0, 0, 0};
  for (int i = 0; i < 4000; ++i) ++counts[e.next()];
  for (int t = 0; t < 4; ++t) CHECK(counts[t] > 700 && counts[t] < 1300);
  // Constructor rejects nonsense.
  auto ctor_throws = [](auto... args) {
    try {
      svc::ZipfTraffic z(args...);
      (void)z;
    } catch (const std::invalid_argument&) {
      return true;
    }
    return false;
  };
  CHECK(ctor_throws(0, 1.0, uint64_t{1}, 1));
  CHECK(ctor_throws(4, -0.5, uint64_t{1}, 1));
  CHECK(ctor_throws(4, 1.0, uint64_t{1}, 0));
}

// --- round estimate ----------------------------------------------------------
void test_round_estimate() {
  auto s = make("dwrr:4:ubq");
  s.bind_thread(0);
  for (uint64_t i = 0; i < 200; ++i)
    for (int t = 0; t < 4; ++t) s.enqueue(t, i);
  for (int k = 0; k < 160; ++k) CHECK(s.service_next().has_value());
  // Equal weights, all backlogged: 4 items per round, ~40 rounds.
  CHECK(s.rounds() >= 38 && s.rounds() <= 41);
  CHECK(s.round_service_estimate() > 3.5 && s.round_service_estimate() < 4.5);
}

}  // namespace

int main() {
  test_weighted_accounting();
  test_deactivation_reactivation();
  test_differential_vs_rr_model();
  test_sim_deterministic_order();
  test_concurrent_activation_stress();
  test_concurrent_servicers();
  test_per_facade_binding();
  test_service_keys();
  test_zipf_traffic();
  test_round_estimate();
  return wfq::test::exit_code();
}
