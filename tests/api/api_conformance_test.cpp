// Conformance suite for the unified concurrent-object API: every object in
// the registry — queues in api::queue_names(), vectors in
// api::vector_names(), current and future — is run through (a) a sequential
// differential test against the matching std:: container and (b) a short
// simulator-driven linearizability run under each registered adversary
// family (round-robin, seeded random, the targeted anti-faa schedule, and
// the stall-refresh schedule that forces second-Refresh paths in the
// ordering tree), and every queue through (c) real-thread pairs. Pass an
// object name as argv[1] to run one implementation; with no args the
// whole registry is swept, so registering a new object
// automatically puts it under test. Also covers the registries' error paths
// and AnyQueue/AnyVector basics.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <queue>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/concurrent_queue.hpp"
#include "api/concurrent_vector.hpp"
#include "api/queue_registry.hpp"
#include "sim/adversary.hpp"
#include "sim/scheduler.hpp"
#include "test_util.hpp"

namespace {

using wfq::api::AnyQueue;
using wfq::api::AnyVector;
using wfq::api::Backend;
using wfq::api::QueueConfig;

/// Every registered adversary family, as swept below. stall-refresh parks a
/// process right before its pending CAS, so the double-Refresh "both CASes
/// lost" argument is exercised constantly instead of almost never; bursty
/// is the E13 QoS family's bursty-arrival schedule (long exclusive runs
/// with cooldowns).
const char* kAdversaries[] = {"round-robin", "random:77", "anti-faa",
                              "stall-refresh", "bursty:3:7"};

/// (a) Randomized differential test against std::queue: single-threaded
/// mixed history with ops issued from rotating bound pids must match the
/// sequential FIFO model exactly, including null dequeues.
void sequential_differential(const std::string& name, uint64_t seed) {
  constexpr int kProcs = 4;
  AnyQueue<uint64_t> q = wfq::api::make_queue<uint64_t>(
      name, QueueConfig{.procs = kProcs, .backend = Backend::real});
  std::queue<uint64_t> model;
  std::mt19937_64 rng(seed);
  uint64_t next_val = 1;
  for (int k = 0; k < 2000; ++k) {
    q.bind_thread(static_cast<int>(rng() % kProcs));
    bool enq = (rng() % 1000) < 550;
    if (enq) {
      q.enqueue(next_val);
      model.push(next_val);
      ++next_val;
    } else {
      std::optional<uint64_t> got = q.dequeue();
      if (model.empty()) {
        CHECK(!got.has_value());
      } else {
        CHECK(got.has_value());
        if (got.has_value()) CHECK_EQ(*got, model.front());
        model.pop();
      }
    }
  }
  while (!model.empty()) {
    std::optional<uint64_t> got = q.dequeue();
    CHECK(got.has_value());
    if (got.has_value()) CHECK_EQ(*got, model.front());
    model.pop();
  }
  CHECK(!q.dequeue().has_value());
}

/// (b) Short sim linearizability run: p processes enqueue then dequeue
/// tagged values under the given adversary; checks no duplicate dequeues,
/// only-enqueued values, per-(consumer, producer) FIFO order, and exact
/// multiset conservation after a drain.
void sim_linearizability(const std::string& name,
                         const std::string& adversary) {
  constexpr int kProcs = 4;
  constexpr int kPerProc = 12;
  AnyQueue<uint64_t> q = wfq::api::make_queue<uint64_t>(
      name, QueueConfig{.procs = kProcs, .backend = Backend::sim});
  std::vector<std::vector<uint64_t>> got(kProcs);
  wfq::sim::Scheduler sched(wfq::sim::make_policy(adversary));
  std::vector<std::function<void()>> bodies;
  for (int pid = 0; pid < kProcs; ++pid) {
    bodies.emplace_back([&q, &got, pid] {
      q.bind_thread(pid);
      for (int k = 0; k < kPerProc; ++k)
        q.enqueue((static_cast<uint64_t>(pid) << 32) |
                  static_cast<uint64_t>(k));
      for (int k = 0; k < kPerProc; ++k) {
        auto r = q.dequeue();
        if (r.has_value()) got[static_cast<size_t>(pid)].push_back(*r);
      }
    });
  }
  sched.run(std::move(bodies));

  std::set<uint64_t> enqueued;
  for (int pid = 0; pid < kProcs; ++pid)
    for (int k = 0; k < kPerProc; ++k)
      enqueued.insert((static_cast<uint64_t>(pid) << 32) |
                      static_cast<uint64_t>(k));

  std::set<uint64_t> dequeued;
  for (const auto& list : got) {
    std::map<uint64_t, int64_t> last_seq;
    for (uint64_t v : list) {
      CHECK(enqueued.count(v) == 1);
      CHECK(dequeued.insert(v).second);  // no duplicates across consumers
      uint64_t producer = v >> 32;
      auto seq = static_cast<int64_t>(v & 0xffffffffu);
      auto it = last_seq.find(producer);
      if (it != last_seq.end()) CHECK(seq > it->second);
      last_seq[producer] = seq;
    }
  }

  q.bind_thread(0);
  for (;;) {
    auto r = q.dequeue();
    if (!r.has_value()) break;
    CHECK(dequeued.insert(*r).second);
  }
  CHECK_EQ(dequeued.size(), enqueued.size());
}

/// (c) Real threads: 2 threads each run kPairs enqueue+dequeue pairs of
/// tagged values, kReps times on a fresh queue, and every value must come
/// out exactly once (during the run or in the final drain). The sim's
/// schedules are sequentially consistent, so a store-load reordering only
/// shows here: without its announcement fence the Kogan–Petrank baseline
/// closed its list into a cycle and spun forever in about one run of this
/// test in three (4 vCPUs). A run that has not finished after 20 s fails
/// the test instead of hanging it.
void real_thread_pairs(const std::string& name) {
  constexpr int kThreads = 2;
  constexpr int kReps = 10;
  constexpr uint64_t kPairs = 20'000;
  for (int rep = 0; rep < kReps; ++rep) {
    AnyQueue<uint64_t> q = wfq::api::make_queue<uint64_t>(
        name, wfq::api::sized_config(kThreads, Backend::real, 2 * kPairs));
    std::vector<std::vector<uint64_t>> got(kThreads);
    std::atomic<int> done{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        q.bind_thread(t);
        for (uint64_t i = 0; i < kPairs; ++i) {
          q.enqueue((static_cast<uint64_t>(t) << 32) | i);
          if (auto r = q.dequeue()) got[static_cast<size_t>(t)].push_back(*r);
        }
        done.fetch_add(1);
      });
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (done.load() < kThreads) {
      if (std::chrono::steady_clock::now() > deadline) {
        std::cerr << name << ": real-thread pairs run " << rep
                  << " still running after 20 s\n";
        std::_Exit(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    for (std::thread& t : threads) t.join();
    q.bind_thread(0);
    std::vector<uint64_t> all;
    for (const auto& list : got)
      all.insert(all.end(), list.begin(), list.end());
    while (auto r = q.dequeue()) all.push_back(*r);
    std::sort(all.begin(), all.end());
    CHECK_EQ(all.size(), kThreads * kPairs);
    CHECK(std::adjacent_find(all.begin(), all.end()) == all.end());
  }
}

/// (a') Randomized differential test against std::vector: single-threaded
/// mixed append/get/size history from rotating bound pids. Append must
/// return exactly the index std::vector would assign; get must agree inside
/// the model and be null past its end.
void vector_sequential_differential(const std::string& name, uint64_t seed) {
  constexpr int kProcs = 4;
  AnyVector<uint64_t> v = wfq::api::make_vector<uint64_t>(
      name, QueueConfig{.procs = kProcs, .backend = Backend::real});
  std::vector<uint64_t> model;
  std::mt19937_64 rng(seed);
  uint64_t next_val = 1;
  for (int k = 0; k < 1500; ++k) {
    v.bind_thread(static_cast<int>(rng() % kProcs));
    uint64_t roll = rng() % 1000;
    if (roll < 500) {
      int64_t idx = v.append(next_val);
      CHECK_EQ(idx, static_cast<int64_t>(model.size()));
      model.push_back(next_val);
      ++next_val;
    } else if (roll < 900) {
      // Probe inside the model and a little past its end.
      auto i = static_cast<int64_t>(rng() % (model.size() + 4));
      std::optional<uint64_t> got = v.get(i);
      if (i < static_cast<int64_t>(model.size())) {
        CHECK(got.has_value());
        if (got.has_value()) CHECK_EQ(*got, model[static_cast<size_t>(i)]);
      } else {
        CHECK(!got.has_value());
      }
    } else {
      CHECK_EQ(v.size(), static_cast<int64_t>(model.size()));
    }
  }
  CHECK(!v.get(-1).has_value());
  CHECK_EQ(v.size(), static_cast<int64_t>(model.size()));
}

/// (b') Short sim linearizability run for vectors: p processes append
/// tagged values, immediately re-read their own landing index, and after
/// the run the whole index space must hold every appended value exactly
/// once, with each producer's values at strictly increasing indices (its
/// appends linearize in program order).
void vector_sim_linearizability(const std::string& name,
                                const std::string& adversary) {
  constexpr int kProcs = 4;
  constexpr int kPerProc = 12;
  AnyVector<uint64_t> v = wfq::api::make_vector<uint64_t>(
      name, QueueConfig{.procs = kProcs, .backend = Backend::sim});
  std::vector<std::vector<std::pair<int64_t, uint64_t>>> claims(kProcs);
  wfq::sim::Scheduler sched(wfq::sim::make_policy(adversary));
  std::vector<std::function<void()>> bodies;
  for (int pid = 0; pid < kProcs; ++pid) {
    bodies.emplace_back([&v, &claims, pid] {
      int64_t appended = 0;
      for (int k = 0; k < kPerProc; ++k) {
        uint64_t val = (static_cast<uint64_t>(pid) << 32) |
                       static_cast<uint64_t>(k);
        v.bind_thread(pid);
        int64_t idx = v.append(val);
        ++appended;
        claims[static_cast<size_t>(pid)].emplace_back(idx, val);
        // An append's index is permanent the moment it returns, and size()
        // must already cover it (plus everything this process did before).
        std::optional<uint64_t> got = v.get(idx);
        CHECK(got.has_value());
        if (got.has_value()) CHECK_EQ(*got, val);
        CHECK(v.size() >= appended);
      }
    });
  }
  sched.run(std::move(bodies));

  constexpr int64_t kTotal = int64_t{kProcs} * kPerProc;
  CHECK_EQ(v.size(), kTotal);
  std::set<int64_t> used_indices;
  for (int pid = 0; pid < kProcs; ++pid) {
    int64_t last_idx = -1;
    CHECK_EQ(claims[static_cast<size_t>(pid)].size(),
             static_cast<size_t>(kPerProc));
    for (const auto& [idx, val] : claims[static_cast<size_t>(pid)]) {
      CHECK(idx >= 0 && idx < kTotal);
      CHECK(used_indices.insert(idx).second);  // no two appends share a slot
      CHECK(idx > last_idx);                   // program order -> index order
      last_idx = idx;
      v.bind_thread(0);
      std::optional<uint64_t> got = v.get(idx);
      CHECK(got.has_value());
      if (got.has_value()) CHECK_EQ(*got, val);
    }
  }
  // Full scan: the index space is dense and holds exactly the appended set.
  std::set<uint64_t> seen;
  for (int64_t i = 0; i < kTotal; ++i) {
    std::optional<uint64_t> got = v.get(i);
    CHECK(got.has_value());
    if (got.has_value()) CHECK(seen.insert(*got).second);
  }
  CHECK_EQ(seen.size(), static_cast<size_t>(kTotal));
  CHECK(!v.get(kTotal).has_value());
}

void vector_registry_surface() {
  auto names = wfq::api::vector_names();
  CHECK(names.size() >= 2);
  CHECK(names.front() == "wfvec");  // the tree vector leads the registry
  for (const std::string& n : names) {
    const auto& info = wfq::api::vector_info(n);
    CHECK_EQ(info.name, n);
    CHECK(!info.description.empty());
    AnyVector<uint64_t> v = wfq::api::make_vector<uint64_t>(
        n, QueueConfig{.procs = 2, .backend = Backend::real});
    CHECK(static_cast<bool>(v));
    CHECK_EQ(v.name(), n);
    // object_info resolves both kinds through one lookup (the CLI's
    // --queues validation path).
    CHECK_EQ(wfq::api::object_info(n).name, n);
  }
  CHECK_EQ(wfq::api::object_info("ubq").name, std::string("ubq"));
  CHECK_EQ(wfq::api::object_info("bounded:g=3").name, std::string("bounded"));
  for (const char* bad : {"no-such-vector", "wfvec:g=2"}) {
    bool threw = false;
    try {
      (void)wfq::api::make_vector<uint64_t>(bad, QueueConfig{});
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    CHECK(threw);
  }
  bool threw = false;
  try {
    (void)wfq::api::object_info("no-such-object");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
  // The tree vector exposes block-space introspection through AnyVector;
  // the flat baseline has no space surface.
  AnyVector<uint64_t> wv = wfq::api::make_vector<uint64_t>(
      "wfvec", QueueConfig{.procs = 2, .backend = Backend::real});
  wv.bind_thread(0);
  for (uint64_t i = 0; i < 32; ++i) (void)wv.append(i);
  CHECK(wv.space_stats().known);
  CHECK(wv.space_stats().live_blocks > 0);
  AnyVector<uint64_t> fv = wfq::api::make_vector<uint64_t>(
      "faavec", QueueConfig{.procs = 2, .backend = Backend::real});
  CHECK(!fv.space_stats().known);
}

/// True when both metadata lookups reject `key` with invalid_argument.
bool lookups_reject(const char* key) {
  int threw = 0;
  try {
    (void)wfq::api::queue_info(key);
  } catch (const std::invalid_argument&) {
    ++threw;
  }
  try {
    (void)wfq::api::object_info(key);
  } catch (const std::invalid_argument&) {
    ++threw;
  }
  return threw == 2;
}

void bounded_key_surface() {
  // Parameterized keys resolve to the "bounded" registry entry and carry
  // their G through the factory; malformed keys, and the retired "bq"
  // alias, fail loudly with invalid_argument (the random:<seed>
  // policy-spec convention).
  CHECK_EQ(wfq::api::queue_info("bounded:g=7").name, std::string("bounded"));
  CHECK(lookups_reject("bq"));
  for (const char* key : {"bounded:g=2", "bounded:g=-1", "bounded"}) {
    AnyQueue<uint64_t> q = wfq::api::make_queue<uint64_t>(
        key, QueueConfig{.procs = 2, .backend = Backend::real});
    CHECK(static_cast<bool>(q));
    CHECK_EQ(q.name(), std::string(key));
  }
  for (const char* bad :
       {"bounded:", "bounded:g=", "bounded:g=x", "bounded:g", "bounded:q=4",
        "bounded:g=0", "bounded:g=-2", "bounded:g=1x", "boundedg=4", "bq"}) {
    bool threw = false;
    try {
      (void)wfq::api::make_queue<uint64_t>(bad, QueueConfig{});
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    CHECK(threw);
    if (!threw) std::cerr << "no throw for key: " << bad << "\n";
  }
  // The space debug surface flows through AnyQueue for the block queues
  // and reads unknown for the lock-based baselines.
  AnyQueue<uint64_t> bq = wfq::api::make_queue<uint64_t>(
      "bounded:g=2", QueueConfig{.procs = 2, .backend = Backend::real});
  bq.bind_thread(0);
  for (uint64_t i = 0; i < 64; ++i) bq.enqueue(i);
  for (uint64_t i = 0; i < 32; ++i) (void)bq.dequeue();
  wfq::api::SpaceStats st = bq.space_stats();
  CHECK(st.known);
  CHECK(st.live_blocks > 0);
  AnyQueue<uint64_t> mq = wfq::api::make_queue<uint64_t>(
      "mutex", QueueConfig{.procs = 2, .backend = Backend::real});
  CHECK(!mq.space_stats().known);
}

void baseline_key_surface() {
  // The faithful baselines: "kp" (Kogan-Petrank; the pre-rename "kpq"
  // alias is retired and must be rejected) and "simq" (Fatourou-Kallimanis
  // combining). Both are step-counted registry citizens; neither takes
  // parameters, and parameterized spellings must fail loudly as such
  // rather than as generic unknown names.
  auto names = wfq::api::queue_names();
  CHECK(std::find(names.begin(), names.end(), "kp") != names.end());
  CHECK(std::find(names.begin(), names.end(), "simq") != names.end());
  CHECK_EQ(wfq::api::queue_info("kp").name, std::string("kp"));
  CHECK(lookups_reject("kpq"));
  CHECK_EQ(wfq::api::queue_info("simq").name, std::string("simq"));
  CHECK(wfq::api::queue_info("kp").step_counted);
  CHECK(wfq::api::queue_info("simq").step_counted);
  for (const char* bad : {"kp:", "kp:1", "kp:g=2", "kpq:g=2", "simq:",
                          "simq:g=2", "simq:x", "kp :1", "kpq"}) {
    bool threw = false;
    try {
      (void)wfq::api::make_queue<uint64_t>(bad, QueueConfig{});
    } catch (const std::invalid_argument&) {
      threw = true;
    }
    CHECK(threw);
    if (!threw) std::cerr << "no throw for key: " << bad << "\n";
  }
}

void registry_surface() {
  auto names = wfq::api::queue_names();
  CHECK(names.size() >= 8);
  CHECK(names.front() == "ubq");  // the paper's queue leads the registry
  for (const std::string& n : names) {
    const auto& info = wfq::api::queue_info(n);
    CHECK_EQ(info.name, n);
    CHECK(!info.description.empty());
    AnyQueue<uint64_t> q = wfq::api::make_queue<uint64_t>(
        n, QueueConfig{.procs = 2, .backend = Backend::real});
    CHECK(static_cast<bool>(q));
    CHECK_EQ(q.name(), n);
  }
  bool threw = false;
  try {
    (void)wfq::api::make_queue<uint64_t>("no-such-queue", QueueConfig{});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
  threw = false;
  try {
    (void)wfq::api::queue_info("no-such-queue");
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
  // The lock-based baselines are flagged as not step-counted; the
  // platform-templated queues are.
  CHECK(wfq::api::queue_info("ubq").step_counted);
  CHECK(!wfq::api::queue_info("twolock").step_counted);
  CHECK(!wfq::api::queue_info("mutex").step_counted);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> names;
  if (argc > 1) {
    for (int i = 1; i < argc; ++i) names.emplace_back(argv[i]);
  } else {
    names = wfq::api::queue_names();
    // GC-forcing bounded-queue keys: G=2 runs a collection every other
    // operation, so the differential and linearizability sweeps below
    // exercise archive lookups and EBR retirement constantly; G=5 lands
    // collections at op parities the even period never hits.
    names.push_back("bounded:g=2");
    names.push_back("bounded:g=5");
    // Vectors ride the same sweep: the per-name loop below dispatches on
    // the registry kind.
    for (const std::string& vn : wfq::api::vector_names())
      names.push_back(vn);
    registry_surface();
    vector_registry_surface();
    bounded_key_surface();
    baseline_key_surface();
  }
  const auto vecs = wfq::api::vector_names();
  for (const std::string& name : names) {
    bool is_vector = std::find(vecs.begin(), vecs.end(), name) != vecs.end();
    if (is_vector) {
      vector_sequential_differential(name, /*seed=*/0x5eed + name.size());
      for (const char* adv : kAdversaries)
        vector_sim_linearizability(name, adv);
    } else {
      sequential_differential(name, /*seed=*/0x5eed + name.size());
      for (const char* adv : kAdversaries) sim_linearizability(name, adv);
      real_thread_pairs(name);
    }
  }
  return wfq::test::exit_code();
}
