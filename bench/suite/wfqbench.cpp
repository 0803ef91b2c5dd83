// wfqbench: one rep of one workload of the repo benchmark, printed as one
// JSON line on stdout. bench/suite/run.py runs reps in fresh processes,
// takes medians and owns the result schema; bench/suite/README.md says why
// each workload exists and which layer metric should move which end-to-end
// metric.
//
// Layering rule: every layer is measured from outside, by timing calls into
// its public functions (api::make_queue / AnyQueue, net::encode_frame /
// net::Decoder, broker::ShardMap, svc::ServiceFacade, broker::run_loadgen)
// or by reading the broker process through /proc and its STAT report.
// Nothing here reaches inside a layer.
//
//   wfqbench --workload <name> --seed <n> [--scale <f>] [--trace <file>]
//
// --trace turns on the traced run: every queue call is timed, spans go to
// <file> as Chrome trace-event JSON, and the per-layer replays run after the
// workload. Without it only the end-to-end numbers are measured.
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/harness.hpp"
#include "api/queue_registry.hpp"
#include "api/service_registry.hpp"
#include "broker/loadgen.hpp"
#include "broker/shard_map.hpp"
#include "core/hash.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "pbt/persistent_rbt.hpp"
#include "platform/affinity.hpp"
#include "platform/step_counter.hpp"
#include "proc.hpp"
#include "trace.hpp"

namespace {

using namespace wfq;
using wfqbench::Clock;
using wfqbench::Scope;
using wfqbench::TaskSample;
using wfqbench::Tracer;

constexpr int kThreads = 3;  // object workloads: worker threads (see README)
// Object workloads build the tree for 2 * kThreads processes and give each
// worker its own leaf parent, the other child idle. With two busy sibling
// leaves the ordering tree at this commit duplicates one item and loses
// another about once in 10^8 operations (README, "Known bug"), and a
// benchmark run must not fail.
constexpr int kProcs = 2 * kThreads;
constexpr int kShards = 4;   // broker workloads: --shards
constexpr int kGroups = 2;   // broker workloads: --groups (servicer threads)
constexpr int kConns = 2;    // broker workloads: loadgen connections
constexpr int64_t kLatencyEvery = 4;  // one enq+deq pair in 4 is timed
constexpr int64_t kSpanEvery = 1024;   // traced: one op in 1024 is a span
constexpr int64_t kReplayOps = 200'000;
constexpr int64_t kSimOps = 64;  // per simulated process, per adversary
constexpr unsigned long kTimerSlackNs = 50'000;  // load generator threads

struct Workload {
  const char* name;
  const char* queue;    // the core queue key the workload exercises
  const char* backing;  // broker --backing; nullptr for object workloads
  int64_t pairs;        // object: enq+deq pairs per worker thread
  int64_t prefill;      // object: items enqueued before the measured phase
  int64_t msgs;         // broker: requests per connection
  int window;           // broker: max in-flight requests per connection
  double rate;          // broker: open-loop requests/s per connection
};

constexpr Workload kWorkloads[] = {
    {"queue-shallow", "ubq", nullptr, 100'000, 0, 0, 0, 0},
    {"queue-deep", "bounded", nullptr, 3'000, 1 << 13, 0, 0, 0},
    {"broker-rtt", "bounded", "bounded", 0, 0, 20'000, 1, 0},
    {"broker-pipelined", "bounded", "bounded", 0, 0, 500'000, 64, 0},
    {"broker-open", "bounded", "dwrr:4:bounded", 0, 0, 25'000, 1024,
     50'000},
};

/// Everything one rep measured, in the order it is printed.
struct Rep {
  std::vector<std::pair<std::string, double>> e2e;
  std::vector<std::pair<std::string, double>> layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t samples = 0;  // latency samples behind the percentiles
  bool valid = true;  // false: the generator, not the broker, set the pace
  std::vector<std::string> errors;

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

template <typename I>
double dbl(I x) {
  return static_cast<double>(x);
}

int64_t scaled(int64_t n, double scale) {
  return n == 0 ? 0 : std::max<int64_t>(2, std::llround(dbl(n) * scale));
}

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

uint32_t ns32(Clock::duration d) {
  auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  return static_cast<uint32_t>(std::clamp<int64_t>(ns, 0, UINT32_MAX));
}

/// Nearest-rank percentile (stats::percentile's convention) of a sample
/// sorted ascending. Sorting once matters: broker-pipelined records ~10M
/// latencies.
template <typename V>
double ranked(const std::vector<V>& sorted, double q) {
  if (sorted.empty()) return 0;
  auto r = static_cast<size_t>(std::ceil(q / 100.0 * dbl(sorted.size())));
  return dbl(sorted[std::clamp<size_t>(r, 1, sorted.size()) - 1]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Item value: producer id in the high half, the producer's sequence
/// number in the low half.
uint64_t tag(int producer, uint64_t seq) {
  return (static_cast<uint64_t>(producer) << 32) | seq;
}

/// Per-producer FIFO: a consumer must see each producer's sequence numbers
/// strictly increase.
class FifoCheck {
 public:
  FifoCheck() { last_.fill(-1); }
  bool see(uint64_t v) {
    uint64_t p = v >> 32;
    auto s = static_cast<int64_t>(v & 0xffffffffu);
    if (p >= last_.size() || s <= last_[p]) return false;
    last_[p] = s;
    return true;
  }

 private:
  std::array<int64_t, kThreads + 1> last_;  // workers + the prefill producer
};

/// Two consecutive routing keys from the seeded stream, accepted when the
/// loadgen connections (key, key + 1) land on distinct servicer groups, or
/// for `one_shard` on the same shard (the keys are then distinct DWRR
/// tenants, key % 4). Every seed thus loads the broker the same way.
uint32_t pick_key_base(core::SplitMix& rng, bool one_shard) {
  for (;;) {
    auto kb = static_cast<uint32_t>(rng.next() >> 33);
    int s0 = static_cast<int>(broker::mix_key(kb) % kShards);
    int s1 = static_cast<int>(broker::mix_key(kb + 1) % kShards);
    if (one_shard ? s0 == s1 : s0 % kGroups != s1 % kGroups) return kb;
  }
}

// ---- object workloads ------------------------------------------------------

struct WorkerOut {
  uint64_t deq = 0, empty = 0, fifo_bad = 0;
  uint64_t enq_sum = 0, deq_sum = 0;
  std::vector<double> pair_us;           // sampled enq+deq pair latency
  std::vector<uint32_t> enq_ns, deq_ns;  // traced: every call
  platform::StepCounts steps;
  uint64_t rbt = 0;
};

void worker(api::AnyQueue<uint64_t>& q, int me, int leaf, uint64_t base,
            int64_t pairs, Tracer& tr, uint64_t parent,
            std::atomic<int>& ready, const std::atomic<bool>& go,
            WorkerOut& o) {
  q.bind_thread(leaf);
  // Pinned: left to the scheduler, the workers sometimes share a core and
  // run one after another, which halves the pair latency and doubles the
  // rep-to-rep spread.
  platform::pin_thread_to_core(1 + me);
  const bool traced = tr.enabled();
  if (traced) {
    o.enq_ns.reserve(static_cast<size_t>(pairs));
    o.deq_ns.reserve(static_cast<size_t>(pairs));
  }
  o.pair_us.reserve(static_cast<size_t>(pairs / kLatencyEvery + 1));
  FifoCheck fifo;
  const int lane = me + 1;
  ready.fetch_add(1, std::memory_order_release);
  while (!go.load(std::memory_order_acquire)) std::this_thread::yield();

  Scope span(tr, lane, "worker", parent);
  const platform::StepCounts steps0 = platform::tls_counts();
  const uint64_t rbt0 = pbt::tls_rbt_touches();
  for (int64_t k = 0; k < pairs; ++k) {
    const uint64_t v = tag(me, base + static_cast<uint64_t>(k));
    std::optional<uint64_t> got;
    if (traced) {
      Clock::time_point a = Clock::now();
      q.enqueue(v);
      Clock::time_point b = Clock::now();
      got = q.dequeue();
      Clock::time_point c = Clock::now();
      o.enq_ns.push_back(ns32(b - a));
      o.deq_ns.push_back(ns32(c - b));
      if (k % kLatencyEvery == 0) o.pair_us.push_back(seconds(c - a) * 1e6);
      if (k % kSpanEvery == 0) {
        uint64_t pair = tr.new_id(lane);
        tr.record(lane, pair, "pair", a, c, span.id(), v);
        tr.record(lane, tr.new_id(lane), "core.enqueue", a, b, pair, v);
        tr.record(lane, tr.new_id(lane), "core.dequeue", b, c, pair, v);
      }
    } else if (k % kLatencyEvery == 0) {
      Clock::time_point a = Clock::now();
      q.enqueue(v);
      got = q.dequeue();
      o.pair_us.push_back(seconds(Clock::now() - a) * 1e6);
    } else {
      q.enqueue(v);
      got = q.dequeue();
    }
    o.enq_sum += v;
    if (!got) {
      ++o.empty;
      continue;
    }
    ++o.deq;
    o.deq_sum += *got;
    if (!fifo.see(*got)) ++o.fifo_bad;
  }
  o.steps = platform::tls_counts() - steps0;
  o.rbt = pbt::tls_rbt_touches() - rbt0;
}

void run_object(const Workload& w, core::SplitMix& rng, double scale,
                Tracer& tr, uint64_t parent, Rep& r) {
  const int64_t pairs = scaled(w.pairs, scale);
  const int64_t prefill = scaled(w.prefill, scale);
  // Inputs from the seed: the ordering-tree leaf each worker binds (which
  // leaf parent, and which of its two leaves), and where each producer's
  // sequence numbers start.
  std::array<int, kThreads> leaf{};
  for (int i = 0; i < kThreads; ++i)
    leaf[static_cast<size_t>(i)] = 2 * i + static_cast<int>(rng.below(2));
  for (size_t i = kThreads - 1; i > 0; --i)
    std::swap(leaf[i], leaf[static_cast<size_t>(rng.below(i + 1))]);
  std::array<uint64_t, kThreads + 1> base{};
  for (uint64_t& b : base) b = rng.below(uint64_t{1} << 30);

  Clock::time_point t0 = Clock::now();
  api::AnyQueue<uint64_t> q;
  {
    Scope s(tr, 0, "api.make_queue", parent);
    q = api::make_queue<uint64_t>(w.queue, api::QueueConfig{.procs = kProcs});
  }
  uint64_t in_sum = 0;
  {
    Scope s(tr, 0, "core.prefill", parent);
    q.bind_thread(0);
    for (int64_t i = 0; i < prefill; ++i) {
      uint64_t v = tag(kThreads, base[kThreads] + static_cast<uint64_t>(i));
      q.enqueue(v);
      in_sum += v;
    }
  }
  std::vector<WorkerOut> out(kThreads);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      worker(q, t, leaf[static_cast<size_t>(t)], base[static_cast<size_t>(t)],
             pairs, tr, parent, ready, go, out[static_cast<size_t>(t)]);
    });
  while (ready.load(std::memory_order_acquire) < kThreads)
    std::this_thread::yield();
  Clock::time_point t1 = Clock::now();
  const double cpu0 = wfqbench::self_cpu_s();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  Clock::time_point t2 = Clock::now();
  const double cpu = wfqbench::self_cpu_s() - cpu0;

  // Quiescent drain: every item enqueued must come out exactly once.
  uint64_t drained = 0, fifo_bad = 0, out_sum = 0;
  {
    Scope s(tr, 0, "core.drain", parent);
    q.bind_thread(0);
    FifoCheck fifo;
    while (std::optional<uint64_t> v = q.dequeue()) {
      ++drained;
      out_sum += *v;
      if (!fifo.see(*v)) ++fifo_bad;
    }
  }
  const api::SpaceStats space = q.space_stats();

  const auto ops = static_cast<uint64_t>(2 * kThreads * pairs);
  uint64_t deq = 0, empty = 0, cas = 0, cas_fail = 0, steps = 0, rbt = 0;
  std::vector<double> pair_us;
  std::vector<uint32_t> enq_ns, deq_ns;
  for (WorkerOut& o : out) {
    deq += o.deq;
    empty += o.empty;
    fifo_bad += o.fifo_bad;
    in_sum += o.enq_sum;
    out_sum += o.deq_sum;
    steps += o.steps.total();
    cas += o.steps.cas_attempts;
    cas_fail += o.steps.cas_failures;
    rbt += o.rbt;
    pair_us.insert(pair_us.end(), o.pair_us.begin(), o.pair_us.end());
    enq_ns.insert(enq_ns.end(), o.enq_ns.begin(), o.enq_ns.end());
    deq_ns.insert(deq_ns.end(), o.deq_ns.begin(), o.deq_ns.end());
  }
  const auto enq = static_cast<uint64_t>(prefill + kThreads * pairs);
  // Every worker enqueues before it dequeues, so no dequeue may find the
  // queue empty.
  r.check(empty == 0, std::to_string(empty) + " dequeues returned empty");
  r.check(fifo_bad == 0,
          std::to_string(fifo_bad) + " items broke per-producer FIFO");
  r.check(enq == deq + drained, "item count not conserved");
  r.check(in_sum == out_sum, "item value sum not conserved");
  r.attempted = ops;
  r.failed = empty + fifo_bad +
             (enq > deq + drained ? enq - deq - drained : deq + drained - enq);

  std::sort(pair_us.begin(), pair_us.end());
  r.samples = pair_us.size();
  r.e2e = {{"throughput_per_s", ratio(dbl(ops), seconds(t2 - t1))},
           {"latency_p50_us", ranked(pair_us, 50)},
           {"latency_p90_us", ranked(pair_us, 90)},
           {"latency_p99_us", ranked(pair_us, 99)},
           {"latency_p999_us", ranked(pair_us, 99.9)},
           {"setup_s", seconds(t1 - t0)},
           {"peak_rss_mb", wfqbench::peak_rss_mb("self")},
           {"cpu_us_per_op", ratio(cpu * 1e6, dbl(ops))}};
  if (!tr.enabled()) return;

  std::sort(enq_ns.begin(), enq_ns.end());
  std::sort(deq_ns.begin(), deq_ns.end());
  const double enq_p50 = ranked(enq_ns, 50), deq_p50 = ranked(deq_ns, 50);
  const double n = dbl(ops);
  r.layer = {{"core.enq_p50_ns", enq_p50},
             {"core.enq_p99_ns", ranked(enq_ns, 99)},
             {"core.deq_p50_ns", deq_p50},
             {"core.deq_p99_ns", ranked(deq_ns, 99)},
             {"core.steps_per_op", dbl(steps) / n},
             {"core.cas_per_op", dbl(cas) / n},
             {"core.cas_fail_ratio", ratio(dbl(cas_fail), dbl(cas))},
             {"core.deq_empty_ratio", dbl(empty) / (n / 2)},
             {"core.live_blocks_end", dbl(space.live_blocks)},
             {"core.ebr_retired_end", dbl(space.ebr_retired)},
             {"pbt.rbt_touches_per_op", dbl(rbt) / n},
             // No broker process and no load generator on this workload.
             {"broker.io_busy_frac", 0},
             {"broker.servicer_busy_frac", 0},
             {"broker.io_ctxsw_per_msg", 0},
             {"broker.servicer_ctxsw_per_msg", 0},
             {"broker.deq_empty_ratio", 0},
             {"broker.shard_skew", 0},
             {"loadgen.busy_cores", 0},
             {"loadgen.lag_frac", 0},
             // The pair's own calls are what can explain the pair latency.
             {"budget.explained_us", (enq_p50 + deq_p50) / 1000}};
}

// ---- broker workloads ------------------------------------------------------

/// Polls the broker's socket until a connect succeeds and a PING is
/// answered; false if the child exits or 10 s pass first.
bool wait_serving(wfqbench::ChildBroker& b, const std::string& sock) {
  auto deadline = Clock::now() + std::chrono::seconds(10);
  net::FdHandle fd;
  while (!(fd = net::connect_uds(sock)).valid()) {
    if (!b.running() || Clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  net::set_recv_timeout(fd.get(), 5000);
  net::Frame ping;
  ping.op = net::Opcode::ping;
  std::string wire;
  net::encode_frame(ping, wire);
  if (!net::write_all(fd.get(), wire)) return false;
  net::Decoder dec;
  net::Frame resp;
  char buf[256];
  while (dec.next(resp) != net::DecodeStatus::ok) {
    ssize_t n = ::read(fd.get(), buf, sizeof(buf));
    if (n <= 0) return false;
    dec.feed(buf, static_cast<size_t>(n));
  }
  return resp.op == net::Opcode::pong;
}

uint64_t sum(const std::vector<uint64_t>& xs) {
  uint64_t s = 0;
  for (uint64_t x : xs) s += x;
  return s;
}

void run_broker(const Workload& w, uint32_t key_base, double scale,
                Tracer& tr, uint64_t parent, Rep& r) {
  const bool open = w.rate > 0;
  int64_t msgs = scaled(w.msgs, scale);
  msgs -= msgs % 2;  // whole ENQ/DEQ pairs, so every shard ends empty
  r.attempted = static_cast<uint64_t>(kConns * msgs);
  const std::string sock = "wfqbench-" + std::to_string(::getpid()) + ".sock";

  Clock::time_point t0 = Clock::now();
  const uint64_t spawn = tr.new_id(0);
  wfqbench::ChildBroker broker(
      wfqbench::self_dir() + "wfqbench_broker",
      {"--uds", sock, "--shards", std::to_string(kShards), "--groups",
       std::to_string(kGroups), "--backing", w.backing},
      "wfqbench_broker.log");
  const bool up = wait_serving(broker, sock);
  Clock::time_point t1 = Clock::now();
  tr.record(0, spawn, "broker.spawn_to_pong", t0, t1, parent);
  r.check(up, "broker did not answer PING within 10 s");
  if (!up) {
    r.failed = r.attempted;
    return;
  }

  broker::LoadgenConfig cfg;
  cfg.uds_path = sock;
  cfg.connections = kConns;
  cfg.msgs_per_conn = msgs;
  cfg.window = w.window;
  cfg.mode = open ? broker::LoadgenConfig::Mode::open
                  : broker::LoadgenConfig::Mode::closed;
  cfg.rate_per_conn = w.rate;
  cfg.key_base = key_base;

  const std::vector<TaskSample> tasks0 = wfqbench::read_tasks(broker.pid());
  const double gen_cpu0 = wfqbench::self_cpu_s();
  // The open-loop generator paces with sleep_until, and its timer slack
  // decides how many requests leave per wakeup: at 50k/s per connection,
  // 1 ns sends them one by one and doubles the broker's CPU per request
  // against 50 us. Fixed at the Linux default, not inherited.
  ::prctl(PR_SET_TIMERSLACK, kTimerSlackNs);
  broker::LoadgenResult lr;
  {
    Scope s(tr, 0, "broker.run_loadgen", parent);
    lr = broker::run_loadgen(cfg);
  }
  const double gen_cpu = wfqbench::self_cpu_s() - gen_cpu0;
  const std::vector<TaskSample> tasks1 = wfqbench::read_tasks(broker.pid());
  const double rss = wfqbench::peak_rss_mb(std::to_string(broker.pid()));
  std::string stat;
  {
    Scope s(tr, 0, "broker.sigterm_drain", parent);
    stat = broker.stop(std::chrono::seconds(20));
  }
  ::unlink(sock.c_str());

  // Final STAT, printed by the broker after its drain.
  const std::vector<uint64_t> enq = wfqbench::json_uints(stat, "enq");
  const std::vector<uint64_t> hit = wfqbench::json_uints(stat, "deq_hit");
  const std::vector<uint64_t> empty = wfqbench::json_uints(stat, "deq_empty");
  const uint64_t n_enq = sum(enq), n_hit = sum(hit), n_empty = sum(empty);
  r.check(!lr.connect_failed, "a loadgen connection failed");
  r.check(lr.sent == r.attempted, "sent " + std::to_string(lr.sent) + " of " +
                                      std::to_string(r.attempted));
  r.check(lr.acked == lr.sent, "acked " + std::to_string(lr.acked) +
                                   " of " + std::to_string(lr.sent) + " sent");
  r.check(lr.errors == 0, std::to_string(lr.errors) + " ERR responses");
  r.check(broker.exited_ok(), "broker did not exit 0 after SIGTERM");
  r.check(enq.size() == kShards && hit.size() == kShards &&
              empty.size() == kShards,
          "final STAT report missing or malformed");
  r.check(n_enq == n_hit, "STAT enq != deq_hit");
  r.check(n_empty == 0, "STAT deq_empty != 0");
  r.check(n_enq + n_hit == lr.acked, "STAT op count != acked requests");
  r.failed = (r.attempted - std::min(lr.acked, r.attempted)) + lr.errors +
             n_empty + (n_enq > n_hit ? n_enq - n_hit : n_hit - n_enq);

  // Broker CPU over the run: threads present in both samples.
  uint64_t run_ns = 0;
  for (const TaskSample& b : tasks1)
    for (const TaskSample& a : tasks0)
      if (a.tid == b.tid) run_ns += b.run_ns - a.run_ns;
  const double acked = dbl(lr.acked);
  std::sort(lr.latencies_us.begin(), lr.latencies_us.end());
  r.samples = lr.latencies_us.size();
  r.e2e = {{"throughput_per_s", lr.msgs_per_s},
           {"latency_p50_us", ranked(lr.latencies_us, 50)},
           {"latency_p90_us", ranked(lr.latencies_us, 90)},
           {"latency_p99_us", ranked(lr.latencies_us, 99)},
           {"latency_p999_us", ranked(lr.latencies_us, 99.9)},
           {"setup_s", seconds(t1 - t0)},
           {"peak_rss_mb", rss},
           {"cpu_us_per_op", ratio(dbl(run_ns) / 1000, acked)}};

  // A run the generator could not drive is not a measurement of the broker.
  const double busy = ratio(gen_cpu, lr.elapsed_s);
  const int gen_threads = open ? 2 * kConns : kConns;
  const double planned_s = open ? dbl(msgs) / w.rate : 0;
  const double lag = open ? ratio(lr.elapsed_s - planned_s, planned_s) : 0;
  r.valid = busy < 0.9 * gen_threads && lag <= 0.01;
  if (!tr.enabled()) return;

  // Threads by spawn order: main, one servicer per group, the I/O loop.
  const bool split =
      tasks0.size() == 1 + kGroups + 1 && tasks1.size() == tasks0.size();
  r.check(split, "broker has " + std::to_string(tasks1.size()) +
                     " threads, expected 1 + groups + 1");
  auto busy_of = [&](size_t i) {
    if (!split) return 0.0;
    return ratio(dbl(tasks1[i].run_ns - tasks0[i].run_ns) / 1e9, lr.elapsed_s);
  };
  auto ctxsw_of = [&](size_t i) {
    return split ? dbl(tasks1[i].ctxsw - tasks0[i].ctxsw) : 0.0;
  };
  const size_t io = tasks0.size() - 1;
  double svc_busy = 0, svc_ctxsw = 0;
  for (size_t g = 1; g <= kGroups; ++g) {
    svc_busy += busy_of(g) / kGroups;
    svc_ctxsw += ctxsw_of(g);
  }
  double total_ops = 0, max_ops = 0;
  const size_t shards = std::min({enq.size(), hit.size(), empty.size()});
  for (size_t s = 0; s < shards; ++s) {
    const double ops = dbl(enq[s] + hit[s] + empty[s]);
    total_ops += ops;
    max_ops = std::max(max_ops, ops);
  }
  const double live = dbl(sum(wfqbench::json_uints(stat, "live_blocks")));
  const double retired = dbl(sum(wfqbench::json_uints(stat, "ebr_retired")));
  r.layer = {{"core.live_blocks_end", live},
             {"core.ebr_retired_end", retired},
             {"broker.io_busy_frac", busy_of(io)},
             {"broker.servicer_busy_frac", svc_busy},
             {"broker.io_ctxsw_per_msg", ratio(ctxsw_of(io), acked)},
             {"broker.servicer_ctxsw_per_msg", ratio(svc_ctxsw, acked)},
             {"broker.deq_empty_ratio",
              ratio(dbl(n_empty), dbl(n_hit + n_empty))},
             {"broker.shard_skew", ratio(max_ops * kShards, total_ops)},
             {"loadgen.busy_cores", busy},
             {"loadgen.lag_frac", lag}};
}

// ---- per-layer replays (traced run only) -----------------------------------

/// Core layer on a broker workload: the backing's queue as one servicer
/// uses it, one thread alternating enqueue and dequeue at depth 0..1, every
/// call timed.
void replay_core(const char* queue, int64_t n, uint64_t base, Tracer& tr,
                 uint64_t parent, Rep& r) {
  Scope span(tr, 0, "replay.core", parent);
  api::AnyQueue<uint64_t> q =
      api::make_queue<uint64_t>(queue, api::QueueConfig{.procs = 1});
  q.bind_thread(0);
  std::vector<uint32_t> enq_ns, deq_ns;
  enq_ns.reserve(static_cast<size_t>(n));
  deq_ns.reserve(static_cast<size_t>(n));
  uint64_t empty = 0, wrong = 0;
  const platform::StepCounts steps0 = platform::tls_counts();
  const uint64_t rbt0 = pbt::tls_rbt_touches();
  for (int64_t i = 0; i < n; ++i) {
    const uint64_t v = base + static_cast<uint64_t>(i);
    Clock::time_point a = Clock::now();
    q.enqueue(v);
    Clock::time_point b = Clock::now();
    std::optional<uint64_t> got = q.dequeue();
    Clock::time_point c = Clock::now();
    enq_ns.push_back(ns32(b - a));
    deq_ns.push_back(ns32(c - b));
    if (!got) ++empty;
    else if (*got != v) ++wrong;
  }
  const platform::StepCounts d = platform::tls_counts() - steps0;
  const double ops = dbl(2 * n);
  r.check(empty == 0 && wrong == 0, "core replay lost or reordered items");
  std::sort(enq_ns.begin(), enq_ns.end());
  std::sort(deq_ns.begin(), deq_ns.end());
  r.layer.insert(
      r.layer.end(),
      {{"core.enq_p50_ns", ranked(enq_ns, 50)},
       {"core.enq_p99_ns", ranked(enq_ns, 99)},
       {"core.deq_p50_ns", ranked(deq_ns, 50)},
       {"core.deq_p99_ns", ranked(deq_ns, 99)},
       {"core.steps_per_op", dbl(d.total()) / ops},
       {"core.cas_per_op", dbl(d.cas_attempts) / ops},
       {"core.cas_fail_ratio", ratio(dbl(d.cas_failures), dbl(d.cas_attempts))},
       {"core.deq_empty_ratio", dbl(empty) / dbl(n)},
       {"pbt.rbt_touches_per_op", dbl(pbt::tls_rbt_touches() - rbt0) / ops}});
}

/// The wfb-v1 codec: `n` requests of the workload's ENQ/DEQ mix and their
/// responses, in bursts of `burst` frames (one write buffer per burst, one
/// Decoder feed per burst, as the broker and loadgen do). Encode and decode
/// are timed as whole passes: a clock read per frame would cost as much as
/// the frame.
void replay_net(int64_t n, int burst, uint32_t key, uint64_t base,
                Tracer& tr, uint64_t parent, Rep& r) {
  Scope span(tr, 0, "replay.net", parent);
  std::vector<std::string> bursts;
  bursts.reserve(static_cast<size_t>(2 * (n / burst + 1)));
  auto encode_pass = [&] {
    for (int64_t i = 0; i < n; i += burst) {
      std::string req, resp;
      for (int64_t j = i; j < std::min<int64_t>(n, i + burst); ++j) {
        net::Frame q, s;
        q.key = s.key = key;
        if (j % 2 == 0) {
          q.op = net::Opcode::enq;
          q.payload = net::encode_value(base + static_cast<uint64_t>(j));
          s.op = net::Opcode::enq_ok;
        } else {
          q.op = net::Opcode::deq;
          s.op = net::Opcode::deq_ok;
          s.payload = net::encode_value(base + static_cast<uint64_t>(j - 1));
        }
        net::encode_frame(q, req);
        net::encode_frame(s, resp);
      }
      bursts.push_back(std::move(req));
      bursts.push_back(std::move(resp));
    }
  };
  int64_t frames = 0, bytes = 0;
  auto decode_pass = [&] {
    net::Decoder dec;
    net::Frame f;
    for (const std::string& b : bursts) {
      dec.feed(b);
      while (dec.next(f) == net::DecodeStatus::ok) ++frames;
      bytes += static_cast<int64_t>(b.size());
    }
  };
  const uint64_t enc_id = tr.new_id(0);
  Clock::time_point t0 = Clock::now();
  encode_pass();
  Clock::time_point t1 = Clock::now();
  const uint64_t dec_id = tr.new_id(0);
  decode_pass();
  Clock::time_point t2 = Clock::now();
  tr.record(0, enc_id, "net.encode_frame", t0, t1, span.id());
  tr.record(0, dec_id, "net.Decoder", t1, t2, span.id());
  r.check(frames == 2 * n, "codec replay decoded " + std::to_string(frames) +
                               " of " + std::to_string(2 * n) + " frames");
  const double nf = dbl(2 * n);
  r.layer.insert(r.layer.end(),
                 {{"net.encode_ns_per_frame", seconds(t1 - t0) * 1e9 / nf},
                  {"net.decode_ns_per_frame", seconds(t2 - t1) * 1e9 / nf},
                  {"net.wire_bytes_per_msg", dbl(bytes) / dbl(n)}});
}

/// broker::ShardMap on the workload's backing and keys, as the servicers
/// call it: each connection's ENQ then DEQ, connections interleaved.
void replay_shard(const char* backing, uint32_t key_base, int64_t n,
                  uint64_t base, Tracer& tr, uint64_t parent, Rep& r) {
  Scope span(tr, 0, "broker.ShardMap", parent);
  broker::ShardMap map(kShards, backing, n);
  for (uint32_t c = 0; c < kConns; ++c)
    map.bind_servicer(map.shard_of(key_base + c));
  uint64_t empty = 0;
  Clock::time_point t0 = Clock::now();
  for (int64_t i = 0; i < n; ++i) {
    const uint32_t key = key_base + static_cast<uint32_t>((i / 2) % kConns);
    const int s = map.shard_of(key);
    if (i % 2 == 0) {
      map.enqueue(s, key, base + static_cast<uint64_t>(i));
    } else {
      int tenant = -1;
      if (!map.dequeue(s, tenant)) ++empty;
    }
  }
  Clock::time_point t1 = Clock::now();
  r.check(empty == 0, "shard replay found a shard empty");
  r.layer.emplace_back("broker.shard_op_ns", seconds(t1 - t0) * 1e9 / dbl(n));
}

/// svc::ServiceFacade over DWRR with 4 tenants of the workload's queue:
/// enqueue for the connection's tenant, then service_next, every call timed.
void replay_svc(const char* queue, uint32_t key_base, int64_t n,
                uint64_t base, Tracer& tr, uint64_t parent, Rep& r) {
  Scope span(tr, 0, "svc.ServiceFacade", parent);
  svc::ServiceFacade<uint64_t> f = api::make_service<uint64_t>(
      std::string("dwrr:4:") + queue, api::QueueConfig{.procs = 1});
  f.bind_thread(0);
  std::vector<uint32_t> enq_ns, next_ns;
  enq_ns.reserve(static_cast<size_t>(n));
  next_ns.reserve(static_cast<size_t>(n));
  uint64_t empty = 0;
  for (int64_t i = 0; i < n; ++i) {
    const auto key = key_base + static_cast<uint32_t>(i % kConns);
    const int tenant = static_cast<int>(key % 4);
    Clock::time_point a = Clock::now();
    f.enqueue(tenant, base + static_cast<uint64_t>(i));
    Clock::time_point b = Clock::now();
    if (!f.service_next()) ++empty;
    Clock::time_point c = Clock::now();
    enq_ns.push_back(ns32(b - a));
    next_ns.push_back(ns32(c - b));
  }
  r.check(empty == 0, "service replay found the facade empty");
  std::sort(enq_ns.begin(), enq_ns.end());
  std::sort(next_ns.begin(), next_ns.end());
  r.layer.insert(r.layer.end(), {{"svc.enqueue_ns", ranked(enq_ns, 50)},
                                 {"svc.service_next_ns", ranked(next_ns, 50)}});
}

/// The paper's cost model: exact shared-memory steps per operation under
/// the simulator, p = 3, alternating enq/deq, round-robin and anti-faa
/// schedules pooled. These counts repeat exactly from run to run.
void sim_steps(const char* queue, Tracer& tr, uint64_t parent, Rep& r) {
  Scope span(tr, 0, "api.measure_ops", parent);
  api::OpSamples all;
  for (const char* adversary : {"round-robin", "anti-faa"}) {
    api::AnyQueue<uint64_t> q = api::make_queue<uint64_t>(
        queue, api::sized_config(kThreads, api::Backend::sim, kSimOps));
    all.merge(api::measure_ops(q, kThreads, kSimOps, api::OpKind::alternate,
                               adversary));
  }
  double mean = 0, max = 0;
  for (double s : all.steps) {
    mean += s / static_cast<double>(all.steps.size());
    max = std::max(max, s);
  }
  r.layer.insert(r.layer.end(),
                 {{"core.sim_steps_mean", mean}, {"core.sim_steps_max", max}});
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void print_json(const Workload& w, uint64_t seed, bool traced, Rep& r) {
  // JSON has no NaN or infinity: such a value is a bug, reported as one.
  for (auto* kv : {&r.e2e, &r.layer})
    for (auto& [name, v] : *kv)
      if (!std::isfinite(v)) {
        r.check(false, name + " is not finite");
        v = 0;
      }
  std::ostringstream os;
  os << std::setprecision(17);
  auto dict = [&](const std::vector<std::pair<std::string, double>>& kv) {
    os << "{";
    for (size_t i = 0; i < kv.size(); ++i)
      os << (i ? "," : "") << "\"" << kv[i].first << "\":" << kv[i].second;
    os << "}";
  };
  os << "{\"workload\":\"" << w.name << "\",\"seed\":" << seed
     << ",\"traced\":" << (traced ? "true" : "false")
     << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
     << ",\"samples\":" << r.samples
     << ",\"valid\":" << (r.valid ? "true" : "false") << ",\"errors\":[";
  for (size_t i = 0; i < r.errors.size(); ++i)
    os << (i ? "," : "") << "\"" << json_escape(r.errors[i]) << "\"";
  os << "],\"e2e\":";
  dict(r.e2e);
  os << ",\"layer\":";
  dict(r.layer);
  os << "}";
  std::cout << os.str() << std::endl;
}

int usage(const char* why) {
  std::cerr << "wfqbench: " << why
            << "\nusage: wfqbench --workload <name> --seed <n> [--scale <f>] "
               "[--trace <file>]\nworkloads:";
  for (const Workload& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name, trace_path;
  uint64_t seed = 1;
  double scale = 1.0;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      name = v;
    } else if (a == "--seed") {
      seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0')
        return usage("--seed wants an unsigned integer");
    } else if (a == "--scale") {
      scale = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(scale > 0 && scale <= 1))
        return usage("--scale wants a number in (0, 1]");
    } else if (a == "--trace") {
      trace_path = v;
    } else {
      return usage(("unknown flag " + a).c_str());
    }
  }
  const Workload* w = find_workload(name);
  if (w == nullptr) return usage(("unknown workload \"" + name + "\"").c_str());

  const bool traced = !trace_path.empty();
  Tracer tr(traced, 1 + kThreads);
  Rep r;
  Clock::time_point origin = Clock::now();
  core::SplitMix rng(seed);
  {
    Scope rep(tr, 0, w->name);
    const bool object = w->backing == nullptr;
    if (object) run_object(*w, rng, scale, tr, rep.id(), r);
    const uint32_t key_base = pick_key_base(rng, w->rate > 0);
    const uint64_t base = rng.below(uint64_t{1} << 40);
    if (!object) run_broker(*w, key_base, scale, tr, rep.id(), r);
    if (traced) {
      const int64_t n = scaled(kReplayOps, scale);
      if (!object) replay_core(w->queue, n, base, tr, rep.id(), r);
      // Open-loop and object workloads put one request on the wire at a
      // time; closed-loop broker workloads a whole window.
      replay_net(n, object || w->rate > 0 ? 1 : w->window, key_base, base,
                 tr, rep.id(), r);
      replay_shard(object ? w->queue : w->backing, key_base, n, base, tr,
                   rep.id(), r);
      replay_svc(w->queue, key_base, n, base, tr, rep.id(), r);
      sim_steps(w->queue, tr, rep.id(), r);
      if (!object) {
        // A request costs a request and a response frame, each encoded
        // once and decoded once, plus one shard op.
        auto get = [&](const std::string& k) {
          for (const auto& [name, v] : r.layer)
            if (name == k) return v;
          return 0.0;
        };
        r.layer.emplace_back("budget.explained_us",
                             (2 * get("net.encode_ns_per_frame") +
                              2 * get("net.decode_ns_per_frame") +
                              get("broker.shard_op_ns")) / 1000);
      }
    }
  }
  if (traced && !tr.write_chrome(trace_path, origin))
    r.check(false, "cannot write trace file " + trace_path);
  print_json(*w, seed, traced, r);
  return 0;
}
