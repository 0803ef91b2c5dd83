// E14 — the broker experiment family (ISSUE 8): the sharded wfb-v1 broker
// (src/net/ + src/broker/) measured end to end over REAL sockets. Each run
// constructs an in-process Broker on a private temp UDS path (and a
// kernel-picked TCP port for E14b) and drives it with the same
// broker::run_loadgen the `loadgen` binary wraps — full codec, event
// loops, shard ops and backpressure path, nothing mocked. Every timed
// number is the median of api::kReps runs, each on a fresh broker.
//
// E14a (throughput vs client count, UDS): closed-loop ENQ/DEQ pairs from C
// connections against 4 ubq shards, fixed TOTAL message budget. Expected:
// aggregate msgs/s is monotone non-decreasing from 1 to 4 clients — more
// in-flight requests per event-loop wakeup means the syscall and wakeup
// cost amortizes over bigger bursts (this holds on a single core, where it
// cannot come from parallelism). The acceptance metric is the min ratio of
// consecutive throughputs up to 4 clients (gate: >= 1.0).
//
// E14b (transport ablation): the identical workload at fixed client count
// over loopback TCP vs UDS. No gate — the table quantifies what the
// kernel's TCP stack (checksums, nagle-off small packets, loopback routing)
// costs relative to a UDS byte stream.
//
// E14c (shard-count scaling at fixed clients): topic-isolation goodput.
// Eight clients each consume their OWN topic (their routing key). wfb-v1
// DEQ pops the shard's FIFO head whatever topic enqueued it — there is no
// selective receive — so when topics share a shard a consumer mostly pops
// foreign items and must requeue them (ENQ back under the owner's key)
// before retrying. At S=1 that requeue churn costs ~2*topics wire frames
// per delivered item; at S=8 (a shard per topic, via salted keys) every
// DEQ is a delivery. Aggregate DELIVERED msgs/s is the metric (wire msgs/s
// is reported alongside: the broker itself is equally fast at every S —
// the win is goodput, which is why real brokers shard by topic/partition).
// Gate: >= 2x delivered/s from 1 to 8 shards; holds on a single core
// because the mechanism is wasted work, not parallelism (multicore adds
// loop parallelism on top). Keys are salted (key_base search) so the C
// client keys spread across all S shards — modeling the balanced keyspace
// a real deployment routes, not splitmix collisions on 8 consecutive
// integers.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/experiment.hpp"
#include "broker/broker.hpp"
#include "broker/loadgen.hpp"
#include "platform/affinity.hpp"
#include "stats/qos.hpp"

namespace {

using namespace wfq;

/// Private per-run socket path: pid + counter so sequential brokers in one
/// bench_runner process never collide (listen_uds unlinks stale paths, but
/// two LIVE brokers must not share one).
std::string temp_uds_path() {
  static int counter = 0;
  return "/tmp/wfq-e14-" + std::to_string(::getpid()) + "-" +
         std::to_string(++counter) + ".sock";
}

/// Shard count of the E14a/E14b broker.
constexpr int kShards = 4;

/// Event-loop count for S shards: one per shard up to the core count.
/// On a 1-core box every sweep point gets ONE loop, so E14c isolates the
/// data-structure effect (per-shard backlog) from thread-count effects.
int groups_for(int shards) {
  return std::max(1, std::min(shards, platform::hardware_cores()));
}

/// Distinct shards the C keys key_base..key_base+C-1 land on.
int distinct_shards(uint32_t key_base, int conns, int shards) {
  std::set<int> hit;
  for (int c = 0; c < conns; ++c)
    hit.insert(broker::shard_of(key_base + static_cast<uint32_t>(c), shards));
  return static_cast<int>(hit.size());
}

/// Smallest key base where the C consecutive keys spread over min(C, S)
/// distinct shards. Deterministic (shard_of is a pure function).
uint32_t pick_key_base(int conns, int shards) {
  int want = std::min(conns, shards);
  for (uint32_t kb = 0; kb < 1u << 16; ++kb)
    if (distinct_shards(kb, conns, shards) >= want) return kb;
  return 0;  // unreachable for sane (conns, shards); fall back to 0
}

/// One broker lifetime: `conns` closed-loop window-1 connections send
/// `total_msgs` ENQ/DEQ pairs to 4 ubq shards over UDS, or over loopback
/// TCP when `tcp`. Returns {msgs/s, RTT p50, p99, p999 us}.
std::array<double, 4> closed_loop(int conns, int64_t total_msgs, bool tcp) {
  broker::BrokerConfig bcfg;
  bcfg.shards = kShards;
  bcfg.groups = groups_for(kShards);
  bcfg.backing = "ubq";
  bcfg.uds_path = temp_uds_path();
  if (tcp) bcfg.tcp_port = 0;  // kernel-picked; read back below
  broker::Broker b(bcfg);
  b.start();
  broker::LoadgenConfig lcfg;
  if (tcp)
    lcfg.tcp_port = b.tcp_port();
  else
    lcfg.uds_path = bcfg.uds_path;
  lcfg.connections = conns;
  // Fixed total budget: per-connection share, kept even so every
  // connection's ENQ/DEQ pairs balance and the broker drains empty.
  lcfg.msgs_per_conn =
      std::max<int64_t>(2, (total_msgs / conns) & ~int64_t{1});
  lcfg.window = 1;
  const broker::LoadgenResult lg = broker::run_loadgen(lcfg);
  b.stop();
  return {lg.msgs_per_s, stats::percentile(lg.latencies_us, 50),
          stats::percentile(lg.latencies_us, 99),
          stats::percentile(lg.latencies_us, 99.9)};
}

api::Report run_clients(const api::RunOptions& opts) {
  api::Report r = api::make_report("broker_clients");
  const int64_t total_msgs = opts.ops_or(40'000);
  const std::vector<int> client_counts = opts.procs_or({1, 2, 4, 8, 16});
  r.preamble = {
      "E14a: broker throughput + latency vs client count over UDS",
      "      " + std::to_string(kShards) + " ubq shards, " +
          std::to_string(groups_for(kShards)) + " event loop(s), " +
          std::to_string(total_msgs) +
          " total msgs (closed-loop ENQ/DEQ pairs, window 1), median of " +
          std::to_string(api::kReps)};

  auto& sec = r.section("E14a");
  sec.cols({"clients", "msgs/s", "rtt p50 us", "rtt p99 us", "rtt p999 us"});
  std::vector<double> tput;
  for (int c : client_counts) {
    const auto [rate, rtt50, rtt99, rtt999] = api::repeat(
        api::kReps, [&] { return closed_loop(c, total_msgs, false); });
    tput.push_back(rate.p50);
    sec.row(c, api::cell(rate.p50, 0), api::cell(rtt50.p50, 1),
            api::cell(rtt99.p50, 1), api::cell(rtt999.p50, 1));
    sec.metric("msgs_per_s_c" + std::to_string(c), rate);
  }
  // Gate: monotone non-decreasing 1 -> 4 clients. Computed over the sweep
  // points <= 4 actually run (the default sweep has 1, 2, 4).
  double min_ratio = 1e9;
  for (size_t i = 0; i + 1 < client_counts.size(); ++i) {
    if (client_counts[i + 1] > 4) break;
    if (tput[i] > 0) min_ratio = std::min(min_ratio, tput[i + 1] / tput[i]);
  }
  if (min_ratio < 1e9) sec.metric("monotone_min_ratio_1_to_4", min_ratio);
  sec.note("  gate: monotone_min_ratio_1_to_4 >= 1.0 — aggregate msgs/s");
  sec.note("  must not drop from 1 to 4 clients (bigger bursts per event-");
  sec.note("  loop wakeup amortize syscall cost, even on one core).");
  return r;
}

api::Report run_transport(const api::RunOptions& opts) {
  api::Report r = api::make_report("broker_transport");
  const int clients = 4;
  const int64_t total_msgs = opts.ops_or(40'000);
  r.preamble = {
      "E14b: UDS vs loopback-TCP ablation, " + std::to_string(clients) +
          " closed-loop clients, " + std::to_string(kShards) +
          " ubq shards, " + std::to_string(total_msgs) +
          " total msgs, median of " + std::to_string(api::kReps)};

  auto& sec = r.section("E14b");
  sec.cols({"transport", "msgs/s", "rtt p50 us", "rtt p99 us"});
  double uds_tput = 0, tcp_tput = 0;
  for (const bool tcp : {false, true}) {
    const std::string transport = tcp ? "tcp" : "uds";
    const auto [rate, rtt50, rtt99, rtt999] = api::repeat(
        api::kReps, [&] { return closed_loop(clients, total_msgs, tcp); });
    (tcp ? tcp_tput : uds_tput) = rate.p50;
    sec.row(transport, api::cell(rate.p50, 0), api::cell(rtt50.p50, 1),
            api::cell(rtt99.p50, 1));
    sec.metric("msgs_per_s_" + transport, rate);
  }
  if (tcp_tput > 0) sec.metric("uds_over_tcp", uds_tput / tcp_tput);
  sec.note("  expectation (no gate): UDS at or above TCP — the identical");
  sec.note("  broker behind a cheaper byte stream; the ratio prices the");
  sec.note("  loopback TCP stack.");
  return r;
}

// ---- E14c topic-consumer client -------------------------------------------
//
// Each client owns one topic (its routing key); values are tagged
// (topic << 32) | seq. The client prefills its topic (untimed), then
// consumes exactly `target` of its OWN items through windowed pipelined
// DEQs. The broker has no selective receive — DEQ pops the shard's FIFO
// head, whatever topic enqueued it — so a foreign item must be requeued
// (ENQ back under its owner's key) before trying again. When topics share
// a shard this requeue churn is most of the wire traffic; a topic with its
// own shard never sees a foreign item.

struct TopicStats {
  int64_t delivered = 0;  // own-topic items consumed
  int64_t wire = 0;       // frames sent: DEQs + requeue ENQs
  std::vector<double> deq_rtt_us;
  std::chrono::steady_clock::time_point t_end;
  bool ok = true;
};

void topic_consumer(const std::string& uds, uint32_t key_base, uint32_t topic,
                    int64_t target, int window, std::atomic<int>* barrier,
                    TopicStats* out) {
  net::FdHandle fd = net::connect_uds(uds);
  if (!fd.valid()) {
    out->ok = false;
    barrier->fetch_sub(1);
    return;
  }
  const uint32_t own_key = key_base + topic;
  net::Decoder dec;
  char buf[65536];

  // Untimed prefill: `target` tagged items onto the own topic, in windowed
  // chunks so neither socket buffer fills.
  int64_t seq = 0;
  net::Frame resp;
  for (int64_t done = 0; done < target;) {
    int64_t chunk = std::min<int64_t>(256, target - done);
    std::string wirebuf;
    for (int64_t i = 0; i < chunk; ++i) {
      net::Frame f;
      f.op = net::Opcode::enq;
      f.key = own_key;
      f.payload = net::encode_value(
          (static_cast<uint64_t>(topic) << 32) |
          static_cast<uint64_t>(seq++));
      net::encode_frame(f, wirebuf);
    }
    if (!net::write_all(fd.get(), wirebuf)) {
      out->ok = false;
      barrier->fetch_sub(1);
      return;
    }
    for (int64_t i = 0; i < chunk; ++i) {
      if (net::read_frame(fd.get(), dec, resp) != net::DecodeStatus::ok) {
        out->ok = false;
        barrier->fetch_sub(1);
        return;
      }
      if (resp.op != net::Opcode::enq_ok) out->ok = false;
    }
    done += chunk;
  }

  // All clients start consuming together: the timed region measures the
  // steady multiplexed state, not a head start on a private queue.
  barrier->fetch_sub(1);
  while (barrier->load(std::memory_order_acquire) > 0) std::this_thread::yield();

  struct Sent {
    bool is_deq;
    std::chrono::steady_clock::time_point t;
  };
  std::deque<Sent> outstanding;
  int deqs_inflight = 0;
  std::string sendbuf;
  auto push_deq = [&] {
    net::Frame f;
    f.op = net::Opcode::deq;
    f.key = own_key;
    net::encode_frame(f, sendbuf);
    outstanding.push_back({true, std::chrono::steady_clock::now()});
    ++deqs_inflight;
    ++out->wire;
  };
  auto push_requeue = [&](uint64_t v) {
    net::Frame f;
    f.op = net::Opcode::enq;
    f.key = key_base + static_cast<uint32_t>(v >> 32);  // the owner's key
    f.payload = net::encode_value(v);
    net::encode_frame(f, sendbuf);
    outstanding.push_back({false, {}});
    ++out->wire;
  };
  // Foreign items are NOT requeued immediately: with every consumer running
  // the same deterministic pop→requeue loop, the shared FIFO settles into a
  // phase-locked rotation where each consumer keeps popping the same foreign
  // items forever (a merry-go-round livelock — with two consumers, queue
  // [b,a]: A pops b and requeues, B pops a and requeues, queue is [b,a]
  // again). Holding a popped item for a jittered number of turns slips the
  // phase so every item eventually surfaces in front of its owner.
  std::vector<uint64_t> stash;
  uint64_t rng = 0x9E3779B97F4A7C15ULL ^
                 (static_cast<uint64_t>(topic) * 0xBF58476D1CE4E5B9ULL);
  auto jitter7 = [&] {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<size_t>(rng >> 61);  // 0..7
  };
  auto flush_stash = [&] {
    for (uint64_t v : stash) push_requeue(v);
    stash.clear();
  };

  int backoff_us = 0;
  while (out->delivered < target || !outstanding.empty() || !stash.empty()) {
    // In-flight DEQs are capped at the items still needed: surplus DEQs
    // only manufacture deq_empty spin (every one an op on the backing).
    int64_t want = target - out->delivered;
    if (want == 0)
      flush_stash();  // done consuming: everything held goes back now
    else
      while (stash.size() > jitter7()) {  // requeue down to a jittered level
        push_requeue(stash.back());
        stash.pop_back();
      }
    // Requeues go out in their OWN write, and occasionally with a short
    // randomized pause before the DEQ burst follows. FIFO order makes a
    // consumer's own requeues the head of whatever it pops next, so a
    // requeue+DEQ pipeline that the loop executes as one batch
    // atomically re-pops its own requeues — with every consumer doing
    // that, items never migrate to their owners and the phase is a stable
    // livelock (observed: stash == deficit for every consumer, millions
    // of wire frames, zero deliveries). The pause is the migration
    // channel: while this consumer holds back, a peer's DEQs harvest the
    // freshly requeued items.
    if (!sendbuf.empty()) {
      if (!net::write_all(fd.get(), sendbuf)) {
        out->ok = false;
        return;
      }
      sendbuf.clear();
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      if (((rng >> 29) & 7) == 0)
        std::this_thread::sleep_for(
            std::chrono::microseconds((rng >> 33) % 400));
    }
    while (deqs_inflight < static_cast<int>(std::min<int64_t>(window, want)))
      push_deq();
    if (!sendbuf.empty()) {
      if (!net::write_all(fd.get(), sendbuf)) {
        out->ok = false;
        return;
      }
      sendbuf.clear();
    }
    if (outstanding.empty()) continue;  // nothing owed; refill rebuilds
    ssize_t n = ::read(fd.get(), buf, sizeof(buf));
    if (n <= 0) {
      out->ok = false;
      return;
    }
    dec.feed(buf, static_cast<size_t>(n));
    bool hit = false, empty = false;
    while (dec.next(resp) == net::DecodeStatus::ok) {
      if (outstanding.empty()) {
        out->ok = false;
        return;
      }
      Sent s = outstanding.front();
      outstanding.pop_front();
      switch (resp.op) {
        case net::Opcode::deq_ok: {
          --deqs_inflight;
          hit = true;
          out->deq_rtt_us.push_back(
              std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - s.t)
                  .count());
          uint64_t v = 0;
          if (!net::decode_value(resp.payload, v)) {
            out->ok = false;
            return;
          }
          if (static_cast<uint32_t>(v >> 32) == topic)
            ++out->delivered;
          else
            stash.push_back(v);  // not ours: held, requeued after jitter
          break;
        }
        case net::Opcode::deq_empty:
          --deqs_inflight;
          empty = true;
          break;
        case net::Opcode::enq_ok:
          break;
        default:
          out->ok = false;
          return;
      }
    }
    // An all-empty batch means the missing items are stashed or circulating
    // through other consumers: dump the whole stash (progress guarantee —
    // everyone holding back with an empty queue would deadlock). The
    // requeues must travel in their OWN write: bundled with the next DEQ
    // burst they would be one loop batch and this consumer would
    // atomically re-pop its own requeues before anyone else could
    // interleave. A randomized escalating sleep after the flush gives the
    // items' owners a window to win the race for them.
    if (empty && !hit) {
      flush_stash();
      if (!sendbuf.empty()) {
        if (!net::write_all(fd.get(), sendbuf)) {
          out->ok = false;
          return;
        }
        sendbuf.clear();
      }
      backoff_us = std::min(backoff_us == 0 ? 50 : backoff_us * 2, 2000);
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      int sleep_us = backoff_us +
                     static_cast<int>((rng >> 33) %
                                      static_cast<uint64_t>(backoff_us));
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
    } else if (hit) {
      backoff_us = 0;
    }
  }
  out->t_end = std::chrono::steady_clock::now();
}

/// One E14c run: `clients` topic consumers against an S-shard broker.
/// Returns {delivered/s, wire msgs/s, wire/delivered, DEQ RTT p50, p99 us};
/// the rates read 0 if any consumer failed.
std::array<double, 5> topic_run(int shards, uint32_t key_base, int clients,
                                int window, int64_t per_topic) {
  broker::BrokerConfig bcfg;
  bcfg.shards = shards;
  bcfg.groups = groups_for(shards);
  bcfg.backing = "ubq";
  bcfg.uds_path = temp_uds_path();
  broker::Broker b(bcfg);
  b.start();

  std::vector<TopicStats> st(static_cast<size_t>(clients));
  std::atomic<int> barrier{clients};
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c)
    threads.emplace_back(topic_consumer, bcfg.uds_path, key_base,
                         static_cast<uint32_t>(c), per_topic, window,
                         &barrier, &st[static_cast<size_t>(c)]);
  // The timed region starts when the last prefill finishes (barrier hits
  // zero) and ends when the slowest consumer has its target.
  while (barrier.load(std::memory_order_acquire) > 0)
    std::this_thread::yield();
  auto t_start = std::chrono::steady_clock::now();
  for (std::thread& t : threads) t.join();
  b.stop();

  bool all_ok = true;
  int64_t delivered = 0, wire = 0;
  std::vector<double> rtt;
  auto t_end = t_start;
  for (const TopicStats& ts : st) {
    all_ok = all_ok && ts.ok;
    delivered += ts.delivered;
    wire += ts.wire;
    rtt.insert(rtt.end(), ts.deq_rtt_us.begin(), ts.deq_rtt_us.end());
    if (ts.t_end > t_end) t_end = ts.t_end;
  }
  double secs = std::chrono::duration<double>(t_end - t_start).count();
  bool timed = all_ok && secs > 0;
  return {timed ? delivered / secs : 0, timed ? wire / secs : 0,
          delivered > 0 ? double(wire) / delivered : 0,
          stats::percentile(rtt, 50), stats::percentile(rtt, 99)};
}

api::Report run_shards(const api::RunOptions& opts) {
  api::Report r = api::make_report("broker_shards");
  const int clients = 8;
  const int window = 32;
  const int64_t per_topic = std::max<int64_t>(1, opts.ops_or(2'000));
  const std::vector<int> shard_counts = {1, 2, 4, 8};
  r.preamble = {
      "E14c: shard-count scaling at fixed " + std::to_string(clients) +
          " topic consumers, backing ubq, median of " +
          std::to_string(api::kReps),
      "      each client consumes " + std::to_string(per_topic) +
          " items of ITS topic; foreign items popped off a shared shard "
          "are requeued (no selective receive)"};

  auto& sec = r.section("E14c");
  sec.cols({"shards", "keys hit", "delivered/s", "wire msgs/s",
            "wire/delivered", "deq p50 us", "deq p99 us"});
  double t1 = 0, t8 = 0;
  for (int s : shard_counts) {
    uint32_t kb = pick_key_base(clients, s);
    const auto [dps, wps, amplification, rtt50, rtt99] =
        api::repeat(api::kReps, [&] {
          return topic_run(s, kb, clients, window, per_topic);
        });
    if (s == 1) t1 = dps.p50;
    if (s == 8) t8 = dps.p50;
    sec.row(s, distinct_shards(kb, clients, s), api::cell(dps.p50, 0),
            api::cell(wps.p50, 0), api::cell(amplification.p50, 2),
            api::cell(rtt50.p50, 1), api::cell(rtt99.p50, 1));
    sec.metric("delivered_per_s_s" + std::to_string(s), dps);
  }
  if (t1 > 0) sec.metric("speedup_1_to_8", t8 / t1);
  sec.note("  gate: speedup_1_to_8 >= 2.0 — with all topics multiplexed");
  sec.note("  into one shard a consumer mostly pops foreign items and pays");
  sec.note("  requeue churn (wire/delivered ~ topics-per-shard * 2); a");
  sec.note("  shard per topic makes every DEQ a delivery. This is the");
  sec.note("  selective-consumption win sharding exists for, and it holds");
  sec.note("  on a single core (plus loop parallelism on multicore).");
  return r;
}

const api::ExperimentRegistrar reg_a{
    {"broker_clients", "e14a",
     "broker msgs/s + RTT percentiles vs client count over UDS (real "
     "sockets)",
     14, run_clients}};
const api::ExperimentRegistrar reg_b{
    {"broker_transport", "e14b",
     "UDS vs loopback-TCP transport ablation at fixed clients", 14,
     run_transport}};
const api::ExperimentRegistrar reg_c{
    {"broker_shards", "e14c",
     "shard-count scaling at fixed clients (topic-isolation goodput)", 14,
     run_shards}};

}  // namespace
