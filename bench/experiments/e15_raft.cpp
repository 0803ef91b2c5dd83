// E15 — the raft replication experiment family (ISSUE 10): REAL broker
// processes in --cluster mode on loopback TCP, spawned and killed with real
// signals by broker::ReplicaGroup. Nothing in-process: each data point
// covers the wfb-v1 raft band over sockets, the replicated-config
// bootstrap, leader election, and the ClusterClient redirect/retry path —
// the same binary and client path a deployment would run.
//
// E15a (replication-factor overhead): closed-loop ENQ/DEQ pairs through
// ClusterClient against RF = 1, 3, 5 replica groups. Only broker METADATA
// rides the raft log (see src/broker/broker.hpp); the ENQ/DEQ data path is
// served by the leader locally, so the expected overhead is heartbeat
// traffic plus the extra processes on the box — small. The acceptance
// metric is rf3_over_rf1 (gate >= 0.70, set from measurement on a 2-core
// CI box where five broker processes contend for cores; single-core runs
// measured ~0.85-1.0 since followers are nearly idle).
//
// E15b (failover-time distribution): a 3-replica group serving a prober of
// ENQ/DEQ pairs; SIGKILL the leader and time from the kill to the first
// post-kill DEQ_OK served by the new leader (client-observed failover:
// election + client rediscovery). Several trials, fresh cluster each (a
// crashed replica never rejoins — no stable storage). Gate: median below
// 10x the election timeout.
//
// E15c (election-timeout sensitivity): the E15b measurement swept over
// --election-ms. Expected and reported, not gated: failover time scales
// roughly linearly with the timeout — the randomized-timeout election is
// the dominant term, so timeout choice IS the availability knob (the
// paper-standard raft tradeoff: short timeouts recover faster but risk
// spurious elections on slow networks).
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/experiment.hpp"
#include "broker/loadgen.hpp"
#include "broker/replica_group.hpp"
#include "net/frame.hpp"
#include "stats/qos.hpp"

namespace {

using namespace wfq;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// The broker binary next to this bench_runner: WFQ_BROKER_BIN overrides;
/// otherwise bench_runner lives in <build>/bench/ and the broker target in
/// <build>/.
std::string broker_bin() {
  const char* env = std::getenv("WFQ_BROKER_BIN");
  if (env != nullptr && *env != '\0') return env;
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    std::string exe(buf);
    size_t slash = exe.rfind('/');
    if (slash != std::string::npos) {
      std::string dir = exe.substr(0, slash);
      size_t up = dir.rfind('/');
      for (const std::string& cand :
           {up != std::string::npos ? dir.substr(0, up) + "/broker"
                                    : std::string(),
            dir + "/broker"}) {
        if (!cand.empty() && ::access(cand.c_str(), X_OK) == 0) return cand;
      }
    }
  }
  return "broker";  // last resort: PATH lookup via execvp semantics
}

/// Blocks until the group serves: one ENQ round trip through the redirect
/// path. Returns false if no leader emerged within the budget.
bool wait_serving(const std::vector<uint16_t>& ports, uint64_t budget_ms) {
  broker::ClusterClient::Options o;
  o.ports = ports;
  o.give_up_ms = budget_ms;
  broker::ClusterClient cc(o);
  net::Frame enq;
  enq.op = net::Opcode::enq;
  enq.key = 0;
  enq.payload = net::encode_value(1);
  return cc.request(enq).has_value();
}

// ---- E15a -----------------------------------------------------------------

api::Report run_rf(const api::RunOptions& opts) {
  api::Report r = api::make_report("raft_rf");
  const int64_t total_msgs = opts.ops_or(20'000);
  const int conns = 2;
  std::vector<int> rfs = opts.procs_or({1, 3, 5});
  // Replica counts must be odd (majority quorum) and >= 1.
  rfs.erase(std::remove_if(rfs.begin(), rfs.end(),
                           [](int x) { return x < 1 || x % 2 == 0; }),
            rfs.end());
  if (rfs.empty()) rfs = {1, 3, 5};
  r.preamble = {
      "E15a: cluster throughput vs replication factor (real broker "
      "processes,",
      "      loopback TCP, closed-loop ENQ/DEQ pairs via the redirecting "
      "ClusterClient,",
      "      " + std::to_string(total_msgs) + " total msgs, " +
          std::to_string(conns) + " clients)"};

  auto& sec = r.section("E15a");
  sec.cols({"rf", "msgs/s", "redirects", "rtt p50 us", "rtt p99 us"});
  double rf1 = 0, rf3 = 0;
  for (int rf : rfs) {
    broker::ReplicaGroup g;
    double tput = 0, p50 = 0, p99 = 0;
    uint64_t redirects = 0;
    if (g.spawn(broker_bin(), rf, "ubq", 150) &&
        wait_serving(g.ports(), 20'000)) {
      broker::LoadgenConfig lcfg;
      lcfg.cluster_ports = g.ports();
      lcfg.connections = conns;
      lcfg.msgs_per_conn =
          std::max<int64_t>(2, (total_msgs / conns) & ~int64_t{1});
      lcfg.window = 1;
      broker::LoadgenResult lr = broker::run_loadgen(lcfg);
      tput = lr.msgs_per_s;
      redirects = lr.redirects;
      p50 = stats::percentile(lr.latencies_us, 50);
      p99 = stats::percentile(lr.latencies_us, 99);
    }
    if (rf == 1) rf1 = tput;
    if (rf == 3) rf3 = tput;
    sec.row(rf, api::cell(tput, 0), api::cell(redirects), api::cell(p50, 1),
            api::cell(p99, 1));
    sec.metric("msgs_per_s_rf" + std::to_string(rf), tput);
  }
  if (rf1 > 0 && rf3 > 0) sec.metric("rf3_over_rf1", rf3 / rf1);
  sec.note("  gate: rf3_over_rf1 >= 0.70 — only metadata rides the raft");
  sec.note("  log, so the ENQ/DEQ path pays heartbeats + process contention,");
  sec.note("  not per-op consensus. Gate set from measurement on a 2-core");
  sec.note("  box (observed ~0.85-1.0; 0.70 leaves headroom for CI noise).");
  return r;
}

// ---- E15b / E15c ----------------------------------------------------------

/// One failover measurement: fresh RF-3 group, prober traffic, SIGKILL the
/// leader, time to the first post-kill DEQ_OK. Returns <0 on setup failure.
double one_failover_ms(uint64_t election_ms) {
  broker::ReplicaGroup g;
  double result = -1;
  if (g.spawn(broker_bin(), 3, "ubq", election_ms) &&
      wait_serving(g.ports(), 20'000)) {
    broker::ClusterClient::Options o;
    o.ports = g.ports();
    o.read_timeout_ms = std::max<uint64_t>(50, election_ms / 2);
    o.give_up_ms = 30'000;
    broker::ClusterClient cc(o);

    net::Frame enq;
    enq.op = net::Opcode::enq;
    enq.key = 7;
    enq.payload = net::encode_value(42);
    net::Frame deq;
    deq.op = net::Opcode::deq;
    deq.key = 7;

    // A couple of warm-up pairs pin the client to the leader.
    bool ok = true;
    for (int i = 0; i < 2 && ok; ++i)
      ok = cc.request(enq).has_value() && cc.request(deq).has_value();
    int leader = cc.current();
    if (ok && leader >= 0 && leader < 3) {
      auto t_kill = Clock::now();
      g.kill(static_cast<size_t>(leader), SIGKILL);
      // First post-kill DEQ_OK: each request internally rides redirects
      // and reconnects until the new leader serves it.
      while (true) {
        auto e = cc.request(enq);
        if (!e) break;
        auto d = cc.request(deq);
        if (!d) break;
        if (d->op == net::Opcode::deq_ok) {
          result = ms_since(t_kill);
          break;
        }
      }
    }
  }
  return result;
}

api::Report run_failover(const api::RunOptions& opts) {
  api::Report r = api::make_report("raft_failover");
  const uint64_t election_ms = 150;
  const int trials = static_cast<int>(
      std::max<int64_t>(3, std::min<int64_t>(opts.ops_or(7), 25)));
  r.preamble = {
      "E15b: leader-failover time, 3-replica group, election timeout " +
          std::to_string(election_ms) + " ms, " + std::to_string(trials) +
          " trials",
      "      (SIGKILL the serving leader; time to the first DEQ_OK from "
      "the new one,",
      "      fresh cluster per trial — crashed replicas never rejoin)"};

  auto& sec = r.section("E15b");
  sec.cols({"trial", "failover ms"});
  std::vector<double> samples;
  for (int t = 0; t < trials; ++t) {
    double ms = one_failover_ms(election_ms);
    if (ms >= 0) {
      samples.push_back(ms);
      sec.row(t, api::cell(ms, 1));
    } else {
      sec.row(t, "setup failed");
    }
  }
  if (!samples.empty()) {
    double median = stats::percentile(samples, 50);
    sec.metric("failover_ms_median", median);
    sec.metric("failover_ms_p90", stats::percentile(samples, 90));
    sec.metric("failover_over_election", median / double(election_ms));
  }
  sec.note("  gate: failover_ms_median < 10x election timeout (" +
           std::to_string(10 * election_ms) +
           " ms) — election (1-2 timeouts");
  sec.note("  incl. randomized spread) + client rediscovery must not blow");
  sec.note("  past an order of magnitude of the configured timeout.");
  return r;
}

api::Report run_election_sweep(const api::RunOptions& opts) {
  api::Report r = api::make_report("raft_election_sweep");
  const int trials = static_cast<int>(
      std::max<int64_t>(2, std::min<int64_t>(opts.ops_or(3), 10)));
  const std::vector<uint64_t> timeouts = {60, 150, 400};
  r.preamble = {
      "E15c: failover time vs election timeout, 3-replica groups, " +
      std::to_string(trials) + " trials per point"};

  auto& sec = r.section("E15c");
  sec.cols({"election ms", "failover p50 ms", "failover max ms",
            "failover/election"});
  for (uint64_t t : timeouts) {
    std::vector<double> samples;
    for (int i = 0; i < trials; ++i) {
      double ms = one_failover_ms(t);
      if (ms >= 0) samples.push_back(ms);
    }
    double p50 = samples.empty() ? -1 : stats::percentile(samples, 50);
    double mx = samples.empty()
                    ? -1
                    : *std::max_element(samples.begin(), samples.end());
    sec.row(t, api::cell(p50, 1), api::cell(mx, 1),
            p50 >= 0 ? api::cell(p50 / double(t), 2) : api::cell("-"));
    sec.metric("failover_p50_ms_t" + std::to_string(t), p50);
  }
  sec.note("  expectation (no gate): failover scales roughly linearly with");
  sec.note("  the election timeout — the randomized timeout draw dominates,");
  sec.note("  so the timeout is the availability/stability tradeoff knob.");
  return r;
}

const api::ExperimentRegistrar reg_a{
    {"raft_rf", "e15a",
     "cluster throughput vs replication factor (real broker processes)", 15,
     run_rf}};
const api::ExperimentRegistrar reg_b{
    {"raft_failover", "e15b",
     "leader-failover time distribution under SIGKILL (3 replicas)", 15,
     run_failover}};
const api::ExperimentRegistrar reg_c{
    {"raft_election_sweep", "e15c",
     "failover time vs raft election timeout", 15, run_election_sweep}};

}  // namespace
