// E15 — the raft replication experiment family (ISSUE 10): REAL broker
// processes in --cluster mode on loopback TCP, spawned and killed with real
// signals by broker::ReplicaGroup. Nothing in-process: each data point
// covers the wfb-v1 raft band over sockets, the replicated-config
// bootstrap, leader election, and the ClusterClient redirect/retry path —
// the same binary and client path a deployment would run. Every number is
// a median over fresh groups (api::repeat); a group that never serves, or
// a failover no new leader completes, aborts the run with the reason.
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
// election + client rediscovery). Several trials (--ops, 3..25), fresh
// cluster each (a crashed replica never rejoins — no stable storage).
// Gate: median below 10x the election timeout.
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
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <stdexcept>
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

/// Starts a fresh n-replica group and blocks until it serves one ENQ
/// round trip through the redirect path. A group that does not serve
/// within 20 s is a fault to report, not a sample, so that throws.
void spawn_serving(broker::ReplicaGroup& g, int n, uint64_t election_ms) {
  bool ok = g.spawn(broker_bin(), n, "ubq", election_ms);
  if (ok) {
    broker::ClusterClient::Options o;
    o.ports = g.ports();
    o.give_up_ms = 20'000;
    net::Frame enq;
    enq.op = net::Opcode::enq;
    enq.payload = net::encode_value(1);
    ok = broker::ClusterClient(o).request(enq).has_value();
  }
  if (!ok)
    throw std::runtime_error("a " + std::to_string(n) +
                             "-replica group did not serve");
}

// ---- E15a -----------------------------------------------------------------

/// One E15a run on a fresh rf-replica group: closed-loop ENQ/DEQ pairs
/// through ClusterClient. Returns {msgs/s, redirects, RTT p50, p99 us}.
std::array<double, 4> rf_run(int rf, int conns, int64_t total_msgs) {
  broker::ReplicaGroup g;
  spawn_serving(g, rf, 150);
  broker::LoadgenConfig lcfg;
  lcfg.cluster_ports = g.ports();
  lcfg.connections = conns;
  lcfg.msgs_per_conn =
      std::max<int64_t>(2, (total_msgs / conns) & ~int64_t{1});
  lcfg.window = 1;
  const broker::LoadgenResult lr = broker::run_loadgen(lcfg);
  return {lr.msgs_per_s, static_cast<double>(lr.redirects),
          stats::percentile(lr.latencies_us, 50),
          stats::percentile(lr.latencies_us, 99)};
}

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
          std::to_string(conns) + " clients, median of " +
          std::to_string(api::kReps) + " groups)"};

  auto& sec = r.section("E15a");
  sec.cols({"rf", "msgs/s", "redirects", "rtt p50 us", "rtt p99 us"});
  double rf1 = 0, rf3 = 0;
  for (int rf : rfs) {
    const auto [rate, redirects, rtt50, rtt99] = api::repeat(
        api::kReps, [&] { return rf_run(rf, conns, total_msgs); });
    if (rf == 1) rf1 = rate.p50;
    if (rf == 3) rf3 = rate.p50;
    sec.row(rf, api::cell(rate.p50, 0), api::cell(redirects.p50, 0),
            api::cell(rtt50.p50, 1), api::cell(rtt99.p50, 1));
    sec.metric("msgs_per_s_rf" + std::to_string(rf), rate);
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
/// leader, time to the first post-kill DEQ_OK. Throws if the group never
/// serves, the prober cannot find the leader, or no new leader serves it
/// within 30 s.
double failover_ms(uint64_t election_ms) {
  broker::ReplicaGroup g;
  spawn_serving(g, 3, election_ms);
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
  for (int i = 0; i < 2; ++i)
    if (!cc.request(enq) || !cc.request(deq))
      throw std::runtime_error("the prober's warm-up pairs went unanswered");
  const int leader = cc.current();
  auto t_kill = Clock::now();
  g.kill(static_cast<size_t>(leader), SIGKILL);
  // First post-kill DEQ_OK: each request internally rides redirects and
  // reconnects until the new leader serves it.
  while (true) {
    auto d = cc.request(enq) ? cc.request(deq) : std::nullopt;
    if (!d)
      throw std::runtime_error("no new leader served within 30 s of "
                               "SIGKILLing replica " +
                               std::to_string(leader));
    if (d->op == net::Opcode::deq_ok) return ms_since(t_kill);
  }
}

api::Report run_failover(const api::RunOptions& opts) {
  api::Report r = api::make_report("raft_failover");
  const uint64_t election_ms = 150;
  const int trials = static_cast<int>(
      std::max<int64_t>(3, std::min<int64_t>(opts.ops_or(7), 25)));
  r.preamble = {
      "E15b: leader-failover time, 3-replica group, election timeout " +
          std::to_string(election_ms) + " ms, median of " +
          std::to_string(trials) + " trials (--ops)",
      "      (SIGKILL the serving leader; time to the first DEQ_OK from "
      "the new one,",
      "      fresh cluster per trial — crashed replicas never rejoin)"};

  auto& sec = r.section("E15b");
  sec.cols({"trials", "failover p50 ms", "failover min ms", "failover max ms"});
  const stats::Summary ms =
      api::repeat(trials, [&] { return failover_ms(election_ms); });
  sec.row(trials, api::cell(ms.p50, 1), api::cell(ms.min, 1),
          api::cell(ms.max, 1));
  sec.metric("failover_ms_median", ms);
  sec.metric("failover_over_election", ms.p50 / double(election_ms));
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
      std::max<int64_t>(3, std::min<int64_t>(opts.ops_or(3), 10)));
  const std::vector<uint64_t> timeouts = {60, 150, 400};
  r.preamble = {
      "E15c: failover time vs election timeout, 3-replica groups, median "
      "of " +
      std::to_string(trials) + " trials per point (--ops)"};

  auto& sec = r.section("E15c");
  sec.cols({"election ms", "failover p50 ms", "failover max ms",
            "failover/election"});
  for (uint64_t t : timeouts) {
    const stats::Summary ms =
        api::repeat(trials, [&] { return failover_ms(t); });
    sec.row(t, api::cell(ms.p50, 1), api::cell(ms.max, 1),
            api::cell(ms.p50 / double(t), 2));
    sec.metric("failover_p50_ms_t" + std::to_string(t), ms);
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
