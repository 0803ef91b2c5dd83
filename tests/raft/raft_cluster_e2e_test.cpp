// End-to-end raft cluster test (ISSUE 10): three REAL broker processes in
// --cluster mode on loopback TCP, driven through the same ClusterClient the
// loadgen uses. Covers the full deployment story the sim suite cannot:
// wfb-v1 raft frames over real sockets, the replicated-config bootstrap
// (every replica builds its ShardMap from the committed cfg entry, not its
// CLI), the ERR_NOT_LEADER + leader-hint redirect contract, commit-then-ack
// SETW, and leader failover under SIGKILL — the client must ride it out and
// the replicated weight must survive on the new leader. Survivors must then
// drain cleanly on SIGTERM (exit 0). Two more groups cover what only a
// stalled or misconfigured replica shows: a SETW pending on a leader that
// is deposed or drains is still answered, and the first config entry to
// apply decides on every replica, also after the leader that proposed it
// dies.
//
// argv[1] = path to the broker binary (wired up by tests/CMakeLists.txt as
// $<TARGET_FILE:broker>).
#include <signal.h>
#include <sys/wait.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "broker/loadgen.hpp"
#include "broker/replica_group.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "tests/test_util.hpp"

using namespace wfq;

namespace {

/// One raw request/response against a SPECIFIC replica — no redirects. Used
/// to assert what a follower says, which ClusterClient hides by design.
bool raw_request(uint16_t port, const net::Frame& req, net::Frame& resp,
                 uint64_t timeout_ms = 2000) {
  net::FdHandle fd = net::connect_tcp_timeout(port, timeout_ms);
  if (!fd.valid()) return false;
  net::set_recv_timeout(fd.get(), timeout_ms);
  net::set_send_timeout(fd.get(), timeout_ms);
  std::string wire;
  net::encode_frame(req, wire);
  if (!net::write_all(fd.get(), wire)) return false;
  net::Decoder dec;
  return net::read_frame(fd.get(), dec, resp) == net::DecodeStatus::ok;
}

bool contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

net::Frame make_enq(uint32_t key, uint64_t value) {
  net::Frame f;
  f.op = net::Opcode::enq;
  f.key = key;
  f.payload = net::encode_value(value);
  return f;
}

net::Frame make_setw(uint32_t tenant, uint32_t weight) {
  net::Frame f;
  f.op = net::Opcode::setw;
  f.payload = net::encode_u32_pair(tenant, weight);
  return f;
}

/// The next answer on `fd` within `timeout_ms`: its opcode name, or
/// "timeout", "eof" or "error" when none came.
std::string next_answer(int fd, net::Decoder& dec, uint64_t timeout_ms) {
  net::set_recv_timeout(fd, timeout_ms);
  net::Frame resp;
  net::DecodeStatus st = net::read_frame(fd, dec, resp);
  if (st == net::DecodeStatus::ok) return net::opcode_name(resp.op);
  if (st != net::DecodeStatus::need_more) return "error";
  return errno == EAGAIN ? "timeout" : errno == 0 ? "eof" : "error";
}

/// Replica `port`'s STAT JSON, "" when it does not answer within 1 s.
std::string stat_of(uint16_t port) {
  net::Frame req, resp;
  req.op = net::Opcode::stat;
  if (!raw_request(port, req, resp, 1000) ||
      resp.op != net::Opcode::stat_ok)
    return "";
  return resp.payload;
}

/// The unsigned number after `"key":` in a STAT payload, 0 when absent.
uint64_t stat_u64(const std::string& stat, const std::string& key) {
  size_t at = stat.find("\"" + key + "\":");
  if (at == std::string::npos) return 0;
  return std::strtoull(stat.c_str() + at + key.size() + 3, nullptr, 10);
}

bool leads(const std::string& stat) {
  return contains(stat, "\"role\":\"leader\"");
}

/// The leader every replica names in the same term, once that leader
/// serves (has built its shard map); -1 while they disagree. A replica
/// agrees only after an AppendEntries from that leader, so a settled group
/// holds no replica with a stale election timer (one that rejoins after a
/// stall can step down with its timer expired and start one more
/// election).
int settled_leader(const std::vector<uint16_t>& ports) {
  const std::string first = stat_of(ports[0]);
  const uint64_t leader = stat_u64(first, "leader");  // -1 reads as huge
  if (leader >= ports.size()) return -1;
  const std::string term =
      "\"term\":" + std::to_string(stat_u64(first, "term")) + ",";
  const std::string named = "\"leader\":" + std::to_string(leader) + ",";
  for (uint16_t port : ports) {
    const std::string s = stat_of(port);
    if (!contains(s, term) || !contains(s, named)) return -1;
  }
  const std::string s = stat_of(ports[leader]);
  return leads(s) && contains(s, term) && contains(s, "\"ready\":true")
             ? static_cast<int>(leader)
             : -1;
}

/// Polls `pred` every 20 ms until it holds or `ms` pass.
template <class Pred>
bool eventually(uint64_t ms, Pred pred) {
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return true;
}

/// Every replica in `statuses` except `skip` exited 0 on SIGTERM.
void check_clean_exits(const std::vector<int>& statuses, int skip) {
  for (size_t i = 0; i < statuses.size(); ++i) {
    if (static_cast<int>(i) == skip) continue;
    CHECK(WIFEXITED(statuses[i]));
    CHECK_EQ(WEXITSTATUS(statuses[i]), 0);
  }
}

void redirects_setw_and_failover(const std::string& broker_bin) {
  broker::ReplicaGroup group;
  CHECK(group.spawn(broker_bin, 3, "dwrr:4:ubq", 150));
  const std::vector<uint16_t>& ports = group.ports();

  broker::ClusterClient::Options opts;
  opts.ports = ports;
  opts.give_up_ms = 20'000;
  broker::ClusterClient cc(opts);

  // A leader must emerge and serve: ENQ then DEQ round-trips the value.
  std::optional<net::Frame> r = cc.request(make_enq(11, 0xABCD1234));
  CHECK(r.has_value());
  CHECK(r && r->op == net::Opcode::enq_ok);
  {
    net::Frame deq;
    deq.op = net::Opcode::deq;
    deq.key = 11;
    r = cc.request(deq);
    CHECK(r.has_value());
    CHECK(r && r->op == net::Opcode::deq_ok);
    uint64_t v = 0;
    CHECK(r && net::decode_value(r->payload, v));
    CHECK_EQ(v, uint64_t{0xABCD1234});
  }
  const int leader = cc.current();
  CHECK(leader >= 0 && leader < 3);

  // Redirect contract: a follower answers ENQ with ERR_NOT_LEADER and a
  // hint naming the actual leader (heartbeats have long since spread it).
  {
    int follower = (leader + 1) % 3;
    net::Frame resp;
    CHECK(raw_request(ports[static_cast<size_t>(follower)],
                      make_enq(5, 99), resp));
    CHECK(resp.op == net::Opcode::err_not_leader);
    uint32_t hint = 0;
    CHECK(net::decode_u32(resp.payload, hint));
    CHECK_EQ(hint, static_cast<uint32_t>(leader));
    // So is a SETW: a follower answers it inline, without proposing.
    CHECK(raw_request(ports[static_cast<size_t>(follower)], make_setw(1, 2),
                      resp));
    CHECK(resp.op == net::Opcode::err_not_leader);
    hint = 0;
    CHECK(net::decode_u32(resp.payload, hint));
    CHECK_EQ(hint, static_cast<uint32_t>(leader));
    // Followers still answer STAT — monitoring works where data ops would
    // redirect — and report themselves as follower with ready config. The
    // follower applies the replicated config one commit-carrying heartbeat
    // after the leader, so poll briefly instead of racing it.
    net::Frame stat;
    stat.op = net::Opcode::stat;
    bool follower_ready = false;
    for (int tries = 0; tries < 100 && !follower_ready; ++tries) {
      CHECK(raw_request(ports[static_cast<size_t>(follower)], stat, resp));
      CHECK(resp.op == net::Opcode::stat_ok);
      CHECK(contains(resp.payload, "\"role\":\"follower\""));
      follower_ready = contains(resp.payload, "\"ready\":true");
      if (!follower_ready)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    CHECK(follower_ready);
  }

  // SETW is acked only after commit+apply; the weight must then be visible
  // in the leader's STAT tenant rows.
  {
    r = cc.request(make_setw(1, 7));
    CHECK(r.has_value());
    CHECK(r && r->op == net::Opcode::setw_ok);
    net::Frame stat;
    stat.op = net::Opcode::stat;
    r = cc.request(stat);
    CHECK(r.has_value());
    CHECK(r && r->op == net::Opcode::stat_ok);
    CHECK(r && contains(r->payload, "\"role\":\"leader\""));
    CHECK(r && contains(r->payload, "\"tenant\":1,\"weight\":7"));
  }

  // A SETW naming a tenant far out of range still commits (the leader logs
  // it as sent), then applies as not-ok: every replica parses the entry
  // strictly, the client gets ERR, and tenant 1's weight is untouched.
  {
    r = cc.request(make_setw(0xffffffffu, 3));
    CHECK(r.has_value());
    CHECK(r && r->op == net::Opcode::err);
    CHECK(r && contains(r->payload, "SETW rejected"));
    net::Frame stat;
    stat.op = net::Opcode::stat;
    r = cc.request(stat);
    CHECK(r && r->op == net::Opcode::stat_ok);
    CHECK(r && contains(r->payload, "\"tenant\":1,\"weight\":7"));
  }

  // Failover: SIGKILL the leader mid-traffic. The client must ride out the
  // election and land on a new leader within its give_up budget.
  {
    int status = group.kill(static_cast<size_t>(leader), SIGKILL);
    CHECK(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
  }
  r = cc.request(make_enq(21, 0x5555));
  CHECK(r.has_value());
  CHECK(r && r->op == net::Opcode::enq_ok);
  const int leader2 = cc.current();
  CHECK(leader2 >= 0 && leader2 < 3 && leader2 != leader);

  // The replicated weight survived the failover: the new leader's STAT
  // still shows tenant 1 at weight 7. This is the PR's core claim — broker
  // metadata lives in the raft log, not in the dead process.
  {
    net::Frame stat;
    stat.op = net::Opcode::stat;
    r = cc.request(stat);
    CHECK(r.has_value());
    CHECK(r && r->op == net::Opcode::stat_ok);
    CHECK(r && contains(r->payload, "\"role\":\"leader\""));
    CHECK(r && contains(r->payload, "\"tenant\":1,\"weight\":7"));
  }

  // Survivors drain cleanly: SIGTERM -> exit 0 (raft silenced first, then
  // the normal drain path — see Broker::stop()).
  check_clean_exits(group.terminate(), leader);
}

/// A SETW pending on a leader that is then deposed is answered, never left
/// hanging: ERR_NOT_LEADER when the leader steps down first, SETW_OK when
/// it learns that its entry committed under the new leader first. Both
/// followers are stopped while the leader takes the SETW, so it cannot
/// commit; the leader is stopped while they elect a successor. The same
/// holds for a leader that drains with a SETW pending.
void pending_setw_is_answered(const std::string& broker_bin) {
  broker::ReplicaGroup group;
  CHECK(group.spawn(broker_bin, 3, "dwrr:4:ubq", 150));
  const std::vector<uint16_t>& ports = group.ports();
  int settled = -1;
  auto settle = [&] { return (settled = settled_leader(ports)) >= 0; };
  CHECK(eventually(15'000, settle));
  if (settled < 0) return;
  const size_t leader = static_cast<size_t>(settled);
  const size_t f1 = (leader + 1) % 3, f2 = (leader + 2) % 3;

  CHECK(group.signal(f1, SIGSTOP));
  CHECK(group.signal(f2, SIGSTOP));
  net::FdHandle fd = net::connect_tcp_timeout(ports[leader], 2000);
  CHECK(fd.valid());
  if (!fd.valid()) return;
  std::string wire;
  net::encode_frame(make_setw(2, 5), wire);
  CHECK(net::write_all(fd.get(), wire));
  // Commit-then-ack: no majority, no answer.
  net::Decoder dec;
  CHECK_EQ(next_answer(fd.get(), dec, 300), "timeout");

  CHECK(group.signal(leader, SIGSTOP));
  CHECK(group.signal(f1, SIGCONT));
  CHECK(group.signal(f2, SIGCONT));
  CHECK(eventually(15'000, [&] {
    return leads(stat_of(ports[f1])) || leads(stat_of(ports[f2]));
  }));
  CHECK(group.signal(leader, SIGCONT));

  const std::string answer = next_answer(fd.get(), dec, 10'000);
  CHECK(answer == "ERR_NOT_LEADER" || answer == "SETW_OK");

  // A leader that drains (SIGTERM) with a SETW pending answers it
  // ERR_NOT_LEADER before it closes the connection.
  CHECK(eventually(15'000, settle));
  if (settled < 0) return;
  const size_t leader2 = static_cast<size_t>(settled);
  const size_t g1 = (leader2 + 1) % 3, g2 = (leader2 + 2) % 3;
  CHECK(group.signal(g1, SIGSTOP));
  CHECK(group.signal(g2, SIGSTOP));
  net::FdHandle fd2 = net::connect_tcp_timeout(ports[leader2], 2000);
  CHECK(fd2.valid());
  if (!fd2.valid()) return;
  CHECK(net::write_all(fd2.get(), wire));
  net::Decoder dec2;
  CHECK_EQ(next_answer(fd2.get(), dec2, 300), "timeout");
  CHECK(group.signal(leader2, SIGTERM));
  CHECK_EQ(next_answer(fd2.get(), dec2, 10'000), "ERR_NOT_LEADER");
  CHECK(group.signal(g1, SIGCONT));
  CHECK(group.signal(g2, SIGCONT));
  check_clean_exits(group.terminate(), -1);
}

/// The first config entry to apply decides on every replica. Replicas 0
/// and 1 run 2 shards; replica 2 runs 4 and a 20x shorter election timeout,
/// so it leads and commits cfg|4|ubq, which 0 and 1 apply and refuse.
/// Once replica 2 is dead, the survivor that leads must not propose its own
/// cfg|2|ubq: both stay not-ready and answer ENQ with ERR_NOT_LEADER.
void first_config_decides(const std::string& broker_bin) {
  broker::ReplicaGroup group;
  CHECK(group.spawn(broker_bin, 3, "ubq", 1000,
                    {{}, {}, {"--shards", "4", "--election-ms", "50"}}));
  const std::vector<uint16_t>& ports = group.ports();
  uint64_t cfg_commit = 0;
  CHECK(eventually(10'000, [&] {
    std::string s = stat_of(ports[2]);
    cfg_commit = stat_u64(s, "commit");
    return leads(s) && contains(s, "\"ready\":true");
  }));
  for (size_t i : {size_t{0}, size_t{1}}) {
    CHECK(eventually(10'000, [&] {
      std::string s = stat_of(ports[i]);
      return stat_u64(s, "applied") >= cfg_commit &&
             contains(s, "\"ready\":false");
    }));
  }

  int status = group.kill(2, SIGKILL);
  CHECK(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
  CHECK(eventually(20'000, [&] {
    return leads(stat_of(ports[0])) || leads(stat_of(ports[1]));
  }));
  // Three election timeouts: ample for a re-proposed config to commit.
  bool refused = true;
  auto until = std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (refused && std::chrono::steady_clock::now() < until) {
    for (uint16_t port : {ports[0], ports[1]}) {
      net::Frame resp;
      refused = refused && contains(stat_of(port), "\"ready\":false") &&
                raw_request(port, make_enq(7, 1), resp) &&
                resp.op == net::Opcode::err_not_leader;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  CHECK(refused);
  check_clean_exits(group.terminate(), 2);
}

}  // namespace

int main(int argc, char** argv) {
  CHECK(argc > 1);  // broker binary path required
  if (argc <= 1) return wfq::test::exit_code();
  const std::string broker_bin = argv[1];
  redirects_setw_and_failover(broker_bin);
  pending_setw_is_answered(broker_bin);
  first_config_decides(broker_bin);
  return wfq::test::exit_code();
}
