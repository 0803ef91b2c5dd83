// End-to-end raft cluster test (ISSUE 10): three REAL broker processes in
// --cluster mode on loopback TCP, driven through the same ClusterClient the
// loadgen uses. Covers the full deployment story the sim suite cannot:
// wfb-v1 raft frames over real sockets, the replicated-config bootstrap
// (every replica builds its ShardMap from the committed cfg entry, not its
// CLI), the ERR_NOT_LEADER + leader-hint redirect contract, commit-then-ack
// SETW, and leader failover under SIGKILL — the client must ride it out and
// the replicated weight must survive on the new leader. Survivors must then
// drain cleanly on SIGTERM (exit 0).
//
// argv[1] = path to the broker binary (wired up by tests/CMakeLists.txt as
// $<TARGET_FILE:broker>).
#include <signal.h>
#include <sys/wait.h>

#include <chrono>
#include <cstdint>
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

}  // namespace

int main(int argc, char** argv) {
  CHECK(argc > 1);  // broker binary path required
  if (argc <= 1) return wfq::test::exit_code();
  const std::string broker_bin = argv[1];

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
    net::Frame setw;
    setw.op = net::Opcode::setw;
    setw.payload = net::encode_u32_pair(1, 7);
    r = cc.request(setw);
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
    net::Frame setw;
    setw.op = net::Opcode::setw;
    setw.payload = net::encode_u32_pair(0xffffffffu, 3);
    r = cc.request(setw);
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
  std::vector<int> statuses = group.terminate();
  for (size_t i = 0; i < statuses.size(); ++i) {
    if (static_cast<int>(i) == leader) continue;
    CHECK(WIFEXITED(statuses[i]));
    CHECK_EQ(WEXITSTATUS(statuses[i]), 0);
  }
  return wfq::test::exit_code();
}
