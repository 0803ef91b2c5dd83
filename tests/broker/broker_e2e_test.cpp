// Broker end-to-end (ISSUE 8 satellite): an in-process Broker on a temp UDS
// socket, driven through real sockets by the same loadgen the binary wraps.
// Checks, per the acceptance list: K messages spread over 4 shards arrive,
// FIFO-per-key holds (per-connection sequence values dequeue in send
// order), enq == deq in the drained broker's counters, the SIGTERM drain
// path (stop()) answers everything already read, and the STAT surface
// (JSON payload + live space + dwrr tenant rows) is coherent.
#include <unistd.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "broker/broker.hpp"
#include "broker/loadgen.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "tests/test_util.hpp"

using namespace wfq;

namespace {

std::string temp_uds_path(const char* tag) {
  return "/tmp/wfq-e2e-" + std::string(tag) + "-" +
         std::to_string(::getpid()) + ".sock";
}

/// Blocking request/response helper for hand-rolled protocol checks.
struct TestClient {
  net::FdHandle fd;
  net::Decoder dec;

  explicit TestClient(const std::string& uds) : fd(net::connect_uds(uds)) {}
  bool ok() const { return fd.valid(); }

  void send(const net::Frame& f) {
    std::string wire;
    net::encode_frame(f, wire);
    CHECK(net::write_all(fd.get(), wire));
  }

  net::Frame recv() {
    net::Frame f;
    CHECK(net::read_frame(fd.get(), dec, f) == net::DecodeStatus::ok);
    return f;
  }
};

/// K msgs over C connections onto 4 shards; every response arrives, the
/// counters balance, and the drained broker ends empty.
void test_throughput_and_counters(const std::string& backing) {
  const int kShards = 4;
  const int kConns = 6;
  const int64_t kMsgs = 2'000;  // per connection; even => pairs balance
  broker::BrokerConfig bcfg;
  bcfg.shards = kShards;
  bcfg.backing = backing;
  bcfg.uds_path = temp_uds_path("tput");
  bcfg.expected_ops = kConns * kMsgs + 4096;
  broker::Broker b(bcfg);
  b.start();

  broker::LoadgenConfig lcfg;
  lcfg.uds_path = bcfg.uds_path;
  lcfg.connections = kConns;
  lcfg.msgs_per_conn = kMsgs;
  lcfg.window = 8;
  broker::LoadgenResult r = broker::run_loadgen(lcfg);
  b.stop();

  CHECK(!r.connect_failed);
  CHECK_EQ(r.sent, static_cast<uint64_t>(kConns * kMsgs));
  CHECK_EQ(r.acked, r.sent);
  CHECK_EQ(r.errors, uint64_t{0});
  CHECK_EQ(r.latencies_us.size(), static_cast<size_t>(r.acked));

  broker::Broker::ShardCounters t = b.totals();
  // Pairs on an initially empty broker: every DEQ follows this key's ENQ
  // through one FIFO pipeline, so no DEQ ever finds the shard empty.
  CHECK_EQ(t.enq, static_cast<uint64_t>(kConns * kMsgs / 2));
  CHECK_EQ(t.deq_hit, t.enq);  // enq == deq: the broker drained empty
  CHECK_EQ(t.deq_empty, uint64_t{0});
  CHECK_EQ(t.bad, uint64_t{0});
}

/// FIFO-per-key: each connection enqueues an ascending sequence, then
/// dequeues everything back and must see its own values in send order.
/// DEQ pops the *shard's* head (keys sharing a shard share its queue), so
/// isolation needs one shard per key: pick kConns keys with pairwise
/// distinct shard routes, same salting idea loadgen's callers use.
void test_fifo_per_key() {
  const int kShards = 5;
  const int kConns = 5;
  const uint64_t kItems = 300;
  broker::BrokerConfig bcfg;
  bcfg.shards = kShards;
  bcfg.backing = "ubq";
  bcfg.uds_path = temp_uds_path("fifo");

  std::vector<uint32_t> keys;
  {
    std::vector<bool> taken(static_cast<size_t>(kShards), false);
    for (uint32_t k = 100; keys.size() < static_cast<size_t>(kConns); ++k) {
      int s = broker::shard_of(k, kShards);
      if (!taken[static_cast<size_t>(s)]) {
        taken[static_cast<size_t>(s)] = true;
        keys.push_back(k);
      }
    }
  }

  broker::Broker b(bcfg);
  b.start();

  std::vector<std::thread> threads;
  for (int c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      TestClient cl(bcfg.uds_path);
      CHECK(cl.ok());
      if (!cl.ok()) return;
      const uint32_t key = keys[static_cast<size_t>(c)];
      const uint64_t tag = static_cast<uint64_t>(c) << 32;
      // Phase 1: enqueue 0..kItems-1 (tagged), pipelined without waiting.
      std::string wire;
      for (uint64_t i = 0; i < kItems; ++i) {
        net::Frame f;
        f.op = net::Opcode::enq;
        f.key = key;
        f.payload = net::encode_value(tag | i);
        net::encode_frame(f, wire);
      }
      CHECK(net::write_all(cl.fd.get(), wire));
      for (uint64_t i = 0; i < kItems; ++i)
        CHECK(cl.recv().op == net::Opcode::enq_ok);
      // Phase 2: dequeue them back — strictly ascending, all ours.
      for (uint64_t i = 0; i < kItems; ++i) {
        net::Frame req;
        req.op = net::Opcode::deq;
        req.key = key;
        cl.send(req);
        net::Frame resp = cl.recv();
        CHECK(resp.op == net::Opcode::deq_ok);
        CHECK_EQ(resp.key, key);  // responses echo the routing key
        uint64_t v = 0;
        CHECK(net::decode_value(resp.payload, v));
        CHECK_EQ(v, tag | i);  // FIFO per key, nobody else's items
      }
    });
  }
  for (std::thread& t : threads) t.join();
  b.stop();
  broker::Broker::ShardCounters t = b.totals();
  CHECK_EQ(t.enq, static_cast<uint64_t>(kConns) * kItems);
  CHECK_EQ(t.deq_hit, t.enq);
}

/// The SIGTERM drain contract, minus the actual signal (broker_main wires
/// SIGTERM to exactly this stop() call): requests already written to the
/// socket are answered before the broker stops. A burst is written, stop()
/// races it, and afterwards counters must show enq == deq_hit + items left
/// (here: pure PINGs, so every one read before shutdown got a PONG and the
/// socket then closed cleanly).
void test_drain_on_stop() {
  broker::BrokerConfig bcfg;
  bcfg.shards = 2;
  bcfg.backing = "ubq";
  bcfg.uds_path = temp_uds_path("drain");
  broker::Broker b(bcfg);
  b.start();

  TestClient cl(bcfg.uds_path);
  CHECK(cl.ok());
  const int kBurst = 500;
  std::string wire;
  for (int i = 0; i < kBurst; ++i) {
    net::Frame f;
    f.op = net::Opcode::ping;
    f.key = static_cast<uint32_t>(i);
    f.payload = "drain";
    net::encode_frame(f, wire);
  }
  CHECK(net::write_all(cl.fd.get(), wire));
  b.stop();  // the SIGTERM path: drain what was read, flush, then close

  // Everything the broker READ before stopping was answered; the kernel
  // may have truncated the tail of the burst at close. Count PONGs until
  // EOF and match against the broker's own PING counter.
  uint64_t pongs = 0;
  char buf[65536];
  ssize_t n;
  while ((n = ::read(cl.fd.get(), buf, sizeof(buf))) > 0) {
    cl.dec.feed(buf, static_cast<size_t>(n));
    net::Frame f;
    while (cl.dec.next(f) == net::DecodeStatus::ok) {
      CHECK(f.op == net::Opcode::pong);
      CHECK_EQ(f.payload, std::string("drain"));
      ++pongs;
    }
  }
  CHECK(cl.dec.at_eof() == net::DecodeStatus::ok);  // no torn frame
  CHECK_EQ(pongs, b.totals().ping);
}

/// The number after `"<field>":` in shard `shard`'s STAT object, or -1 if
/// that object has no such field.
int64_t shard_field(const std::string& j, int shard, const std::string& field) {
  size_t at = j.find("{\"shard\":" + std::to_string(shard) + ",");
  if (at == std::string::npos) return -1;
  size_t end = j.find('}', at);
  size_t f = j.find("\"" + field + "\":", at);
  if (f == std::string::npos || f > end) return -1;
  return std::stoll(j.substr(f + field.size() + 3));
}

/// STAT surface: JSON payload names the schema, per-shard enq counters sum
/// to the traffic, every bounded shard reports its space live, and a dwrr
/// backing reports per-tenant rows through the same opcode.
void test_stat_surface() {
  {  // queue backing with a space surface, one servicer per shard
    broker::BrokerConfig bcfg;
    bcfg.shards = 2;
    bcfg.groups = 2;
    bcfg.backing = "bounded:g=64";
    bcfg.uds_path = temp_uds_path("stat");
    // Every ENQ goes to shard 1 (servicer 1); the STAT is served by
    // servicer 0. Shard 1 must still report space that covers the ENQs,
    // read at STAT time rather than from a snapshot its servicer took.
    uint32_t k1 = 0, k0 = 0;
    while (broker::shard_of(k1, 2) != 1) ++k1;
    while (broker::shard_of(k0, 2) != 0) ++k0;
    const uint32_t kEnqs = 600;
    broker::Broker b(bcfg);
    b.start();
    TestClient cl(bcfg.uds_path);
    CHECK(cl.ok());
    for (uint32_t i = 0; i < kEnqs; ++i) {
      net::Frame f;
      f.op = net::Opcode::enq;
      f.key = k1;
      f.payload = net::encode_value(i);
      cl.send(f);
      CHECK(cl.recv().op == net::Opcode::enq_ok);
    }
    net::Frame req;
    req.op = net::Opcode::stat;
    req.key = k0;
    cl.send(req);
    net::Frame resp = cl.recv();
    CHECK(resp.op == net::Opcode::stat_ok);
    const std::string& j = resp.payload;
    CHECK(j.find("\"schema\":\"wfq-broker-stat-v1\"") != std::string::npos);
    CHECK(j.find("\"backing\":\"bounded:g=64\"") != std::string::npos);
    CHECK_EQ(shard_field(j, 1, "enq"), int64_t{kEnqs});
    CHECK(shard_field(j, 0, "live_blocks") >= 0);
    CHECK(shard_field(j, 1, "live_blocks") >= int64_t{kEnqs});
    CHECK(shard_field(j, 1, "ebr_retired") >= 0);
    b.stop();
    CHECK_EQ(b.totals().enq, uint64_t{kEnqs});
    CHECK_EQ(b.totals().stat, uint64_t{1});
  }
  {  // dwrr service backing: tenant rows, tenant id echoed in DEQ flags
    broker::BrokerConfig bcfg;
    bcfg.shards = 1;
    bcfg.backing = "dwrr:4:ubq";
    bcfg.uds_path = temp_uds_path("dwrr");
    broker::Broker b(bcfg);
    b.start();
    TestClient cl(bcfg.uds_path);
    CHECK(cl.ok());
    for (uint32_t key = 0; key < 8; ++key) {  // keys 0..7 -> tenants 0..3
      net::Frame f;
      f.op = net::Opcode::enq;
      f.key = key;
      f.payload = net::encode_value(key);
      cl.send(f);
      CHECK(cl.recv().op == net::Opcode::enq_ok);
    }
    for (int i = 0; i < 8; ++i) {
      net::Frame req;
      req.op = net::Opcode::deq;
      req.key = 0;  // shard routing; the DWRR scheduler picks the tenant
      cl.send(req);
      net::Frame resp = cl.recv();
      CHECK(resp.op == net::Opcode::deq_ok);
      CHECK(resp.flags < 4);  // serviced tenant id rides the flags field
    }
    net::Frame req;
    req.op = net::Opcode::stat;
    cl.send(req);
    net::Frame resp = cl.recv();
    CHECK(resp.op == net::Opcode::stat_ok);
    CHECK(resp.payload.find("\"tenants\":[") != std::string::npos);
    CHECK(resp.payload.find("\"serviced\":2") != std::string::npos);
    b.stop();
  }
}

/// Protocol edges over a live socket: bad ENQ payload gets a typed ERR (and
/// the connection survives); a response-band opcode as a request gets ERR;
/// DEQ on an empty shard reports deq_empty; PING echoes; a client speaking
/// garbage is disconnected.
void test_protocol_edges() {
  broker::BrokerConfig bcfg;
  bcfg.shards = 2;
  bcfg.backing = "ubq";
  bcfg.uds_path = temp_uds_path("edges");
  broker::Broker b(bcfg);
  b.start();

  {
    TestClient cl(bcfg.uds_path);
    CHECK(cl.ok());
    net::Frame f;
    f.op = net::Opcode::enq;
    f.key = 1;
    f.payload = "short";  // not 8 bytes
    cl.send(f);
    net::Frame resp = cl.recv();
    CHECK(resp.op == net::Opcode::err);
    CHECK(resp.payload.find("8 bytes") != std::string::npos);

    f.op = net::Opcode::pong;  // response-band opcode as a request
    f.payload.clear();
    cl.send(f);
    resp = cl.recv();
    CHECK(resp.op == net::Opcode::err);

    f.op = net::Opcode::deq;
    cl.send(f);
    CHECK(cl.recv().op == net::Opcode::deq_empty);

    f.op = net::Opcode::ping;
    f.payload = "hello";
    cl.send(f);
    resp = cl.recv();
    CHECK(resp.op == net::Opcode::pong);
    CHECK_EQ(resp.payload, std::string("hello"));
  }
  {
    net::FdHandle fd = net::connect_uds(bcfg.uds_path);
    CHECK(fd.valid());
    CHECK(net::write_all(fd.get(), "this is not a wfb-v1 frame at all"));
    // The broker answers with a best-effort ERR frame and closes. Read to
    // EOF — the close is the contract, the ERR is a courtesy.
    char buf[4096];
    while (::read(fd.get(), buf, sizeof(buf)) > 0) {
    }
  }
  b.stop();
  CHECK_EQ(b.totals().bad, uint64_t{2});  // short ENQ + response-band op
}

/// Open-loop smoke: paced arrivals complete, sojourn latencies recorded.
void test_open_loop_smoke() {
  broker::BrokerConfig bcfg;
  bcfg.shards = 2;
  bcfg.backing = "ubq";
  bcfg.uds_path = temp_uds_path("open");
  broker::Broker b(bcfg);
  b.start();

  broker::LoadgenConfig lcfg;
  lcfg.uds_path = bcfg.uds_path;
  lcfg.connections = 2;
  lcfg.msgs_per_conn = 200;
  lcfg.mode = broker::LoadgenConfig::Mode::open;
  lcfg.rate_per_conn = 5'000;
  lcfg.window = 64;
  broker::LoadgenResult r = broker::run_loadgen(lcfg);
  b.stop();
  CHECK(!r.connect_failed);
  CHECK_EQ(r.acked, uint64_t{400});
  CHECK_EQ(r.latencies_us.size(), size_t{400});
}

/// TCP path: the same broker core behind a loopback TCP listener.
void test_tcp_transport() {
  broker::BrokerConfig bcfg;
  bcfg.shards = 2;
  bcfg.backing = "ubq";
  bcfg.tcp_port = 0;  // kernel-picked
  broker::Broker b(bcfg);
  b.start();
  CHECK(b.tcp_port() != 0);

  broker::LoadgenConfig lcfg;
  lcfg.tcp_port = b.tcp_port();
  lcfg.connections = 3;
  lcfg.msgs_per_conn = 400;
  lcfg.window = 4;
  broker::LoadgenResult r = broker::run_loadgen(lcfg);
  b.stop();
  CHECK(!r.connect_failed);
  CHECK_EQ(r.acked, uint64_t{3 * 400});
  CHECK_EQ(r.errors, uint64_t{0});
  CHECK_EQ(b.totals().enq, b.totals().deq_hit);
}

}  // namespace

int main() {
  test_throughput_and_counters("ubq");
  test_throughput_and_counters("bounded:g=64");
  test_throughput_and_counters("dwrr:4:ubq");
  test_fifo_per_key();
  test_drain_on_stop();
  test_stat_surface();
  test_protocol_edges();
  test_open_loop_smoke();
  test_tcp_transport();
  return wfq::test::exit_code();
}
