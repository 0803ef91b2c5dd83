// Broker end-to-end: an in-process Broker on a temp UDS socket, driven
// through real sockets by the same loadgen the binary wraps. Checks: K
// messages spread over 4 shards arrive, FIFO-per-key holds (per-connection
// sequence values dequeue in send order), one connection's responses come
// back in request order across every shard, two loops sharing one shard
// neither lose nor duplicate items, a client that does not read is paused
// without stalling its loop-mates, enq == deq in the drained broker's
// counters, the SIGTERM drain path (stop()) answers everything already
// read, the STAT surface (JSON payload + live space + dwrr tenant rows)
// is coherent, a start() that fails leaves no socket file behind, and a
// backing that cannot serve forever (faaq, simq, ...) is refused.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
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
  {  // queue backing with a space surface, two loops
    broker::BrokerConfig bcfg;
    bcfg.shards = 2;
    bcfg.groups = 2;
    bcfg.backing = "bounded:g=64";
    bcfg.uds_path = temp_uds_path("stat");
    // Every ENQ goes to shard 1; the STAT is keyed to shard 0. Shard 1
    // must still report space that covers the ENQs, read at STAT time
    // rather than from a snapshot.
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

/// A broker whose TCP port is taken fails start() and leaves nothing at
/// its UDS path: a stale socket file there would refuse every connect.
void test_failed_start_leaves_no_socket() {
  net::FdHandle busy = net::listen_tcp(0);
  const std::string path = temp_uds_path("busy");
  ::unlink(path.c_str());
  broker::BrokerConfig bcfg;
  bcfg.backing = "ubq";
  bcfg.uds_path = path;
  bcfg.tcp_port = net::bound_tcp_port(busy.get());
  broker::Broker b(bcfg);
  bool threw = false;
  try {
    b.start();
  } catch (const std::runtime_error&) {
    threw = true;
  }
  CHECK(threw);
  CHECK(::access(path.c_str(), F_OK) != 0);
  ::unlink(path.c_str());
}

/// Only backings a daemon can run forever on are accepted: the tree queues
/// and dwrr over them. The rest of the roster throws at construction, in a
/// cluster replica too (before any config entry could apply).
void test_backing_must_run_forever() {
  for (const char* key : {"ubq", "bounded", "bounded:g=8", "dwrr:4:ubq",
                          "dwrr:2:bounded:g=8"})
    CHECK(broker::ShardMap(1, key, 0).backing() == key);
  for (const char* key : {"faaq", "simq", "kp", "msq", "mutex", "dwrr:4:faaq",
                          "bounded:g=0", "nosuch"}) {
    for (bool cluster : {false, true}) {
      broker::BrokerConfig bcfg;
      bcfg.backing = key;
      bcfg.uds_path = temp_uds_path("backing");
      bcfg.cluster = cluster;
      bcfg.tcp_port = 7;
      bcfg.peer_ports = {7};
      bool threw = false;
      try {
        broker::Broker b(bcfg);
      } catch (const std::invalid_argument&) {
        threw = true;
      }
      CHECK(threw);
    }
  }
}

/// Keys 0, 1, ... picked so that key i routes to shard i.
std::vector<uint32_t> one_key_per_shard(int shards) {
  std::vector<uint32_t> keys(static_cast<size_t>(shards));
  std::vector<bool> taken(static_cast<size_t>(shards), false);
  for (uint32_t k = 0, found = 0; found < static_cast<uint32_t>(shards); ++k) {
    auto s = static_cast<size_t>(broker::shard_of(k, shards));
    if (taken[s]) continue;
    taken[s] = true;
    keys[s] = k;
    ++found;
  }
  return keys;
}

/// Request order is response order on one connection, whichever shards its
/// keys route to: 20 000 pipelined PINGs cycle over every shard of a
/// 4-shard, 2-loop broker, and the response keys must come back in the
/// order sent.
void test_response_order() {
  const int kShards = 4;
  const uint32_t kPings = 20'000;
  broker::BrokerConfig bcfg;
  bcfg.shards = kShards;
  bcfg.groups = 2;
  bcfg.backing = "bounded";
  bcfg.uds_path = temp_uds_path("order");
  const std::vector<uint32_t> keys = one_key_per_shard(kShards);
  broker::Broker b(bcfg);
  b.start();
  TestClient cl(bcfg.uds_path);
  CHECK(cl.ok());
  std::string wire;
  for (uint32_t i = 0; i < kPings; ++i) {
    net::Frame f;
    f.op = net::Opcode::ping;
    f.key = keys[i % kShards];
    f.payload = std::to_string(i);
    net::encode_frame(f, wire);
  }
  CHECK(net::write_all(cl.fd.get(), wire));
  uint32_t out_of_order = 0;
  for (uint32_t i = 0; i < kPings; ++i) {
    net::Frame resp = cl.recv();
    if (resp.op != net::Opcode::pong || resp.key != keys[i % kShards] ||
        resp.payload != std::to_string(i))
      ++out_of_order;
  }
  CHECK_EQ(out_of_order, uint32_t{0});
  b.stop();
  CHECK_EQ(b.totals().ping, uint64_t{kPings});
}

/// Encodes one request frame onto `wire`.
void add_frame(std::string& wire, net::Opcode op, uint32_t key,
               std::string payload = {}) {
  net::Frame f;
  f.op = op;
  f.key = key;
  f.payload = std::move(payload);
  net::encode_frame(f, wire);
}

/// DEQ on `key` over a blocking client; the value, or nullopt on DEQ_EMPTY.
std::optional<uint64_t> deq_value(TestClient& cl, uint32_t key) {
  std::string wire;
  add_frame(wire, net::Opcode::deq, key);
  CHECK(net::write_all(cl.fd.get(), wire));
  net::Frame resp = cl.recv();
  uint64_t v = 0;
  if (resp.op == net::Opcode::deq_ok && net::decode_value(resp.payload, v))
    return v;
  CHECK(resp.op == net::Opcode::deq_empty);
  return std::nullopt;
}

/// Runs keep request order across shards: one write carries ENQ(A, x),
/// ENQ(B, y) with A and B on different shards, so they form two runs, and
/// A's reaches the root before B's starts. An observer on the other loop
/// that DEQs y from B must then find x in A.
void test_cross_shard_run_order() {
  const int kRounds = 300;
  broker::BrokerConfig bcfg;
  bcfg.shards = 2;
  bcfg.groups = 2;
  bcfg.backing = "bounded";
  bcfg.uds_path = temp_uds_path("xorder");
  const std::vector<uint32_t> keys = one_key_per_shard(2);
  const uint32_t ka = keys[0], kb = keys[1];
  broker::Broker b(bcfg);
  b.start();
  TestClient producer(bcfg.uds_path);  // loop 0
  TestClient observer(bcfg.uds_path);  // loop 1
  CHECK(producer.ok() && observer.ok());
  int misses = 0;
  for (int r = 0; r < kRounds; ++r) {
    const uint64_t x = 2 * static_cast<uint64_t>(r);
    const uint64_t y = x + 1;
    std::thread watch([&] {
      std::optional<uint64_t> got;
      while ((got = deq_value(observer, kb)) != y) CHECK(!got.has_value());
      if (deq_value(observer, ka) != x) ++misses;
    });
    std::string wire;
    add_frame(wire, net::Opcode::enq, ka, net::encode_value(x));
    add_frame(wire, net::Opcode::enq, kb, net::encode_value(y));
    CHECK(net::write_all(producer.fd.get(), wire));
    CHECK(producer.recv().op == net::Opcode::enq_ok);
    CHECK(producer.recv().op == net::Opcode::enq_ok);
    watch.join();
  }
  CHECK_EQ(misses, 0);
  b.stop();
  CHECK_EQ(b.totals().enq, b.totals().deq_hit);
}

/// A run is ENQ*DEQ*, never DEQ*ENQ*: a tree block orders its enqueues
/// before its dequeues, so merging DEQ, ENQ(x), DEQ, ENQ(y) into one run
/// would let the first DEQ take x. Sent in one write on an empty shard,
/// the replies must be DEQ_EMPTY, ENQ_OK, x, ENQ_OK, and y stays queued.
void test_deq_then_enq_splits_runs() {
  for (const std::string backing : {"ubq", "bounded", "dwrr:2:bounded"}) {
    broker::BrokerConfig bcfg;
    bcfg.shards = 1;
    bcfg.backing = backing;
    bcfg.uds_path = temp_uds_path("split");
    broker::Broker b(bcfg);
    b.start();
    TestClient cl(bcfg.uds_path);
    CHECK(cl.ok());
    const uint32_t key = 6;
    std::string wire;
    add_frame(wire, net::Opcode::deq, key);
    add_frame(wire, net::Opcode::enq, key, net::encode_value(41));
    add_frame(wire, net::Opcode::deq, key);
    add_frame(wire, net::Opcode::enq, key, net::encode_value(42));
    CHECK(net::write_all(cl.fd.get(), wire));
    CHECK(cl.recv().op == net::Opcode::deq_empty);
    CHECK(cl.recv().op == net::Opcode::enq_ok);
    net::Frame hit = cl.recv();
    uint64_t v = 0;
    CHECK(hit.op == net::Opcode::deq_ok && net::decode_value(hit.payload, v) &&
          v == 41);
    CHECK(cl.recv().op == net::Opcode::enq_ok);
    CHECK(deq_value(cl, key) == std::optional<uint64_t>(42));
    b.stop();
    const broker::Broker::ShardCounters t = b.totals();
    CHECK_EQ(t.runs, uint64_t{4});  // DEQ | ENQ DEQ | ENQ | DEQ
  }
}

/// A malformed ENQ (7 bytes) in the middle of a run is answered ERR in
/// place; it ends the run, and its neighbours are served in request order.
void test_bad_enq_inside_run() {
  broker::BrokerConfig bcfg;
  bcfg.shards = 1;
  bcfg.backing = "bounded";
  bcfg.uds_path = temp_uds_path("badrun");
  broker::Broker b(bcfg);
  b.start();
  TestClient cl(bcfg.uds_path);
  CHECK(cl.ok());
  const uint32_t key = 3;
  std::string wire;
  add_frame(wire, net::Opcode::enq, key, net::encode_value(1));
  add_frame(wire, net::Opcode::enq, key, std::string(7, 'x'));
  add_frame(wire, net::Opcode::enq, key, net::encode_value(2));
  add_frame(wire, net::Opcode::deq, key);
  add_frame(wire, net::Opcode::deq, key);
  add_frame(wire, net::Opcode::deq, key);
  CHECK(net::write_all(cl.fd.get(), wire));
  CHECK(cl.recv().op == net::Opcode::enq_ok);
  net::Frame err = cl.recv();
  CHECK(err.op == net::Opcode::err);
  CHECK(err.payload.find("8 bytes") != std::string::npos);
  CHECK(cl.recv().op == net::Opcode::enq_ok);
  for (uint64_t want : {1, 2}) {
    net::Frame hit = cl.recv();
    uint64_t v = 0;
    CHECK(hit.op == net::Opcode::deq_ok && net::decode_value(hit.payload, v) &&
          v == want);
  }
  CHECK(cl.recv().op == net::Opcode::deq_empty);
  b.stop();
  const broker::Broker::ShardCounters t = b.totals();
  CHECK_EQ(t.bad, uint64_t{1});
  CHECK_EQ(t.runs, uint64_t{2});  // ENQ | bad ENQ | ENQ DEQ DEQ DEQ
}

/// STAT's per-shard "runs": never above the shard's ENQ/DEQ count, equal
/// to it at window 1 (every run is one request), and at most half of it
/// for a pipelined connection alternating ENQ/DEQ (each pair is one run).
void test_stat_runs() {
  broker::BrokerConfig bcfg;
  bcfg.shards = 1;
  bcfg.backing = "bounded";
  bcfg.uds_path = temp_uds_path("runs");
  broker::Broker b(bcfg);
  b.start();
  TestClient cl(bcfg.uds_path);
  CHECK(cl.ok());
  struct Ops {
    int64_t ops, runs;
  };
  auto stat = [&] {
    std::string wire;
    add_frame(wire, net::Opcode::stat, 0);
    CHECK(net::write_all(cl.fd.get(), wire));
    net::Frame resp = cl.recv();
    CHECK(resp.op == net::Opcode::stat_ok);
    const std::string& j = resp.payload;
    Ops o{shard_field(j, 0, "enq") + shard_field(j, 0, "deq_hit") +
              shard_field(j, 0, "deq_empty"),
          shard_field(j, 0, "runs")};
    CHECK(o.runs >= 0 && o.runs <= o.ops);
    return o;
  };
  for (uint64_t i = 0; i < 40; ++i) {  // window 1
    std::string wire;
    add_frame(wire, i % 2 == 0 ? net::Opcode::enq : net::Opcode::deq, 9,
              i % 2 == 0 ? net::encode_value(i) : std::string());
    CHECK(net::write_all(cl.fd.get(), wire));
    (void)cl.recv();
  }
  const Ops w1 = stat();
  CHECK_EQ(w1.ops, int64_t{40});
  CHECK_EQ(w1.runs, w1.ops);
  for (int round = 0; round < 4; ++round) {  // 64 pipelined pairs per write
    std::string wire;
    for (uint64_t i = 0; i < 64; ++i) {
      add_frame(wire, net::Opcode::enq, 9, net::encode_value(i));
      add_frame(wire, net::Opcode::deq, 9);
    }
    CHECK(net::write_all(cl.fd.get(), wire));
    for (int i = 0; i < 128; ++i) (void)cl.recv();
  }
  const Ops piped = stat();
  CHECK_EQ(piped.ops - w1.ops, int64_t{4 * 128});
  CHECK(2 * (piped.runs - w1.runs) <= piped.ops - w1.ops);
  b.stop();
  CHECK_EQ(b.totals().deq_empty, uint64_t{0});
}

/// Two connections, dealt to the two loops, drive ONE shard with pipelined
/// ENQ/DEQ pairs, so the backing runs as a 2-process object. Values are
/// conn << 32 | seq. After a final drain every value was dequeued exactly
/// once, and each consumer saw each producer's values in send order.
void test_two_loops_one_shard(const std::string& backing) {
  const int kConns = 2;
  const uint64_t kPairs = 5'000;
  const uint64_t kWindow = 32;  // pairs in flight per burst
  broker::BrokerConfig bcfg;
  bcfg.shards = 2;
  bcfg.groups = 2;
  bcfg.backing = backing;
  bcfg.uds_path = temp_uds_path("share");
  // Two keys on one shard; for dwrr:4 they land on different tenants.
  std::vector<uint32_t> keys;
  for (uint32_t k = 0; keys.size() < 2; ++k)
    if (broker::shard_of(k, bcfg.shards) == 0 &&
        (keys.empty() || k % 4 != keys[0] % 4))
      keys.push_back(k);
  broker::Broker b(bcfg);
  b.start();

  // Connect both before either sends: the acceptor deals them round-robin,
  // so they sit on different loops.
  std::vector<TestClient> clients;
  for (int c = 0; c < kConns; ++c) clients.emplace_back(bcfg.uds_path);
  std::vector<std::vector<uint64_t>> got(kConns);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c] {
      TestClient& cl = clients[static_cast<size_t>(c)];
      CHECK(cl.ok());
      if (!cl.ok()) return;
      const uint64_t tag = static_cast<uint64_t>(c) << 32;
      for (uint64_t i = 0; i < kPairs; i += kWindow) {
        std::string wire;
        const uint64_t n = std::min(kWindow, kPairs - i);
        for (uint64_t j = i; j < i + n; ++j) {
          net::Frame f;
          f.op = net::Opcode::enq;
          f.key = keys[static_cast<size_t>(c)];
          f.payload = net::encode_value(tag | j);
          net::encode_frame(f, wire);
          f.op = net::Opcode::deq;
          f.payload.clear();
          net::encode_frame(f, wire);
        }
        CHECK(net::write_all(cl.fd.get(), wire));
        for (uint64_t j = 0; j < 2 * n; ++j) {
          net::Frame resp = cl.recv();
          uint64_t v = 0;
          if (resp.op == net::Opcode::deq_ok &&
              net::decode_value(resp.payload, v))
            got[static_cast<size_t>(c)].push_back(v);
          else
            CHECK(resp.op == net::Opcode::enq_ok ||
                  resp.op == net::Opcode::deq_empty);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Final drain on one connection: DEQ until the shard reports empty.
  std::vector<uint64_t> drained;
  for (;;) {
    net::Frame req;
    req.op = net::Opcode::deq;
    req.key = keys[0];
    clients[0].send(req);
    net::Frame resp = clients[0].recv();
    uint64_t v = 0;
    if (resp.op != net::Opcode::deq_ok || !net::decode_value(resp.payload, v))
      break;
    drained.push_back(v);
  }
  b.stop();

  std::set<uint64_t> seen;
  uint64_t dups = 0, fifo_bad = 0;
  for (const auto* seq : {&got[0], &got[1], &drained}) {
    std::map<uint64_t, uint64_t> next;  // producer -> lowest seq still due
    for (uint64_t v : *seq) {
      if (!seen.insert(v).second) ++dups;
      uint64_t& due = next[v >> 32];
      if ((v & 0xffffffffu) < due) ++fifo_bad;
      due = (v & 0xffffffffu) + 1;
    }
  }
  CHECK_EQ(dups, uint64_t{0});
  CHECK_EQ(fifo_bad, uint64_t{0});
  CHECK_EQ(seen.size(), static_cast<size_t>(kConns * kPairs));
  CHECK_EQ(b.totals().enq, uint64_t{kConns * kPairs});
}

/// Backpressure is per connection: a client writes 200k PINGs with 1 KiB
/// payloads and reads nothing until the broker has stopped reading it; a
/// second connection on the same (only) loop still gets a PONG within
/// 100 ms meanwhile, and the first client then receives every PONG — it
/// was paused, not disconnected.
void test_backpressure_per_connection() {
  const uint32_t kPings = 200'000;
  const uint32_t kChunk = 1'000;  // PINGs per write
  broker::BrokerConfig bcfg;
  bcfg.shards = 2;
  bcfg.groups = 1;
  bcfg.backing = "bounded";
  bcfg.uds_path = temp_uds_path("bp");
  broker::Broker b(bcfg);
  b.start();
  TestClient flood(bcfg.uds_path);
  TestClient other(bcfg.uds_path);
  CHECK(flood.ok() && other.ok());

  std::atomic<uint64_t> written{0};
  std::thread writer([&] {
    const std::string payload(1024, 'x');
    for (uint32_t i = 0; i < kPings; i += kChunk) {
      std::string wire;
      for (uint32_t j = i; j < i + kChunk; ++j) {
        net::Frame f;
        f.op = net::Opcode::ping;
        f.key = j;
        f.payload = payload;
        net::encode_frame(f, wire);
      }
      if (!net::write_all(flood.fd.get(), wire)) return;
      written.fetch_add(kChunk, std::memory_order_relaxed);
    }
  });
  // Wait until the writer stalls: the broker has stopped reading it.
  uint64_t last = 0;
  for (int quiet = 0; quiet < 5;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    uint64_t now = written.load(std::memory_order_relaxed);
    quiet = now == last ? quiet + 1 : 0;
    last = now;
  }
  CHECK(last < kPings);  // the flood really was held back

  net::Frame ping;
  ping.op = net::Opcode::ping;
  ping.payload = "still here";
  auto t0 = std::chrono::steady_clock::now();
  other.send(ping);
  net::Frame pong = other.recv();
  auto waited = std::chrono::steady_clock::now() - t0;
  CHECK(pong.op == net::Opcode::pong);
  CHECK(waited < std::chrono::milliseconds(100));

  uint32_t pongs = 0;
  for (; pongs < kPings; ++pongs) {
    net::Frame f;
    if (net::read_frame(flood.fd.get(), flood.dec, f) != net::DecodeStatus::ok)
      break;
    CHECK(f.op == net::Opcode::pong && f.key == pongs);
  }
  writer.join();
  CHECK_EQ(pongs, kPings);
  b.stop();
}

}  // namespace

int main() {
  test_throughput_and_counters("ubq");
  test_throughput_and_counters("bounded:g=64");
  test_throughput_and_counters("dwrr:4:ubq");
  test_fifo_per_key();
  test_response_order();
  test_cross_shard_run_order();
  test_deq_then_enq_splits_runs();
  test_bad_enq_inside_run();
  test_stat_runs();
  test_two_loops_one_shard("bounded");
  test_two_loops_one_shard("dwrr:4:bounded");
  test_backpressure_per_connection();
  test_drain_on_stop();
  test_stat_surface();
  test_protocol_edges();
  test_open_loop_smoke();
  test_tcp_transport();
  test_failed_start_leaves_no_socket();
  test_backing_must_run_forever();
  return wfq::test::exit_code();
}
