// `broker` — the daemon binary: serves the wfb-v1 protocol over a
// Unix-domain socket and/or loopback TCP, sharding frames across
// registry-built backings, with N event loops that run every request
// inline. SIGINT/SIGTERM trigger the clean drain
// path (every accepted request answered, then the per-shard counter report
// on stdout). `broker --report <uds-path>` is the companion client mode: it
// asks a LIVE broker for its STAT report (per-shard counters + each
// backing's space_stats(), read live + per-tenant rows) and prints the JSON
// — the process-boundary version of reading space_stats() in an E6 gate.
#include <unistd.h>

#include <csignal>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "api/spec.hpp"
#include "broker/broker.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"

namespace {

using wfq::api::parse_num;
using wfq::api::split;

// Millisecond flags stop at one day, far below where a deadline of now + t
// overflows the clock.
constexpr uint64_t kMaxMs = 86'400'000;

int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  char b = 1;
  [[maybe_unused]] ssize_t w = ::write(g_signal_pipe[1], &b, 1);
}

void usage(std::ostream& os) {
  os << "usage: broker --uds <path> [--tcp <port>] [options]\n"
        "       broker --cluster <id>/<n> --peers <p0,p1,...> [options]\n"
        "       broker --report <uds-path> [--timeout <ms>]\n"
        "\n"
        "  --uds <path>      listen on a Unix-domain socket at <path>\n"
        "  --tcp <port>      also listen on 127.0.0.1:<port> (0 = pick)\n"
        "  --shards <n>      number of backing shards (default 1)\n"
        "  --groups <g>      event loops; each serves the connections dealt\n"
        "                    to it and is one process of every shard's\n"
        "                    backing (default: one per hardware core;\n"
        "                    at most 1024)\n"
        "  --backing <key>   per-shard backing: ubq, bounded, bounded:g=<G>,\n"
        "                    or dwrr:<n>:<one of those> (default bounded)\n"
        "  --cluster <i>/<n> run as replica i of an n-replica raft group\n"
        "  --peers <csv>     the n replica TCP ports, in node-id order;\n"
        "                    this replica listens on its own entry\n"
        "  --election-ms <t> raft election timeout base (default 150)\n"
        "  --raft-seed <s>   election jitter seed (default node id + 1)\n"
        "  --report <path>   client mode: print a live broker's STAT JSON\n"
        "  --timeout <ms>    report-mode connect/read budget (default 5000)\n"
        "  --help, -h        this text\n";
}

/// Client mode: one STAT round trip against a live broker. Connect, send,
/// and every read are bounded by `timeout_ms` (ISSUE 10 satellite): a hung
/// or partitioned broker yields a clean error, not a wedged CLI.
int report_mode(const std::string& uds_path, uint64_t timeout_ms) {
  wfq::net::FdHandle fd = wfq::net::connect_uds_timeout(uds_path, timeout_ms);
  if (!fd.valid()) {
    std::cerr << "broker: cannot connect to " << uds_path << ": "
              << std::strerror(errno) << "\n";
    return 1;
  }
  wfq::net::set_recv_timeout(fd.get(), timeout_ms);
  wfq::net::set_send_timeout(fd.get(), timeout_ms);
  wfq::net::Frame req;
  req.op = wfq::net::Opcode::stat;
  std::string wire;
  wfq::net::encode_frame(req, wire);
  if (!wfq::net::write_all(fd.get(), wire)) {
    std::cerr << "broker: STAT write failed\n";
    return 1;
  }
  wfq::net::Decoder dec;
  wfq::net::Frame resp;
  wfq::net::DecodeStatus st = wfq::net::read_frame(fd.get(), dec, resp);
  if (st == wfq::net::DecodeStatus::need_more && errno == EAGAIN) {
    std::cerr << "broker: STAT response timed out after " << timeout_ms
              << "ms (broker hung or partitioned?)\n";
    return 1;
  }
  if (st == wfq::net::DecodeStatus::need_more) {
    std::cerr << "broker: connection closed before STAT response\n";
    return 1;
  }
  if (st != wfq::net::DecodeStatus::ok) {
    std::cerr << "broker: bad STAT response: "
              << wfq::net::decode_status_name(st) << "\n";
    return 1;
  }
  if (resp.op != wfq::net::Opcode::stat_ok) {
    std::cerr << "broker: expected STAT_OK, got "
              << wfq::net::opcode_name(resp.op) << "\n";
    return 1;
  }
  std::cout << resp.payload << "\n";
  return 0;
}

/// "i/n" for --cluster: replica id i of an n-replica group.
void parse_cluster(const std::string& s, wfq::broker::BrokerConfig& cfg,
                   int& expect_n) {
  const std::vector<std::string> f = split(s, '/');
  if (f.size() != 2)
    throw std::invalid_argument("--cluster wants <id>/<n>, e.g. 0/3");
  cfg.cluster = true;
  expect_n = parse_num<int>(f[1], "--cluster size", 1, 4096);
  cfg.node_id = parse_num<int>(f[0], "--cluster id", 0, expect_n - 1);
}

std::vector<uint16_t> parse_ports_csv(const std::string& s) {
  std::vector<uint16_t> ports;
  for (const std::string& tok : split(s, ','))
    ports.push_back(parse_num<uint16_t>(tok, "--peers port", 1));
  return ports;
}

}  // namespace

int main(int argc, char** argv) {
  wfq::broker::BrokerConfig cfg;
  std::string report_path;
  uint64_t timeout_ms = 5000;
  int expect_n = 0;
  try {
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      auto need = [&](const char* flag) -> std::string {
        if (i + 1 >= argc)
          throw std::invalid_argument(std::string("missing value for ") +
                                      flag);
        return argv[++i];
      };
      if (a == "--uds") {
        cfg.uds_path = need("--uds");
      } else if (a == "--tcp") {
        cfg.tcp_port = parse_num<uint16_t>(need("--tcp"), "--tcp");
      } else if (a == "--shards") {
        cfg.shards = parse_num<int>(need("--shards"), "--shards", 1,
                                    wfq::broker::kMaxShards);
      } else if (a == "--groups") {
        cfg.groups = parse_num<int>(need("--groups"), "--groups", 0,
                                    wfq::broker::kMaxGroups);
      } else if (a == "--backing") {
        cfg.backing = need("--backing");
      } else if (a == "--cluster") {
        parse_cluster(need("--cluster"), cfg, expect_n);
      } else if (a == "--peers") {
        cfg.peer_ports = parse_ports_csv(need("--peers"));
      } else if (a == "--election-ms") {
        cfg.election_timeout_ms =
            parse_num<uint64_t>(need("--election-ms"), "--election-ms", 1,
                                kMaxMs);
      } else if (a == "--raft-seed") {
        cfg.raft_seed = parse_num<uint64_t>(need("--raft-seed"), "--raft-seed");
      } else if (a == "--report") {
        report_path = need("--report");
      } else if (a == "--timeout") {
        timeout_ms =
            parse_num<uint64_t>(need("--timeout"), "--timeout", 1, kMaxMs);
      } else if (a == "--help" || a == "-h") {
        usage(std::cout);
        return 0;
      } else {
        throw std::invalid_argument("unknown flag \"" + a + "\"");
      }
    }
    if (!report_path.empty()) return report_mode(report_path, timeout_ms);
    if (cfg.cluster) {
      if (static_cast<int>(cfg.peer_ports.size()) != expect_n)
        throw std::invalid_argument(
            "--peers must list exactly the --cluster n ports");
      // This replica listens on its own --peers entry; peers dial it there.
      cfg.tcp_port =
          static_cast<int>(cfg.peer_ports[static_cast<size_t>(cfg.node_id)]);
    }
    if (cfg.uds_path.empty() && cfg.tcp_port < 0)
      throw std::invalid_argument("need --uds and/or --tcp (or --cluster)");
    wfq::broker::check_backing(cfg.backing);
  } catch (const std::exception& ex) {
    std::cerr << "broker: " << ex.what() << "\n\n";
    usage(std::cerr);
    return 2;
  }

  try {
    // Signal wiring before start(): a SIGTERM racing startup must still
    // land in the pipe the main thread is about to block on.
    if (::pipe(g_signal_pipe) != 0) {
      std::cerr << "broker: pipe() failed\n";
      return 1;
    }
    struct sigaction sa {};
    sa.sa_handler = on_signal;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);

    wfq::broker::Broker broker(cfg);
    broker.start();
    std::cerr << "broker: serving " << broker.shards() << " shard(s) of "
              << broker.backing() << " on "
              << (cfg.uds_path.empty() ? std::string("-")
                                       : cfg.uds_path);
    if (cfg.tcp_port >= 0)
      std::cerr << " and 127.0.0.1:" << broker.tcp_port();
    std::cerr << " (" << broker.groups() << " event loop(s))";
    if (cfg.cluster)
      std::cerr << " as raft replica " << cfg.node_id << "/"
                << cfg.peer_ports.size();
    std::cerr << "\n";

    char b;
    while (::read(g_signal_pipe[0], &b, 1) < 0 && errno == EINTR) {
    }
    std::cerr << "broker: signal received, draining...\n";
    broker.stop();
    std::cout << broker.stat_json() << "\n";
    wfq::broker::Broker::ShardCounters t = broker.totals();
    std::cerr << "broker: drained; enq=" << t.enq << " deq_hit=" << t.deq_hit
              << " deq_empty=" << t.deq_empty << " ping=" << t.ping
              << " stat=" << t.stat << " bad=" << t.bad << "\n";
    return 0;
  } catch (const std::exception& ex) {
    std::cerr << "broker: " << ex.what() << "\n";
    return 1;
  }
}
