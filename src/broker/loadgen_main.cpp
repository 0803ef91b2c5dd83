// `loadgen` — the broker's load-generator client binary (ISSUE 8
// tentpole): C connections over UDS or TCP, closed- or open-loop, printing
// throughput and the p50/p99/p999 latency ladder the E14 experiments gate
// on. Thin CLI over broker::run_loadgen — the binary, the experiments, and
// the e2e test all drive the same code path.
#include <iostream>
#include <string>
#include <vector>

#include "api/spec.hpp"
#include "broker/loadgen.hpp"
#include "stats/qos.hpp"

namespace {

using wfq::api::parse_num;
using wfq::api::split;

// Millisecond flags stop at one day, far below where a deadline of now + t
// overflows the clock.
constexpr uint64_t kMaxMs = 86'400'000;

void usage(std::ostream& os) {
  os << "usage: loadgen (--uds <path> | --tcp <port> | --cluster <csv>) "
        "[options]\n"
        "\n"
        "  --uds <path>      connect over the Unix-domain socket at <path>\n"
        "  --tcp <port>      connect to 127.0.0.1:<port>\n"
        "  --cluster <csv>   replica TCP ports in node-id order; requests\n"
        "                    follow ERR_NOT_LEADER redirects and ride out\n"
        "                    failovers (closed loop, window 1)\n"
        "  --timeout <ms>    cluster mode per-response wait (default 500)\n"
        "  --conns <c>       concurrent connections (default 1)\n"
        "  --msgs <n>        requests per connection (default 1000)\n"
        "  --mode <m>        closed | open (default closed)\n"
        "  --window <w>      max in-flight requests per connection\n"
        "                    (default 1; open loop uses it as a safety cap)\n"
        "  --rate <r>        open loop: arrivals/second per connection\n"
        "  --enq-only        send only ENQ frames (default: ENQ/DEQ pairs)\n"
        "  --key-base <k>    routing key of connection c is k + c\n"
        "  --help, -h        this text\n";
}

std::vector<uint16_t> parse_ports_csv(const std::string& s) {
  std::vector<uint16_t> ports;
  for (const std::string& tok : split(s, ','))
    ports.push_back(parse_num<uint16_t>(tok, "--cluster port", 1));
  return ports;
}

}  // namespace

int main(int argc, char** argv) {
  wfq::broker::LoadgenConfig cfg;
  bool have_target = false;
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
        have_target = true;
      } else if (a == "--tcp") {
        cfg.tcp_port = parse_num<uint16_t>(need("--tcp"), "--tcp", 1);
        have_target = true;
      } else if (a == "--cluster") {
        cfg.cluster_ports = parse_ports_csv(need("--cluster"));
        have_target = true;
      } else if (a == "--timeout") {
        cfg.read_timeout_ms =
            parse_num<uint64_t>(need("--timeout"), "--timeout", 1, kMaxMs);
      } else if (a == "--conns") {
        cfg.connections = parse_num<int>(need("--conns"), "--conns", 1, 4096);
      } else if (a == "--msgs") {
        cfg.msgs_per_conn = parse_num<int64_t>(need("--msgs"), "--msgs", 1);
      } else if (a == "--mode") {
        std::string m = need("--mode");
        if (m == "closed") {
          cfg.mode = wfq::broker::LoadgenConfig::Mode::closed;
        } else if (m == "open") {
          cfg.mode = wfq::broker::LoadgenConfig::Mode::open;
        } else {
          throw std::invalid_argument("--mode must be closed or open");
        }
      } else if (a == "--window") {
        cfg.window = parse_num<int>(need("--window"), "--window", 1);
      } else if (a == "--rate") {
        cfg.rate_per_conn = static_cast<double>(
            parse_num<int64_t>(need("--rate"), "--rate", 0));
      } else if (a == "--enq-only") {
        cfg.pairs = false;
      } else if (a == "--key-base") {
        cfg.key_base = parse_num<uint32_t>(need("--key-base"), "--key-base");
      } else if (a == "--help" || a == "-h") {
        usage(std::cout);
        return 0;
      } else {
        throw std::invalid_argument("unknown flag \"" + a + "\"");
      }
    }
    if (!have_target)
      throw std::invalid_argument("need --uds, --tcp, or --cluster");
    if (!cfg.cluster_ports.empty() &&
        cfg.mode == wfq::broker::LoadgenConfig::Mode::open)
      throw std::invalid_argument("--cluster is closed-loop only");
    if (cfg.mode == wfq::broker::LoadgenConfig::Mode::open &&
        cfg.rate_per_conn <= 0)
      throw std::invalid_argument("open loop needs --rate > 0");
  } catch (const std::exception& ex) {
    std::cerr << "loadgen: " << ex.what() << "\n\n";
    usage(std::cerr);
    return 2;
  }

  wfq::broker::LoadgenResult r = wfq::broker::run_loadgen(cfg);
  if (r.connect_failed) {
    std::cerr << "loadgen: one or more connections failed (is the broker "
                 "running?)\n";
  }
  const char* lat_kind =
      cfg.mode == wfq::broker::LoadgenConfig::Mode::closed ? "rtt" : "sojourn";
  std::cout << "loadgen: sent=" << r.sent << " acked=" << r.acked
            << " errors=" << r.errors << " elapsed_s=" << r.elapsed_s
            << " msgs_per_s=" << r.msgs_per_s;
  if (!cfg.cluster_ports.empty()) std::cout << " redirects=" << r.redirects;
  std::cout << "\n";
  std::cout << "loadgen: " << lat_kind
            << "_p50_us=" << wfq::stats::percentile(r.latencies_us, 50)
            << " p99_us=" << wfq::stats::percentile(r.latencies_us, 99)
            << " p999_us=" << wfq::stats::percentile(r.latencies_us, 99.9)
            << "\n";
  return r.connect_failed ? 1 : 0;
}
