// Replica-group process harness: an n-replica `broker --cluster` group as
// real child processes on kernel-picked loopback ports, with the signals
// and reaping around them. The one harness every out-of-process cluster
// client uses (the E15 experiments, the raft cluster e2e test), so port
// picking, the replica argv and the readiness wait live in one place.
//
// Output policy, fixed: child stdout goes to /dev/null — the drain report
// a replica prints there would corrupt a caller's machine-readable stdout
// (bench_runner --format json) — and child stderr is inherited, so a
// replica that refuses to serve says why in the caller's log. The caller
// names the broker binary.
#pragma once

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"

namespace wfq::broker {

class ReplicaGroup {
 public:
  ReplicaGroup() = default;
  ReplicaGroup(const ReplicaGroup&) = delete;
  ReplicaGroup& operator=(const ReplicaGroup&) = delete;
  ~ReplicaGroup() { terminate(); }

  /// Starts replicas 0..n-1 of `bin --cluster i/n --peers <ports> --backing
  /// <backing> --shards 2 --election-ms <election_ms>` on an empty group,
  /// then blocks until every port accepts a connection. `extra[i]`, when
  /// present, is appended to replica i's argv (a later flag overrides an
  /// earlier one). False if a fork failed or a port stayed closed for 10 s;
  /// the replicas that did start are still this group's to kill.
  bool spawn(const std::string& bin, int n, const std::string& backing,
             uint64_t election_ms,
             const std::vector<std::vector<std::string>>& extra = {}) {
    {
      // Hold every listener until all n ports are picked, so the kernel
      // cannot hand out the same port twice.
      std::vector<net::FdHandle> held;
      for (int i = 0; i < n; ++i) {
        held.push_back(net::listen_tcp(0));
        ports_.push_back(net::bound_tcp_port(held.back().get()));
      }
    }
    std::string peers;
    for (uint16_t port : ports_) {
      if (!peers.empty()) peers += ',';
      peers += std::to_string(port);
    }
    const std::string election = std::to_string(election_ms);
    for (int i = 0; i < n; ++i) {
      // Everything the child needs is built before fork(): between fork
      // and exec only async-signal-safe calls are allowed.
      const std::string cluster =
          std::to_string(i) + "/" + std::to_string(n);
      std::vector<const char*> argv = {
          bin.c_str(),     "--cluster",   cluster.c_str(),
          "--peers",       peers.c_str(), "--backing",
          backing.c_str(), "--shards",    "2",
          "--election-ms", election.c_str()};
      if (static_cast<size_t>(i) < extra.size())
        for (const std::string& a : extra[static_cast<size_t>(i)])
          argv.push_back(a.c_str());
      argv.push_back(nullptr);
      pid_t pid = ::fork();
      if (pid < 0) return false;
      if (pid == 0) {
        int devnull = ::open("/dev/null", O_WRONLY);
        if (devnull >= 0) ::dup2(devnull, STDOUT_FILENO);
        if (devnull > STDOUT_FILENO) ::close(devnull);
        ::execv(bin.c_str(), const_cast<char**>(argv.data()));
        static const char msg[] = "replica_group: execv failed\n";
        [[maybe_unused]] ssize_t w =
            ::write(STDERR_FILENO, msg, sizeof(msg) - 1);
        _exit(127);
      }
      pids_.push_back(pid);
    }
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (uint16_t port : ports_) {
      while (!net::connect_tcp_timeout(port, 100).valid()) {
        if (std::chrono::steady_clock::now() >= deadline) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    return true;
  }

  /// Sends `sig` to replica i and reaps it, returning its wait status; -1
  /// if replica i is not running.
  int kill(size_t i, int sig) {
    if (i >= pids_.size() || pids_[i] <= 0) return -1;
    ::kill(pids_[i], sig);
    return reap(i);
  }

  /// Sends `sig` to replica i without reaping it (SIGSTOP, SIGCONT). A
  /// SIGSTOP returns once the replica has stopped: the stop takes hold only
  /// when one of its threads gets to run, and the others keep serving until
  /// then. False if replica i is not running (one that exited instead of
  /// stopping is reaped).
  bool signal(size_t i, int sig) {
    if (i >= pids_.size() || pids_[i] <= 0 || ::kill(pids_[i], sig) != 0)
      return false;
    if (sig != SIGSTOP) return true;
    int status = 0;
    pid_t r = -1;
    while ((r = ::waitpid(pids_[i], &status, WUNTRACED)) < 0 &&
           errno == EINTR) {
    }
    if (r == pids_[i] && WIFSTOPPED(status)) return true;
    pids_[i] = -1;
    return false;
  }

  /// SIGTERMs every running replica (and SIGCONTs it, so a stopped one
  /// gets the SIGTERM too), then reaps them all. Entry i is replica i's
  /// wait status, -1 for one that was no longer running.
  std::vector<int> terminate() {
    for (pid_t pid : pids_) {
      if (pid <= 0) continue;
      ::kill(pid, SIGTERM);
      ::kill(pid, SIGCONT);
    }
    std::vector<int> statuses(pids_.size(), -1);
    for (size_t i = 0; i < pids_.size(); ++i)
      if (pids_[i] > 0) statuses[i] = reap(i);
    return statuses;
  }

  /// Replica i's TCP port, node-id order (what ClusterClient wants).
  const std::vector<uint16_t>& ports() const { return ports_; }

 private:
  int reap(size_t i) {
    int status = 0;
    while (::waitpid(pids_[i], &status, 0) < 0 && errno == EINTR) {
    }
    pids_[i] = -1;
    return status;
  }

  std::vector<pid_t> pids_;
  std::vector<uint16_t> ports_;
};

}  // namespace wfq::broker
