// Reading a process from outside: /proc counters for the system under test,
// and a handle on the broker daemon run as a child process.
#pragma once

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace wfqbench {

/// One thread of a process: CPU time in ns (schedstat) and context
/// switches, voluntary plus involuntary.
struct TaskSample {
  int tid = 0;
  uint64_t run_ns = 0;
  uint64_t ctxsw = 0;
};

inline uint64_t status_field(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line))
    if (line.rfind(key, 0) == 0)
      return std::strtoull(line.c_str() + key.size(), nullptr, 10);
  return 0;
}

/// Every thread of `pid`, sorted by tid, which is spawn order.
inline std::vector<TaskSample> read_tasks(pid_t pid) {
  std::vector<TaskSample> out;
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return out;
  while (dirent* e = ::readdir(d)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    TaskSample t;
    t.tid = std::atoi(e->d_name);
    const std::string base = dir + "/" + e->d_name;
    std::ifstream(base + "/schedstat") >> t.run_ns;
    t.ctxsw = status_field(base + "/status", "voluntary_ctxt_switches:") +
              status_field(base + "/status", "nonvoluntary_ctxt_switches:");
    out.push_back(t);
  }
  ::closedir(d);
  std::sort(out.begin(), out.end(),
            [](const TaskSample& a, const TaskSample& b) {
              return a.tid < b.tid;
            });
  return out;
}

/// Peak resident set (VmHWM) of `pid` ("self" for this process), in MiB.
inline double peak_rss_mb(const std::string& pid) {
  return static_cast<double>(
             status_field("/proc/" + pid + "/status", "VmHWM:")) /
         1024.0;
}

/// CPU time this process has used so far, all threads, in seconds.
inline double self_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

/// Directory of the running executable, with a trailing '/'.
inline std::string self_dir() {
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "./";
  std::string exe(buf, static_cast<size_t>(n));
  return exe.substr(0, exe.rfind('/') + 1);
}

/// The broker daemon as a child process: its stdout (the final STAT report
/// it prints after a SIGTERM drain) comes back through a pipe, its stderr
/// goes to `log_path`. The destructor kills and reaps a child still
/// running, so no exit path leaves one behind.
class ChildBroker {
 public:
  ChildBroker(const std::string& bin, const std::vector<std::string>& args,
              const std::string& log_path) {
    int fds[2];
    if (::pipe(fds) != 0) return;
    pid_ = ::fork();
    if (pid_ == 0) {
      // A wfqbench killed mid-rep must not leave the broker running.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(fds[1], STDOUT_FILENO);
      int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (log >= 0) ::dup2(log, STDERR_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(bin.c_str()));
      for (const std::string& a : args)
        argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      ::execv(bin.c_str(), argv.data());
      _exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    if (pid_ < 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }

  ~ChildBroker() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }
  ChildBroker(const ChildBroker&) = delete;
  ChildBroker& operator=(const ChildBroker&) = delete;

  pid_t pid() const { return pid_; }

  /// True while the child has not exited (reaps it if it has).
  bool running() {
    if (pid_ <= 0) return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      status_ = status;
      pid_ = -1;
      return false;
    }
    return true;
  }

  /// SIGTERM, then collect stdout until EOF and reap, within `budget`.
  /// Returns the child's stdout; exited_ok() tells whether it exited 0.
  std::string stop(std::chrono::milliseconds budget) {
    std::string out;
    if (pid_ > 0) ::kill(pid_, SIGTERM);
    auto deadline = std::chrono::steady_clock::now() + budget;
    char buf[65536];
    while (out_fd_ >= 0 && std::chrono::steady_clock::now() < deadline) {
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, 50) <= 0) continue;
      ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n <= 0) break;
      out.append(buf, static_cast<size_t>(n));
    }
    while (running() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return out;  // a child still running here is killed by the destructor
  }

  bool exited_ok() const {
    return pid_ < 0 && status_ >= 0 && WIFEXITED(status_) &&
           WEXITSTATUS(status_) == 0;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int status_ = -1;
};

/// Every unsigned value stored under `"key":` in a JSON text, in order.
inline std::vector<uint64_t> json_uints(const std::string& js,
                                        const std::string& key) {
  std::vector<uint64_t> out;
  const std::string needle = "\"" + key + "\":";
  for (size_t at = js.find(needle); at != std::string::npos;
       at = js.find(needle, at + 1))
    out.push_back(std::strtoull(js.c_str() + at + needle.size(), nullptr, 10));
  return out;
}

}  // namespace wfqbench
