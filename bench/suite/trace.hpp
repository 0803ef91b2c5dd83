// In-memory span recorder for the benchmark's traced run. A span is one call
// wfqbench made into a layer: name, start, end, the span that caused it,
// and a request id. Each thread writes only its own lane, so recording
// takes no lock; the lanes are merged when the file is written at exit, as
// Chrome trace-event JSON (load it in chrome://tracing or Perfetto).
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace wfqbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name;  // string literal: spans never own their name
  Clock::time_point start;
  Clock::time_point end;
  uint64_t id;
  uint64_t parent;  // 0 = root
  uint64_t req;     // request id (the queued value), 0 = none
};

class Tracer {
 public:
  Tracer(bool enabled, int lanes)
      : enabled_(enabled),
        lanes_(static_cast<size_t>(lanes)),
        next_(static_cast<size_t>(lanes), 0) {}

  bool enabled() const { return enabled_; }

  /// A fresh span id on `lane`, taken before the span ends so that child
  /// spans can name it as their parent. 0 when tracing is off.
  uint64_t new_id(int lane) {
    if (!enabled_) return 0;
    return (static_cast<uint64_t>(lane + 1) << 40) |
           ++next_[static_cast<size_t>(lane)];
  }

  void record(int lane, uint64_t id, const char* name, Clock::time_point t0,
              Clock::time_point t1, uint64_t parent = 0, uint64_t req = 0) {
    if (!enabled_) return;
    lanes_[static_cast<size_t>(lane)].push_back(
        Span{name, t0, t1, id, parent, req});
  }

  /// Writes every lane as Chrome "complete" events, timestamps in
  /// microseconds since `origin`. Returns false if the file cannot be
  /// written.
  bool write_chrome(const std::string& path, Clock::time_point origin) const {
    std::ofstream os(path);
    if (!os) return false;
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin).count();
    };
    for (size_t lane = 0; lane < lanes_.size(); ++lane) {
      for (const Span& s : lanes_[lane]) {
        os << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
           << "\",\"cat\":\"wfqbench\",\"ph\":\"X\",\"pid\":1,\"tid\":" << lane
           << ",\"ts\":" << us(s.start)
           << ",\"dur\":" << us(s.end) - us(s.start)
           << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
           << ",\"req\":" << s.req << "}}";
        first = false;
      }
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }

 private:
  bool enabled_;
  std::vector<std::vector<Span>> lanes_;
  std::vector<uint64_t> next_;
};

/// A span over one scope on one lane.
class Scope {
 public:
  Scope(Tracer& t, int lane, const char* name, uint64_t parent = 0)
      : t_(t),
        lane_(lane),
        name_(name),
        parent_(parent),
        id_(t.new_id(lane)),
        start_(Clock::now()) {}
  ~Scope() { t_.record(lane_, id_, name_, start_, Clock::now(), parent_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer& t_;
  int lane_;
  const char* name_;
  uint64_t parent_;
  uint64_t id_;
  Clock::time_point start_;
};

}  // namespace wfqbench
