// Declarative experiment API (ISSUE 3 tentpole, part 3): an Experiment is a
// named registration — title plus a run function mapping RunOptions (the
// shared CLI surface: --procs/--ops/--adversary/--seed/--queues/--format)
// to a structured Report. Reports are data, not prints: Sections hold
// typed table cells, shape fits and note lines, and the emitters in
// emit.hpp render the same Report as the classic aligned table or as
// machine-readable JSON (the BENCH_*.json perf trajectory).
//
// Each bench/experiments/*.cpp file is one registration; bench_runner.cpp
// is the single main. Defaults in every run function reproduce the
// pre-redesign hand-rolled bench outputs.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "stats/shape.hpp"
#include "stats/summary.hpp"

namespace wfq::api {

enum class Format { table, json };

/// Options shared by every experiment, parsed once by the runner CLI.
/// Empty/zero fields mean "use the experiment's default" — the *_or helpers
/// encode that, so each experiment states its historical constants inline.
struct RunOptions {
  std::vector<int> procs;           // --procs 2,4,8
  int64_t ops = 0;                  // --ops N (per process)
  std::string adversary;            // --adversary round-robin|random:<s>|
                                    //   anti-faa|stall-refresh
  uint64_t seed = 1;                // --seed; the CLI folds it into
                                    // "--adversary random" => "random:<seed>"
  std::vector<std::string> queues;  // --queues ubq,msq
  Format format = Format::table;    // --format table|json

  std::vector<int> procs_or(std::vector<int> def) const {
    return procs.empty() ? std::move(def) : procs;
  }
  int64_t ops_or(int64_t def) const { return ops > 0 ? ops : def; }
  std::string adversary_or(std::string def) const {
    return adversary.empty() ? std::move(def) : adversary;
  }
  // --queues carries keys of either object kind; experiments filter it with
  // api::queue_keys_or / api::vector_keys_or (queue_registry.hpp) instead of
  // a kind-oblivious accessor, so mixed keys never abort a sweep mid-run.
};

/// One table cell: rendered text plus, when numeric, the raw value so the
/// JSON emitter can output numbers instead of strings.
struct Cell {
  std::string text;
  double num = 0;
  bool numeric = false;
};

inline Cell cell(Cell c) { return c; }  // pass-through for premade cells
inline Cell cell(std::string s) { return {std::move(s), 0, false}; }
inline Cell cell(const char* s) { return {s, 0, false}; }
inline Cell cell(double v, int precision = 2) {
  return {stats::fmt(v, precision), v, true};
}
template <typename I>
  requires std::is_integral_v<I>
Cell cell(I v) {
  return {stats::fmt(v), static_cast<double>(v), true};
}

/// value/divisor as a numeric cell, or "-" when the divisor is not positive
/// (normalizing by log2(p) at p=1 must not print inf / emit JSON null).
inline Cell cell_ratio(double v, double divisor, int precision = 2) {
  return divisor > 0 ? cell(v / divisor, precision) : cell("-");
}

/// A named shape fit attached to a section (the "-> best: log p" lines).
struct Shape {
  std::string series;
  stats::ShapeFit fit;
};

/// A named scalar result (e.g. "r2_first_deq_logq") carried in the
/// machine-readable output. The human-readable table renders these inside
/// note lines; the JSON emitter emits them as numbers so the perf
/// trajectory can diff headline fits that are not p-family shapes
/// (the log-q / log-H fits of E3b, E7b, E10, E11b, E12).
struct Metric {
  std::string name;
  double value = 0;
};

/// One logical block of an experiment's output: preamble text, an aligned
/// table, shape fits, free-form fit lines and trailing expectation notes.
struct Section {
  std::string id;                      // "E2", "E3a", "E5b"
  std::vector<std::string> preamble;   // printed before the table
  std::vector<std::string> columns;
  std::vector<std::vector<Cell>> rows;
  std::vector<Shape> shapes;
  std::vector<Metric> metrics;         // machine-readable scalars
  std::vector<std::string> notes;      // printed after the table

  Section& pre(std::string line) {
    preamble.push_back(std::move(line));
    return *this;
  }
  Section& cols(std::vector<std::string> c) {
    columns = std::move(c);
    return *this;
  }
  template <typename... A>
  Section& row(A&&... cells_in) {
    rows.push_back({cell(std::forward<A>(cells_in))...});
    return *this;
  }
  /// Fits ys against {log p, log^2 p, p} and records the named result.
  Section& shape(std::string series, const std::vector<double>& ps,
                 const std::vector<double>& ys) {
    shapes.push_back({std::move(series), stats::fit_shape(ps, ys)});
    return *this;
  }
  Section& metric(std::string name, double value) {
    metrics.push_back({std::move(name), value});
    return *this;
  }
  /// A repeated measurement (see repeat): its median under `name`, with
  /// `<name>_min` and `<name>_max` beside it.
  Section& metric(const std::string& name, const stats::Summary& s) {
    return metric(name, s.p50)
        .metric(name + "_min", s.min)
        .metric(name + "_max", s.max);
  }
  Section& note(std::string line) {
    notes.push_back(std::move(line));
    return *this;
  }
};

/// The one repetition rule for wall-clock numbers: every timed number in
/// bench/experiments/ is the nearest-rank median of kReps runs, with the
/// min and max beside it, and every gate reads the median. A best-of-N
/// would keep the one outlier run a median drops. kReps is odd, so the
/// median is a run that happened.
inline constexpr int kReps = 3;

/// Runs f n times and returns stats::summarize of what it returned (the
/// median is .p50). When f returns std::array<double, K>, several numbers
/// one run measured, each field is summarized across the same runs.
template <typename F>
auto repeat(int n, F&& f) {
  using R = std::invoke_result_t<F&>;
  if constexpr (std::is_arithmetic_v<R>) {
    return repeat(n, [&] { return std::array{static_cast<double>(f())}; })[0];
  } else {
    std::array<std::vector<double>, std::tuple_size_v<R>> fields;
    for (int i = 0; i < n; ++i) {
      const R r = f();
      for (size_t j = 0; j < r.size(); ++j) fields[j].push_back(r[j]);
    }
    std::array<stats::Summary, std::tuple_size_v<R>> out;
    for (size_t j = 0; j < out.size(); ++j)
      out[j] = stats::summarize(fields[j]);
    return out;
  }
}

/// A full experiment result; what the emitters consume. Sections live in a
/// deque so the reference section() returns stays valid while later
/// sections are created (a vector would invalidate it on reallocation).
struct Report {
  std::string experiment;             // registry name, e.g. "steps_enqueue"
  std::string id;                     // "e2"
  std::string title;
  std::vector<std::string> preamble;  // header lines before any section
  std::deque<Section> sections;

  Section& section(std::string sec_id) {
    sections.emplace_back();
    sections.back().id = std::move(sec_id);
    return sections.back();
  }
};

/// A registered experiment: `bench_runner --experiment <name|id>` finds it
/// here. `order` sorts --list and --experiment all (E1..E12).
struct Experiment {
  std::string name;  // stable CLI name, e.g. "steps_enqueue"
  std::string id;    // paper-index alias, e.g. "e2"
  std::string title;
  int order = 0;
  std::function<Report(const RunOptions&)> run;
};

inline std::vector<Experiment>& experiments_mut() {
  static std::vector<Experiment> all;
  return all;
}

/// All registrations, sorted by paper-index order.
inline std::vector<Experiment> experiments() {
  std::vector<Experiment> all = experiments_mut();
  std::sort(all.begin(), all.end(),
            [](const Experiment& a, const Experiment& b) {
              return a.order != b.order ? a.order < b.order : a.name < b.name;
            });
  return all;
}

/// Lookup by CLI name or paper id ("steps_enqueue" or "e2"); null if absent.
inline const Experiment* find_experiment(const std::string& key) {
  for (const Experiment& e : experiments_mut())
    if (e.name == key || e.id == key) return &e;
  return nullptr;
}

/// One static instance per experiment TU registers it before main().
struct ExperimentRegistrar {
  explicit ExperimentRegistrar(Experiment e) {
    experiments_mut().push_back(std::move(e));
  }
};

/// Seeds a Report with the experiment's identity fields.
inline Report make_report(const Experiment& e) {
  Report r;
  r.experiment = e.name;
  r.id = e.id;
  r.title = e.title;
  return r;
}

/// By-name variant for the experiment run() functions' self-lookup. A name
/// that doesn't match any registrar (the classic copy-the-file-and-miss-one
/// slip) throws instead of dereferencing null.
inline Report make_report(const std::string& name) {
  const Experiment* e = find_experiment(name);
  if (e == nullptr)
    throw std::logic_error(
        "api::make_report: \"" + name +
        "\" is not a registered experiment — the name passed to "
        "make_report must match the file's ExperimentRegistrar");
  return make_report(*e);
}

}  // namespace wfq::api
