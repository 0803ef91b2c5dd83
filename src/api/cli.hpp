// Shared CLI for the experiment runner (ISSUE 3 tentpole, part 3): parses
// the flag surface every experiment shares, resolves experiment names,
// runs them, and hands the Reports to the selected emitter. bench_runner's
// main() is one call to api::run_main.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "api/emit.hpp"
#include "api/experiment.hpp"
#include "api/queue_registry.hpp"
#include "api/service_registry.hpp"
#include "api/spec.hpp"
#include "sim/adversary.hpp"

namespace wfq::api {

namespace detail {

inline void print_usage(std::ostream& os) {
  os << "usage: bench_runner [--experiment <names|all>] [options]\n"
        "\n"
        "  --experiment, -e <csv>  experiments to run, by name or paper id\n"
        "                          (e.g. steps_enqueue or e2); 'all' runs\n"
        "                          every registration in E1..E12 order\n"
        "  --list                  list registered experiments and exit\n"
        "  --procs <csv>           override the process-count sweep, e.g. "
        "2,4,8\n"
        "  --ops <n>               override operations per process\n"
        "  --adversary <spec>      round-robin | random[:<seed>] | anti-faa\n"
        "                          | stall-refresh | bursty:<on>:<off>\n"
        "  --seed <n>              seed used by '--adversary random' when no\n"
        "                          explicit :<seed> is given (default 1)\n"
        "  --queues <csv>          override the object set, by registry name\n"
        "                          (bounded takes a parameter: bounded:g=<G>;\n"
        "                          E11 reads vector keys from this flag)\n"
        "  --format <fmt>          table (default) | json\n"
        "  --out <file>            write output to <file> instead of stdout\n"
        "  --help, -h              this text\n"
        "\n"
        "registered queues:";
  for (const std::string& n : queue_names()) os << " " << n;
  os << "\nregistered vectors:";
  for (const std::string& n : vector_names()) os << " " << n;
  os << "\nregistered services:";
  for (const std::string& s : service_names()) os << " " << s;
  os << "\nregistered adversaries:";
  for (const std::string& n : sim::policy_names()) os << " " << n;
  os << "\n";
}

inline void print_list(std::ostream& os) {
  os << "registered experiments (--experiment <name|id>):\n";
  for (const Experiment& e : experiments())
    os << "  " << e.id << "  " << e.name << " — " << e.title << "\n";
}

}  // namespace detail

/// Parses argv, runs the selected experiments, emits in the selected
/// format. Returns a process exit code (0 ok; 2 usage error).
inline int run_main(int argc, char** argv) {
  RunOptions opts;
  std::vector<std::string> selected;
  std::string out_path;
  bool list = false;

  auto need_value = [&](int& i, const std::string& flag) -> std::string {
    if (i + 1 >= argc)
      throw std::invalid_argument("missing value for " + flag);
    return argv[++i];
  };

  try {
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      if (a == "--experiment" || a == "-e") {
        for (std::string& n : split(need_value(i, a), ','))
          selected.push_back(std::move(n));
      } else if (a == "--list") {
        list = true;
      } else if (a == "--procs") {
        opts.procs.clear();  // a repeated flag overrides, like --queues
        // 4096 is far past any real sweep.
        for (const std::string& p : split(need_value(i, a), ','))
          opts.procs.push_back(parse_num<int>(p, a, 1, 4096));
      } else if (a == "--ops") {
        opts.ops = parse_num<int64_t>(need_value(i, a), a, 1);
      } else if (a == "--adversary") {
        opts.adversary = need_value(i, a);
      } else if (a == "--seed") {
        opts.seed = parse_num<uint64_t>(need_value(i, a), a);
      } else if (a == "--queues") {
        opts.queues = split(need_value(i, a), ',');
        for (const std::string& q : opts.queues)
          (void)object_info(q);  // validate names early (queue or vector)
      } else if (a == "--format") {
        std::string f = need_value(i, a);
        if (f == "table")
          opts.format = Format::table;
        else if (f == "json")
          opts.format = Format::json;
        else
          throw std::invalid_argument("unknown --format \"" + f +
                                      "\" (table|json)");
      } else if (a == "--out") {
        out_path = need_value(i, a);
      } else if (a == "--help" || a == "-h") {
        detail::print_usage(std::cout);
        return 0;
      } else if (!a.empty() && a[0] != '-') {
        selected.push_back(a);  // positional experiment name
      } else {
        throw std::invalid_argument("unknown flag \"" + a + "\"");
      }
    }
    // "--adversary random" composes with --seed (wherever it appeared in
    // argv); explicit "random:<seed>" wins. Validated like any other spec.
    if (opts.adversary == "random")
      opts.adversary = "random:" + std::to_string(opts.seed);
    if (!opts.adversary.empty())
      (void)sim::make_policy(opts.adversary);  // validate spec early
  } catch (const std::exception& ex) {
    std::cerr << "bench_runner: " << ex.what() << "\n\n";
    detail::print_usage(std::cerr);
    return 2;
  }

  if (list) {
    detail::print_list(std::cout);
    return 0;
  }
  if (selected.empty()) {
    detail::print_usage(std::cerr);
    std::cerr << "\n";
    detail::print_list(std::cerr);
    return 2;
  }

  // `all` owns every Experiment copy to_run points into; it must outlive
  // the run loop below.
  const std::vector<Experiment> all = experiments();
  std::vector<const Experiment*> to_run;
  // Dedup: "-e all,figure2" must not run (or emit) figure2 twice — JSON
  // consumers key the experiments array by name.
  auto add_once = [&](const Experiment* e) {
    for (const Experiment* have : to_run)
      if (have == e) return;
    to_run.push_back(e);
  };
  for (const std::string& key : selected) {
    if (key == "all") {
      for (const Experiment& e : all) add_once(&e);
      continue;
    }
    // find_experiment owns the name/id resolution semantics; `all` only
    // re-homes the result so its lifetime spans the run loop.
    const Experiment* found = find_experiment(key);
    if (found == nullptr) {
      std::cerr << "bench_runner: unknown experiment \"" << key << "\"\n\n";
      detail::print_list(std::cerr);
      return 2;
    }
    for (const Experiment& e : all) {
      if (e.name == found->name) {
        add_once(&e);
        break;
      }
    }
  }

  std::vector<Report> reports;
  reports.reserve(to_run.size());
  for (const Experiment* e : to_run) {
    try {
      reports.push_back(e->run(opts));
    } catch (const std::exception& ex) {
      std::cerr << "bench_runner: experiment \"" << e->name
                << "\" failed: " << ex.what() << "\n";
      return 1;
    }
  }

  if (out_path.empty()) {
    emit(std::cout, opts.format, reports);
  } else {
    // Create the parent directory if it does not exist: "--out dir/f.json"
    // into a fresh checkout (the CI artifact path) must not die on a
    // missing directory, and when creation itself fails the message must
    // name the directory, not just the file.
    std::filesystem::path parent = std::filesystem::path(out_path).parent_path();
    if (!parent.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(parent, ec);
      if (ec) {
        std::cerr << "bench_runner: cannot create output directory "
                  << parent.string() << ": " << ec.message() << "\n";
        return 1;
      }
    }
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "bench_runner: cannot open " << out_path << "\n";
      return 1;
    }
    emit(out, opts.format, reports);
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}

}  // namespace wfq::api
