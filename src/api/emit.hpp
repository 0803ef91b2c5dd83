// Report emitters for the experiment API: the same structured Report renders
// as (a) the classic human-readable aligned table — byte-compatible in
// spirit with the pre-redesign hand-rolled benches — or (b) JSON
// ("wfq-bench-v1") for the machine-readable perf trajectory that CI
// archives as BENCH_*.json.
#pragma once

#include <cmath>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "api/experiment.hpp"
#include "stats/table.hpp"

namespace wfq::api {

// ---------------------------------------------------------------- table ---

inline void emit_table(std::ostream& os, const Report& r) {
  for (const std::string& line : r.preamble) os << line << "\n";
  if (!r.preamble.empty()) os << "\n";
  for (const Section& sec : r.sections) {
    for (const std::string& line : sec.preamble) os << line << "\n";
    if (!sec.columns.empty()) {
      stats::Table t(sec.columns);
      for (const auto& row : sec.rows) {
        std::vector<std::string> cells;
        cells.reserve(row.size());
        for (const Cell& c : row) cells.push_back(c.text);
        t.add_row(std::move(cells));
      }
      t.print(os);
    }
    if (!sec.shapes.empty()) os << "\n";
    for (const Shape& s : sec.shapes)
      os << stats::shape_line(s.series, s.fit) << "\n";
    for (const std::string& line : sec.notes) os << line << "\n";
    os << "\n";
  }
}

// ----------------------------------------------------------------- json ---

namespace detail {

inline void json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// Numbers print with the 17 significant digits a double needs to
/// round-trip exactly (the trajectory diffs BENCH_*.json files, so lossy
/// rounding would hide — or invent — changes); non-finite values (never
/// expected, but never invalid JSON) become null.
inline void json_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

inline void json_string_array(std::ostream& os,
                              const std::vector<std::string>& xs) {
  os << "[";
  for (size_t i = 0; i < xs.size(); ++i) {
    if (i) os << ",";
    json_string(os, xs[i]);
  }
  os << "]";
}

}  // namespace detail

/// One experiment object: {"name","id","title","sections":[...]}. Rows mix
/// JSON numbers (numeric cells, raw value) and strings (label cells).
inline void emit_json_experiment(std::ostream& os, const Report& r) {
  os << "{\"name\":";
  detail::json_string(os, r.experiment);
  os << ",\"id\":";
  detail::json_string(os, r.id);
  os << ",\"title\":";
  detail::json_string(os, r.title);
  os << ",\"sections\":[";
  for (size_t si = 0; si < r.sections.size(); ++si) {
    const Section& sec = r.sections[si];
    if (si) os << ",";
    os << "{\"id\":";
    detail::json_string(os, sec.id);
    os << ",\"columns\":";
    detail::json_string_array(os, sec.columns);
    os << ",\"rows\":[";
    for (size_t ri = 0; ri < sec.rows.size(); ++ri) {
      if (ri) os << ",";
      os << "[";
      for (size_t ci = 0; ci < sec.rows[ri].size(); ++ci) {
        if (ci) os << ",";
        const Cell& c = sec.rows[ri][ci];
        if (c.numeric)
          detail::json_number(os, c.num);
        else
          detail::json_string(os, c.text);
      }
      os << "]";
    }
    os << "],\"shapes\":[";
    for (size_t hi = 0; hi < sec.shapes.size(); ++hi) {
      if (hi) os << ",";
      const Shape& s = sec.shapes[hi];
      os << "{\"series\":";
      detail::json_string(os, s.series);
      os << ",\"r2_logp\":";
      detail::json_number(os, s.fit.r2_logp);
      os << ",\"r2_log2p\":";
      detail::json_number(os, s.fit.r2_log2p);
      os << ",\"r2_linp\":";
      detail::json_number(os, s.fit.r2_linp);
      os << ",\"best\":";
      detail::json_string(os, s.fit.best);
      os << "}";
    }
    os << "],\"metrics\":{";
    for (size_t mi = 0; mi < sec.metrics.size(); ++mi) {
      if (mi) os << ",";
      detail::json_string(os, sec.metrics[mi].name);
      os << ":";
      detail::json_number(os, sec.metrics[mi].value);
    }
    os << "},\"notes\":";
    detail::json_string_array(os, sec.notes);
    os << "}";
  }
  os << "]}";
}

/// Top-level document over one run's reports.
inline void emit_json(std::ostream& os, const std::vector<Report>& reports) {
  os << "{\"schema\":\"wfq-bench-v1\",\"experiments\":[";
  for (size_t i = 0; i < reports.size(); ++i) {
    if (i) os << ",";
    emit_json_experiment(os, reports[i]);
  }
  os << "]}\n";
}

/// Renders a batch of reports in the selected format.
inline void emit(std::ostream& os, Format format,
                 const std::vector<Report>& reports) {
  if (format == Format::json) {
    emit_json(os, reports);
    return;
  }
  for (const Report& r : reports) emit_table(os, r);
}

}  // namespace wfq::api
