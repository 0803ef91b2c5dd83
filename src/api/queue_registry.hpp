// String-keyed factory registry for every concurrent object in the repo:
// `api::make_queue<T>("ubq", cfg)` builds any registered queue,
// `api::make_vector<T>("wfvec", cfg)` any registered vector, each on either
// platform backend, so experiment sweeps, the bench_runner `--queues` flag
// and the conformance tests enumerate implementations by name instead of by
// #include. Each object kind has one table; a row holds the name, the
// description, step_counted, whether the key takes ":g=<G>", and the
// factory. Adding an object is adding one row — no bench or test changes.
//
// Key grammar: <name>[:<param>], split once at the first ':'. The one
// parameter is the GC period "g=<G>" ("bounded:g=8"); a row that does not
// take it rejects any parameter as "takes no parameters".
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "api/concurrent_queue.hpp"
#include "api/concurrent_vector.hpp"
#include "api/spec.hpp"
#include "baselines/faa_queue.hpp"
#include "baselines/faa_vector.hpp"
#include "baselines/kp_queue.hpp"
#include "baselines/lock_queues.hpp"
#include "baselines/ms_queue.hpp"
#include "baselines/sim_queue.hpp"
#include "core/bounded_queue.hpp"
#include "core/unbounded_queue.hpp"
#include "core/wait_free_vector.hpp"
#include "platform/platform.hpp"

namespace wfq::api {

/// Which Platform the queue's shared accesses go through. Sim instantiations
/// yield to the cooperative scheduler before every access; Real ones are
/// plain (counted) std::atomic ops.
enum class Backend { real, sim };

struct QueueConfig {
  int procs = 1;
  Backend backend = Backend::real;
  /// Fixed-segment queues (faaq) only: cell-array capacity.
  size_t capacity = size_t{1} << 18;
};

struct QueueInfo {
  std::string name;
  std::string description;
  /// True when the implementation is templated on the Platform, i.e. its
  /// shared accesses are step-counted and a Sim instantiation has yield
  /// points. Lock-based baselines are false: they build under either
  /// backend but take zero modeled steps, so step-model experiments skip
  /// them by default.
  bool step_counted = true;
};

/// QueueConfig sized for a sweep of `ops_per_proc` operations per process:
/// fixed-segment queues (faaq) get a cell array covering the workload's
/// worst-case slot claims — each op can claim several slots when poisoning
/// forces reclaims (anti-faa makes this the common case), so an 8x margin
/// over the op count is applied (never below the default capacity).
/// Experiments that let --ops/--procs grow the workload must use this
/// instead of a bare {procs, backend} config, or faaq aborts on exhaustion.
inline QueueConfig sized_config(int procs, Backend backend,
                                int64_t ops_per_proc) {
  QueueConfig cfg;
  cfg.procs = procs;
  cfg.backend = backend;
  uint64_t claims = static_cast<uint64_t>(procs) *
                    static_cast<uint64_t>(ops_per_proc < 0 ? 0 : ops_per_proc);
  cfg.capacity =
      std::max(cfg.capacity, static_cast<size_t>(8 * claims + (1u << 14)));
  return cfg;
}

namespace detail {

/// One registered object. `make` receives the full key (the handle echoes
/// it as name()) and the GC period the key names: its ":g=<G>", or 0 (the
/// paper default) when it carries none.
template <typename Handle>
struct Row {
  QueueInfo info;
  bool takes_g;  // the key may carry ":g=<G>"
  Handle (*make)(const std::string& key, const QueueConfig& cfg,
                 int64_t gc_period);
};

/// Builds Obj<T, Real or Sim> per `backend`, wrapped in Handle<T>.
template <template <typename> class Handle,
          template <typename, typename> class Obj, typename T,
          typename... Args>
Handle<T> make_on_backend(const std::string& key, Backend backend,
                          Args&&... args) {
  if (backend == Backend::sim)
    return Handle<T>::template of<Obj<T, platform::SimPlatform>>(
        key, std::forward<Args>(args)...);
  return Handle<T>::template of<Obj<T, platform::RealPlatform>>(
      key, std::forward<Args>(args)...);
}

}  // namespace detail

/// The queue table, in canonical registry order. The lock-based baselines
/// have no Platform template parameter; they build unchanged for either
/// backend (under the sim scheduler they expose no yield points, see
/// QueueInfo::step_counted).
template <typename T>
const std::vector<detail::Row<AnyQueue<T>>>& queue_table() {
  using detail::make_on_backend;
  using Key = const std::string&;
  using Cfg = const QueueConfig&;
  static const std::vector<detail::Row<AnyQueue<T>>> rows = {
      {{"ubq", "wait-free ordering-tree queue, unbounded space (the paper)",
        true},
       false,
       [](Key k, Cfg c, int64_t) {
         return make_on_backend<AnyQueue, core::UnboundedQueue, T>(
             k, c.backend, c.procs);
       }},
      {{"bounded",
        "bounded-space wait-free queue (Section 6: GC phases + persistent "
        "RBT + EBR; parameterize as bounded:g=<G>)",
        true},
       true,
       [](Key k, Cfg c, int64_t g) {
         return make_on_backend<AnyQueue, core::BoundedQueue, T>(
             k, c.backend, c.procs, g);
       }},
      {{"msq", "Michael-Scott lock-free queue (CAS-retry exemplar)", true},
       false,
       [](Key k, Cfg c, int64_t) {
         return make_on_backend<AnyQueue, baselines::MsQueue, T>(
             k, c.backend, c.procs);
       }},
      {{"kp",
        "Kogan-Petrank wait-free queue (phase-ordered helping, Theta(p) per "
        "op)",
        true},
       false,
       [](Key k, Cfg c, int64_t) {
         return make_on_backend<AnyQueue, baselines::KpQueue, T>(
             k, c.backend, c.procs);
       }},
      {{"simq",
        "Fatourou-Kallimanis software-combining queue (toggle announce, "
        "state-copy + single-CAS install)",
        true},
       false,
       [](Key k, Cfg c, int64_t) {
         return make_on_backend<AnyQueue, baselines::SimQueue, T>(
             k, c.backend, c.procs);
       }},
      {{"faaq",
        "fetch&add array queue (fast in practice, Omega(p) worst case)",
        true},
       false,
       [](Key k, Cfg c, int64_t) {
         return make_on_backend<AnyQueue, baselines::FaaArrayQueue, T>(
             k, c.backend, c.procs, c.capacity);
       }},
      {{"twolock", "Michael-Scott two-lock queue (wall-clock baseline)",
        false},
       false,
       [](Key k, Cfg, int64_t) {
         return AnyQueue<T>::template of<baselines::TwoLockQueue<T>>(k);
       }},
      {{"mutex", "single-mutex std::deque wrapper (wall-clock baseline)",
        false},
       false,
       [](Key k, Cfg, int64_t) {
         return AnyQueue<T>::template of<baselines::MutexQueue<T>>(k);
       }},
  };
  return rows;
}

/// The vector table, in canonical registry order. Vectors reuse
/// QueueConfig (procs/backend/capacity) and
/// QueueInfo's metadata shape. The flat baseline takes its fixed capacity
/// from cfg.capacity (sized_config applies to it exactly as to faaq).
template <typename T>
const std::vector<detail::Row<AnyVector<T>>>& vector_table() {
  using detail::make_on_backend;
  using Key = const std::string&;
  using Cfg = const QueueConfig&;
  static const std::vector<detail::Row<AnyVector<T>>> rows = {
      {{"wfvec",
        "wait-free ordering-tree vector (Section 7: O(log p) append, "
        "O(log^2 p + log n) get)",
        true},
       false,
       [](Key k, Cfg c, int64_t) {
         return make_on_backend<AnyVector, core::WaitFreeVector, T>(
             k, c.backend, c.procs);
       }},
      {{"faavec",
        "flat fetch&add cell-array vector (O(1) baseline; fixed capacity "
        "from cfg.capacity)",
        true},
       false,
       [](Key k, Cfg c, int64_t) {
         return make_on_backend<AnyVector, baselines::FaaVector, T>(
             k, c.backend, c.procs, c.capacity);
       }},
  };
  return rows;
}

namespace detail {

/// The row `key` names, or nullptr when no row has its name. A parameter
/// the row does not take, or a malformed ":g=<G>", throws
/// std::invalid_argument with the expected shape spelled out; a valid G is
/// stored in `gc_period`.
template <typename Handle>
const Row<Handle>* find_row(const std::vector<Row<Handle>>& rows,
                            const std::string& key, int64_t& gc_period) {
  const size_t colon = key.find(':');
  const std::string name = key.substr(0, colon);
  for (const Row<Handle>& r : rows) {
    if (r.info.name != name) continue;
    if (colon == std::string::npos) return &r;
    if (!r.takes_g)
      throw std::invalid_argument("api: \"" + name +
                                  "\" takes no parameters; got \"" + key +
                                  "\"");
    const std::string want = "want \"" + name + "\" or \"" + name +
                             ":g=<G>\" with G >= 1 or G == -1 (disable GC)";
    const std::string_view param = std::string_view(key).substr(colon + 1);
    if (param.substr(0, 2) != "g=")
      throw std::invalid_argument("api: bad key \"" + key + "\"; " + want);
    gc_period = parse_num<int64_t>(
        param.substr(2), "GC period in \"" + key + "\" (" + want + ")", -1);
    if (gc_period == 0)
      throw std::invalid_argument(
          "api: GC period 0 in \"" + key + "\" is out of range; " + want +
          " (the paper default is spelled \"" + name + "\", not g=0)");
    return &r;
  }
  return nullptr;
}

/// " ubq bounded[:g=<G>] msq ...": the key shapes `rows` accepts.
template <typename Handle>
std::string known_keys(const std::vector<Row<Handle>>& rows) {
  std::string out;
  for (const Row<Handle>& r : rows)
    out += " " + r.info.name + (r.takes_g ? "[:g=<G>]" : "");
  return out;
}

/// find_row for callers that need a row: unknown names throw too.
template <typename Handle>
const Row<Handle>& get_row(const std::vector<Row<Handle>>& rows,
                           const std::string& key, const char* kind,
                           int64_t& gc_period) {
  if (const Row<Handle>* r = find_row(rows, key, gc_period)) return *r;
  throw std::invalid_argument(std::string("api: unknown ") + kind + " \"" +
                              key + "\"; known:" + known_keys(rows));
}

template <typename Handle>
std::vector<std::string> names_of(const std::vector<Row<Handle>>& rows) {
  std::vector<std::string> names;
  for (const Row<Handle>& r : rows) names.push_back(r.info.name);
  return names;
}

/// The keys in `keys` that name a row of `rows`, or `def` if none do.
template <typename Handle>
std::vector<std::string> keys_or(const std::vector<Row<Handle>>& rows,
                                 const std::vector<std::string>& keys,
                                 std::vector<std::string> def) {
  std::vector<std::string> out;
  int64_t g = 0;
  for (const std::string& k : keys)
    if (find_row(rows, k, g) != nullptr) out.push_back(k);
  return out.empty() ? std::move(def) : out;
}

}  // namespace detail

// Metadata is read from the uint64_t tables; every element type has the
// same rows.

/// All registered queue names, in registry order.
inline std::vector<std::string> queue_names() {
  return detail::names_of(queue_table<uint64_t>());
}

/// All registered vector names, in registry order.
inline std::vector<std::string> vector_names() {
  return detail::names_of(vector_table<uint64_t>());
}

/// Metadata for the queue `key` names (":g=<G>" keys resolve to their
/// row); throws std::invalid_argument on unknown or malformed keys.
inline const QueueInfo& queue_info(const std::string& key) {
  int64_t g = 0;
  return detail::get_row(queue_table<uint64_t>(), key, "queue", g).info;
}

/// Metadata for the vector `key` names; throws like queue_info.
inline const QueueInfo& vector_info(const std::string& key) {
  int64_t g = 0;
  return detail::get_row(vector_table<uint64_t>(), key, "vector", g).info;
}

/// Metadata for an object of either kind. This is what kind-agnostic
/// surfaces (the CLI's --queues validation) resolve against; a key naming
/// neither kind throws with both known-key lists.
inline const QueueInfo& object_info(const std::string& key) {
  int64_t g = 0;
  if (const auto* r = detail::find_row(queue_table<uint64_t>(), key, g))
    return r->info;
  if (const auto* r = detail::find_row(vector_table<uint64_t>(), key, g))
    return r->info;
  throw std::invalid_argument(
      "api: unknown object \"" + key +
      "\"; known queues:" + detail::known_keys(queue_table<uint64_t>()) +
      "; known vectors:" + detail::known_keys(vector_table<uint64_t>()));
}

/// The shared --queues flag carries registry keys of EITHER object kind.
/// An experiment that sweeps one kind picks out its own keys with these and
/// falls back to its historical default when none of the requested keys
/// match — so `-e all --queues ubq` runs the queue experiments on ubq while
/// E11 keeps its full vector sweep, and `--queues wfvec` narrows E11
/// without blowing up the queue experiments mid-run.
inline std::vector<std::string> queue_keys_or(
    const std::vector<std::string>& keys, std::vector<std::string> def) {
  return detail::keys_or(queue_table<uint64_t>(), keys, std::move(def));
}

inline std::vector<std::string> vector_keys_or(
    const std::vector<std::string>& keys, std::vector<std::string> def) {
  return detail::keys_or(vector_table<uint64_t>(), keys, std::move(def));
}

/// Builds a fresh queue by registry key; throws std::invalid_argument on
/// unknown or malformed keys.
template <typename T>
AnyQueue<T> make_queue(const std::string& key, const QueueConfig& cfg) {
  int64_t g = 0;
  return detail::get_row(queue_table<T>(), key, "queue", g).make(key, cfg, g);
}

/// Builds a fresh vector by registry key; throws like make_queue.
template <typename T>
AnyVector<T> make_vector(const std::string& key, const QueueConfig& cfg) {
  int64_t g = 0;
  return detail::get_row(vector_table<T>(), key, "vector", g)
      .make(key, cfg, g);
}

}  // namespace wfq::api
