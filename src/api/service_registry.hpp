// Service-layer factory: the registry seam's third object kind (ISSUE 7).
// A service key names a scheduling discipline plus the backing queues it
// multiplexes: "dwrr:<nqueues>:<backing-queue-key>" builds a
// svc::ServiceFacade over <nqueues> tenant queues, each constructed through
// make_queue with <backing-queue-key> — so "dwrr:8:ubq",
// "dwrr:4:bounded:g=8" and "dwrr:16:faaq" all work, and a new backing queue
// is automatically a valid service backing the day it is registered. Key
// parsing is strict and loud, on the registry's key grammar: malformed
// spellings throw with the expected shape spelled out.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "api/queue_registry.hpp"
#include "api/spec.hpp"
#include "svc/service.hpp"

namespace wfq::api {

/// Parsed "dwrr:<nqueues>:<backing-queue-key>" service key.
struct ServiceKey {
  int ntenants = 0;
  std::string backing;
};

/// Registered service-key shapes, for usage lines and error messages (the
/// service side of queue_names / vector_names).
inline std::vector<std::string> service_names() {
  return {"dwrr:<nqueues>:<backing-queue-key>"};
}

/// Parses a service key. Returns nullopt for names that are not service
/// keys at all (so kind-agnostic callers can fall through to the queue /
/// vector registries); malformed dwrr keys throw. The backing key is
/// everything after the second colon, so parameterized backings like
/// "dwrr:4:bounded:g=8" parse naturally; the backing is validated against
/// the queue registry here (vectors have no dequeue to service).
inline std::optional<ServiceKey> parse_service_key(const std::string& name) {
  const size_t colon = name.find(':');
  if (name.substr(0, colon) != "dwrr") return std::nullopt;
  const std::string want =
      "want \"dwrr:<nqueues>:<backing-queue-key>\" with 1 <= nqueues <= 4096 "
      "and a registered backing queue key (e.g. \"dwrr:8:ubq\", "
      "\"dwrr:4:bounded:g=8\")";
  const size_t second =
      colon == std::string::npos ? colon : name.find(':', colon + 1);
  if (second == std::string::npos || second + 1 == name.size())
    throw std::invalid_argument("api::make_service: bad service key \"" +
                                name + "\"; " + want);
  const int n = parse_num<int>(
      std::string_view(name).substr(colon + 1, second - colon - 1),
      "tenant count in \"" + name + "\" (" + want + ")", 1, 4096);
  std::string backing = name.substr(second + 1);
  // Loud backing validation: unknown names, vector names and parameterized
  // spellings of non-parameterized queues all get queue_info's errors, with
  // this key quoted so the caller sees which layer rejected what.
  try {
    (void)queue_info(backing);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("api::make_service: bad backing queue in \"" +
                                name + "\": " + e.what());
  }
  return ServiceKey{n, backing};
}

/// Builds a fresh service facade by key; throws std::invalid_argument on
/// unknown or malformed keys. cfg applies to every backing queue (procs,
/// backend, capacity, gc_period all pass through make_queue unchanged).
template <typename T>
svc::ServiceFacade<T> make_service(const std::string& name,
                                   const QueueConfig& cfg) {
  std::optional<ServiceKey> key = parse_service_key(name);
  if (!key) {
    std::string names;
    for (const std::string& s : service_names()) names += " " + s;
    throw std::invalid_argument("api::make_service: unknown service \"" +
                                name + "\"; known:" + names);
  }
  return svc::ServiceFacade<T>(key->ntenants, key->backing, cfg);
}

}  // namespace wfq::api
