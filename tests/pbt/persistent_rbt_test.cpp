// Unit tests for the path-copying persistent red-black tree:
//  (a) RB + BST invariants hold after randomized insert/erase sequences
//      (validate() checks red-red, black-height and key order);
//  (b) differential agreement with std::map on find/size across the run;
//  (c) persistence: version roots snapshotted mid-run read back exactly
//      their historical contents after arbitrary later mutations;
//  (d) step accounting: every operation's tls_rbt_touches delta equals its
//      visited + created node counts (last_op_stats);
//  (e) shared_ptr values (the bounded queue's chunks) are released once
//      every version holding them is dropped;
//  (f) first_where agrees with a linear scan of [lo, hi] for monotone
//      predicates (none true, all true, a threshold inside, ranges holding
//      no keys), visiting at most 2 log2(n+1) + 1 nodes, every one of them
//      charged as a touch.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "pbt/persistent_rbt.hpp"
#include "test_util.hpp"

namespace {

using Rbt = wfq::pbt::PersistentRbt<uint64_t>;

/// One operation with the touches == visited + created assertion wrapped
/// around it.
template <typename F>
auto counted(F&& f) {
  uint64_t t0 = wfq::pbt::tls_rbt_touches();
  auto out = f();
  uint64_t delta = wfq::pbt::tls_rbt_touches() - t0;
  const wfq::pbt::RbtOpStats& st = wfq::pbt::last_op_stats();
  CHECK_EQ(delta, st.visited + st.created);
  return out;
}

void randomized_against_map(uint64_t seed, int ops, uint64_t key_range) {
  std::mt19937_64 rng(seed);
  Rbt::Ptr root = Rbt::empty();
  std::map<uint64_t, uint64_t> model;

  // Snapshots for the persistence check: (version root, model copy).
  std::vector<std::pair<Rbt::Ptr, std::map<uint64_t, uint64_t>>> snaps;

  for (int k = 0; k < ops; ++k) {
    uint64_t key = rng() % key_range;
    uint64_t action = rng() % 100;
    if (action < 55) {
      uint64_t val = rng();
      root = counted([&] { return Rbt::insert(root, key, val); });
      model[key] = val;
    } else if (action < 85) {
      root = counted([&] { return Rbt::erase(root, key); });
      model.erase(key);
    } else {
      const uint64_t* got = counted([&] { return Rbt::find(root, key); });
      auto it = model.find(key);
      CHECK_EQ(got != nullptr, it != model.end());
      if (got != nullptr && it != model.end()) CHECK_EQ(*got, it->second);
    }
    try {
      Rbt::validate(root);
    } catch (const std::exception& ex) {
      CHECK(false);
      std::cerr << "validate failed after op " << k << ": " << ex.what()
                << "\n";
      return;
    }
    if (k % (ops / 8 + 1) == 0) snaps.emplace_back(root, model);
  }
  CHECK_EQ(Rbt::size(root), model.size());

  // Persistence: every snapshot still reads exactly its historical state,
  // key set and values, even though the tree mutated arbitrarily since.
  for (const auto& [snap_root, snap_model] : snaps) {
    CHECK_EQ(Rbt::size(snap_root), snap_model.size());
    size_t seen = 0;
    auto it = snap_model.begin();
    bool order_ok = true;
    Rbt::for_each(snap_root, [&](uint64_t key, uint64_t val) {
      if (it == snap_model.end() || it->first != key || it->second != val)
        order_ok = false;
      else
        ++it;
      ++seen;
    });
    CHECK(order_ok);
    CHECK_EQ(seen, snap_model.size());
    Rbt::validate(snap_root);
  }
}

void erase_absent_is_noop() {
  Rbt::Ptr root = Rbt::empty();
  for (uint64_t k = 0; k < 20; ++k) root = Rbt::insert(root, k * 2, k);
  Rbt::Ptr same = counted([&] { return Rbt::erase(root, 11); });  // absent
  CHECK(same == root);  // identical version, not a copy
  CHECK_EQ(wfq::pbt::last_op_stats().created, uint64_t{0});
  Rbt::validate(root);
}

void touches_are_logarithmic() {
  // Sanity on the step model the paper charges for GC: an operation on an
  // n-key tree touches O(log n) nodes, not O(n).
  Rbt::Ptr root = Rbt::empty();
  constexpr uint64_t kN = 4096;
  for (uint64_t k = 0; k < kN; ++k) root = Rbt::insert(root, k, k);
  uint64_t t0 = wfq::pbt::tls_rbt_touches();
  (void)Rbt::find(root, kN / 2);
  uint64_t find_cost = wfq::pbt::tls_rbt_touches() - t0;
  CHECK(find_cost >= 1 && find_cost <= 2 * 13);  // 2*lg(4096)+slack

  t0 = wfq::pbt::tls_rbt_touches();
  root = Rbt::insert(root, kN + 1, 0);
  uint64_t ins_cost = wfq::pbt::tls_rbt_touches() - t0;
  CHECK(ins_cost >= 1 && ins_cost <= 8 * 13);  // visit+copy per level
}

void shared_values_are_released() {
  // The bounded queue archives std::shared_ptr<const Chunk> values; path
  // copying copies the pointer into every new version. Once all versions
  // are dropped, every value must be owned by its creator alone again, or
  // chunk memory would leak across versions.
  using SRbt = wfq::pbt::PersistentRbt<std::shared_ptr<const uint64_t>>;
  std::mt19937_64 rng(0x5eed4);
  std::vector<std::shared_ptr<const uint64_t>> values;
  {
    std::vector<SRbt::Ptr> versions;
    SRbt::Ptr root = SRbt::empty();
    for (int k = 0; k < 2000; ++k) {
      uint64_t key = rng() % 128;
      if (rng() % 100 < 60) {
        values.push_back(std::make_shared<const uint64_t>(key));
        root = SRbt::insert(root, key, values.back());  // insert-or-assign
      } else {
        root = SRbt::erase(root, key);
      }
      if (k % 50 == 0) versions.push_back(root);
    }
    SRbt::validate(root);
    bool shared = false;
    for (const auto& v : values) shared = shared || v.use_count() > 1;
    CHECK(shared);  // the versions really hold references
  }
  bool released = true;
  for (const auto& v : values) released = released && v.use_count() == 1;
  CHECK(released);
}

void first_where_against_scan(uint64_t seed, int keys, uint64_t key_range) {
  std::mt19937_64 rng(seed);
  Rbt::Ptr root = Rbt::empty();
  std::map<uint64_t, uint64_t> model;
  for (int k = 0; k < keys; ++k) {
    uint64_t key = rng() % key_range;
    // Values rise with the keys (a monotone field, like a chunk's last
    // block's sumenq), with gaps, so a threshold may fall between them.
    root = Rbt::insert(root, key, key * 3 + 1);
    model[key] = key * 3 + 1;
  }
  // Thin it out so some [lo, hi] ranges hold no key at all.
  for (int k = 0; k < keys / 3; ++k) {
    uint64_t key = rng() % key_range;
    root = Rbt::erase(root, key);
    model.erase(key);
  }
  Rbt::validate(root);
  const uint64_t n = model.size();
  const uint64_t max_visits =
      2 * static_cast<uint64_t>(std::bit_width(n + 1) - 1) + 1;

  for (int trial = 0; trial < 3000; ++trial) {
    uint64_t lo = rng() % (key_range + 2);
    uint64_t hi = lo + rng() % (key_range / 4 + 2);
    if (trial % 10 == 0) hi = lo;  // single-key ranges
    // Thresholds: none true (above every value), all true (0), or one
    // drawn from the value range.
    uint64_t t = trial % 7 == 0   ? key_range * 3 + 10
                 : trial % 7 == 1 ? 0
                                  : rng() % (key_range * 3 + 2);
    auto pred = [t](uint64_t v) { return v >= t; };

    const uint64_t* want = nullptr;
    uint64_t want_key = 0;
    for (auto it = model.lower_bound(lo); it != model.end() && it->first <= hi;
         ++it) {
      if (pred(it->second)) {
        want = &it->second;
        want_key = it->first;
        break;
      }
    }
    const Rbt::Node* got =
        counted([&] { return Rbt::first_where(root, lo, hi, pred); });
    CHECK_EQ(wfq::pbt::last_op_stats().created, uint64_t{0});
    CHECK(wfq::pbt::last_op_stats().visited <= max_visits);
    CHECK_EQ(got != nullptr, want != nullptr);
    if (got != nullptr && want != nullptr) {
      CHECK_EQ(got->key, want_key);
      CHECK_EQ(got->val, *want);
    }
  }
  // The empty version has nothing to find and costs nothing.
  const Rbt::Node* none = counted([] {
    return Rbt::first_where(Rbt::empty(), 0, UINT64_MAX,
                            [](uint64_t) { return true; });
  });
  CHECK(none == nullptr);
  CHECK_EQ(wfq::pbt::last_op_stats().visited, uint64_t{0});
}

}  // namespace

int main() {
  randomized_against_map(/*seed=*/0x5eed1, /*ops=*/4000, /*key_range=*/256);
  randomized_against_map(/*seed=*/0x5eed2, /*ops=*/4000, /*key_range=*/32);
  randomized_against_map(/*seed=*/0x5eed3, /*ops=*/1500,
                         /*key_range=*/1'000'000);
  erase_absent_is_noop();
  touches_are_logarithmic();
  shared_values_are_released();
  first_where_against_scan(/*seed=*/0x5eed5, /*keys=*/600, /*key_range=*/2000);
  first_where_against_scan(/*seed=*/0x5eed6, /*keys=*/40, /*key_range=*/64);
  first_where_against_scan(/*seed=*/0x5eed7, /*keys=*/1, /*key_range=*/4);
  return wfq::test::exit_code();
}
