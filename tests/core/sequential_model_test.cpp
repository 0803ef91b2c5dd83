// Randomized differential test against std::queue: single-threaded histories
// (p=1, and p=8 with ops issued from rotating leaves) must match the
// sequential FIFO model exactly, including null dequeues. Exercises the whole
// dequeue path — IndexDequeue's superblock walk, the Lemma-20 doubling
// search, and the root-to-leaf descent — over long mixed histories.
//
// The monotone-search templates those walks are built on (bisect,
// gallop_down, gallop_up) are checked directly too: against a brute-force
// scan of random monotone 0/1 arrays over every valid bracket, with
// Lemma 20's probe bound on both gallops.
#include <bit>
#include <cstdint>
#include <optional>
#include <queue>
#include <random>
#include <vector>

#include "core/unbounded_queue.hpp"
#include "test_util.hpp"

namespace {

void run_history(int procs, uint64_t seed, int ops, int enq_permille) {
  wfq::core::UnboundedQueue<uint64_t> q(procs);
  std::queue<uint64_t> model;
  std::mt19937_64 rng(seed);
  uint64_t next_val = 1;
  for (int k = 0; k < ops; ++k) {
    q.bind_thread(static_cast<int>(rng() % static_cast<uint64_t>(procs)));
    bool enq = static_cast<int>(rng() % 1000) < enq_permille;
    if (enq) {
      q.enqueue(next_val);
      model.push(next_val);
      ++next_val;
    } else {
      std::optional<uint64_t> got = q.dequeue();
      if (model.empty()) {
        CHECK(!got.has_value());
      } else {
        CHECK(got.has_value());
        if (got.has_value()) CHECK_EQ(*got, model.front());
        model.pop();
      }
    }
  }
  // Drain and compare the tails.
  while (!model.empty()) {
    std::optional<uint64_t> got = q.dequeue();
    CHECK(got.has_value());
    if (got.has_value()) CHECK_EQ(*got, model.front());
    model.pop();
  }
  CHECK(!q.dequeue().has_value());
}

// Probes of one search: each must be a fresh index strictly inside the
// bracket the caller passed (its ends are known, never probed).
struct Probe {
  const std::vector<char>& bits;
  int64_t lo, hi;  // open interval probes must fall in
  int count = 0;
  bool operator()(int64_t i) {
    CHECK(i > lo && i < hi);
    ++count;
    return bits[static_cast<size_t>(i)] != 0;
  }
};

// Lemma 20's bound for a gallop whose answer lies d past its start.
int gallop_bound(int64_t d) {
  return 2 * std::bit_width(static_cast<uint64_t>(d)) + 1;
}

// One monotone array of n entries: false below `first`, true from it on
// (first in [1, n-1], so index 0 is false like the tree's sentinel block).
void check_searches(int64_t n, int64_t first) {
  std::vector<char> bits(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) bits[static_cast<size_t>(i)] = i >= first;
  int64_t brute = 0;
  while (!bits[static_cast<size_t>(brute)]) ++brute;
  for (int64_t hi = first; hi < n; ++hi) {
    Probe p{bits, 0, hi};
    CHECK_EQ(wfq::core::gallop_down(hi, p), brute);
    CHECK(p.count <= gallop_bound(hi - brute));
  }
  for (int64_t lo = 0; lo < first; ++lo) {
    for (int64_t hi = first; hi < n; ++hi) {
      Probe b{bits, lo, hi};
      CHECK_EQ(wfq::core::bisect(lo, hi, b), brute);
      Probe g{bits, lo, hi};
      CHECK_EQ(wfq::core::gallop_up(lo, hi, g), brute);
      CHECK(g.count <= gallop_bound(brute - lo));
    }
  }
}

void check_monotone_search() {
  for (int64_t n = 2; n <= 48; ++n)
    for (int64_t first = 1; first < n; ++first) check_searches(n, first);
  std::mt19937_64 rng(15);
  for (int k = 0; k < 4; ++k) {
    int64_t n = k == 0 ? 4096 : 256 + static_cast<int64_t>(rng() % 3841);
    check_searches(n, 1 + static_cast<int64_t>(rng() % (n - 1)));
  }
  // The design choice E12 ablates: the answer sits 5 blocks below the
  // dequeue's block in a 4096-block history. The gallop's cost is set by
  // that distance; a bisect over the whole history pays for its length and
  // breaks the bound.
  std::vector<char> bits(4096);
  for (size_t i = 4090; i < bits.size(); ++i) bits[i] = 1;
  Probe gallop{bits, 0, 4095};
  CHECK_EQ(wfq::core::gallop_down(4095, gallop), 4090);
  CHECK(gallop.count <= gallop_bound(5));
  Probe full{bits, 0, 4095};
  CHECK_EQ(wfq::core::bisect(0, 4095, full), 4090);
  CHECK(full.count > gallop_bound(5));
}

}  // namespace

int main() {
  check_monotone_search();
  run_history(/*procs=*/1, /*seed=*/1, /*ops=*/6000, /*enq_permille=*/550);
  run_history(/*procs=*/1, /*seed=*/2, /*ops=*/3000, /*enq_permille=*/800);
  run_history(/*procs=*/8, /*seed=*/3, /*ops=*/6000, /*enq_permille=*/550);
  run_history(/*procs=*/8, /*seed=*/4, /*ops=*/3000, /*enq_permille=*/300);
  run_history(/*procs=*/5, /*seed=*/5, /*ops=*/4000, /*enq_permille=*/500);
  return wfq::test::exit_code();
}
