// Real-thread conservation test for busy SIBLING leaves of the ordering
// tree: 4 threads bound to leaves 0-3 of a 4-process tree, so both leaf
// parents have two active children. A leaf block is published with
// release stores and the owner's first parent refresh reads the sibling
// leaf with acquire loads; without the fence in OrderingTree::append_run, TSO
// hardware lets those loads pass the buffered stores, an operation goes
// unmerged, and the queue duplicates one item and loses another.
//
// Every value is tagged pid << 32 | seq. Checked per round: per-producer
// FIFO at every consumer, no value dequeued twice, and count and sum
// conservation after a quiescent drain. A store-buffer reordering is
// invisible to ASan and TSan, so only repetition catches it; CI loops this
// binary in release mode.
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "api/queue_registry.hpp"
#include "test_util.hpp"

namespace {

constexpr int kProcs = 4;
constexpr int kRounds = 4;
constexpr uint64_t kPairsPerThread = 40'000;

void run_round(const std::string& key) {
  auto q = wfq::api::make_queue<uint64_t>(
      key, wfq::api::QueueConfig{.procs = kProcs});
  std::vector<std::vector<uint64_t>> got(kProcs);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int pid = 0; pid < kProcs; ++pid) {
    threads.emplace_back([&, pid] {
      q.bind_thread(pid);
      auto& mine = got[static_cast<size_t>(pid)];
      mine.reserve(kPairsPerThread);
      ready.fetch_add(1);
      while (ready.load() < kProcs) {
      }  // start together so the siblings overlap from the first op
      for (uint64_t k = 0; k < kPairsPerThread; ++k) {
        q.enqueue((static_cast<uint64_t>(pid) << 32) | k);
        if (auto r = q.dequeue()) mine.push_back(*r);
      }
    });
  }
  for (auto& t : threads) t.join();

  q.bind_thread(0);
  std::vector<uint64_t> drained;
  while (auto r = q.dequeue()) drained.push_back(*r);

  std::vector<std::vector<bool>> seen(
      kProcs, std::vector<bool>(kPairsPerThread, false));
  uint64_t count = 0, sum = 0;
  bool valid = true, unique = true, fifo = true;
  auto take = [&](uint64_t v) {
    uint64_t producer = v >> 32, seq = v & 0xffffffffu;
    if (producer >= kProcs || seq >= kPairsPerThread) {
      valid = false;
      return;
    }
    if (seen[producer][seq]) unique = false;
    seen[producer][seq] = true;
    ++count;
    sum += v;
  };
  for (const auto& list : got) {
    std::vector<int64_t> last(kProcs, -1);  // per-producer FIFO here
    for (uint64_t v : list) {
      take(v);
      uint64_t producer = v >> 32;
      if (producer >= kProcs) continue;
      auto seq = static_cast<int64_t>(v & 0xffffffffu);
      if (seq <= last[producer]) fifo = false;
      last[producer] = seq;
    }
  }
  for (uint64_t v : drained) take(v);

  uint64_t want_sum = 0;
  for (uint64_t pid = 0; pid < kProcs; ++pid)
    for (uint64_t k = 0; k < kPairsPerThread; ++k) want_sum += (pid << 32) | k;
  int before = wfq::test::failures();
  CHECK(valid);
  CHECK(unique);
  CHECK(fifo);
  CHECK_EQ(count, kProcs * kPairsPerThread);
  CHECK_EQ(sum, want_sum);
  if (wfq::test::failures() > before) std::cerr << "  (queue " << key << ")\n";
}

}  // namespace

int main() {
  for (const char* key : {"ubq", "bounded:g=8"})
    for (int r = 0; r < kRounds; ++r) run_round(key);
  return wfq::test::exit_code();
}
