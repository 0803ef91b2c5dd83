// Unit test for the epoch-based reclamation layer (core/ebr.hpp):
//  (a) with no reader pinned, one advance moves the epoch three times and
//      frees everything retired before it (retired_count() reads 0);
//  (b) a reader pinned at the old epoch blocks every free until it unpins,
//      and then the next advance frees;
//  (c) a reader that re-pins at the new epoch blocks only the later
//      advances: what was retired before its pin is freed while it stays
//      pinned;
//  (d) deleters get the context the freeing advance was given, and the
//      destructor's get null;
//  (e) real threads: readers pin, load a published object and read it
//      while a collector swaps, retires and advances (a freed object is
//      poisoned before delete, so a premature free reads as a bad magic
//      here and as a use-after-free under ASan; TSan watches the slots).
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "core/ebr.hpp"
#include "test_util.hpp"

namespace {

using Ebr = wfq::core::Ebr<>;

constexpr uint64_t kMagic = 0x5eedf00d;

struct Obj {
  int id;
  std::atomic<uint64_t> magic{kMagic};
  explicit Obj(int i) : id(i) {}
};

/// Every free the deleter saw: (object id, context), in order.
std::vector<std::pair<int, void*>>& freed() {
  static std::vector<std::pair<int, void*>> log;
  return log;
}

void log_and_delete(void* p, void* ctx) {
  auto* o = static_cast<Obj*>(p);
  freed().emplace_back(o->id, ctx);
  delete o;
}

/// Runs one advance and returns how many times it moved the epoch (0..3);
/// checks that advance() reports whether it moved at all.
uint64_t moves(Ebr& e, void* ctx) {
  const uint64_t before = e.epoch();
  const bool moved = e.advance(ctx);
  const uint64_t n = e.epoch() - before;
  CHECK_EQ(moved, n > 0);
  return n;
}

bool was_freed(int id) {
  for (const auto& [i, ctx] : freed())
    if (i == id) return true;
  return false;
}

void no_reader_frees_everything() {
  freed().clear();
  Ebr e(2);
  int ctx = 0;
  e.retire(new Obj(1), &log_and_delete);
  e.retire(new Obj(2), &log_and_delete);
  CHECK_EQ(e.retired_count(), uint64_t{2});
  const uint64_t e0 = e.epoch();
  CHECK_EQ(moves(e, &ctx), uint64_t{3});
  CHECK_EQ(e.epoch(), e0 + 3);
  CHECK_EQ(e.retired_count(), uint64_t{0});
  CHECK_EQ(e.freed_count(), uint64_t{2});
  // Garbage retired across several phases goes the same way: each advance
  // frees all of it.
  for (int id = 3; id < 9; ++id) {
    e.retire(new Obj(id), &log_and_delete);
    if (id % 2 == 0) {
      CHECK_EQ(moves(e, &ctx), uint64_t{3});
      CHECK_EQ(e.retired_count(), uint64_t{0});
    }
  }
  CHECK_EQ(e.freed_count(), uint64_t{8});
  CHECK_EQ(freed().size(), size_t{8});
  for (const auto& [id, c] : freed()) CHECK(c == &ctx);
}

void old_reader_blocks_every_free() {
  freed().clear();
  Ebr e(3);
  int ctx = 0;
  const uint64_t e0 = e.epoch();
  e.pin(1);  // reads under e0
  e.retire(new Obj(10), &log_and_delete);
  // The reader is at the current epoch, so the epoch moves once; the
  // reader is then behind, and nothing it may hold is freed.
  CHECK_EQ(moves(e, &ctx), uint64_t{1});
  CHECK_EQ(e.epoch(), e0 + 1);
  e.retire(new Obj(11), &log_and_delete);
  CHECK_EQ(moves(e, &ctx), uint64_t{0});
  CHECK_EQ(moves(e, &ctx), uint64_t{0});
  CHECK(freed().empty());
  CHECK_EQ(e.retired_count(), uint64_t{2});
  e.unpin(1);
  CHECK_EQ(moves(e, &ctx), uint64_t{3});
  CHECK(was_freed(10) && was_freed(11));
  CHECK_EQ(e.retired_count(), uint64_t{0});
}

void repinned_reader_blocks_only_later_advances() {
  freed().clear();
  Ebr e(2);
  int ctx = 0;
  const uint64_t e0 = e.epoch();
  e.pin(0);
  e.retire(new Obj(20), &log_and_delete);  // retired at e0
  CHECK_EQ(moves(e, &ctx), uint64_t{1});
  e.unpin(0);
  e.pin(0);  // re-pins at e0 + 1
  e.retire(new Obj(21), &log_and_delete);  // retired at e0 + 1
  // The first advance passes the reader (it is at the current epoch); the
  // second stops at it.
  CHECK_EQ(moves(e, &ctx), uint64_t{1});
  CHECK_EQ(e.epoch(), e0 + 2);
  CHECK(freed().empty());
  e.unpin(0);
  e.pin(0);  // re-pins at e0 + 2
  // 20 was retired before this pin, so the advance to e0 + 3 frees it
  // while the reader stays pinned; 21 waits for the advance to e0 + 4,
  // which the reader blocks.
  CHECK_EQ(moves(e, &ctx), uint64_t{1});
  CHECK(was_freed(20));
  CHECK(!was_freed(21));
  CHECK_EQ(e.retired_count(), uint64_t{1});
  e.unpin(0);
  CHECK_EQ(moves(e, &ctx), uint64_t{3});
  CHECK(was_freed(21));
  CHECK_EQ(e.retired_count(), uint64_t{0});
}

void deleter_contexts() {
  freed().clear();
  int ctx_a = 0;
  int ctx_b = 0;
  {
    Ebr e(2);
    e.retire(new Obj(30), &log_and_delete);
    CHECK_EQ(moves(e, &ctx_a), uint64_t{3});
    e.pin(1);
    e.retire(new Obj(31), &log_and_delete);
    // 31 stays: the reader holds it back.
    CHECK_EQ(moves(e, &ctx_b), uint64_t{1});
    CHECK_EQ(e.retired_count(), uint64_t{1});
    e.unpin(1);
  }  // ~Ebr frees 31
  CHECK_EQ(freed().size(), size_t{2});
  CHECK((freed()[0] == std::pair<int, void*>{30, &ctx_a}));
  CHECK((freed()[1] == std::pair<int, void*>{31, nullptr}));
}

void poison_and_delete(void* p, void*) {
  auto* o = static_cast<Obj*>(p);
  o->magic.store(0, std::memory_order_relaxed);
  delete o;
}

void real_thread_readers() {
  constexpr int kReaders = 2;
  constexpr uint64_t kSwaps = 20'000;
  Ebr e(kReaders + 1);
  std::atomic<Obj*> cur{new Obj(0)};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!done.load(std::memory_order_acquire)) {
        e.pin(r);
        Obj* o = cur.load(std::memory_order_acquire);
        if (o->magic.load(std::memory_order_relaxed) != kMagic)
          bad.fetch_add(1, std::memory_order_relaxed);
        e.unpin(r);
        std::this_thread::yield();  // let the epoch move now and then
      }
    });
  }
  // At least kSwaps swaps, and on until half of them were freed while the
  // readers ran (10 s at most: how fast the epoch moves is up to the
  // scheduler).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  uint64_t swaps = 0;
  while (swaps < kSwaps || (e.freed_count() < kSwaps / 2 &&
                            std::chrono::steady_clock::now() < deadline)) {
    Obj* old = cur.exchange(new Obj(static_cast<int>(++swaps)),
                            std::memory_order_acq_rel);
    e.retire(old, &poison_and_delete);
    (void)e.advance(nullptr);
  }
  const uint64_t freed_while_reading = e.freed_count();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  CHECK_EQ(bad.load(), uint64_t{0});
  CHECK(freed_while_reading > 0);
  // With every reader gone, one advance frees the rest.
  CHECK_EQ(moves(e, nullptr), uint64_t{3});
  CHECK_EQ(e.retired_count(), uint64_t{0});
  CHECK_EQ(e.freed_count(), swaps);
  delete cur.load();
}

}  // namespace

int main() {
  no_reader_frees_everything();
  old_reader_blocks_every_free();
  repinned_reader_blocks_only_later_advances();
  deleter_contexts();
  real_thread_readers();
  return wfq::test::exit_code();
}
