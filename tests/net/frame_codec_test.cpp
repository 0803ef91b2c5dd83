// wfb-v1 frame codec robustness (ISSUE 8 satellite): round-trips for every
// assigned opcode, incremental decoding down to 1-byte feeds, and the full
// typed-error surface — bad magic, bad version, unknown opcode, oversized
// length, truncation at stream end — each rejected with its own status and
// sticky thereafter. The fuzz section shreds random byte streams (valid
// frames, corrupted frames, garbage) through random chunkings; under ASan
// this is the no-crash/no-overread gate. Last, the blocking client reader
// net::read_frame over a socketpair: leftovers, EOF, poison and timeout;
// and net::listen_uds's bind-then-rename under paths near sun_path's limit
// and under two listeners racing for one path. Last of all, net::EventLoop:
// over adopted socketpairs, bytes another thread post()s land after the
// responses already written, die with their connection, and still go out
// when posted just before stop(); posted closures run on the loop thread in
// order with adopt() and post(); the deadline hook runs at the deadline it
// returned, and a loop without one sleeps while idle; a dial to a refused
// port closes its connection by itself, and a dial to a listener whose
// accept queue is full returns at once, reads as connecting until the
// connect completes and never buffers past kMaxOutbox.
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <fstream>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "tests/test_util.hpp"

using namespace wfq;

namespace {

const std::vector<net::Opcode> kAllOpcodes = {
    net::Opcode::enq,       net::Opcode::deq,
    net::Opcode::stat,      net::Opcode::ping,
    net::Opcode::setw,      net::Opcode::raft_vote_req,
    net::Opcode::raft_vote_resp, net::Opcode::raft_append_req,
    net::Opcode::raft_append_resp, net::Opcode::enq_ok,
    net::Opcode::deq_ok,    net::Opcode::deq_empty,
    net::Opcode::stat_ok,   net::Opcode::pong,
    net::Opcode::err,       net::Opcode::setw_ok,
    net::Opcode::err_not_leader};

net::Frame sample_frame(net::Opcode op, uint32_t key) {
  net::Frame f;
  f.op = op;
  f.flags = static_cast<uint16_t>(0xA000 | static_cast<uint8_t>(op));
  f.key = key;
  switch (op) {
    case net::Opcode::enq:
    case net::Opcode::deq_ok:
      f.payload = net::encode_value(0x1122334455667788ULL + key);
      break;
    case net::Opcode::ping:
    case net::Opcode::pong:
      f.payload = "echo me \x00\x01\x02 with embedded NULs";
      break;
    case net::Opcode::stat_ok:
      f.payload = "{\"schema\":\"wfq-broker-stat-v1\"}";
      break;
    case net::Opcode::err:
      f.payload = "reason text";
      break;
    case net::Opcode::setw:
      f.payload = net::encode_u32_pair(key % 7, 3);
      break;
    case net::Opcode::err_not_leader:
      f.payload = net::encode_u32(key % 5);
      break;
    case net::Opcode::raft_vote_req:
    case net::Opcode::raft_vote_resp:
    case net::Opcode::raft_append_req:
    case net::Opcode::raft_append_resp:
      // The codec treats raft bodies as opaque bytes (raft/wire.hpp owns
      // their shape); binary-looking junk is the right sample here.
      f.payload.assign("\x01\x00\xff\x7f raft body bytes \x80", 21);
      break;
    default:
      break;  // empty-payload opcodes
  }
  return f;
}

void expect_frames_equal(const net::Frame& a, const net::Frame& b) {
  CHECK(a.op == b.op);
  CHECK_EQ(a.flags, b.flags);
  CHECK_EQ(a.key, b.key);
  CHECK_EQ(a.payload, b.payload);
}

/// Every opcode round-trips, both one-shot and 1 byte at a time.
void test_round_trip_all_opcodes() {
  for (net::Opcode op : kAllOpcodes) {
    net::Frame in = sample_frame(op, 0xDEADBEEF);
    std::string wire;
    net::encode_frame(in, wire);
    CHECK_EQ(wire.size(), net::kHeaderSize + in.payload.size());

    {  // one-shot
      net::Decoder d;
      d.feed(wire);
      net::Frame out;
      CHECK(d.next(out) == net::DecodeStatus::ok);
      expect_frames_equal(in, out);
      CHECK(d.next(out) == net::DecodeStatus::need_more);
      CHECK(d.at_eof() == net::DecodeStatus::ok);
    }
    {  // 1 byte at a time: need_more until the last byte lands
      net::Decoder d;
      net::Frame out;
      for (size_t i = 0; i + 1 < wire.size(); ++i) {
        d.feed(wire.data() + i, 1);
        CHECK(d.next(out) == net::DecodeStatus::need_more);
        CHECK(d.at_eof() == net::DecodeStatus::truncated);
      }
      d.feed(wire.data() + wire.size() - 1, 1);
      CHECK(d.next(out) == net::DecodeStatus::ok);
      expect_frames_equal(in, out);
      CHECK(d.at_eof() == net::DecodeStatus::ok);
    }
  }
}

/// A back-to-back burst decodes into the same frames in order, for any
/// chunking of the concatenated bytes.
void test_burst_chunked() {
  std::vector<net::Frame> frames;
  std::string wire;
  for (uint32_t k = 0; k < 32; ++k) {
    frames.push_back(
        sample_frame(kAllOpcodes[k % kAllOpcodes.size()], k));
    net::encode_frame(frames.back(), wire);
  }
  std::mt19937 rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    net::Decoder d;
    std::vector<net::Frame> got;
    size_t off = 0;
    while (off < wire.size()) {
      size_t n = 1 + rng() % 97;
      if (n > wire.size() - off) n = wire.size() - off;
      d.feed(wire.data() + off, n);
      off += n;
      net::Frame f;
      while (d.next(f) == net::DecodeStatus::ok) got.push_back(f);
    }
    CHECK_EQ(got.size(), frames.size());
    for (size_t i = 0; i < got.size() && i < frames.size(); ++i)
      expect_frames_equal(frames[i], got[i]);
    CHECK(d.at_eof() == net::DecodeStatus::ok);
    CHECK_EQ(d.pending(), size_t{0});
  }
}

/// Each framing-error class yields its own typed status, and the status is
/// STICKY: later feeds are dropped and next() keeps returning it.
void test_typed_errors_sticky() {
  std::string good;
  net::encode_frame(sample_frame(net::Opcode::ping, 7), good);

  struct Case {
    const char* name;
    size_t corrupt_at;
    char value;
    net::DecodeStatus want;
  };
  const Case cases[] = {
      {"bad_magic", 0, 'X', net::DecodeStatus::bad_magic},
      {"bad_version", 4, 9, net::DecodeStatus::bad_version},
      {"bad_opcode", 5, 0x7f, net::DecodeStatus::bad_opcode},
      // Opcode 0x00 sits below the request band and must also be rejected.
      {"bad_opcode_zero", 5, 0x00, net::DecodeStatus::bad_opcode},
  };
  for (const Case& c : cases) {
    std::string wire = good;
    wire[c.corrupt_at] = c.value;
    net::Decoder d;
    d.feed(wire);
    net::Frame f;
    CHECK(d.next(f) == c.want);
    CHECK(d.at_eof() == c.want);
    // Sticky: feeding a pristine frame afterwards does not resurrect it.
    d.feed(good);
    CHECK(d.next(f) == c.want);
    CHECK_EQ(d.pending(), size_t{0});  // poisoned decoder buffers nothing
  }

  {  // oversize: length field beyond kMaxPayload, caught from header alone
    std::string wire = good;
    uint32_t huge = net::kMaxPayload + 1;
    for (int i = 0; i < 4; ++i)
      wire[12 + static_cast<size_t>(i)] =
          static_cast<char>((huge >> (8 * i)) & 0xff);
    net::Decoder d;
    d.feed(wire.data(), net::kHeaderSize);  // header only — no payload needed
    net::Frame f;
    CHECK(d.next(f) == net::DecodeStatus::oversize);
    d.feed(good);
    CHECK(d.next(f) == net::DecodeStatus::oversize);
  }

  {  // a payload of exactly kMaxPayload is legal, one more byte is not
    net::Frame big = sample_frame(net::Opcode::ping, 1);
    big.payload.assign(net::kMaxPayload, 'x');
    std::string wire;
    net::encode_frame(big, wire);
    net::Decoder d;
    d.feed(wire);
    net::Frame f;
    CHECK(d.next(f) == net::DecodeStatus::ok);
    CHECK_EQ(f.payload.size(), size_t{net::kMaxPayload});
  }
}

/// Truncation is an EOF-only diagnosis: mid-stream a cut frame just looks
/// like need_more; at_eof() turns the pending prefix into `truncated`.
void test_truncation() {
  std::string wire;
  net::encode_frame(sample_frame(net::Opcode::enq, 3), wire);
  for (size_t cut = 1; cut < wire.size(); ++cut) {
    net::Decoder d;
    d.feed(wire.data(), cut);
    net::Frame f;
    CHECK(d.next(f) == net::DecodeStatus::need_more);
    CHECK(d.at_eof() == net::DecodeStatus::truncated);
    CHECK_EQ(d.pending(), cut);
  }
  // Full frame + a truncated second frame: first decodes, EOF still dirty.
  std::string two = wire;
  two.append(wire.data(), wire.size() - 1);
  net::Decoder d;
  d.feed(two);
  net::Frame f;
  CHECK(d.next(f) == net::DecodeStatus::ok);
  CHECK(d.next(f) == net::DecodeStatus::need_more);
  CHECK(d.at_eof() == net::DecodeStatus::truncated);
}

/// Value payload helpers: 8-byte contract, strict on any other size.
void test_value_codec() {
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{0xffffffffffffffff},
                     uint64_t{0x0123456789abcdef}}) {
    uint64_t out = 0;
    CHECK(net::decode_value(net::encode_value(v), out));
    CHECK_EQ(out, v);
  }
  uint64_t out = 0;
  CHECK(!net::decode_value("", out));
  CHECK(!net::decode_value("1234567", out));
  CHECK(!net::decode_value("123456789", out));
}

/// Long-session compaction: the consumed prefix must not grow without
/// bound. Decode far more bytes than the compaction threshold and check the
/// buffered remainder stays burst-sized.
void test_compaction_bounded() {
  net::Decoder d;
  std::string wire;
  net::encode_frame(sample_frame(net::Opcode::deq, 1), wire);
  net::Frame f;
  for (int i = 0; i < 20'000; ++i) {
    d.feed(wire);
    CHECK(d.next(f) == net::DecodeStatus::ok);
    CHECK(d.pending() == 0);
  }
  CHECK(d.at_eof() == net::DecodeStatus::ok);
}

/// One full decode of `wire` under a chosen chunking discipline. Frames
/// decoded before any error are collected; `final` is the first sticky
/// error, or at_eof() for a clean run. Stickiness is asserted inline: once
/// poisoned, every later next() must return the SAME typed status.
struct DecodeOutcome {
  std::vector<net::Frame> frames;
  net::DecodeStatus final = net::DecodeStatus::ok;
};

DecodeOutcome decode_stream(const std::string& wire, int chunking,
                            uint32_t salt) {
  net::Decoder d;
  DecodeOutcome out;
  std::mt19937 rng(salt);
  size_t off = 0;
  bool poisoned = false;
  while (off < wire.size()) {
    size_t n = chunking == 0   ? wire.size() - off
               : chunking == 1 ? size_t{1}
                               : size_t{1} + rng() % 37;
    if (n > wire.size() - off) n = wire.size() - off;
    d.feed(wire.data() + off, n);
    off += n;
    net::Frame f;
    net::DecodeStatus st;
    while ((st = d.next(f)) == net::DecodeStatus::ok) out.frames.push_back(f);
    if (st != net::DecodeStatus::need_more) {
      if (!poisoned) {
        poisoned = true;
        out.final = st;
      }
      CHECK(st == out.final);  // sticky: same typed error forever after
    }
  }
  if (!poisoned) out.final = d.at_eof();
  return out;
}

/// Randomized single-byte mutation sweep (ISSUE 10 satellite): take a valid
/// multi-frame stream covering every opcode — the RAFT band included — and
/// flip exactly one byte per trial, exhaustively over positions with seeded
/// values. Every trial must land in exactly one outcome class, predicted
/// from the mutated offset:
///   header[0..3]  -> bad_magic, all prior frames intact
///   header[4]     -> bad_version, all prior frames intact
///   header[5]     -> clean decode with the new opcode if it is a known
///                    one, else bad_opcode
///   header[6..11] -> clean decode, only flags/key of that frame change
///   header[12..15]-> length now lies: any typed error or truncated EOF
///                    (downstream bytes re-framed), never a crash
///   payload bytes -> clean decode, only that frame's payload changes
/// Each trial is decoded under three chunking disciplines (one-shot,
/// byte-at-a-time, seeded random) and the outcomes must be identical —
/// framing decisions cannot depend on read() boundaries.
void test_mutation_sweep() {
  struct Span {
    size_t start, payload_len;
  };
  std::string base;
  std::vector<net::Frame> originals;
  std::vector<Span> spans;
  for (uint32_t k = 0; k < 2 * kAllOpcodes.size(); ++k) {
    net::Frame f = sample_frame(kAllOpcodes[k % kAllOpcodes.size()], k * 11);
    spans.push_back({base.size(), f.payload.size()});
    originals.push_back(f);
    net::encode_frame(f, base);
  }

  std::mt19937 rng(20230717);
  for (size_t pos = 0; pos < base.size(); ++pos) {
    for (int rep = 0; rep < 2; ++rep) {
      std::string wire = base;
      // (orig + k) mod 256 with k in [1,255] can never equal orig.
      uint8_t orig = static_cast<uint8_t>(base[pos]);
      uint8_t mut = static_cast<uint8_t>(orig + 1 + rng() % 255);
      wire[pos] = static_cast<char>(mut);

      DecodeOutcome a = decode_stream(wire, 0, 0);
      DecodeOutcome b = decode_stream(wire, 1, 0);
      DecodeOutcome c = decode_stream(wire, 2, static_cast<uint32_t>(pos));
      CHECK(a.final == b.final);
      CHECK(a.final == c.final);
      CHECK_EQ(a.frames.size(), b.frames.size());
      CHECK_EQ(a.frames.size(), c.frames.size());
      for (size_t i = 0; i < a.frames.size(); ++i) {
        expect_frames_equal(a.frames[i], b.frames[i]);
        expect_frames_equal(a.frames[i], c.frames[i]);
      }

      // Which frame owns the mutated byte, and at what relative offset?
      size_t idx = 0;
      while (idx + 1 < spans.size() && spans[idx + 1].start <= pos) ++idx;
      size_t rel = pos - spans[idx].start;

      if (rel < 4) {
        CHECK(a.final == net::DecodeStatus::bad_magic);
        CHECK_EQ(a.frames.size(), idx);
      } else if (rel == 4) {
        CHECK(a.final == net::DecodeStatus::bad_version);
        CHECK_EQ(a.frames.size(), idx);
      } else if (rel == 5) {
        if (net::opcode_known(mut)) {
          CHECK(a.final == net::DecodeStatus::ok);
          CHECK_EQ(a.frames.size(), originals.size());
          CHECK(a.frames[idx].op == static_cast<net::Opcode>(mut));
          CHECK_EQ(a.frames[idx].payload, originals[idx].payload);
        } else {
          CHECK(a.final == net::DecodeStatus::bad_opcode);
          CHECK_EQ(a.frames.size(), idx);
        }
      } else if (rel < 12) {
        // flags/key mutate freely; framing is untouched.
        CHECK(a.final == net::DecodeStatus::ok);
        CHECK_EQ(a.frames.size(), originals.size());
        CHECK(a.frames[idx].op == originals[idx].op);
        CHECK_EQ(a.frames[idx].payload, originals[idx].payload);
        for (size_t i = 0; i < originals.size(); ++i)
          if (i != idx) expect_frames_equal(a.frames[i], originals[i]);
      } else if (rel < net::kHeaderSize) {
        // The length now lies; downstream bytes re-frame arbitrarily. The
        // contract is only: a typed error or a truncated EOF, never a clean
        // full parse of the original frame list with this frame changed.
        bool error_or_truncated = a.final != net::DecodeStatus::ok;
        bool reframed_clean = a.final == net::DecodeStatus::ok;
        if (reframed_clean) {
          // Freak case: bytes re-framed into a fully valid stream. The
          // mutated frame's payload length must actually differ.
          CHECK(a.frames.size() > idx);
          CHECK(a.frames[idx].payload.size() != spans[idx].payload_len);
        }
        CHECK(error_or_truncated || reframed_clean);
      } else {
        // Payload byte: exactly that frame's payload changes, in place.
        CHECK(a.final == net::DecodeStatus::ok);
        CHECK_EQ(a.frames.size(), originals.size());
        for (size_t i = 0; i < originals.size(); ++i) {
          if (i == idx) {
            CHECK(a.frames[i].op == originals[i].op);
            CHECK_EQ(a.frames[i].flags, originals[i].flags);
            CHECK_EQ(a.frames[i].payload.size(),
                     originals[i].payload.size());
            CHECK_EQ(a.frames[i].payload[rel - net::kHeaderSize],
                     static_cast<char>(mut));
          } else {
            expect_frames_equal(a.frames[i], originals[i]);
          }
        }
      }
    }
  }
}

/// Fuzz: random mutations of a valid stream, random chunk sizes. The only
/// contract here is NO crash / no overread (ASan-audited) and that a
/// poisoned decoder stays poisoned.
void test_fuzz_no_crash() {
  std::mt19937 rng(1234);
  std::string base;
  for (uint32_t k = 0; k < 16; ++k)
    net::encode_frame(
        sample_frame(kAllOpcodes[k % kAllOpcodes.size()], k), base);
  for (int trial = 0; trial < 300; ++trial) {
    std::string wire = base;
    int mutations = static_cast<int>(rng() % 8);
    for (int m = 0; m < mutations; ++m)
      wire[rng() % wire.size()] = static_cast<char>(rng() & 0xff);
    if (trial % 3 == 0) wire.resize(rng() % wire.size());  // random cut
    net::Decoder d;
    size_t off = 0;
    net::DecodeStatus sticky = net::DecodeStatus::ok;
    while (off < wire.size()) {
      size_t n = 1 + rng() % 64;
      if (n > wire.size() - off) n = wire.size() - off;
      d.feed(wire.data() + off, n);
      off += n;
      net::Frame f;
      net::DecodeStatus st;
      while ((st = d.next(f)) == net::DecodeStatus::ok) {
      }
      if (st != net::DecodeStatus::need_more) {
        if (sticky == net::DecodeStatus::ok) sticky = st;
        CHECK(st == sticky);  // same typed error forever after
      }
    }
  }
}

/// net::read_frame over a real socketpair: buffered leftovers are served
/// before the next read(), and each way a stream can end is told apart.
void test_read_frame() {
  auto pair = [] {
    int sv[2] = {-1, -1};
    CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0);
    return std::pair<net::FdHandle, net::FdHandle>(sv[0], sv[1]);
  };
  net::Frame a = sample_frame(net::Opcode::enq, 1);
  net::Frame b = sample_frame(net::Opcode::ping, 2);

  {  // two frames in one write come back from two calls
    auto [rd, wr] = pair();
    std::string wire;
    net::encode_frame(a, wire);
    net::encode_frame(b, wire);
    CHECK(net::write_all(wr.get(), wire));
    net::Decoder dec;
    net::Frame f;
    CHECK(net::read_frame(rd.get(), dec, f) == net::DecodeStatus::ok);
    expect_frames_equal(a, f);
    CHECK(dec.pending() > 0);  // the second frame is already buffered
    wr.reset();  // so a second read() would see EOF, not the frame
    CHECK(net::read_frame(rd.get(), dec, f) == net::DecodeStatus::ok);
    expect_frames_equal(b, f);
  }
  {  // the peer closes mid-frame: need_more with errno 0, at_eof truncated
    auto [rd, wr] = pair();
    std::string wire;
    net::encode_frame(a, wire);
    CHECK(net::write_all(wr.get(), wire.data(), wire.size() - 1));
    wr.reset();
    net::Decoder dec;
    net::Frame f;
    errno = EINVAL;
    CHECK(net::read_frame(rd.get(), dec, f) == net::DecodeStatus::need_more);
    CHECK_EQ(errno, 0);
    CHECK(dec.at_eof() == net::DecodeStatus::truncated);
  }
  {  // garbage poisons the stream with its typed error
    auto [rd, wr] = pair();
    CHECK(net::write_all(wr.get(), std::string(net::kHeaderSize, 'X')));
    net::Decoder dec;
    net::Frame f;
    CHECK(net::read_frame(rd.get(), dec, f) == net::DecodeStatus::bad_magic);
  }
  {  // an expired SO_RCVTIMEO: need_more with EAGAIN
    auto [rd, wr] = pair();
    CHECK(net::set_recv_timeout(rd.get(), 50));
    net::Decoder dec;
    net::Frame f;
    CHECK(net::read_frame(rd.get(), dec, f) == net::DecodeStatus::need_more);
    CHECK_EQ(errno, EAGAIN);
  }
}

/// listen_uds binds a temporary name, listens, then renames it onto the
/// path. The temporary name must not cost a long path its last bytes, and
/// two listeners racing for one path (two daemons on one socket) must both
/// succeed, the later rename winning.
void test_listen_uds() {
  const std::string prefix = "/tmp/wfq-lu-" + std::to_string(::getpid()) + "-";
  const std::string path = prefix + std::string(106 - prefix.size(), 'x');
  CHECK_EQ(path.size(), size_t{106});  // sun_path holds 107 bytes + NUL
  {
    net::FdHandle l = net::listen_uds(path);
    CHECK(l.valid());
    net::FdHandle c = net::connect_uds(path);
    CHECK(c.valid());
    int a = ::accept(l.get(), nullptr, nullptr);
    CHECK(a >= 0);
    if (a >= 0) ::close(a);
  }
  for (int round = 0; round < 20; ++round) {
    net::FdHandle l[2];
    bool ok[2] = {false, false};
    std::thread t[2];
    for (int i = 0; i < 2; ++i)
      t[i] = std::thread([&, i] {
        try {
          l[i] = net::listen_uds(path);
          ok[i] = l[i].valid();
        } catch (const std::exception&) {
        }
      });
    for (std::thread& th : t) th.join();
    CHECK(ok[0] && ok[1]);
    net::FdHandle c = net::connect_uds(path);
    CHECK(c.valid());
  }
  ::unlink(path.c_str());
}

/// One EventLoop whose on_batch answers every frame with a PONG carrying
/// the connection's id; clients are adopted socketpairs.
void test_event_loop_mailbox() {
  constexpr uint32_t kHold = 99;  // on_batch parks on this key until `gate`
  std::promise<void> entered, gate;
  std::shared_future<void> gate_f = gate.get_future().share();
  net::EventLoop::Callbacks cbs;
  cbs.on_batch = [&](uint64_t conn, std::vector<net::Frame>& batch,
                     std::string& out) {
    for (net::Frame& f : batch) {
      net::Frame r;
      r.op = net::Opcode::pong;
      r.key = f.key;
      r.payload = net::encode_value(conn);
      net::encode_frame(r, out);
      if (f.key == kHold) {
        entered.set_value();
        gate_f.wait();
      }
    }
  };
  net::EventLoop loop(std::move(cbs));
  std::thread runner([&] { loop.run(); });

  auto adopt = [&loop] {
    int sv[2] = {-1, -1};
    CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0);
    net::set_nonblocking(sv[0]);
    net::set_recv_timeout(sv[1], 5000);
    loop.adopt(net::FdHandle(sv[0]));
    return net::FdHandle(sv[1]);
  };
  auto send = [](const net::FdHandle& fd, net::Opcode op, uint32_t key) {
    net::Frame f;
    f.op = op;
    f.key = key;
    std::string wire;
    net::encode_frame(f, wire);
    CHECK(net::write_all(fd.get(), wire));
  };
  auto posted = [](uint32_t key) {
    net::Frame f;
    f.op = net::Opcode::stat_ok;
    f.key = key;
    f.payload = "posted";
    std::string wire;
    net::encode_frame(f, wire);
    return wire;
  };
  // Reads one frame; a PONG yields the connection id it carries.
  auto read = [](const net::FdHandle& fd, net::Decoder& dec, net::Frame& f) {
    CHECK(net::read_frame(fd.get(), dec, f) == net::DecodeStatus::ok);
    uint64_t id = 0;
    if (f.op == net::Opcode::pong) CHECK(net::decode_value(f.payload, id));
    return id;
  };
  auto expect_eof = [](const net::FdHandle& fd, net::Decoder& dec) {
    net::Frame f;
    CHECK(net::read_frame(fd.get(), dec, f) == net::DecodeStatus::need_more);
    CHECK_EQ(errno, 0);
  };

  // (a) a foreign thread's post lands after the PONG already written
  net::FdHandle a = adopt();
  net::Decoder da;
  net::Frame f;
  send(a, net::Opcode::ping, 1);
  uint64_t id_a = read(a, da, f);
  CHECK(f.op == net::Opcode::pong && f.key == 1);
  std::thread([&] { loop.post(id_a, posted(2)); }).join();
  read(a, da, f);
  CHECK(f.op == net::Opcode::stat_ok && f.key == 2 && f.payload == "posted");

  // (b) bytes posted to a closed connection are dropped: garbage makes the
  // loop answer ERR and close, and a connection adopted afterwards (likely
  // on the same fd number) sees only its own PONGs. Its second PING is
  // read after the post was drained.
  net::FdHandle b = adopt();
  net::Decoder db;
  send(b, net::Opcode::ping, 3);
  uint64_t id_b = read(b, db, f);
  CHECK(net::write_all(b.get(), std::string(net::kHeaderSize, 'X')));
  read(b, db, f);
  CHECK(f.op == net::Opcode::err);
  expect_eof(b, db);
  net::FdHandle c = adopt();
  loop.post(id_b, posted(4));
  net::Decoder dc;
  send(c, net::Opcode::ping, 5);
  uint64_t id_c = read(c, dc, f);
  CHECK(f.op == net::Opcode::pong && f.key == 5);
  CHECK(id_c != id_b);
  send(c, net::Opcode::ping, 7);
  read(c, dc, f);
  CHECK(f.op == net::Opcode::pong && f.key == 7);

  // (c) bytes posted while the loop is inside a dispatch, just before
  // stop(), go out through shutdown_flush_and_close, then EOF
  send(c, net::Opcode::ping, kHold);
  entered.get_future().wait();
  loop.post(id_c, posted(6));
  loop.stop();
  gate.set_value();
  runner.join();
  loop.shutdown_flush_and_close();
  read(c, dc, f);
  CHECK(f.op == net::Opcode::pong && f.key == kHold);
  read(c, dc, f);
  CHECK(f.op == net::Opcode::stat_ok && f.key == 6);
  expect_eof(c, dc);
  expect_eof(a, da);
}

/// Builds the frame `posted` bytes carry in the mailbox tests.
std::string stat_ok_wire(uint32_t key) {
  net::Frame f;
  f.op = net::Opcode::stat_ok;
  f.key = key;
  f.payload = "posted";
  std::string wire;
  net::encode_frame(f, wire);
  return wire;
}

/// call() closures run on the loop thread, in mailbox order with adopt()
/// and post(): a closure posted after an adopt() finds the connection, and
/// its write lands between the bytes posted before and after it.
void test_event_loop_closures() {
  net::EventLoop::Callbacks cbs;
  cbs.on_batch = [](uint64_t, std::vector<net::Frame>&, std::string&) {};
  net::EventLoop loop(std::move(cbs));
  std::thread runner([&] { loop.run(); });
  auto adopt = [&loop] {
    int sv[2] = {-1, -1};
    CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0);
    net::set_nonblocking(sv[0]);
    net::set_recv_timeout(sv[1], 5000);
    loop.adopt(net::FdHandle(sv[0]));
    return net::FdHandle(sv[1]);
  };
  // Connection ids count up from 1, so this loop's first is id 1.
  net::FdHandle a = adopt();
  std::thread::id ran_on;
  bool wrote = false;
  std::thread([&] {
    loop.post(1, stat_ok_wire(1));
    loop.call([&] {
      ran_on = std::this_thread::get_id();
      wrote = loop.write(1, stat_ok_wire(2));
    });
    loop.post(1, stat_ok_wire(3));
  }).join();
  net::Decoder dec;
  for (uint32_t key : {1u, 2u, 3u}) {
    net::Frame f;
    CHECK(net::read_frame(a.get(), dec, f) == net::DecodeStatus::ok);
    CHECK_EQ(f.key, key);
  }
  const std::thread::id loop_id = runner.get_id();
  loop.stop();
  runner.join();
  CHECK(wrote);
  CHECK(ran_on == loop_id);
  CHECK(!loop.call([] {}));  // the mailbox refuses after stop()
}

/// The deadline hook's return is the wait's timeout: a hook that asks to
/// run again at start + 60 ms runs then, not at a fixed poll tick.
void test_event_loop_deadline() {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  const Clock::time_point due = start + std::chrono::milliseconds(60);
  double fired_ms = -1;
  net::EventLoop::Callbacks cbs;
  cbs.on_deadline = [&] {
    const Clock::time_point now = Clock::now();
    if (now < due)
      return static_cast<int>(
          std::chrono::ceil<std::chrono::milliseconds>(due - now).count());
    if (fired_ms < 0)
      fired_ms =
          std::chrono::duration<double, std::milli>(now - start).count();
    return -1;
  };
  net::EventLoop loop(std::move(cbs));
  std::thread runner([&] { loop.run(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  loop.stop();
  runner.join();
  CHECK(fired_ms >= 60 && fired_ms < 160);
}

/// Voluntary + involuntary context switches of thread `tid` so far.
uint64_t context_switches(pid_t tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/status");
  uint64_t total = 0;
  std::string key;
  while (in >> key) {
    if (key == "voluntary_ctxt_switches:" ||
        key == "nonvoluntary_ctxt_switches:") {
      uint64_t n = 0;
      in >> n;
      total += n;
    }
  }
  return total;
}

/// A loop without a deadline hook sleeps until an event or a post: over
/// 500 idle ms its thread neither wakes nor burns CPU.
void test_event_loop_idle() {
  net::EventLoop::Callbacks cbs;
  net::EventLoop loop(std::move(cbs));
  std::thread runner([&] { loop.run(); });
  std::promise<pid_t> tid;
  loop.call([&] { tid.set_value(static_cast<pid_t>(::gettid())); });
  const pid_t loop_tid = tid.get_future().get();
  clockid_t cpu_clock;
  CHECK(::pthread_getcpuclockid(runner.native_handle(), &cpu_clock) == 0);
  auto cpu_ms = [&] {
    timespec ts{};
    ::clock_gettime(cpu_clock, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
  };
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const uint64_t sw0 = context_switches(loop_tid);
  const double cpu0 = cpu_ms();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  const uint64_t woke = context_switches(loop_tid) - sw0;
  const double cpu = cpu_ms() - cpu0;
  loop.stop();
  runner.join();
  CHECK(woke <= 1);
  CHECK(cpu < 20);
}

/// Outbound connections. A dial to a refused port is closed by the loop
/// itself once the connect fails (an empty write sends nothing, so it
/// reports only whether the connection exists). A dial to a listener
/// whose accept queue is full returns at once and reads as connecting();
/// writes past kMaxOutbox are dropped, and once the listener accepts,
/// exactly kMaxOutbox bytes arrive, the dial no longer reads as connecting
/// and close() takes it away.
void test_event_loop_dial() {
  net::EventLoop::Callbacks cbs;
  cbs.on_batch = [](uint64_t, std::vector<net::Frame>&, std::string&) {};
  net::EventLoop loop(std::move(cbs));
  std::thread runner([&] { loop.run(); });
  // Runs `fn` on the loop thread and waits for its result.
  auto on_loop = [&loop](auto fn) {
    std::promise<decltype(fn())> done;
    loop.call([&] { done.set_value(fn()); });
    return done.get_future().get();
  };

  uint16_t refused = 0;
  {
    net::FdHandle l = net::listen_tcp(0);
    refused = net::bound_tcp_port(l.get());
  }
  const uint64_t r = on_loop([&] { return loop.dial(refused); });
  bool gone = false;
  for (int i = 0; i < 100 && !gone; ++i) {
    gone = !on_loop([&] { return loop.write(r, ""); });
    if (!gone) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  CHECK(gone);

  net::FdHandle sink = net::listen_tcp(0, 0);
  const uint16_t port = net::bound_tcp_port(sink.get());
  std::vector<net::FdHandle> queued;
  for (int i = 0; i < 8; ++i) {
    net::FdHandle fd = net::connect_tcp_timeout(port, 100);
    if (!fd.valid()) break;
    queued.push_back(std::move(fd));
  }
  using Clock = std::chrono::steady_clock;
  const std::string chunk(size_t{1} << 20, 'x');
  const size_t chunks = net::EventLoop::kMaxOutbox / chunk.size() + 4;
  double dial_ms = -1;
  const uint64_t d = on_loop([&] {
    const Clock::time_point t0 = Clock::now();
    const uint64_t id = loop.dial(port);
    dial_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    for (size_t i = 0; i < chunks; ++i)
      if (!loop.write(id, chunk)) return uint64_t{0};
    return id;
  });
  CHECK(d != 0);
  CHECK(dial_ms >= 0 && dial_ms < 20);
  CHECK(on_loop([&] { return loop.connecting(d); }));
  // Free the queue; the dial's SYN retry (about 1 s later) then connects.
  while (!queued.empty()) {
    net::FdHandle(::accept(sink.get(), nullptr, nullptr));
    queued.pop_back();
  }
  net::FdHandle peer;
  for (int i = 0; i < 500 && !peer.valid(); ++i) {
    peer.reset(::accept(sink.get(), nullptr, nullptr));
    if (!peer.valid())
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  CHECK(peer.valid());
  size_t got = 0;
  if (peer.valid()) {
    net::set_recv_timeout(peer.get(), 500);
    char buf[65536];
    ssize_t n;
    while ((n = ::read(peer.get(), buf, sizeof(buf))) > 0)
      got += static_cast<size_t>(n);
  }
  CHECK_EQ(got, net::EventLoop::kMaxOutbox);
  CHECK(!on_loop([&] { return loop.connecting(d); }));
  CHECK(!on_loop([&] {
    loop.close(d);
    return loop.write(d, "");
  }));
  loop.stop();
  runner.join();
}

}  // namespace

int main() {
  test_round_trip_all_opcodes();
  test_burst_chunked();
  test_typed_errors_sticky();
  test_truncation();
  test_value_codec();
  test_compaction_bounded();
  test_mutation_sweep();
  test_fuzz_no_crash();
  test_read_frame();
  test_listen_uds();
  test_event_loop_mailbox();
  test_event_loop_closures();
  test_event_loop_deadline();
  test_event_loop_idle();
  test_event_loop_dial();
  return wfq::test::exit_code();
}
