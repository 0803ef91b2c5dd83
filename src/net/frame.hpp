// wfb-v1 wire frame codec (ISSUE 8 tentpole, net layer): the length-prefixed
// binary frame the broker daemon and the loadgen client speak. A frame is a
// fixed 16-byte little-endian header followed by `len` payload bytes:
//
//   offset  size  field
//   0       4     magic "WFB1" (bytes 'W' 'F' 'B' '1')
//   4       1     version (currently 1)
//   5       1     opcode (see Opcode)
//   6       2     flags (reserved, must round-trip; no bits assigned yet)
//   8       4     key — routing id: the broker shards by hash(key) % shards,
//                 and a dwrr-backed shard maps key % ntenants to a tenant
//   12      4     payload length, at most kMaxPayload
//   16      len   payload bytes
//
// Encoding is append-to-string (so a burst of responses becomes ONE write
// buffer); decoding is incremental — Decoder::feed accepts arbitrary byte
// chunks (a single byte at a time is fine) and next() yields complete
// frames. Malformed input (bad magic, unknown version/opcode, oversized
// length) is a TYPED, STICKY error: the stream position is unrecoverable
// once framing is lost, so the connection must be dropped, never resynced
// by guesswork. Truncation is only detectable at stream end: at_eof()
// distinguishes a clean boundary from a frame cut mid-flight.
//
// The full spec with rationale lives in docs/PROTOCOL.md.
#pragma once

#include <cstdint>
#include <cstring>
#include <deque>
#include <string>

namespace wfq::net {

/// Frame types. Requests (client -> broker) sit below 0x80, responses
/// (broker -> client) above — so a peer can tell a mirrored stream from a
/// legitimate one, and the codec can reject opcodes outside either band.
enum class Opcode : uint8_t {
  // requests
  enq = 0x01,   // payload: exactly 8 bytes, the little-endian item value
  deq = 0x02,   // payload: empty
  stat = 0x03,  // payload: empty
  ping = 0x04,  // payload: arbitrary (echoed back verbatim in pong)
  setw = 0x05,  // payload: 8 bytes, u32 tenant + u32 weight (LE); cluster
                // mode replicates through the raft log before acking
  // raft band (replica -> replica, request band; key = sender node id,
  // payload = raft::encode_body of the matching message type)
  raft_vote_req = 0x10,
  raft_vote_resp = 0x11,
  raft_append_req = 0x12,
  raft_append_resp = 0x13,
  // responses
  enq_ok = 0x81,     // payload: empty
  deq_ok = 0x82,     // payload: 8 bytes, the dequeued value
  deq_empty = 0x83,  // payload: empty (queue observably empty)
  stat_ok = 0x84,    // payload: JSON stat report (see broker::Broker)
  pong = 0x85,       // payload: the ping payload, echoed
  err = 0x86,        // payload: human-readable reason; peer should close
  setw_ok = 0x87,    // payload: empty (weight applied — in cluster mode,
                     // committed and applied on the leader)
  err_not_leader = 0x88,  // payload: 4 bytes LE, the current leader's node
                          // id, or 0xffffffff when unknown; client should
                          // redirect (docs/PROTOCOL.md)
};

/// True iff `op` is one of the assigned opcode values.
inline bool opcode_known(uint8_t op) {
  switch (static_cast<Opcode>(op)) {
    case Opcode::enq:
    case Opcode::deq:
    case Opcode::stat:
    case Opcode::ping:
    case Opcode::setw:
    case Opcode::raft_vote_req:
    case Opcode::raft_vote_resp:
    case Opcode::raft_append_req:
    case Opcode::raft_append_resp:
    case Opcode::enq_ok:
    case Opcode::deq_ok:
    case Opcode::deq_empty:
    case Opcode::stat_ok:
    case Opcode::pong:
    case Opcode::err:
    case Opcode::setw_ok:
    case Opcode::err_not_leader:
      return true;
  }
  return false;
}

inline const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::enq: return "ENQ";
    case Opcode::deq: return "DEQ";
    case Opcode::stat: return "STAT";
    case Opcode::ping: return "PING";
    case Opcode::setw: return "SETW";
    case Opcode::raft_vote_req: return "RAFT_VOTE_REQ";
    case Opcode::raft_vote_resp: return "RAFT_VOTE_RESP";
    case Opcode::raft_append_req: return "RAFT_APPEND_REQ";
    case Opcode::raft_append_resp: return "RAFT_APPEND_RESP";
    case Opcode::enq_ok: return "ENQ_OK";
    case Opcode::deq_ok: return "DEQ_OK";
    case Opcode::deq_empty: return "DEQ_EMPTY";
    case Opcode::stat_ok: return "STAT_OK";
    case Opcode::pong: return "PONG";
    case Opcode::err: return "ERR";
    case Opcode::setw_ok: return "SETW_OK";
    case Opcode::err_not_leader: return "ERR_NOT_LEADER";
  }
  return "?";
}

inline constexpr uint8_t kVersion = 1;
inline constexpr size_t kHeaderSize = 16;
/// Payload ceiling: generous for stat reports, small enough that a
/// corrupted length field cannot make the decoder buffer gigabytes before
/// noticing the stream is garbage.
inline constexpr uint32_t kMaxPayload = 1u << 20;
inline constexpr char kMagic[4] = {'W', 'F', 'B', '1'};

/// One decoded (or to-be-encoded) frame.
struct Frame {
  Opcode op = Opcode::ping;
  uint16_t flags = 0;
  uint32_t key = 0;
  std::string payload;
};

/// Typed decode outcomes. `ok`/`need_more` are progress states; everything
/// else is a fatal framing error (sticky — see Decoder).
enum class DecodeStatus : uint8_t {
  ok,           // next() produced a frame
  need_more,    // no complete frame buffered yet
  bad_magic,    // first 4 bytes of a header are not "WFB1"
  bad_version,  // version byte != kVersion
  bad_opcode,   // opcode outside the assigned request/response bands
  oversize,     // payload length field exceeds kMaxPayload
  truncated,    // stream ended mid-frame (reported by at_eof only)
};

inline const char* decode_status_name(DecodeStatus s) {
  switch (s) {
    case DecodeStatus::ok: return "ok";
    case DecodeStatus::need_more: return "need_more";
    case DecodeStatus::bad_magic: return "bad_magic";
    case DecodeStatus::bad_version: return "bad_version";
    case DecodeStatus::bad_opcode: return "bad_opcode";
    case DecodeStatus::oversize: return "oversize";
    case DecodeStatus::truncated: return "truncated";
  }
  return "?";
}

namespace detail {

/// Writes the low `n` bytes of `v` to `p`, little-endian.
inline void store_le(char* p, uint64_t v, int n) {
  for (int i = 0; i < n; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

inline void put_u16(std::string& out, uint16_t v) {
  char b[2];
  store_le(b, v, 2);
  out.append(b, sizeof(b));
}

inline void put_u32(std::string& out, uint32_t v) {
  char b[4];
  store_le(b, v, 4);
  out.append(b, sizeof(b));
}

inline void put_u64(std::string& out, uint64_t v) {
  char b[8];
  store_le(b, v, 8);
  out.append(b, sizeof(b));
}

inline uint16_t get_u16(const char* p) {
  return static_cast<uint16_t>(static_cast<uint8_t>(p[0]) |
                               (static_cast<uint16_t>(
                                    static_cast<uint8_t>(p[1]))
                                << 8));
}

inline uint32_t get_u32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  return v;
}

inline uint64_t get_u64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  return v;
}

}  // namespace detail

/// Appends the encoded frame to `out`. Appending (not returning) is the
/// point: a loop encodes a whole burst of responses into one buffer and
/// hands it to the socket in a single write.
inline void encode_frame(const Frame& f, std::string& out) {
  char h[kHeaderSize];  // built on the stack, appended once
  std::memcpy(h, kMagic, sizeof(kMagic));
  h[4] = static_cast<char>(kVersion);
  h[5] = static_cast<char>(f.op);
  detail::store_le(h + 6, f.flags, 2);
  detail::store_le(h + 8, f.key, 4);
  detail::store_le(h + 12, f.payload.size(), 4);
  out.append(h, sizeof(h));
  out.append(f.payload);
}

/// Packs a uint64 item value as the 8-byte little-endian ENQ/DEQ_OK payload.
inline std::string encode_value(uint64_t v) {
  std::string s;
  s.reserve(8);
  detail::put_u64(s, v);
  return s;
}

/// Packs two uint32s as an 8-byte LE payload (SETW: tenant then weight).
inline std::string encode_u32_pair(uint32_t a, uint32_t b) {
  std::string s;
  s.reserve(8);
  detail::put_u32(s, a);
  detail::put_u32(s, b);
  return s;
}

inline bool decode_u32_pair(const std::string& payload, uint32_t& a,
                            uint32_t& b) {
  if (payload.size() != 8) return false;
  a = detail::get_u32(payload.data());
  b = detail::get_u32(payload.data() + 4);
  return true;
}

/// Packs one uint32 as a 4-byte LE payload (ERR_NOT_LEADER leader hint;
/// 0xffffffff = leader unknown).
inline std::string encode_u32(uint32_t v) {
  std::string s;
  s.reserve(4);
  detail::put_u32(s, v);
  return s;
}

inline bool decode_u32(const std::string& payload, uint32_t& out) {
  if (payload.size() != 4) return false;
  out = detail::get_u32(payload.data());
  return true;
}

/// Reads an 8-byte little-endian value payload; false if the size is wrong.
inline bool decode_value(const std::string& payload, uint64_t& out) {
  if (payload.size() != 8) return false;
  out = detail::get_u64(payload.data());
  return true;
}

/// Incremental frame decoder: feed() arbitrary chunks, then drain complete
/// frames with next(). Once a framing error is hit the decoder is POISONED:
/// every later next() repeats the same typed error (the byte stream has no
/// trustworthy resync point), and the connection owner is expected to close.
class Decoder {
 public:
  /// Buffers `n` bytes. Accepts any chunking, including 1 byte at a time.
  /// Errors are only diagnosed in next(): feed stays O(memcpy) and the
  /// caller gets one error surface, not two. Feeding a poisoned decoder
  /// drops the bytes (the connection is already doomed — don't buffer an
  /// attacker's stream).
  void feed(const char* data, size_t n) {
    if (error_ != DecodeStatus::ok) return;
    buf_.append(data, n);
  }
  void feed(const std::string& bytes) { feed(bytes.data(), bytes.size()); }

  /// Extracts the next complete frame into `out`. Returns `ok` (frame
  /// written), `need_more` (buffer holds a prefix of a valid frame, or
  /// nothing), or the sticky framing error.
  DecodeStatus next(Frame& out) {
    if (error_ != DecodeStatus::ok) return error_;
    if (buf_.size() - pos_ < kHeaderSize) {
      compact();
      return DecodeStatus::need_more;
    }
    const char* h = buf_.data() + pos_;
    if (std::memcmp(h, kMagic, sizeof(kMagic)) != 0)
      return poison(DecodeStatus::bad_magic);
    if (static_cast<uint8_t>(h[4]) != kVersion)
      return poison(DecodeStatus::bad_version);
    if (!opcode_known(static_cast<uint8_t>(h[5])))
      return poison(DecodeStatus::bad_opcode);
    uint32_t len = detail::get_u32(h + 12);
    if (len > kMaxPayload) return poison(DecodeStatus::oversize);
    if (buf_.size() - pos_ < kHeaderSize + len) {
      compact();
      return DecodeStatus::need_more;
    }
    out.op = static_cast<Opcode>(static_cast<uint8_t>(h[5]));
    out.flags = detail::get_u16(h + 6);
    out.key = detail::get_u32(h + 8);
    out.payload.assign(buf_, pos_ + kHeaderSize, len);
    pos_ += kHeaderSize + len;
    return DecodeStatus::ok;
  }

  /// Stream-end check: `ok` on a clean frame boundary, `truncated` if bytes
  /// of an incomplete frame are pending, or the sticky error. The peer
  /// closing mid-frame is a protocol violation the event loop reports.
  DecodeStatus at_eof() const {
    if (error_ != DecodeStatus::ok) return error_;
    return buf_.size() == pos_ ? DecodeStatus::ok : DecodeStatus::truncated;
  }

  /// Bytes buffered but not yet consumed by next().
  size_t pending() const { return buf_.size() - pos_; }

 private:
  DecodeStatus poison(DecodeStatus s) {
    error_ = s;
    buf_.clear();
    pos_ = 0;
    return s;
  }

  /// Drops consumed bytes once the consumed prefix dominates the buffer —
  /// amortized O(1) per byte, and a long-lived connection's buffer stays
  /// at the high-water mark of one burst, not the whole session.
  void compact() {
    if (pos_ > 4096 && pos_ * 2 >= buf_.size()) {
      buf_.erase(0, pos_);
      pos_ = 0;
    }
  }

  std::string buf_;
  size_t pos_ = 0;
  DecodeStatus error_ = DecodeStatus::ok;
};

}  // namespace wfq::net
