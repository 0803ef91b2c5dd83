// wfb-v1 serialization for raft::Message (ISSUE 10): the message TYPE rides
// in the frame opcode (net::Opcode::raft_vote_req .. raft_append_resp) and
// the sender's node id rides in the frame key, so the body only carries the
// type-specific fields. All integers little-endian, matching the frame
// header. Bodies are fixed-size except append_req, which carries a bounded
// entry batch:
//
//   vote_req:    u64 term, u64 last_log_index, u64 last_log_term      (24 B)
//   vote_resp:   u64 term, u8 granted                                 (9 B)
//   append_req:  u64 term, u64 prev_log_index, u64 prev_log_term,
//                u64 leader_commit, u32 n,
//                then n x (u64 entry_term, u32 cmd_len, cmd bytes)
//   append_resp: u64 term, u8 success, u64 match_index                (17 B)
//
// decode_body is strict: any size mismatch, trailing garbage, or entry
// length running past the payload end returns false and the frame is
// discarded (raft tolerates message loss by design, so "drop and let the
// protocol retry" is the correct failure mode for a malformed peer frame).
#pragma once

#include <cstdint>
#include <string>

#include "net/frame.hpp"
#include "raft/raft.hpp"

namespace wfq::raft {

inline net::Opcode opcode_for(Message::Type t) {
  switch (t) {
    case Message::Type::vote_req: return net::Opcode::raft_vote_req;
    case Message::Type::vote_resp: return net::Opcode::raft_vote_resp;
    case Message::Type::append_req: return net::Opcode::raft_append_req;
    case Message::Type::append_resp: return net::Opcode::raft_append_resp;
  }
  return net::Opcode::raft_vote_req;
}

inline bool type_for(net::Opcode op, Message::Type& out) {
  switch (op) {
    case net::Opcode::raft_vote_req: out = Message::Type::vote_req; return true;
    case net::Opcode::raft_vote_resp:
      out = Message::Type::vote_resp;
      return true;
    case net::Opcode::raft_append_req:
      out = Message::Type::append_req;
      return true;
    case net::Opcode::raft_append_resp:
      out = Message::Type::append_resp;
      return true;
    default: return false;
  }
}

inline std::string encode_body(const Message& m) {
  using net::detail::put_u32;
  using net::detail::put_u64;
  std::string out;
  put_u64(out, m.term);
  switch (m.type) {
    case Message::Type::vote_req:
      put_u64(out, m.last_log_index);
      put_u64(out, m.last_log_term);
      break;
    case Message::Type::vote_resp:
      out.push_back(m.granted ? 1 : 0);
      break;
    case Message::Type::append_req: {
      put_u64(out, m.prev_log_index);
      put_u64(out, m.prev_log_term);
      put_u64(out, m.leader_commit);
      put_u32(out, static_cast<uint32_t>(m.entries.size()));
      for (const LogEntry& e : m.entries) {
        put_u64(out, e.term);
        put_u32(out, static_cast<uint32_t>(e.cmd.size()));
        out.append(e.cmd);
      }
      break;
    }
    case Message::Type::append_resp:
      out.push_back(m.success ? 1 : 0);
      put_u64(out, m.match_index);
      break;
  }
  return out;
}

/// Rebuilds a Message of type `t` sent by node `from` out of `body`.
/// Returns false on any malformed input (wrong size, truncated entries,
/// trailing bytes).
inline bool decode_body(Message::Type t, int from, const std::string& body,
                        Message& m) {
  m = Message{};
  m.type = t;
  m.from = from;
  size_t pos = 0;
  // Bounds-checked little-endian reads at `pos`; false past the end.
  auto get_u64 = [](const std::string& s, size_t& at, uint64_t& v) {
    if (s.size() - at < 8) return false;
    v = net::detail::get_u64(s.data() + at);
    at += 8;
    return true;
  };
  auto get_u32 = [](const std::string& s, size_t& at, uint32_t& v) {
    if (s.size() - at < 4) return false;
    v = net::detail::get_u32(s.data() + at);
    at += 4;
    return true;
  };
  if (!get_u64(body, pos, m.term)) return false;
  switch (t) {
    case Message::Type::vote_req:
      if (!get_u64(body, pos, m.last_log_index)) return false;
      if (!get_u64(body, pos, m.last_log_term)) return false;
      break;
    case Message::Type::vote_resp:
      if (body.size() - pos < 1) return false;
      m.granted = body[pos++] != 0;
      break;
    case Message::Type::append_req: {
      if (!get_u64(body, pos, m.prev_log_index)) return false;
      if (!get_u64(body, pos, m.prev_log_term)) return false;
      if (!get_u64(body, pos, m.leader_commit)) return false;
      uint32_t n = 0;
      if (!get_u32(body, pos, n)) return false;
      // Entry count is implicitly bounded by kMaxPayload / 12 bytes per
      // empty entry; reject anything that cannot possibly fit.
      if (n > net::kMaxPayload / 12) return false;
      m.entries.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        LogEntry e;
        if (!get_u64(body, pos, e.term)) return false;
        uint32_t len = 0;
        if (!get_u32(body, pos, len)) return false;
        if (body.size() - pos < len) return false;
        e.cmd.assign(body, pos, len);
        pos += len;
        m.entries.push_back(std::move(e));
      }
      break;
    }
    case Message::Type::append_resp:
      if (body.size() - pos < 1) return false;
      m.success = body[pos++] != 0;
      if (!get_u64(body, pos, m.match_index)) return false;
      break;
  }
  return pos == body.size();
}

/// Convenience: a full wfb-v1 frame for `m` sent by node `self_id`.
inline net::Frame to_frame(const Message& m, int self_id) {
  net::Frame f;
  f.op = opcode_for(m.type);
  f.key = static_cast<uint32_t>(self_id);
  f.payload = encode_body(m);
  return f;
}

/// Convenience: parses a raft-band frame. False if the opcode is not a raft
/// opcode or the body is malformed.
inline bool from_frame(const net::Frame& f, Message& m) {
  Message::Type t;
  if (!type_for(f.op, t)) return false;
  return decode_body(t, static_cast<int>(f.key), f.payload, m);
}

}  // namespace wfq::raft
