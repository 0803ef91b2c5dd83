// The grammar under every spec string and numeric CLI flag: one strict
// number parser and one splitter. Registry keys ("bounded:g=8",
// "dwrr:4:ubq"), adversary specs ("bursty:3:5"), bench_runner's CSV flags
// and the broker/loadgen mains all parse through these two functions.
// Standard library only, so sim/ and the mains include it without pulling
// in the object registry.
#pragma once

#include <charconv>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace wfq::api {

/// Parses all of `text` as a decimal T in [lo, hi]. The token must be the
/// number and nothing else: no whitespace, no '+', no trailing junk, and
/// no '-' for unsigned T, so "4x8" (a typo for "4,8") or "-5" for a seed
/// fails instead of running p = 4 or seed 2^64-5. Overflow and values
/// outside [lo, hi] fail the same way. Throws std::invalid_argument
/// "bad <what>: \"<text>\" is not an integer in [lo, hi]".
template <typename T>
T parse_num(std::string_view text, const std::string& what,
            T lo = std::numeric_limits<T>::min(),
            T hi = std::numeric_limits<T>::max()) {
  T v{};
  const char* end = text.data() + text.size();
  if (!text.empty()) {
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec == std::errc{} && ptr == end && v >= lo && v <= hi) return v;
  }
  throw std::invalid_argument("bad " + what + ": \"" + std::string(text) +
                              "\" is not an integer in [" +
                              std::to_string(lo) + ", " + std::to_string(hi) +
                              "]");
}

/// Splits `text` at every `sep`. Empty fields are kept ("a,,b" gives three)
/// so a stray separator reaches the field's parser as an error.
inline std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  for (;;) {
    size_t at = text.find(sep);
    out.emplace_back(text.substr(0, at));
    if (at == std::string_view::npos) return out;
    text.remove_prefix(at + 1);
  }
}

}  // namespace wfq::api
