// LEB128 varints and zigzag transforms for the columnar v3 trace format.
//
// The v3 column codec (trace/columnar_io) stores timestamps as zigzag'd
// deltas and counters/dictionary indices as plain varints, so the common
// small values take one byte instead of eight.  Encoding appends to the
// same scratch-string the block writers use; decoding reads through
// util::MemorySpanDecoder so bounds violations throw the same ParseError
// (with byte offset) as every other corrupt-input path.
//
// A u64 varint is at most 10 bytes; an 11th continuation byte can only
// come from corruption and is rejected rather than silently wrapped.
#pragma once

#include <cstdint>
#include <string>

#include "util/byte_codec.h"
#include "util/error.h"

namespace wearscope::util {

/// Longest legal LEB128 encoding of a u64 (ceil(64 / 7) bytes).
inline constexpr int kMaxVarintBytes = 10;

/// Appends the LEB128 encoding of `v` to `out`.
inline void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

/// Reads one LEB128 varint.  Throws ParseError past the span end (via the
/// decoder) or after kMaxVarintBytes continuation bytes (corrupt input).
[[nodiscard]] inline std::uint64_t get_varint(MemorySpanDecoder& dec) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 7 * kMaxVarintBytes; shift += 7) {
    const std::uint8_t byte = dec.get_u8();
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
  }
  throw ParseError("varint: more than " + std::to_string(kMaxVarintBytes) +
                   " bytes at byte " + std::to_string(dec.offset()));
}

/// Maps signed to unsigned so small-magnitude values (either sign) stay
/// small: 0,-1,1,-2,... -> 0,1,2,3,...
[[nodiscard]] constexpr std::uint64_t zigzag_encode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

/// Inverse of zigzag_encode.
[[nodiscard]] constexpr std::int64_t zigzag_decode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

}  // namespace wearscope::util
