// The one little-endian byte codec: BufferEncoder appends primitives to an
// in-memory scratch buffer, MemorySpanDecoder reads them back out of a
// borrowed byte span.  Every binary layout — the v1/v2/v3 trace logs and
// the WSFD partial snapshots — is written and read through this pair:
// writers encode into a buffer and hand whole records, blocks or sections
// to the stream; readers decode mapped files or scratch buffers with plain
// pointer arithmetic, no std::istream and no virtual dispatch.
//
// All integers are little-endian regardless of host order; strings are
// u16-length-prefixed.  Every decode failure throws util::ParseError
// carrying the byte offset, so corrupt captures are debuggable.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "util/error.h"

namespace wearscope::util {

/// Little-endian primitive encoder appending to a caller-owned buffer.
class BufferEncoder {
 public:
  explicit BufferEncoder(std::string& out) : out_(&out) {}

  void put_u8(std::uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void put_u16(std::uint16_t v) {
    put_u8(static_cast<std::uint8_t>(v & 0xff));
    put_u8(static_cast<std::uint8_t>((v >> 8) & 0xff));
  }
  void put_u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      put_u8(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  }
  void put_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      put_u8(static_cast<std::uint8_t>((v >> (8 * i)) & 0xff));
  }
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f64(double v) { put_u64(std::bit_cast<std::uint64_t>(v)); }
  /// u16 length prefix + bytes; strings over 65535 bytes are rejected.
  void put_string(std::string_view s) {
    require(s.size() <= 0xffff, "binary string field too long");
    put_u16(static_cast<std::uint16_t>(s.size()));
    out_->append(s);
  }

 private:
  std::string* out_ = nullptr;
};

/// Bounds-checked little-endian reader over borrowed memory.  The span
/// must outlive the decoder (the mapped file or scratch buffer owns it).
class MemorySpanDecoder {
 public:
  explicit MemorySpanDecoder(std::span<const std::byte> bytes) noexcept
      : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t get_u8() {
    need(1, "u8");
    return static_cast<std::uint8_t>(bytes_[offset_++]);
  }

  [[nodiscard]] std::uint16_t get_u16() {
    need(2, "u16");
    const std::uint16_t v = static_cast<std::uint16_t>(
        byte_at(0) | (static_cast<std::uint32_t>(byte_at(1)) << 8));
    offset_ += 2;
    return v;
  }

  [[nodiscard]] std::uint32_t get_u32() {
    need(4, "u32");
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | byte_at(i);
    offset_ += 4;
    return v;
  }

  [[nodiscard]] std::uint64_t get_u64() {
    need(8, "u64");
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | byte_at(i);
    offset_ += 8;
    return v;
  }

  [[nodiscard]] std::int64_t get_i64() {
    return static_cast<std::int64_t>(get_u64());
  }

  [[nodiscard]] double get_f64() { return std::bit_cast<double>(get_u64()); }

  /// Reads a u16-length-prefixed string.  The claimed length is checked
  /// against the remaining span *before* any allocation, so a corrupt
  /// prefix fails cleanly instead of over-reading.
  [[nodiscard]] std::string get_string() {
    return std::string(get_string_view());
  }

  /// get_string() without the copy: the view borrows the decoded span.
  [[nodiscard]] std::string_view get_string_view() {
    const std::uint64_t prefix_at = offset_;
    const std::uint16_t len = get_u16();
    if (len == 0) return {};
    if (remaining() < len) {
      throw ParseError("binary log: string length " + std::to_string(len) +
                       " exceeds " + std::to_string(remaining()) +
                       " remaining bytes (corrupt length prefix at byte " +
                       std::to_string(prefix_at) + ")");
    }
    const std::string_view s(
        reinterpret_cast<const char*>(bytes_.data() + offset_), len);
    offset_ += len;
    return s;
  }

  /// Borrows the next `n` bytes without copying and advances past them.
  [[nodiscard]] std::span<const std::byte> take(std::size_t n) {
    need(n, "span");
    const std::span<const std::byte> view = bytes_.subspan(offset_, n);
    offset_ += n;
    return view;
  }

  /// True when every byte has been consumed.
  [[nodiscard]] bool at_eof() const noexcept {
    return offset_ >= bytes_.size();
  }

  /// Bytes successfully consumed so far.
  [[nodiscard]] std::uint64_t offset() const noexcept { return offset_; }

  /// Bytes still unread.
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - offset_;
  }

 private:
  void need(std::size_t n, const char* what) const {
    if (remaining() < n) {
      throw ParseError("binary log: truncated " + std::string(what) +
                       " at byte " + std::to_string(offset_));
    }
  }

  [[nodiscard]] std::uint32_t byte_at(int i) const noexcept {
    return static_cast<std::uint32_t>(
        bytes_[offset_ + static_cast<std::size_t>(i)]);
  }

  std::span<const std::byte> bytes_;
  std::size_t offset_ = 0;
};

}  // namespace wearscope::util
