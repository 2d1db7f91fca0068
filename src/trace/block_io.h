// Blocked binary log format (on-disk version 2).
//
// v1 (trace/binary_io) streams records one primitive at a time through
// std::istream virtual dispatch and quarantines the whole file tail on one
// corrupt byte.  v2 keeps the identical record encoding but groups records
// into framed blocks behind the same 8-byte header:
//
//   [magic u32][version=2 u16][reserved u16]          file header
//   repeat {
//     [record_count u32][byte_length u32][crc32 u32]  frame header
//     [record_count v1-encoded records]               payload, byte_length
//   }                                                 bytes long
//
// The writer encodes into a per-block scratch buffer and issues two
// ostream::writes per block (header + payload) instead of one per
// primitive.  Reading is trace/log_reader's job, shared with v3: the frame
// chain is scanned without touching payloads and blocks decode
// concurrently, and corruption is block-granular — a bad CRC or an
// impossible frame header quarantines ONE block and the reader resyncs at
// the next frame header, because `byte_length` chains frames together.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>

#include "trace/records.h"
#include "util/error.h"

namespace wearscope::trace {

/// On-disk version written by BlockLogWriter.
inline constexpr std::uint16_t kBinaryFormatV2 = 2;

/// Bytes of one frame header: record_count + byte_length + crc32.
inline constexpr std::size_t kFrameHeaderBytes = 12;

/// Little-endian primitive encoder appending to an in-memory scratch
/// buffer (exposed for tests).  Same API as BinaryEncoder, no streams.
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
  void put_string(const std::string& s) {
    util::require(s.size() <= 0xffff, "binary string field too long");
    put_u16(static_cast<std::uint16_t>(s.size()));
    out_->append(s);
  }

 private:
  std::string* out_ = nullptr;
};

/// Writer knobs: a block closes when either limit is reached.  The
/// defaults keep blocks around 256 KiB — big enough to amortize framing,
/// small enough that an 8-thread decode of any real log has work for
/// every thread and a corrupt block loses little.
struct BlockWriterOptions {
  std::size_t target_block_bytes = 256 * 1024;
  std::size_t max_block_records = 4096;
};

/// Typed v2 writer: header on construction, records buffered into a
/// scratch block, frames flushed wholesale.  Call finish() (or let the
/// destructor do it, swallowing errors) to flush the final partial block.
template <typename Record>
class BlockLogWriter {
 public:
  explicit BlockLogWriter(std::ostream& out, BlockWriterOptions options = {});
  ~BlockLogWriter();

  BlockLogWriter(const BlockLogWriter&) = delete;
  BlockLogWriter& operator=(const BlockLogWriter&) = delete;

  /// Appends one record to the current block.
  void write(const Record& r);

  /// Flushes the pending block and marks the log complete.  Idempotent.
  /// Throws util::IoError on write failure.
  void finish();

  /// Records written so far.
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// Frames flushed so far (the final count is valid after finish()).
  [[nodiscard]] std::uint64_t block_count() const noexcept { return blocks_; }

 private:
  void flush_block();

  std::ostream* out_ = nullptr;
  BlockWriterOptions options_;
  std::string scratch_;
  std::uint32_t pending_records_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t blocks_ = 0;
  bool finished_ = false;
};

extern template class BlockLogWriter<ProxyRecord>;
extern template class BlockLogWriter<MmeRecord>;
extern template class BlockLogWriter<DeviceRecord>;
extern template class BlockLogWriter<SectorInfo>;

}  // namespace wearscope::trace
