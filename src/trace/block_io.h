// Binary trace log writers, on-disk versions 1 and 2.
//
// Both versions open with the same 8-byte file header and share one record
// encoding (trace/record_codec.h):
//
//   [magic u32][version u16][reserved u16]            file header
//   v1: records back to back until EOF
//   v2: repeat {
//         [record_count u32][byte_length u32][crc32 u32]  frame header
//         [record_count records]                          payload, byte_length
//       }                                                 bytes long
//
// v1 carries no framing, so one corrupt byte costs the rest of the file;
// v2 frames records into CRC-checked blocks so corruption costs one block.
// Both writers encode through util::BufferEncoder into a scratch buffer:
// v1 makes one ostream::write per record (tellp() between writes is a
// record boundary, which chaos::image_of relies on), v2 two per block.
// Reading every version is trace/log_reader's job, shared with v3: the
// frame chain is scanned without touching payloads, blocks decode
// concurrently, and a bad CRC or impossible frame header quarantines ONE
// block while the reader resyncs at the next frame header, because
// `byte_length` chains frames together.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>

#include "trace/records.h"
#include "trace/string_pool.h"

namespace wearscope::trace {

/// On-disk versions written by BinaryLogWriter and BlockLogWriter.
inline constexpr std::uint16_t kBinaryFormatV1 = 1;
inline constexpr std::uint16_t kBinaryFormatV2 = 2;

/// Bytes of one frame header: record_count + byte_length + crc32.
inline constexpr std::size_t kFrameHeaderBytes = 12;

/// Typed v1 writer: header on construction, then one record per write().
/// Throws util::IoError on write failure.
template <typename Record>
class BinaryLogWriter {
 public:
  /// Proxy records' ids resolve through `pools`, which must outlive the
  /// writer.
  BinaryLogWriter(std::ostream& out, const ProxyPools& pools);
  explicit BinaryLogWriter(std::ostream& out)
    requires PoolFree<Record>;
  /// Appends one record.
  void write(const Record& r);

 private:
  std::ostream* out_ = nullptr;
  const ProxyPools* pools_ = nullptr;
  std::string scratch_;
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
  /// Proxy records' ids resolve through `pools`, which must outlive the
  /// writer.
  BlockLogWriter(std::ostream& out, const ProxyPools& pools,
                 BlockWriterOptions options = {});
  explicit BlockLogWriter(std::ostream& out, BlockWriterOptions options = {})
    requires PoolFree<Record>;
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
  const ProxyPools* pools_ = nullptr;
  BlockWriterOptions options_;
  std::string scratch_;
  std::uint32_t pending_records_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t blocks_ = 0;
  bool finished_ = false;
};

extern template class BinaryLogWriter<ProxyRecord>;
extern template class BinaryLogWriter<MmeRecord>;
extern template class BinaryLogWriter<DeviceRecord>;
extern template class BinaryLogWriter<SectorInfo>;
extern template class BlockLogWriter<ProxyRecord>;
extern template class BlockLogWriter<MmeRecord>;
extern template class BlockLogWriter<DeviceRecord>;
extern template class BlockLogWriter<SectorInfo>;

}  // namespace wearscope::trace
