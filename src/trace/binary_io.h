// Compact binary log format, on-disk version 1.
//
// Layout: an 8-byte header (4-byte magic identifying the record kind,
// 2-byte version, 2-byte reserved) followed by length-delimited records.
// All integers are little-endian regardless of host order; strings are
// u16-length-prefixed UTF-8.  The format is stream-oriented: readers pull one
// record at a time so multi-gigabyte logs never need to fit in memory.
//
// Version 2 (trace/block_io) keeps the identical record encoding but frames
// records into CRC-checked blocks; trace/log_reader reads every version
// from mapped memory.  The classes here remain the v1 reference codec (and
// the writer for `--trace-format v1`).  The field-level layout both versions
// share lives in trace/record_codec.h.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "trace/quarantine.h"
#include "trace/records.h"

namespace wearscope::trace {

/// Current on-disk format version.
inline constexpr std::uint16_t kBinaryFormatVersion = 1;

/// Low-level little-endian primitive encoder (exposed for tests).
class BinaryEncoder {
 public:
  explicit BinaryEncoder(std::ostream& out) : out_(&out) {}

  void put_u8(std::uint8_t v);
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i64(std::int64_t v);
  void put_f64(double v);
  /// Writes a u16 length prefix + bytes. Strings longer than 65535 bytes
  /// are rejected (no trace field is remotely that long).
  void put_string(const std::string& s);

 private:
  std::ostream* out_ = nullptr;
};

/// Low-level little-endian primitive decoder (exposed for tests).
/// Throws util::ParseError on short reads; every message carries the byte
/// offset at which decoding failed so corrupt captures are debuggable.
class BinaryDecoder {
 public:
  explicit BinaryDecoder(std::istream& in) : in_(&in) {}

  std::uint8_t get_u8();
  std::uint16_t get_u16();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int64_t get_i64();
  double get_f64();
  /// Reads a u16-length-prefixed string.  The claimed length is clamped
  /// against the bytes the stream can still deliver *before* any
  /// allocation, so a corrupt length prefix fails with ParseError instead
  /// of over-reading or allocating on hostile input.
  std::string get_string();
  /// True when the stream has no more bytes (peeks).
  bool at_eof();
  /// Bytes successfully consumed so far.
  [[nodiscard]] std::uint64_t offset() const noexcept { return offset_; }

 private:
  std::istream* in_;
  std::uint64_t offset_ = 0;
};

/// Typed streaming writer: writes the header on construction, then one
/// record per write() call.
template <typename Record>
class BinaryLogWriter {
 public:
  explicit BinaryLogWriter(std::ostream& out);
  /// Appends one record.
  void write(const Record& r);
  /// Number of records written so far.
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

 private:
  BinaryEncoder enc_;
  std::uint64_t count_ = 0;
};

/// Typed streaming reader: validates the header on construction, then
/// yields records until EOF.
template <typename Record>
class BinaryLogReader {
 public:
  /// Throws util::ParseError when the header magic/version mismatch.
  explicit BinaryLogReader(std::istream& in);
  /// Reads the next record into `out`; returns false at clean EOF.
  /// Throws util::ParseError on truncated records.
  bool next(Record& out);

 private:
  BinaryDecoder dec_;
};

/// Lenient read of one whole binary log with skip-and-count quarantine
/// semantics: a rejected header counts one `corrupt_files` (nothing
/// recovered), a mid-stream parse error counts one `corrupt_tails` and
/// keeps every record decoded before it (binary records carry no
/// per-record framing, so resynchronising inside a corrupt tail is not
/// possible).  Never throws ParseError.
template <typename Record>
std::vector<Record> read_binary_log_lenient(std::istream& in,
                                            QuarantineStats& quarantine);

extern template class BinaryLogWriter<ProxyRecord>;
extern template class BinaryLogWriter<MmeRecord>;
extern template class BinaryLogWriter<DeviceRecord>;
extern template class BinaryLogWriter<SectorInfo>;
extern template class BinaryLogReader<ProxyRecord>;
extern template class BinaryLogReader<MmeRecord>;
extern template class BinaryLogReader<DeviceRecord>;
extern template class BinaryLogReader<SectorInfo>;

}  // namespace wearscope::trace
