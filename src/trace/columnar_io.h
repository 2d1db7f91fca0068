// Columnar binary log format (on-disk version 3).
//
// v2 framed the v1 row encoding into CRC-checked blocks; the bytes inside
// a block are still one record after another, so a scan that wants only
// timestamps and byte counts drags every url_path through the cache with
// them.  v3 keeps the same 8-byte file header and the same
// block-granular quarantine contract but stores each row group as a
// struct-of-arrays: one contiguous, individually CRC-framed segment per
// column, with the repetitive columns squeezed down before they ever hit
// disk:
//
//   [magic u32][version=3 u16][reserved u16]            file header
//   3 dictionary sections, fixed order hosts/tacs/sectors {
//     [entry_count u32][byte_length u32][crc32 u32]     section header
//     [payload]                                         byte_length bytes
//   }
//   repeat {                                            row groups
//     [record_count u32][byte_length u32]               group header
//     per column, in schema order {
//       [byte_length u32][crc32 u32][payload]           column segment
//     }                                                 (sums to the group
//   }                                                    byte_length)
//
// Column encodings: timestamps are zigzag varint deltas (restarting from 0
// in every group, so groups decode independently); ids, byte counts and
// durations are plain varints; hosts, TACs and sector ids are varint
// indices into the file-level dictionaries; protocol/event stay one raw
// byte; free-form strings stay u16-length-prefixed; doubles stay 8 raw
// bytes.  The hosts dictionary payload is a string sequence, the tac and
// sector payloads are little-endian u32 arrays.
//
// Corruption semantics are v2's exactly, because the group headers chain
// the same way frame headers do and trace/log_reader walks both chains
// with one scan: a bad column CRC, an out-of-range
// dictionary index, a varint overrun or a segment that does not consume
// exactly its byte_length quarantines ONE group (corrupt_blocks) and the
// reader resyncs at the next group header.  record_count > byte_length is
// still impossible (every column costs at least one byte per record) and
// skips the group without decoding.  Only the dictionaries are file-level
// state: a damaged dictionary section makes every index in the file
// meaningless, so a lenient reader quarantines the whole file
// (corrupt_files) rather than fabricating hosts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <ranges>
#include <span>
#include <string>
#include <vector>

#include "trace/records.h"
#include "trace/string_pool.h"
#include "util/byte_codec.h"

namespace wearscope::trace {

/// On-disk versions of a binary log.  write_columnar_log writes v3, the
/// only version written; v1 (a bare record stream) and v2 (records framed
/// into CRC-checked blocks) stay readable by trace/log_reader, so old
/// captures still load.
inline constexpr std::uint16_t kBinaryFormatV1 = 1;
inline constexpr std::uint16_t kBinaryFormatV2 = 2;
inline constexpr std::uint16_t kBinaryFormatV3 = 3;

/// Bytes of one v2 frame header: record_count + byte_length + crc32.
inline constexpr std::size_t kFrameHeaderBytes = 12;

/// Rows per v3 row group unless the writer's caller asks otherwise: big
/// enough to amortize the segment headers, small enough that an 8-thread
/// decode of any real log has work for every thread and a corrupt group
/// loses little.
inline constexpr std::size_t kRowGroupRecords = 4096;

/// Bytes of one dictionary section header: entry_count + byte_length + crc.
inline constexpr std::size_t kDictHeaderBytes = 12;

/// Bytes of one row-group header: record_count + byte_length.
inline constexpr std::size_t kGroupHeaderBytes = 8;

/// Bytes of one column-segment header: byte_length + crc.
inline constexpr std::size_t kColumnHeaderBytes = 8;

/// Columns in the v3 schema of each record type (the per-group segment
/// count): ProxyRecord 9, MmeRecord 5, DeviceRecord 4, SectorInfo 3.
template <typename Record>
[[nodiscard]] constexpr std::size_t columnar_column_count();
template <>
constexpr std::size_t columnar_column_count<ProxyRecord>() { return 9; }
template <>
constexpr std::size_t columnar_column_count<MmeRecord>() { return 5; }
template <>
constexpr std::size_t columnar_column_count<DeviceRecord>() { return 4; }
template <>
constexpr std::size_t columnar_column_count<SectorInfo>() { return 3; }

/// File-level dictionaries of one v3 log, in first-appearance order over
/// the record vector the writer saw.  Record types that do not use a
/// dictionary leave it empty (the section is still written, 12 bytes).
struct ColumnDicts {
  std::vector<std::string> hosts;
  std::vector<std::uint32_t> tacs;
  std::vector<std::uint32_t> sectors;
};

/// What write_columnar_log produced.
struct ColumnarWriteInfo {
  std::uint64_t records = 0;
  std::uint64_t blocks = 0;  ///< Row groups written.
};

/// Writes `records` as one v3 log: two passes, the first building the
/// dictionaries in first-appearance order, the second encoding row groups
/// of up to `group_records` records (positive).  Proxy records'
/// ids resolve through `pools`; the host dictionary is the pool remapped
/// into first-appearance order.  Throws util::IoError on write failure.
template <typename Record>
ColumnarWriteInfo write_columnar_log(std::ostream& out,
                                     std::span<const Record> records,
                                     const ProxyPools& pools,
                                     std::size_t group_records =
                                         kRowGroupRecords);
/// The same over a whole std::vector or trace::Rows.
template <std::ranges::contiguous_range Records>
ColumnarWriteInfo write_columnar_log(std::ostream& out, const Records& records,
                                     const ProxyPools& pools,
                                     std::size_t group_records =
                                         kRowGroupRecords) {
  using Record = std::ranges::range_value_t<Records>;
  return write_columnar_log(out, std::span<const Record>(records), pools,
                            group_records);
}
template <std::ranges::contiguous_range Records>
  requires PoolFree<std::ranges::range_value_t<Records>>
ColumnarWriteInfo write_columnar_log(std::ostream& out, const Records& records,
                                     std::size_t group_records =
                                         kRowGroupRecords) {
  return write_columnar_log(out, records, ProxyPools{}, group_records);
}

/// Parses the three dictionary sections at the front of a v3 body,
/// advancing `dec` past them.  Strict: throws util::ParseError on any
/// damage.  Lenient: returns false instead (the caller quarantines the
/// file).
bool parse_column_dicts(util::MemorySpanDecoder& dec, bool lenient,
                        ColumnDicts& dicts);

/// Decodes one row-group payload (its column segments, headers included)
/// into `out[0..record_count)`.  Returns true when every column segment
/// passes its CRC, decodes exactly record_count values and consumes
/// exactly its byte_length.  Proxy host ids come out as indices into
/// `dicts.hosts`; URL paths are interned into `pools.paths`.
template <typename Record>
[[nodiscard]] bool decode_column_group(std::span<const std::byte> payload,
                                       std::uint32_t record_count,
                                       const ColumnDicts& dicts, Record* out,
                                       ProxyPools& pools) noexcept;

/// Byte-level layout of one v3 log for operator audits (wearscope_inspect
/// prints dictionary sizes and per-column compressed bytes next to the
/// v2 blocks/records columns).  Produced by a lenient probe: the counts
/// describe what a lenient reader would address.
struct ColumnarLayoutInfo {
  std::uint64_t groups = 0;
  std::uint64_t records = 0;
  std::uint64_t dict_hosts = 0;    ///< Host dictionary entries.
  std::uint64_t dict_tacs = 0;     ///< TAC dictionary entries.
  std::uint64_t dict_sectors = 0;  ///< Sector dictionary entries.
  std::uint64_t dict_bytes = 0;    ///< Dictionary payload bytes (all three).
  /// Compressed payload bytes per column, schema order, summed over all
  /// addressable groups (segment headers excluded).
  std::vector<std::uint64_t> column_bytes;
};

/// Probes the layout of a v3 log body (after the 8-byte file header)
/// without decoding records.  Lenient: damage truncates the walk rather
/// than throwing.
template <typename Record>
[[nodiscard]] ColumnarLayoutInfo probe_columnar_layout(
    std::span<const std::byte> body);

extern template ColumnarWriteInfo write_columnar_log<ProxyRecord>(
    std::ostream&, std::span<const ProxyRecord>, const ProxyPools&,
    std::size_t);
extern template ColumnarWriteInfo write_columnar_log<MmeRecord>(
    std::ostream&, std::span<const MmeRecord>, const ProxyPools&,
    std::size_t);
extern template ColumnarWriteInfo write_columnar_log<DeviceRecord>(
    std::ostream&, std::span<const DeviceRecord>, const ProxyPools&,
    std::size_t);
extern template ColumnarWriteInfo write_columnar_log<SectorInfo>(
    std::ostream&, std::span<const SectorInfo>, const ProxyPools&,
    std::size_t);
extern template ColumnarLayoutInfo probe_columnar_layout<ProxyRecord>(
    std::span<const std::byte>);
extern template ColumnarLayoutInfo probe_columnar_layout<MmeRecord>(
    std::span<const std::byte>);
extern template ColumnarLayoutInfo probe_columnar_layout<DeviceRecord>(
    std::span<const std::byte>);
extern template ColumnarLayoutInfo probe_columnar_layout<SectorInfo>(
    std::span<const std::byte>);

}  // namespace wearscope::trace
