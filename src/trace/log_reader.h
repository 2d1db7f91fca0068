// The one reader of binary logs: v3 row groups (written by
// trace/columnar_io) and the read-only legacy versions, v1 record streams
// and v2 framed blocks (no writer of those remains; the fixtures under
// tests/data/legacy pin what they look like).
//
// v2 and v3 bodies share one shape — a chain of framed units, each
// `record_count u32 | byte_length u32 [| crc32 u32 for v2] | payload` —
// so they share one reader:
//
//   * scan_units() walks the chain without touching payloads.  The same
//     rules hold for both versions: an impossible header (record_count >
//     byte_length; every record costs at least one payload byte) skips
//     that unit and resyncs at the next one, a truncated header or an
//     overlong byte_length breaks the chain and ends the scan;
//   * LogDecode sizes the destination without writing it (trace::Rows)
//     and schedules one decode task per unit; each task is the first
//     writer of its own contiguous slice and interns proxy strings into
//     pools of its own, so the result is bitwise identical for any thread
//     count.  finalize() merges the surviving units' strings into the
//     caller's pools in chain order (trace/string_pool.h), rewrites each
//     unit's ids in a second batch of one task per unit, then compacts
//     the units that failed away and reports them as quarantine;
//   * LogCursor streams a log one unit at a time from a std::istream
//     through a reusable scratch buffer, for callers that must never hold
//     the whole log.  A strided cursor reads every L-th unit and seeks past
//     the others' payloads, so L cursors on L streams of one file split
//     its decode (fed's partition feed runs one per decode lane).
//
// The per-unit decoders — the v2 block decode (CRC + v1 records) and
// trace/columnar_io's decode_column_group plus its dictionary parse — are
// the only format-specific code on the read path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <istream>
#include <span>
#include <string>
#include <vector>

#include "trace/columnar_io.h"
#include "trace/quarantine.h"
#include "trace/records.h"
#include "trace/string_pool.h"

namespace wearscope::par {
class TaskPool;
}  // namespace wearscope::par

namespace wearscope::trace {

/// One framed unit of a v2 or v3 log body as located by the chain scan: a
/// v2 block or a v3 row group.
struct LogUnit {
  std::size_t payload_offset = 0;  ///< Into the scanned chain.
  std::uint32_t record_count = 0;
  std::uint32_t byte_length = 0;
  std::uint32_t crc = 0;  ///< v2 only; v3 CRCs sit per column segment.
  /// False when the header itself is impossible (record_count exceeds
  /// byte_length): the unit is skipped, never decoded.
  bool header_ok = true;
};

/// Unit index of one chain: every addressable unit plus what the scan had
/// to give up on.
struct UnitIndex {
  std::vector<LogUnit> units;
  /// Sum of record_count over units with header_ok (the size
  /// LogDecode::schedule() gives the destination).
  std::uint64_t total_records = 0;
  /// Units lost at scan time: impossible headers plus one for a broken
  /// chain (truncated header or payload at the tail).
  std::uint64_t corrupt_blocks = 0;
};

/// Scans the unit chain of a v2 body (`chain` starts after the 8-byte file
/// header) or a v3 body (`chain` starts after the dictionary sections).
/// Strict (`lenient == false`): throws util::ParseError on any structural
/// damage.  Lenient: skips impossible headers, counts a broken chain as
/// one corrupt block and stops — corruption never cascades past the scan.
[[nodiscard]] UnitIndex scan_units(std::span<const std::byte> chain,
                                   std::uint16_t version, bool lenient);

/// The strings one decoded unit of proxy rows names, before they merge
/// into the caller's pools: the unit's own tables (v2 hosts and paths, v3
/// paths), each listing its entries in the order the unit's rows first
/// use them, and for v3 the host-dictionary indices in that order too.
struct UnitStrings {
  ProxyPools pools;
  std::vector<std::uint32_t> dict_hosts;  ///< v3 only.
};

/// A v2 or v3 log body being decoded: the constructor — sequential —
/// parses the v3 dictionaries and scans the chain; schedule() appends one
/// decode task per unit to a caller-owned batch (load_bundle puts the
/// units of all four logs in one batch); finalize(), after the batch ran,
/// merges the units' strings, rewrites their ids and compacts failed
/// units out of `out` in chain order.
template <typename Record>
class LogDecode {
 public:
  /// `body` is the log body after the 8-byte file header; it must stay
  /// alive (and unmoved) until finalize() returns.  Strict mode throws
  /// util::ParseError on damaged dictionaries or a damaged chain, and its
  /// decode tasks throw on a bad unit.
  LogDecode(std::span<const std::byte> body, std::uint16_t version,
            bool lenient);
  /// Scheduled tasks hold `this`: the object must not move.
  LogDecode(const LogDecode&) = delete;
  LogDecode& operator=(const LogDecode&) = delete;

  /// Claimed record total (the size schedule() gives the destination).
  [[nodiscard]] std::uint64_t total_records() const noexcept {
    return index_.total_records;
  }
  /// Units found by the scan.
  [[nodiscard]] const UnitIndex& index() const noexcept { return index_; }
  /// The v3 file-level dictionaries (empty for v2).
  [[nodiscard]] const ColumnDicts& dicts() const noexcept { return dicts_; }

  /// Sizes `out` to total_records() rows — for the event logs without
  /// writing them (trace::Rows) — and appends the per-unit decode tasks to
  /// `batch`.  Each task is the first writer of its unit's slice.
  void schedule(Rows<Record>& out, std::vector<std::function<void()>>& batch);

  /// Returns what was lost: one `corrupt_blocks` per unit lost to the scan
  /// or to its decode, or one `corrupt_files` when lenient mode found the
  /// v3 dictionaries damaged (every index in the file is meaningless
  /// without them).  Strict mode always returns zeros — failures have
  /// already thrown.  Proxy rows' ids are rewritten into `pools`, which
  /// gain exactly the strings the surviving rows use, in first-use order:
  /// a repeated dictionary entry and a string already in `pools` each map
  /// to one id.  The string merge runs on the calling thread in chain
  /// order; the per-row rewrite is one task per unit on `pool` (inline
  /// when null); then failed units are compacted out of `out` (stable,
  /// chain order), sequentially, since a moved range may overlap an
  /// earlier unit's.  No unwritten row survives: every kept row lies in a
  /// unit whose decode wrote all of it.
  QuarantineStats finalize(Rows<Record>& out, ProxyPools& pools,
                           par::TaskPool* pool = nullptr);
  QuarantineStats finalize(Rows<Record>& out)
    requires PoolFree<Record>
  {
    ProxyPools unused;
    return finalize(out, unused);
  }

 private:
  std::uint16_t version_ = 0;
  bool lenient_ = false;
  std::span<const std::byte> chain_;
  bool dicts_ok_ = true;
  ColumnDicts dicts_;
  UnitIndex index_;
  std::vector<std::uint64_t> unit_base_;  ///< Slice start per unit.
  /// Written concurrently, one slot per unit, by the decode tasks.
  std::vector<std::uint8_t> unit_done_;
  /// Unit-local proxy strings, one per unit, same ownership rule.
  std::vector<UnitStrings> unit_strings_;
};

/// Sequential, strict reader of one v2 or v3 log from a stream: one unit
/// at a time into a reusable scratch buffer (v3 reads its dictionaries
/// first), decoded by the same per-unit decoder LogDecode uses.  Nothing is
/// mapped and at most one unit of rows is resident; the proxy strings seen
/// so far accumulate in pools(), which every returned record's ids index.
/// next_unit() is the read: it hands out one whole unit (a v2 block or a
/// v3 row group); next() is the one-row call on top of it.
///
/// Strided reading: lane `lane` of `lanes` reads units lane, lane + lanes,
/// lane + 2 * lanes, ... (numbered from 0 in log order).  It still reads
/// and checks every unit header, but seeks past the payloads of the units
/// it does not read, so a skipped unit is neither CRC-checked nor decoded
/// (its own lane does that) and costs no allocation; the stream must then
/// be seekable.  pools() then hold the strings of this lane's units only,
/// in first-use order over them.  With one lane (the default) every unit
/// is read.
///
/// A cursor is single-threaded, but it may live on a thread other than its
/// owner's as long as pools() is read only once that thread is done.
/// Throws util::ParseError on a v1 log (it has no units to stream) and on
/// any damage it reads, naming the unit by its number in the log.
template <typename Record>
class LogCursor {
 public:
  /// Reads nothing yet: the file header is validated by the first read.
  /// `lane` must be below `lanes`.
  explicit LogCursor(std::istream& in, std::size_t lane = 0,
                     std::size_t lanes = 1);

  /// Replaces the contents of `rows` with the next unit's records (the
  /// next of this lane's units), reusing its capacity, and merges the
  /// unit's strings into pools().  Returns false at a clean end of log.  A
  /// unit may hold zero records.
  bool next_unit(std::vector<Record>& rows);

  /// The next record, or nullptr at a clean end of log.  The pointer stays
  /// valid until the following call.
  [[nodiscard]] const Record* next();

  /// The pools the returned records' ids index (grown unit by unit, in
  /// first-use order over the log; empty for pool-free records).
  [[nodiscard]] ProxyPools& pools() noexcept { return pools_; }

 private:
  /// Validates the file header and reads the v3 dictionaries.
  void open();
  /// Appends exactly `n` stream bytes to scratch_ or throws naming `what`.
  void append(std::size_t n, const char* what);
  [[nodiscard]] std::span<const std::byte> scratch() const noexcept;

  std::istream* in_ = nullptr;
  std::uint64_t lane_ = 0;
  std::uint64_t lanes_ = 1;
  std::uint16_t version_ = 0;  ///< 0 until open().
  ColumnDicts dicts_;
  IdRemap dict_hosts_;         ///< v3 host dictionary -> pools_.hosts.
  UnitStrings unit_strings_;   ///< The current unit's own strings.
  ProxyPools pools_;
  std::string scratch_;
  std::vector<Record> unit_;  ///< next()'s current unit.
  std::size_t next_ = 0;      ///< Into unit_.
  std::uint64_t units_seen_ = 0;  ///< Headers read, this lane's or not.
};

/// What the unit headers of one v2 or v3 log claim.
struct ClaimedRecords {
  /// Records summed over the unit headers; never above the stream's byte
  /// count, since every record costs at least one payload byte.
  std::uint64_t records = 0;
  /// The largest record count of one unit whose payload lies within the
  /// stream (so it too stays below the byte count).
  std::uint64_t largest_unit = 0;
};

/// The record counts the v2 or v3 log in `in` claims: reads the file
/// header, the v3 dictionary section headers and every unit header,
/// seeking past the payloads, then puts the stream back where it was (the
/// start of the log).  A pre-size hint, not a check: the walk stops quietly
/// at the first header it cannot use (zeros for a v1 log or a wrong
/// header; damage is the reader's to report).  `in` must be seekable.
template <typename Record>
[[nodiscard]] ClaimedRecords claimed_records(std::istream& in);

/// Summary of one binary log file for operator audits (wearscope_inspect).
struct BinaryLogInfo {
  std::uint16_t version = 0;   ///< 1, 2 or 3.
  std::uint64_t blocks = 0;    ///< v2 frames / v3 row groups; 0 for v1.
  std::uint64_t records = 0;   ///< v2/v3: claimed; v1: decoded count.
};

/// Probes a whole binary log (header included) of any version.  Throws
/// util::ParseError when the header is not a `Record` log at all; body
/// damage is tolerated (the counts describe what a lenient reader would
/// recover).
template <typename Record>
[[nodiscard]] BinaryLogInfo probe_binary_log(std::span<const std::byte> bytes);

/// Validates the 8-byte file header of a `Record` log and returns its
/// version (1, 2 or 3).  Throws util::ParseError on a short buffer, wrong
/// magic or unknown version.  Cheap: touches only the first 8 bytes.
template <typename Record>
[[nodiscard]] std::uint16_t read_log_header(std::span<const std::byte> bytes);

/// Strict whole-log read from memory, v1/v2/v3 by header version.  v2
/// blocks and v3 row groups decode concurrently on `pool` when given
/// (nullptr == inline); the result is identical for every pool size.
/// Proxy hosts and paths are interned into `pools` (see
/// LogDecode::finalize).  Throws util::ParseError on any corruption.
template <typename Record>
[[nodiscard]] Rows<Record> read_binary_log(std::span<const std::byte> bytes,
                                           ProxyPools& pools,
                                           par::TaskPool* pool = nullptr);
template <PoolFree Record>
[[nodiscard]] Rows<Record> read_binary_log(
    std::span<const std::byte> bytes, par::TaskPool* pool = nullptr) {
  ProxyPools unused;
  return read_binary_log<Record>(bytes, unused, pool);
}

/// Lenient whole-log read from memory with skip-and-count quarantine:
/// a rejected header counts one `corrupt_files`; v1 body damage counts
/// one `corrupt_tails` (keeping the records before it); v2/v3 body damage
/// counts one `corrupt_blocks` per lost block or row group, keeping every
/// other one (a damaged v3 dictionary counts one `corrupt_files` — the
/// indices are meaningless without it).  Never throws ParseError.  Proxy
/// hosts and paths are interned into `pools`; a lost unit or tail
/// interns nothing.
template <typename Record>
[[nodiscard]] Rows<Record> read_binary_log_lenient(
    std::span<const std::byte> bytes, QuarantineStats& quarantine,
    ProxyPools& pools, par::TaskPool* pool = nullptr);
template <PoolFree Record>
[[nodiscard]] Rows<Record> read_binary_log_lenient(
    std::span<const std::byte> bytes, QuarantineStats& quarantine,
    par::TaskPool* pool = nullptr) {
  ProxyPools unused;
  return read_binary_log_lenient<Record>(bytes, quarantine, unused, pool);
}

extern template class LogDecode<ProxyRecord>;
extern template class LogDecode<MmeRecord>;
extern template class LogDecode<DeviceRecord>;
extern template class LogDecode<SectorInfo>;
extern template class LogCursor<ProxyRecord>;
extern template class LogCursor<MmeRecord>;

}  // namespace wearscope::trace
