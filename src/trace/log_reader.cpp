#include "trace/log_reader.h"

#include <algorithm>
#include <array>
#include <utility>

#include "par/task_pool.h"
#include "trace/record_codec.h"
#include "util/byte_codec.h"
#include "util/crc32.h"

namespace wearscope::trace {

namespace {

/// Error-message prefix naming the format of `version`.
std::string log_kind(std::uint16_t version) {
  if (version == kBinaryFormatV3) return "columnar log: ";
  return version == kBinaryFormatV2 ? "blocked log: " : "binary log: ";
}

/// Strict/lenient shared header parse: returns the version, throws
/// ParseError on wrong magic, short header or unknown version.
template <typename Record>
std::uint16_t parse_file_header(util::MemorySpanDecoder& dec) {
  const std::uint32_t magic = dec.get_u32();
  if (magic != magic_of<Record>())
    throw util::ParseError("binary log: wrong magic (different record type?)");
  const std::uint16_t version = dec.get_u16();
  if (version != kBinaryFormatV1 && version != kBinaryFormatV2 &&
      version != kBinaryFormatV3)
    throw util::ParseError("binary log: unsupported format version " +
                           std::to_string(version));
  (void)dec.get_u16();  // reserved
  return version;
}

/// Bytes of one unit header: v2 frames carry the payload CRC, v3 groups
/// carry one CRC per column segment instead.
std::size_t unit_header_bytes(std::uint16_t version) {
  return version == kBinaryFormatV3 ? kGroupHeaderBytes : kFrameHeaderBytes;
}

/// Parses one unit header of unit_header_bytes(version) bytes.
LogUnit parse_unit_header(std::span<const std::byte> header,
                          std::uint16_t version) {
  util::MemorySpanDecoder dec(header);
  LogUnit unit;
  unit.record_count = dec.get_u32();
  unit.byte_length = dec.get_u32();
  if (version == kBinaryFormatV2) unit.crc = dec.get_u32();
  // Every record costs at least one payload byte (v2) or one byte per
  // column (v3), so more records than bytes is impossible.
  unit.header_ok = unit.record_count <= unit.byte_length;
  return unit;
}

std::string impossible_header(const LogUnit& unit) {
  return "unit claims " + std::to_string(unit.record_count) +
         " records in " + std::to_string(unit.byte_length) + " bytes";
}

std::string failed_unit(std::uint64_t unit_no) {
  return "unit " + std::to_string(unit_no) +
         " failed CRC or payload decode";
}

/// Decodes one v2 frame payload into `out[0..record_count)`.  Returns true
/// when the CRC matches and exactly record_count records consume exactly
/// byte_length bytes.
template <typename Record>
bool decode_block(std::span<const std::byte> payload, const LogUnit& unit,
                  Record* out, ProxyPools& pools) noexcept {
  if (util::crc32(payload) != unit.crc) return false;
  try {
    util::MemorySpanDecoder dec(payload);
    for (std::uint32_t i = 0; i < unit.record_count; ++i)
      decode_record(dec, out[i], pools);
    return dec.at_eof();
    // The caller accounts every failed block as one quarantined unit
    // (QuarantineStats::corrupt_blocks in LogDecode::finalize); nothing
    // partial is kept, so no counter is touched here.
    // wearscope-lint: allow(quarantine-pairing)
  } catch (const util::ParseError&) {
    return false;
  }
}

/// Appends to `order` the host-dictionary indices `rows` use, in the order
/// they first use them.
void note_dict_hosts(std::span<const ProxyRecord> rows, std::size_t dict_size,
                     std::vector<std::uint32_t>& order) {
  std::vector<std::uint8_t> seen(dict_size, 0);
  for (const ProxyRecord& r : rows) {
    if (seen[r.host_id] != 0) continue;
    seen[r.host_id] = 1;
    order.push_back(r.host_id);
  }
}

/// The per-unit decoder of `version`: proxy strings go to the unit-local
/// `strings` (v3 host ids index `dicts.hosts` instead, and their first-use
/// order goes to `strings.dict_hosts`).
template <typename Record>
bool decode_unit(std::span<const std::byte> payload, const LogUnit& unit,
                 std::uint16_t version, const ColumnDicts& dicts, Record* out,
                 UnitStrings& strings) noexcept {
  if (version != kBinaryFormatV3)
    return decode_block(payload, unit, out, strings.pools);
  if (!decode_column_group(payload, unit.record_count, dicts, out,
                           strings.pools))
    return false;
  if constexpr (!PoolFree<Record>) {
    note_dict_hosts(std::span<const Record>(out, unit.record_count),
                    dicts.hosts.size(), strings.dict_hosts);
  }
  return true;
}

/// remap_ids for proxy rows; a no-op for pool-free records.
template <typename Record>
void merge_ids(std::span<Record> rows, const ProxyPools& from,
               ProxyPools& to) {
  if constexpr (!PoolFree<Record>) remap_ids(rows, from, to);
}

/// Where one unit's ids go in the caller's pools: entry k of a table is
/// the pool id of the unit's id k.  v3 units keep `hosts` empty; their
/// host ids index the file dictionary, whose table every unit shares.
struct UnitIds {
  IdRemap hosts;
  IdRemap paths;
};

/// Interns the strings of one decoded unit into `pools` in the order its
/// rows first use them, which is the order a row-by-row IdRemap over the
/// rows would intern them: the unit's own tables already list their
/// entries in that order, and v3 hosts go in `strings.dict_hosts` order
/// through `dict_hosts`, shared by every group of the file.  Touches no
/// row, so the units merge one after another in chain order while the
/// rewrite of their rows (rewrite_unit_ids) runs in parallel after.
UnitIds merge_unit_strings(std::uint16_t version, const ColumnDicts& dicts,
                           IdRemap& dict_hosts, const UnitStrings& strings,
                           ProxyPools& pools) {
  const auto intern_all = [](const StringPool& from, StringPool& to) {
    IdRemap remap(from.size());
    for (std::uint32_t id = 0; id < from.size(); ++id)
      (void)remap(id, from.strings(), to);
    return remap;
  };
  UnitIds ids;
  if (version == kBinaryFormatV3) {
    for (const std::uint32_t id : strings.dict_hosts)
      (void)dict_hosts(id, dicts.hosts, pools.hosts);
  } else {
    ids.hosts = intern_all(strings.pools.hosts, pools.hosts);
  }
  ids.paths = intern_all(strings.pools.paths, pools.paths);
  return ids;
}

/// Rewrites one unit's proxy rows from unit ids into pool ids, through
/// the tables merge_unit_strings built.
void rewrite_unit_ids(std::span<ProxyRecord> rows, std::uint16_t version,
                      const UnitIds& ids, const IdRemap& dict_hosts) noexcept {
  const std::span<const std::uint32_t> hosts =
      version == kBinaryFormatV3 ? dict_hosts.table() : ids.hosts.table();
  const std::span<const std::uint32_t> paths = ids.paths.table();
  for (ProxyRecord& r : rows) {
    r.host_id = hosts[r.host_id];
    r.path_id = paths[r.path_id];
  }
}

/// Sequential v1 body decode (records until EOF), shared by the strict
/// and lenient span readers.  Proxy strings are interned into `pools`.
template <typename Record>
void decode_v1_body(util::MemorySpanDecoder& dec, Rows<Record>& out,
                    ProxyPools& pools) {
  Record r;
  while (!dec.at_eof()) {
    decode_record(dec, r, pools);
    out.push_back(std::move(r));
  }
}

/// Runs `batch` on `pool`, or inline in order when pool is null.
void run_batch(std::vector<std::function<void()>>& batch,
               par::TaskPool* pool) {
  if (pool == nullptr || batch.empty()) {
    for (std::function<void()>& task : batch) task();
  } else {
    pool->run(std::move(batch));
  }
}

/// Schedules `decode` into `out`, runs the batch on `pool` (or inline when
/// pool is null) and returns what finalize() lost.
template <typename Record>
QuarantineStats decode_all(LogDecode<Record>& decode, Rows<Record>& out,
                           ProxyPools& pools, par::TaskPool* pool) {
  std::vector<std::function<void()>> batch;
  decode.schedule(out, batch);
  run_batch(batch, pool);
  return decode.finalize(out, pools, pool);
}

}  // namespace

// ---------------------------------------------------------------------------
// Chain scan
// ---------------------------------------------------------------------------

UnitIndex scan_units(std::span<const std::byte> chain, std::uint16_t version,
                     bool lenient) {
  const std::size_t header_bytes = unit_header_bytes(version);
  UnitIndex index;
  // Strict mode throws on any damage; lenient mode counts one lost unit.
  const auto damaged = [&](const std::string& what) {
    if (!lenient) throw util::ParseError(log_kind(version) + what);
    ++index.corrupt_blocks;
  };
  util::MemorySpanDecoder dec(chain);
  while (!dec.at_eof()) {
    if (dec.remaining() < header_bytes) {
      damaged("truncated unit header at byte " + std::to_string(dec.offset()));
      return index;  // the chain is broken; one unit lost
    }
    LogUnit unit = parse_unit_header(dec.take(header_bytes), version);
    if (unit.byte_length > dec.remaining()) {
      damaged("unit claims " + std::to_string(unit.byte_length) +
              " payload bytes but only " + std::to_string(dec.remaining()) +
              " remain (overlong byte_length at byte " +
              std::to_string(dec.offset() - header_bytes) + ")");
      return index;  // tail unaddressable past a broken length
    }
    unit.payload_offset = static_cast<std::size_t>(dec.offset());
    (void)dec.take(unit.byte_length);
    // An impossible header skips the unit; the chain is still intact, so
    // the next unit resyncs.
    if (unit.header_ok) {
      index.total_records += unit.record_count;
    } else {
      damaged(impossible_header(unit));
    }
    index.units.push_back(unit);
  }
  return index;
}

// ---------------------------------------------------------------------------
// LogDecode
// ---------------------------------------------------------------------------

template <typename Record>
LogDecode<Record>::LogDecode(std::span<const std::byte> body,
                             std::uint16_t version, bool lenient)
    : version_(version), lenient_(lenient), chain_(body) {
  if (version == kBinaryFormatV3) {
    util::MemorySpanDecoder dec(body);
    dicts_ok_ = parse_column_dicts(dec, lenient, dicts_);  // strict throws
    if (!dicts_ok_) return;
    chain_ = body.subspan(static_cast<std::size_t>(dec.offset()));
  }
  index_ = scan_units(chain_, version, lenient);
  unit_base_.reserve(index_.units.size());
  std::uint64_t base = 0;
  for (const LogUnit& unit : index_.units) {
    unit_base_.push_back(base);
    if (unit.header_ok) base += unit.record_count;
  }
  unit_done_.assign(index_.units.size(), 0);
  unit_strings_.resize(index_.units.size());
}

template <typename Record>
void LogDecode<Record>::schedule(Rows<Record>& out,
                                 std::vector<std::function<void()>>& batch) {
  out.resize(static_cast<std::size_t>(index_.total_records));
  for (std::size_t i = 0; i < index_.units.size(); ++i) {
    const LogUnit& unit = index_.units[i];
    if (!unit.header_ok) continue;
    const std::span<const std::byte> payload =
        chain_.subspan(unit.payload_offset, unit.byte_length);
    Record* slice = out.data() + unit_base_[i];
    batch.push_back([this, i, &unit, payload, slice] {
      const bool ok =
          decode_unit(payload, unit, version_, dicts_, slice, unit_strings_[i]);
      if (!ok && !lenient_)
        throw util::ParseError(log_kind(version_) + failed_unit(i));
      unit_done_[i] = ok ? 1 : 0;
    });
  }
}

template <typename Record>
QuarantineStats LogDecode<Record>::finalize(Rows<Record>& out,
                                            ProxyPools& pools,
                                            par::TaskPool* pool) {
  QuarantineStats lost;
  if (!dicts_ok_) {
    ++lost.corrupt_files;  // indices are meaningless without dicts
    return lost;
  }
  lost.corrupt_blocks = index_.corrupt_blocks;
  const auto kept = [this](std::size_t i) {
    return index_.units[i].header_ok && unit_done_[i] != 0;
  };
  if constexpr (!PoolFree<Record>) {
    // Units merge their strings in chain order, whatever order the batch
    // decoded them in: the pools come out the same for any thread count.
    // Each unit's rows are then rewritten in place by a task of its own.
    IdRemap dict_hosts(dicts_.hosts.size());
    std::vector<UnitIds> ids(index_.units.size());
    std::vector<std::function<void()>> rewrites;
    for (std::size_t i = 0; i < index_.units.size(); ++i) {
      if (!kept(i)) continue;
      ids[i] = merge_unit_strings(version_, dicts_, dict_hosts,
                                  unit_strings_[i], pools);
      const std::span<Record> rows = std::span<Record>(out).subspan(
          unit_base_[i], index_.units[i].record_count);
      rewrites.push_back([this, rows, &unit = ids[i], &dict_hosts] {
        rewrite_unit_ids(rows, version_, unit, dict_hosts);
      });
    }
    run_batch(rewrites, pool);
  }
  std::uint64_t write_pos = 0;
  for (std::size_t i = 0; i < index_.units.size(); ++i) {
    const LogUnit& unit = index_.units[i];
    if (!unit.header_ok) continue;
    if (!kept(i)) {
      ++lost.corrupt_blocks;
      continue;
    }
    const std::uint64_t base = unit_base_[i];
    if (write_pos != base) {
      std::move(out.begin() + static_cast<std::ptrdiff_t>(base),
                out.begin() +
                    static_cast<std::ptrdiff_t>(base + unit.record_count),
                out.begin() + static_cast<std::ptrdiff_t>(write_pos));
    }
    write_pos += unit.record_count;
  }
  out.resize(static_cast<std::size_t>(write_pos));
  unit_strings_.clear();
  return lost;
}

// ---------------------------------------------------------------------------
// LogCursor
// ---------------------------------------------------------------------------

template <typename Record>
LogCursor<Record>::LogCursor(std::istream& in, std::size_t lane,
                             std::size_t lanes)
    : in_(&in), lane_(lane), lanes_(lanes) {
  util::require(lane < lanes, "LogCursor: lane out of range");
}

template <typename Record>
void LogCursor<Record>::append(std::size_t n, const char* what) {
  // Grow as bytes arrive, so a hostile length cannot force a huge
  // allocation before the stream runs dry.
  constexpr std::size_t kChunk = std::size_t{1} << 20;
  for (std::size_t left = n; left > 0;) {
    const std::size_t at = scratch_.size();
    const std::size_t want = std::min(kChunk, left);
    scratch_.resize(at + want);
    in_->read(scratch_.data() + at, static_cast<std::streamsize>(want));
    if (in_->gcount() != static_cast<std::streamsize>(want))
      throw util::ParseError(log_kind(version_) + "truncated " + what);
    left -= want;
  }
}

template <typename Record>
std::span<const std::byte> LogCursor<Record>::scratch() const noexcept {
  return std::as_bytes(std::span<const char>(scratch_.data(), scratch_.size()));
}

template <typename Record>
void LogCursor<Record>::open() {
  append(8, "file header");
  const std::uint16_t version = read_log_header<Record>(scratch());
  if (version == kBinaryFormatV1)
    throw util::ParseError(
        "binary log: v1 logs have no units to stream (rewrite the bundle as "
        "v3: wearscope_inspect --trace DIR --convert OUT --format binary)");
  version_ = version;
  scratch_.clear();
  if (version_ != kBinaryFormatV3) return;
  // Gather the three `entry_count | byte_length | crc32 | payload`
  // dictionary sections, then parse them as one buffer.
  for (int section = 0; section < 3; ++section) {
    append(kDictHeaderBytes, "dictionary section header");
    util::MemorySpanDecoder header(scratch().last(kDictHeaderBytes));
    (void)header.get_u32();  // entry_count
    append(header.get_u32(), "dictionary section");
  }
  util::MemorySpanDecoder dec(scratch());
  (void)parse_column_dicts(dec, /*lenient=*/false, dicts_);
  dict_hosts_ = IdRemap(dicts_.hosts.size());
}

template <typename Record>
bool LogCursor<Record>::next_unit(std::vector<Record>& rows) {
  if (version_ == 0) open();
  for (;;) {
    if (in_->peek() == std::char_traits<char>::eof()) return false;
    scratch_.clear();
    append(unit_header_bytes(version_), "unit header");
    const LogUnit unit = parse_unit_header(scratch(), version_);
    if (!unit.header_ok)
      throw util::ParseError(log_kind(version_) + impossible_header(unit));
    const std::uint64_t number = units_seen_++;
    if (number % lanes_ == lane_) {
      scratch_.clear();
      append(unit.byte_length, "unit payload");
      rows.resize(unit.record_count);
      unit_strings_.pools.hosts.clear();
      unit_strings_.pools.paths.clear();
      unit_strings_.dict_hosts.clear();
      if (!decode_unit(scratch(), unit, version_, dicts_, rows.data(),
                       unit_strings_))
        throw util::ParseError(log_kind(version_) + failed_unit(number));
      if constexpr (!PoolFree<Record>) {
        const UnitIds ids = merge_unit_strings(version_, dicts_, dict_hosts_,
                                               unit_strings_, pools_);
        rewrite_unit_ids(rows, version_, ids, dict_hosts_);
      }
      return true;
    }
    // Another lane's unit.  A seek past the end is not noticed here: the
    // next read finds the end of the stream, and the unit's own lane
    // reports the truncation at the unit's place in the log.
    in_->seekg(static_cast<std::streamoff>(unit.byte_length), std::ios::cur);
  }
}

template <typename Record>
const Record* LogCursor<Record>::next() {
  while (next_ == unit_.size()) {
    if (!next_unit(unit_)) return nullptr;
    next_ = 0;
  }
  return &unit_[next_++];
}

// ---------------------------------------------------------------------------
// Whole-log readers
// ---------------------------------------------------------------------------

template <typename Record>
Rows<Record> read_binary_log(std::span<const std::byte> bytes,
                             ProxyPools& pools, par::TaskPool* pool) {
  util::MemorySpanDecoder dec(bytes);
  const std::uint16_t version = parse_file_header<Record>(dec);
  Rows<Record> out;
  if (version == kBinaryFormatV1) {
    ProxyPools local;
    decode_v1_body<Record>(dec, out, local);
    merge_ids(std::span<Record>(out), local, pools);
  } else {
    LogDecode<Record> decode(bytes.subspan(8), version, /*lenient=*/false);
    (void)decode_all(decode, out, pools, pool);
  }
  return out;
}

template <typename Record>
Rows<Record> read_binary_log_lenient(std::span<const std::byte> bytes,
                                     QuarantineStats& quarantine,
                                     ProxyPools& pools, par::TaskPool* pool) {
  Rows<Record> out;
  std::uint16_t version = 0;
  util::MemorySpanDecoder dec(bytes);
  try {
    version = parse_file_header<Record>(dec);
  } catch (const util::ParseError&) {
    ++quarantine.corrupt_files;
    return out;
  }
  if (version == kBinaryFormatV1) {
    // Strings go to a log-local table first: a record abandoned mid-decode
    // may have interned its host, and must leave nothing in `pools`.
    ProxyPools local;
    try {
      decode_v1_body<Record>(dec, out, local);
    } catch (const util::ParseError&) {
      // v1 records carry no framing: the tail is unrecoverable past the
      // first bad byte.
      ++quarantine.corrupt_tails;
    }
    merge_ids(std::span<Record>(out), local, pools);
    return out;
  }
  LogDecode<Record> decode(bytes.subspan(8), version, /*lenient=*/true);
  quarantine += decode_all(decode, out, pools, pool);
  return out;
}

template <typename Record>
std::uint16_t read_log_header(std::span<const std::byte> bytes) {
  util::MemorySpanDecoder dec(bytes);
  return parse_file_header<Record>(dec);
}

template <typename Record>
BinaryLogInfo probe_binary_log(std::span<const std::byte> bytes) {
  util::MemorySpanDecoder dec(bytes);
  BinaryLogInfo info;
  info.version = parse_file_header<Record>(dec);
  if (info.version != kBinaryFormatV1) {
    const LogDecode<Record> decode(bytes.subspan(8), info.version,
                                   /*lenient=*/true);
    info.blocks = decode.index().units.size();
    info.records = decode.total_records();
    return info;
  }
  try {
    Record r;
    ProxyPools scratch;
    while (!dec.at_eof()) {
      decode_record(dec, r, scratch);
      ++info.records;
    }
    // Audit context: report what a lenient reader would recover; the
    // quarantine accounting itself happens on the real load path.
    // wearscope-lint: allow(quarantine-pairing)
  } catch (const util::ParseError&) {
  }
  return info;
}

template <typename Record>
ClaimedRecords claimed_records(std::istream& in) {
  const std::istream::pos_type start = in.tellg();
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(start);
  const std::uint64_t stream_bytes =
      end > start ? static_cast<std::uint64_t>(end - start) : 0;
  std::array<char, 12> buf{};
  // Reads the next n <= 12 stream bytes into buf.
  const auto next = [&in, &buf](std::size_t n) {
    in.read(buf.data(), static_cast<std::streamsize>(n));
    return in.gcount() == static_cast<std::streamsize>(n);
  };
  const auto bytes = [&buf](std::size_t n) {
    return std::as_bytes(std::span<const char>(buf.data(), n));
  };
  ClaimedRecords claimed;
  if (next(8)) {
    util::MemorySpanDecoder header(bytes(8));
    const bool magic_ok = header.get_u32() == magic_of<Record>();
    const std::uint16_t version = header.get_u16();
    bool ok = magic_ok &&
              (version == kBinaryFormatV2 || version == kBinaryFormatV3);
    for (int section = 0; ok && version == kBinaryFormatV3 && section < 3;
         ++section) {
      ok = next(kDictHeaderBytes);
      if (ok) {
        util::MemorySpanDecoder dict(bytes(kDictHeaderBytes));
        (void)dict.get_u32();  // entry_count
        in.seekg(dict.get_u32(), std::ios::cur);
      }
    }
    const std::size_t header_bytes = unit_header_bytes(version);
    while (ok && next(header_bytes)) {
      const LogUnit unit = parse_unit_header(bytes(header_bytes), version);
      if (!unit.header_ok) break;
      claimed.records += unit.record_count;
      const std::istream::pos_type payload = in.tellg();
      if (payload != std::istream::pos_type(-1) &&
          end - payload >= static_cast<std::streamoff>(unit.byte_length)) {
        claimed.largest_unit =
            std::max<std::uint64_t>(claimed.largest_unit, unit.record_count);
      }
      in.seekg(unit.byte_length, std::ios::cur);
    }
  }
  in.clear();
  in.seekg(start);
  claimed.records = std::min(claimed.records, stream_bytes);
  return claimed;
}

template class LogDecode<ProxyRecord>;
template class LogDecode<MmeRecord>;
template class LogDecode<DeviceRecord>;
template class LogDecode<SectorInfo>;
template class LogCursor<ProxyRecord>;
template class LogCursor<MmeRecord>;

template Rows<ProxyRecord> read_binary_log<ProxyRecord>(
    std::span<const std::byte>, ProxyPools&, par::TaskPool*);
template Rows<MmeRecord> read_binary_log<MmeRecord>(
    std::span<const std::byte>, ProxyPools&, par::TaskPool*);
template Rows<DeviceRecord> read_binary_log<DeviceRecord>(
    std::span<const std::byte>, ProxyPools&, par::TaskPool*);
template Rows<SectorInfo> read_binary_log<SectorInfo>(
    std::span<const std::byte>, ProxyPools&, par::TaskPool*);

template Rows<ProxyRecord> read_binary_log_lenient<ProxyRecord>(
    std::span<const std::byte>, QuarantineStats&, ProxyPools&,
    par::TaskPool*);
template Rows<MmeRecord> read_binary_log_lenient<MmeRecord>(
    std::span<const std::byte>, QuarantineStats&, ProxyPools&,
    par::TaskPool*);
template Rows<DeviceRecord> read_binary_log_lenient<DeviceRecord>(
    std::span<const std::byte>, QuarantineStats&, ProxyPools&,
    par::TaskPool*);
template Rows<SectorInfo> read_binary_log_lenient<SectorInfo>(
    std::span<const std::byte>, QuarantineStats&, ProxyPools&,
    par::TaskPool*);

template std::uint16_t read_log_header<ProxyRecord>(std::span<const std::byte>);
template std::uint16_t read_log_header<MmeRecord>(std::span<const std::byte>);
template std::uint16_t read_log_header<DeviceRecord>(
    std::span<const std::byte>);
template std::uint16_t read_log_header<SectorInfo>(std::span<const std::byte>);

template ClaimedRecords claimed_records<ProxyRecord>(std::istream&);
template ClaimedRecords claimed_records<MmeRecord>(std::istream&);

template BinaryLogInfo probe_binary_log<ProxyRecord>(
    std::span<const std::byte>);
template BinaryLogInfo probe_binary_log<MmeRecord>(std::span<const std::byte>);
template BinaryLogInfo probe_binary_log<DeviceRecord>(
    std::span<const std::byte>);
template BinaryLogInfo probe_binary_log<SectorInfo>(
    std::span<const std::byte>);

}  // namespace wearscope::trace
