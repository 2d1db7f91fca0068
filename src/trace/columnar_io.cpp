#include "trace/columnar_io.h"

#include <algorithm>
#include <array>
#include <unordered_map>
#include <utility>

#include "trace/log_reader.h"
#include "trace/record_codec.h"
#include "util/byte_codec.h"
#include "util/crc32.h"
#include "util/varint.h"

namespace wearscope::trace {

namespace {

/// Largest value a varint-encoded u32 field may decode to.
constexpr std::uint64_t kMaxU32 = 0xffffffffULL;

[[nodiscard]] std::uint32_t narrow_u32(std::uint64_t v, const char* what) {
  if (v > kMaxU32)
    throw util::ParseError("columnar log: " + std::string(what) +
                           " varint exceeds u32");
  return static_cast<std::uint32_t>(v);
}

// ---------------------------------------------------------------------------
// Dictionaries
// ---------------------------------------------------------------------------

/// Write-side dictionary state: the first-appearance-ordered entry lists
/// plus the value->index maps the column encoders look up.  Hosts map
/// from the rows' pool ids through a dense array, so no row hashes a
/// string; `pools` resolves the ids (proxy logs only).
struct DictBuilder {
  explicit DictBuilder(const ProxyPools& strings)
      : pools(&strings), host_id(strings.hosts.size()) {}

  const ProxyPools* pools;
  StringPool hosts;
  IdRemap host_id;
  std::unordered_map<std::uint32_t, std::uint32_t> tac_id;
  std::unordered_map<std::uint32_t, std::uint32_t> sector_id;
  ColumnDicts dicts;

  std::uint32_t intern_host(std::uint32_t pool_id) {
    return host_id(pool_id, pools->hosts.strings(), hosts);
  }
  void intern_tac(std::uint32_t tac) {
    const auto id = static_cast<std::uint32_t>(dicts.tacs.size());
    if (tac_id.try_emplace(tac, id).second) dicts.tacs.push_back(tac);
  }
  void intern_sector(std::uint32_t sector) {
    const auto id = static_cast<std::uint32_t>(dicts.sectors.size());
    if (sector_id.try_emplace(sector, id).second)
      dicts.sectors.push_back(sector);
  }
};

void collect_dicts(const ProxyRecord& r, DictBuilder& b) {
  (void)b.intern_host(r.host_id);
  b.intern_tac(r.tac);
}
void collect_dicts(const MmeRecord& r, DictBuilder& b) {
  b.intern_tac(r.tac);
  b.intern_sector(r.sector_id);
}
void collect_dicts(const DeviceRecord&, DictBuilder&) {}
void collect_dicts(const SectorInfo&, DictBuilder&) {}

void write_section(std::ostream& out, std::uint32_t entry_count,
                   const std::string& payload) {
  util::require(payload.size() <= kMaxU32,
                "columnar writer: dictionary section too large");
  std::string header;
  util::BufferEncoder enc(header);
  enc.put_u32(entry_count);
  enc.put_u32(static_cast<std::uint32_t>(payload.size()));
  enc.put_u32(util::crc32(std::as_bytes(
      std::span<const char>(payload.data(), payload.size()))));
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!out) throw util::IoError("columnar write failed");
}

void write_dict_sections(std::ostream& out, const ColumnDicts& dicts) {
  std::string payload;
  util::BufferEncoder enc(payload);
  for (const std::string& host : dicts.hosts) enc.put_string(host);
  write_section(out, static_cast<std::uint32_t>(dicts.hosts.size()), payload);
  payload.clear();
  for (const std::uint32_t tac : dicts.tacs) enc.put_u32(tac);
  write_section(out, static_cast<std::uint32_t>(dicts.tacs.size()), payload);
  payload.clear();
  for (const std::uint32_t sector : dicts.sectors) enc.put_u32(sector);
  write_section(out, static_cast<std::uint32_t>(dicts.sectors.size()),
                payload);
}

// ---------------------------------------------------------------------------
// Column encoders (schema order; see columnar_io.h for the layouts)
// ---------------------------------------------------------------------------

void encode_columns(const ProxyRecord* r, std::size_t n, DictBuilder& b,
                    std::vector<std::string>& cols) {
  std::int64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    util::put_varint(cols[0], util::zigzag_encode(r[i].timestamp - prev));
    prev = r[i].timestamp;
  }
  for (std::size_t i = 0; i < n; ++i) util::put_varint(cols[1], r[i].user_id);
  for (std::size_t i = 0; i < n; ++i)
    util::put_varint(cols[2], b.tac_id.at(r[i].tac));
  for (std::size_t i = 0; i < n; ++i)
    cols[3].push_back(static_cast<char>(r[i].protocol));
  for (std::size_t i = 0; i < n; ++i)
    util::put_varint(cols[4], b.intern_host(r[i].host_id));
  util::BufferEncoder url(cols[5]);
  for (std::size_t i = 0; i < n; ++i)
    url.put_string(b.pools->paths[r[i].path_id]);
  for (std::size_t i = 0; i < n; ++i) util::put_varint(cols[6], r[i].bytes_up);
  for (std::size_t i = 0; i < n; ++i)
    util::put_varint(cols[7], r[i].bytes_down);
  for (std::size_t i = 0; i < n; ++i)
    util::put_varint(cols[8], r[i].duration_ms);
}

void encode_columns(const MmeRecord* r, std::size_t n, DictBuilder& b,
                    std::vector<std::string>& cols) {
  std::int64_t prev = 0;
  for (std::size_t i = 0; i < n; ++i) {
    util::put_varint(cols[0], util::zigzag_encode(r[i].timestamp - prev));
    prev = r[i].timestamp;
  }
  for (std::size_t i = 0; i < n; ++i) util::put_varint(cols[1], r[i].user_id);
  for (std::size_t i = 0; i < n; ++i)
    util::put_varint(cols[2], b.tac_id.at(r[i].tac));
  for (std::size_t i = 0; i < n; ++i)
    cols[3].push_back(static_cast<char>(r[i].event));
  for (std::size_t i = 0; i < n; ++i)
    util::put_varint(cols[4], b.sector_id.at(r[i].sector_id));
}

void encode_columns(const DeviceRecord* r, std::size_t n, DictBuilder&,
                    std::vector<std::string>& cols) {
  for (std::size_t i = 0; i < n; ++i) util::put_varint(cols[0], r[i].tac);
  util::BufferEncoder model(cols[1]);
  for (std::size_t i = 0; i < n; ++i) model.put_string(r[i].model);
  util::BufferEncoder manufacturer(cols[2]);
  for (std::size_t i = 0; i < n; ++i)
    manufacturer.put_string(r[i].manufacturer);
  util::BufferEncoder os(cols[3]);
  for (std::size_t i = 0; i < n; ++i) os.put_string(r[i].os);
}

void encode_columns(const SectorInfo* r, std::size_t n, DictBuilder&,
                    std::vector<std::string>& cols) {
  for (std::size_t i = 0; i < n; ++i)
    util::put_varint(cols[0], r[i].sector_id);
  util::BufferEncoder lat(cols[1]);
  for (std::size_t i = 0; i < n; ++i) lat.put_f64(r[i].position.lat_deg);
  util::BufferEncoder lon(cols[2]);
  for (std::size_t i = 0; i < n; ++i) lon.put_f64(r[i].position.lon_deg);
}

// ---------------------------------------------------------------------------
// Column decoders
// ---------------------------------------------------------------------------

/// Every column segment must be consumed exactly: trailing bytes mean the
/// count and the payload disagree, which is corruption, not slack.
void require_consumed(util::MemorySpanDecoder& dec) {
  if (!dec.at_eof())
    throw util::ParseError("columnar log: column segment has " +
                           std::to_string(dec.remaining()) +
                           " trailing bytes");
}

[[nodiscard]] std::uint32_t dict_index(util::MemorySpanDecoder& dec,
                                       std::size_t dict_size,
                                       const char* what) {
  const std::uint64_t idx = util::get_varint(dec);
  if (idx >= dict_size)
    throw util::ParseError("columnar log: " + std::string(what) + " index " +
                           std::to_string(idx) + " out of range (dictionary "
                           "has " + std::to_string(dict_size) + " entries)");
  return static_cast<std::uint32_t>(idx);
}

/// Host ids come out as indices into the file's host dictionary (the
/// unit-local dictionary of a v3 group); paths are interned into `pools`.
void decode_columns(std::span<const std::span<const std::byte>> cols,
                    const ColumnDicts& dicts, std::uint32_t n,
                    ProxyRecord* out, ProxyPools& pools) {
  {
    util::MemorySpanDecoder dec(cols[0]);
    std::int64_t prev = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      prev += util::zigzag_decode(util::get_varint(dec));
      out[i].timestamp = prev;
    }
    require_consumed(dec);
  }
  {
    util::MemorySpanDecoder dec(cols[1]);
    for (std::uint32_t i = 0; i < n; ++i)
      out[i].user_id = util::get_varint(dec);
    require_consumed(dec);
  }
  {
    util::MemorySpanDecoder dec(cols[2]);
    for (std::uint32_t i = 0; i < n; ++i)
      out[i].tac = dicts.tacs[dict_index(dec, dicts.tacs.size(), "tac")];
    require_consumed(dec);
  }
  {
    util::MemorySpanDecoder dec(cols[3]);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint8_t proto = dec.get_u8();
      if (proto > 1)
        throw util::ParseError("columnar log: bad protocol byte");
      out[i].protocol = static_cast<Protocol>(proto);
    }
    require_consumed(dec);
  }
  {
    util::MemorySpanDecoder dec(cols[4]);
    for (std::uint32_t i = 0; i < n; ++i)
      out[i].host_id = dict_index(dec, dicts.hosts.size(), "host");
    require_consumed(dec);
  }
  {
    util::MemorySpanDecoder dec(cols[5]);
    for (std::uint32_t i = 0; i < n; ++i)
      out[i].path_id = pools.paths.intern(dec.get_string_view());
    require_consumed(dec);
  }
  {
    util::MemorySpanDecoder dec(cols[6]);
    for (std::uint32_t i = 0; i < n; ++i)
      out[i].bytes_up = util::get_varint(dec);
    require_consumed(dec);
  }
  {
    util::MemorySpanDecoder dec(cols[7]);
    for (std::uint32_t i = 0; i < n; ++i)
      out[i].bytes_down = util::get_varint(dec);
    require_consumed(dec);
  }
  {
    util::MemorySpanDecoder dec(cols[8]);
    for (std::uint32_t i = 0; i < n; ++i)
      out[i].duration_ms = narrow_u32(util::get_varint(dec), "duration_ms");
    require_consumed(dec);
  }
}

void decode_columns(std::span<const std::span<const std::byte>> cols,
                    const ColumnDicts& dicts, std::uint32_t n,
                    MmeRecord* out, ProxyPools&) {
  {
    util::MemorySpanDecoder dec(cols[0]);
    std::int64_t prev = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      prev += util::zigzag_decode(util::get_varint(dec));
      out[i].timestamp = prev;
    }
    require_consumed(dec);
  }
  {
    util::MemorySpanDecoder dec(cols[1]);
    for (std::uint32_t i = 0; i < n; ++i)
      out[i].user_id = util::get_varint(dec);
    require_consumed(dec);
  }
  {
    util::MemorySpanDecoder dec(cols[2]);
    for (std::uint32_t i = 0; i < n; ++i)
      out[i].tac = dicts.tacs[dict_index(dec, dicts.tacs.size(), "tac")];
    require_consumed(dec);
  }
  {
    util::MemorySpanDecoder dec(cols[3]);
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint8_t ev = dec.get_u8();
      if (ev > 3) throw util::ParseError("columnar log: bad event byte");
      out[i].event = static_cast<MmeEvent>(ev);
    }
    require_consumed(dec);
  }
  {
    util::MemorySpanDecoder dec(cols[4]);
    for (std::uint32_t i = 0; i < n; ++i)
      out[i].sector_id =
          dicts.sectors[dict_index(dec, dicts.sectors.size(), "sector")];
    require_consumed(dec);
  }
}

void decode_columns(std::span<const std::span<const std::byte>> cols,
                    const ColumnDicts&, std::uint32_t n, DeviceRecord* out,
                    ProxyPools&) {
  {
    util::MemorySpanDecoder dec(cols[0]);
    for (std::uint32_t i = 0; i < n; ++i)
      out[i].tac = narrow_u32(util::get_varint(dec), "tac");
    require_consumed(dec);
  }
  {
    util::MemorySpanDecoder dec(cols[1]);
    for (std::uint32_t i = 0; i < n; ++i) out[i].model = dec.get_string();
    require_consumed(dec);
  }
  {
    util::MemorySpanDecoder dec(cols[2]);
    for (std::uint32_t i = 0; i < n; ++i)
      out[i].manufacturer = dec.get_string();
    require_consumed(dec);
  }
  {
    util::MemorySpanDecoder dec(cols[3]);
    for (std::uint32_t i = 0; i < n; ++i) out[i].os = dec.get_string();
    require_consumed(dec);
  }
}

void decode_columns(std::span<const std::span<const std::byte>> cols,
                    const ColumnDicts&, std::uint32_t n, SectorInfo* out,
                    ProxyPools&) {
  {
    util::MemorySpanDecoder dec(cols[0]);
    for (std::uint32_t i = 0; i < n; ++i)
      out[i].sector_id = narrow_u32(util::get_varint(dec), "sector_id");
    require_consumed(dec);
  }
  {
    util::MemorySpanDecoder dec(cols[1]);
    for (std::uint32_t i = 0; i < n; ++i)
      out[i].position.lat_deg = dec.get_f64();
    require_consumed(dec);
  }
  {
    util::MemorySpanDecoder dec(cols[2]);
    for (std::uint32_t i = 0; i < n; ++i)
      out[i].position.lon_deg = dec.get_f64();
    require_consumed(dec);
  }
}

}  // namespace

bool parse_column_dicts(util::MemorySpanDecoder& dec, bool lenient,
                        ColumnDicts& dicts) {
  const auto fail = [lenient](const std::string& what) -> bool {
    if (!lenient) throw util::ParseError("columnar log: " + what);
    return false;
  };
  for (int section = 0; section < 3; ++section) {
    if (dec.remaining() < kDictHeaderBytes)
      return fail("truncated dictionary section header");
    const std::uint32_t entries = dec.get_u32();
    const std::uint32_t byte_length = dec.get_u32();
    const std::uint32_t crc = dec.get_u32();
    if (byte_length > dec.remaining())
      return fail("truncated dictionary payload");
    const std::span<const std::byte> payload = dec.take(byte_length);
    if (util::crc32(payload) != crc)
      return fail("dictionary section failed CRC");
    try {
      util::MemorySpanDecoder body(payload);
      if (section == 0) {
        // Each host costs at least its u16 length prefix: bound the
        // reserve by the payload, not by the (unchecked) header count.
        dicts.hosts.reserve(std::min<std::size_t>(entries, byte_length / 2));
        for (std::uint32_t i = 0; i < entries; ++i)
          dicts.hosts.push_back(body.get_string());
      } else {
        if (byte_length != static_cast<std::uint64_t>(entries) * 4)
          return fail("dictionary section length does not match entry count");
        std::vector<std::uint32_t>& entries_out =
            section == 1 ? dicts.tacs : dicts.sectors;
        entries_out.reserve(entries);
        for (std::uint32_t i = 0; i < entries; ++i)
          entries_out.push_back(body.get_u32());
      }
      if (!body.at_eof())
        return fail("dictionary section has trailing bytes");
      // fail() rethrows in strict mode; lenient dictionary damage is
      // accounted as corrupt_files by the caller (file-level state).
      // wearscope-lint: allow(quarantine-pairing)
    } catch (const util::ParseError&) {
      return fail("dictionary payload decode failed");
    }
  }
  return true;
}

template <typename Record>
bool decode_column_group(std::span<const std::byte> payload,
                         std::uint32_t record_count, const ColumnDicts& dicts,
                         Record* out, ProxyPools& pools) noexcept {
  constexpr std::size_t kColumns = columnar_column_count<Record>();
  try {
    util::MemorySpanDecoder dec(payload);
    std::array<std::span<const std::byte>, kColumns> cols;
    for (std::size_t c = 0; c < kColumns; ++c) {
      const std::uint32_t byte_length = dec.get_u32();
      const std::uint32_t crc = dec.get_u32();
      cols[c] = dec.take(byte_length);
      if (util::crc32(cols[c]) != crc) return false;
    }
    if (!dec.at_eof()) return false;
    decode_columns(std::span<const std::span<const std::byte>>(cols),
                   dicts, record_count, out, pools);
    return true;
    // The caller accounts every failed group as one quarantined unit
    // (LogDecode::finalize), exactly like the v2 block decode;
    // nothing partial is kept, so no counter is touched here.
    // wearscope-lint: allow(quarantine-pairing)
  } catch (const util::ParseError&) {
    return false;
  }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

template <typename Record>
ColumnarWriteInfo write_columnar_log(std::ostream& out,
                                     std::span<const Record> records,
                                     const ProxyPools& pools,
                                     std::size_t group_records) {
  util::require(group_records > 0,
                "columnar writer: group_records must be positive");
  std::string header;
  util::BufferEncoder enc(header);
  enc.put_u32(magic_of<Record>());
  enc.put_u16(kBinaryFormatV3);
  enc.put_u16(0);  // reserved
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  if (!out) throw util::IoError("columnar write failed");

  // Pass 1: intern every dictionary value in first-appearance order.
  DictBuilder builder(pools);
  for (const Record& r : records) collect_dicts(r, builder);
  builder.dicts.hosts = builder.hosts.strings();
  write_dict_sections(out, builder.dicts);

  // Pass 2: encode and flush fixed-size row groups.
  ColumnarWriteInfo info;
  info.records = records.size();
  std::vector<std::string> cols(columnar_column_count<Record>());
  for (std::size_t at = 0; at < records.size();
       at += group_records) {
    const std::size_t n = std::min(group_records, records.size() - at);
    for (std::string& col : cols) col.clear();
    encode_columns(records.data() + at, n, builder, cols);
    std::uint64_t group_bytes = 0;
    for (const std::string& col : cols)
      group_bytes += kColumnHeaderBytes + col.size();
    util::require(group_bytes <= kMaxU32,
                  "columnar writer: row group too large");
    std::string group_header;
    util::BufferEncoder ghe(group_header);
    ghe.put_u32(static_cast<std::uint32_t>(n));
    ghe.put_u32(static_cast<std::uint32_t>(group_bytes));
    out.write(group_header.data(),
              static_cast<std::streamsize>(group_header.size()));
    for (const std::string& col : cols) {
      std::string col_header;
      util::BufferEncoder che(col_header);
      che.put_u32(static_cast<std::uint32_t>(col.size()));
      che.put_u32(util::crc32(
          std::as_bytes(std::span<const char>(col.data(), col.size()))));
      out.write(col_header.data(),
                static_cast<std::streamsize>(col_header.size()));
      out.write(col.data(), static_cast<std::streamsize>(col.size()));
    }
    if (!out) throw util::IoError("columnar write failed");
    ++info.blocks;
  }
  return info;
}

// ---------------------------------------------------------------------------
// Layout probe
// ---------------------------------------------------------------------------

template <typename Record>
ColumnarLayoutInfo probe_columnar_layout(std::span<const std::byte> body) {
  ColumnarLayoutInfo info;
  info.column_bytes.assign(columnar_column_count<Record>(), 0);
  util::MemorySpanDecoder dec(body);
  for (int section = 0; section < 3; ++section) {
    if (dec.remaining() < kDictHeaderBytes) return info;
    const std::uint32_t entries = dec.get_u32();
    const std::uint32_t byte_length = dec.get_u32();
    (void)dec.get_u32();  // crc: the probe reports layout, not validity
    if (byte_length > dec.remaining()) return info;
    (void)dec.take(byte_length);
    if (section == 0) info.dict_hosts = entries;
    if (section == 1) info.dict_tacs = entries;
    if (section == 2) info.dict_sectors = entries;
    info.dict_bytes += byte_length;
  }
  const std::span<const std::byte> chain =
      body.subspan(static_cast<std::size_t>(dec.offset()));
  const UnitIndex index = scan_units(chain, kBinaryFormatV3, /*lenient=*/true);
  info.groups = index.units.size();
  info.records = index.total_records;
  for (const LogUnit& group : index.units) {
    if (!group.header_ok) continue;
    util::MemorySpanDecoder seg(
        chain.subspan(group.payload_offset, group.byte_length));
    for (std::size_t c = 0; c < info.column_bytes.size(); ++c) {
      if (seg.remaining() < kColumnHeaderBytes) break;
      const std::uint32_t byte_length = seg.get_u32();
      (void)seg.get_u32();  // crc
      if (byte_length > seg.remaining()) break;
      (void)seg.take(byte_length);
      info.column_bytes[c] += byte_length;
    }
  }
  return info;
}

template ColumnarWriteInfo write_columnar_log<ProxyRecord>(
    std::ostream&, std::span<const ProxyRecord>, const ProxyPools&,
    std::size_t);
template ColumnarWriteInfo write_columnar_log<MmeRecord>(
    std::ostream&, std::span<const MmeRecord>, const ProxyPools&,
    std::size_t);
template ColumnarWriteInfo write_columnar_log<DeviceRecord>(
    std::ostream&, std::span<const DeviceRecord>, const ProxyPools&,
    std::size_t);
template ColumnarWriteInfo write_columnar_log<SectorInfo>(
    std::ostream&, std::span<const SectorInfo>, const ProxyPools&,
    std::size_t);
template bool decode_column_group<ProxyRecord>(
    std::span<const std::byte>, std::uint32_t, const ColumnDicts&,
    ProxyRecord*, ProxyPools&) noexcept;
template bool decode_column_group<MmeRecord>(
    std::span<const std::byte>, std::uint32_t, const ColumnDicts&,
    MmeRecord*, ProxyPools&) noexcept;
template bool decode_column_group<DeviceRecord>(
    std::span<const std::byte>, std::uint32_t, const ColumnDicts&,
    DeviceRecord*, ProxyPools&) noexcept;
template bool decode_column_group<SectorInfo>(
    std::span<const std::byte>, std::uint32_t, const ColumnDicts&,
    SectorInfo*, ProxyPools&) noexcept;
template ColumnarLayoutInfo probe_columnar_layout<ProxyRecord>(
    std::span<const std::byte>);
template ColumnarLayoutInfo probe_columnar_layout<MmeRecord>(
    std::span<const std::byte>);
template ColumnarLayoutInfo probe_columnar_layout<DeviceRecord>(
    std::span<const std::byte>);
template ColumnarLayoutInfo probe_columnar_layout<SectorInfo>(
    std::span<const std::byte>);

}  // namespace wearscope::trace
