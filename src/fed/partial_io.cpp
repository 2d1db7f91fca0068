#include "fed/partial_io.h"

#include <algorithm>
#include <fstream>
#include <type_traits>
#include <utility>

#include "live/engine.h"
#include "util/byte_codec.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/mapped_file.h"
#include "util/rng.h"

namespace wearscope::fed {

namespace {

/// Section ids every partial must carry (kSketch joins when enabled).
constexpr std::uint32_t kRequiredSections[] = {
    static_cast<std::uint32_t>(SectionId::kAdoption),
    static_cast<std::uint32_t>(SectionId::kActivity),
    static_cast<std::uint32_t>(SectionId::kApps),
    static_cast<std::uint32_t>(SectionId::kSectors),
    static_cast<std::uint32_t>(SectionId::kQuarantine),
};

[[nodiscard]] std::uint64_t fold_checksum(std::uint64_t fold, std::uint32_t id,
                                          std::uint32_t crc) {
  return util::splitmix64(fold ^ ((std::uint64_t{id} << 32) | crc));
}

[[nodiscard]] std::uint32_t payload_crc(std::string_view payload) {
  return util::crc32(std::as_bytes(std::span(payload.data(), payload.size())));
}

// --- Section layouts -----------------------------------------------------
// Each section's layout is ONE overload of layout(io, value), a template
// over SectionWriter (value by const reference, appended) or SectionReader
// (value default-constructed, then filled), listing its fields once.
// Readers throw util::ParseError on damage (MemorySpanDecoder does for
// short payloads); checks only a reader needs sit next to the field list
// under `if constexpr (kReads<IO>)`.

using u8 = std::uint8_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i64 = std::int64_t;
using f64 = double;

struct SectionWriter {
  util::BufferEncoder enc;
};

struct SectionReader {
  util::MemorySpanDecoder dec;
};

template <typename IO>
inline constexpr bool kReads = std::is_same_v<IO, SectionReader>;

/// The value a layout visits: mutable for a reader, const for a writer.
template <typename IO, typename T>
using Ref = std::conditional_t<kReads<IO>, T&, const T&>;

/// Smallest encoding of one `Wire` value (a string is its u16 prefix).
template <typename Wire>
inline constexpr std::size_t kWireBytes =
    std::is_same_v<Wire, std::string> ? 2 : sizeof(Wire);

/// One field stored as `Wire` on disk.
template <typename Wire, typename T>
void field(SectionWriter& w, const T& v) {
  if constexpr (std::is_same_v<Wire, std::string>) {
    w.enc.put_string(v);
  } else if constexpr (std::is_same_v<Wire, f64>) {
    w.enc.put_f64(v);
  } else if constexpr (std::is_same_v<Wire, i64>) {
    w.enc.put_i64(static_cast<i64>(v));
  } else if constexpr (std::is_same_v<Wire, u64>) {
    w.enc.put_u64(static_cast<u64>(v));
  } else if constexpr (std::is_same_v<Wire, u32>) {
    w.enc.put_u32(static_cast<u32>(v));
  } else {
    static_assert(std::is_same_v<Wire, u8>);
    w.enc.put_u8(static_cast<u8>(v));
  }
}

template <typename Wire, typename T>
void field(SectionReader& r, T& v) {
  if constexpr (std::is_same_v<Wire, std::string>) {
    v = r.dec.get_string();
  } else if constexpr (std::is_same_v<Wire, f64>) {
    v = r.dec.get_f64();
  } else if constexpr (std::is_same_v<Wire, i64>) {
    v = static_cast<T>(r.dec.get_i64());
  } else if constexpr (std::is_same_v<Wire, u64>) {
    v = static_cast<T>(r.dec.get_u64());
  } else if constexpr (std::is_same_v<Wire, u32>) {
    v = static_cast<T>(r.dec.get_u32());
  } else {
    static_assert(std::is_same_v<Wire, u8>);
    v = static_cast<T>(r.dec.get_u8());
  }
}

/// u64 entry count of a sequence.  A reader rejects a count whose entries
/// (each at least `min_bytes` long) cannot fit in the rest of the payload,
/// before anything is allocated for them.
u64 length(SectionWriter& w, u64 n, std::size_t /*min_bytes*/,
           const char* /*what*/) {
  w.enc.put_u64(n);
  return n;
}

u64 length(SectionReader& r, u64 /*n*/, std::size_t min_bytes,
           const char* what) {
  const u64 n = r.dec.get_u64();
  if (n > r.dec.remaining() / min_bytes) {
    throw util::ParseError(std::string("partial snapshot: impossible ") +
                           what + " length");
  }
  return n;
}

/// Length-prefixed vector of `Wire` fields.
template <typename Wire, typename IO, typename Vec>
void sequence(IO& io, Vec& v, const char* what) {
  const u64 n = length(io, v.size(), kWireBytes<Wire>, what);
  if constexpr (kReads<IO>) v.resize(n);
  for (auto& e : v) field<Wire>(io, e);
}

template <typename Map>
inline constexpr bool kIsMap = requires { typename Map::mapped_type; };

template <typename Map>
inline constexpr bool kIsOrdered = requires { typename Map::key_compare; };

/// Mapped values of a set: nothing to visit.
struct NoFields {
  template <typename T>
  void operator()(T& /*unused*/) const {}
};

/// Length-prefixed map (or set) keyed by `KeyWire` fields, in strictly
/// ascending key order; `entry` visits each mapped value.  The bytes are a
/// function of the logical state alone, never of hash iteration.
template <typename KeyWire, typename Map, typename Entry = NoFields>
void keyed(SectionWriter& w, const Map& map, const char* what,
           Entry entry = {}) {
  (void)length(w, map.size(), kWireBytes<KeyWire>, what);
  if constexpr (!kIsMap<Map>) {
    for (const auto& key : map) field<KeyWire>(w, key);
  } else if constexpr (kIsOrdered<Map>) {
    for (const auto& [key, value] : map) {
      field<KeyWire>(w, key);
      entry(value);
    }
  } else {
    std::vector<const typename Map::value_type*> sorted;
    sorted.reserve(map.size());
    // Collection is order-free; the sort below canonicalizes.
    // wearscope-lint: allow(unordered-flow)
    for (const auto& element : map) sorted.push_back(&element);
    std::sort(sorted.begin(), sorted.end(),
              [](const auto* a, const auto* b) { return a->first < b->first; });
    for (const auto* element : sorted) {
      field<KeyWire>(w, element->first);
      entry(element->second);
    }
  }
}

/// Reader twin: rejects a key that is not strictly greater than the one
/// before it, so every logical state has exactly one accepted encoding.
template <typename KeyWire, typename Map, typename Entry = NoFields>
void keyed(SectionReader& r, Map& map, const char* what, Entry entry = {}) {
  const u64 n = length(r, 0, kWireBytes<KeyWire>, what);
  typename Map::key_type prev{};
  for (u64 i = 0; i < n; ++i) {
    typename Map::key_type key{};
    field<KeyWire>(r, key);
    if (i > 0 && !(prev < key)) {
      throw util::ParseError(std::string("partial snapshot: ") + what +
                             " keys not strictly ascending");
    }
    prev = key;
    if constexpr (!kIsMap<Map>) {
      map.insert(map.end(), key);
    } else if constexpr (kIsOrdered<Map>) {
      entry(map.try_emplace(map.end(), key)->second);
    } else {
      entry(map.try_emplace(key).first->second);
    }
  }
}

template <typename IO>
void layout(IO& io, Ref<IO, PartitionHeader> h) {
  field<u32>(io, h.partition_id);
  field<u32>(io, h.partition_count);
  field<u64>(io, h.epoch);
  field<u64>(io, h.records);
  field<u64>(io, h.feed_records);
  field<i64>(io, h.observation_days);
  field<i64>(io, h.detailed_start_day);
  field<i64>(io, h.usage_gap_s);
  field<u32>(io, h.long_tail_apps);
  field<f64>(io, h.signature_coverage);
  field<u8>(io, h.sketch_enabled);
  field<u64>(io, h.payload_checksum);
  if constexpr (kReads<IO>) {
    if (h.partition_count == 0 || h.partition_id >= h.partition_count) {
      throw util::ParseError("partial snapshot: partition id out of range");
    }
  }
}

template <typename IO>
void layout(IO& io, Ref<IO, core::AdoptionTally> t) {
  field<i64>(io, t.observation_days);
  field<u64>(io, t.consumed);
  sequence<u64>(io, t.daily_counts, "daily-count");
  field<u64>(io, t.ever_registered);
  field<u64>(io, t.ever_transacted);
  field<u64>(io, t.first_week);
  field<u64>(io, t.last_week);
  field<u64>(io, t.both_weeks);
  if constexpr (kReads<IO>) {
    // finalize() indexes the first and last week of daily_counts by the
    // window, so a tally whose counts do not cover it is damage.
    if (t.daily_counts.size() != static_cast<u64>(t.observation_days)) {
      throw util::ParseError(
          "partial snapshot: adoption daily counts do not match its window");
    }
  }
}

template <typename IO>
void layout(IO& io, Ref<IO, core::ActivityTally> t) {
  field<i64>(io, t.observation_days);
  field<i64>(io, t.detailed_start_day);
  keyed<u64>(io, t.users, "user", [&io](auto& act) {
    keyed<i64>(io, act.day_hours, "day",
               [&io](auto& hours) { keyed<i64>(io, hours, "hour"); });
    keyed<i64>(io, act.hour_txns, "hour-txn",
               [&io](auto& txns) { field<f64>(io, txns); });
    keyed<i64>(io, act.hour_bytes, "hour-byte",
               [&io](auto& bytes) { field<f64>(io, bytes); });
  });
  keyed<u64>(io, t.first_seen, "first-seen",
             [&io](auto& seq) { field<u64>(io, seq); });
  sequence<f64>(io, t.txn_sizes, "txn-size");
}

template <typename IO>
void layout(IO& io, Ref<IO, live::AppTally> t) {
  for (auto& txns : t.class_txns) field<u64>(io, txns);
  keyed<u32>(io, t.apps, "app", [&io](auto& c) {
    field<u64>(io, c.transactions);
    field<u64>(io, c.bytes);
    field<u64>(io, c.usages);
    field<u64>(io, c.distinct_users);
  });
}

template <typename IO>
void layout(IO& io, Ref<IO, live::SectorTally> t) {
  keyed<u32>(io, t.sectors, "sector", [&io](auto& c) {
    field<u64>(io, c.events);
    field<u64>(io, c.attaches);
    field<u64>(io, c.handovers);
    field<u64>(io, c.wearable_events);
    field<u64>(io, c.distinct_users);
    field<u64>(io, c.wearable_users);
  });
}

/// The sketch section's wire form: what each sketch exposes for
/// serialization, rebuilt into live sketches by the reader.
struct SketchState {
  std::vector<u8> registered_users;
  std::vector<u8> transacting_users;
  sketch::TDigestState digest;
  u64 capacity = 0;
  u64 depth = 0;
  u64 width = 0;
  std::vector<u64> table;
  std::vector<std::pair<std::string, u64>> candidates;
};

template <typename IO>
void layout(IO& io, Ref<IO, live::SketchTally> t) {
  SketchState s;
  if constexpr (!kReads<IO>) {
    const sketch::CountMin& counts = t.apps.counters();
    s = {t.registered_users.registers(), t.transacting_users.registers(),
         t.txn_sizes.state(),           t.apps.capacity(),
         counts.depth(),                counts.width(),
         counts.table(),                t.apps.sorted_candidates()};
  }
  sequence<u8>(io, s.registered_users, "HLL register");
  sequence<u8>(io, s.transacting_users, "HLL register");
  field<f64>(io, s.digest.compression);
  field<u8>(io, s.digest.empty);
  field<f64>(io, s.digest.min);
  field<f64>(io, s.digest.max);
  const u64 centroids = length(io, s.digest.means.size(), 16, "centroid");
  if constexpr (kReads<IO>) {
    s.digest.means.resize(centroids);
    s.digest.weights.resize(centroids);
  }
  for (u64 i = 0; i < centroids; ++i) {
    field<f64>(io, s.digest.means[i]);
    field<f64>(io, s.digest.weights[i]);
  }
  field<u64>(io, s.capacity);
  field<u64>(io, s.depth);
  field<u64>(io, s.width);
  if constexpr (kReads<IO>) {
    if (s.depth > 64 || s.width > (u64{1} << 24) ||
        s.depth * s.width > io.dec.remaining() / 8) {
      throw util::ParseError("partial snapshot: impossible count-min shape");
    }
    s.table.resize(s.depth * s.width);
  }
  for (auto& counter : s.table) field<u64>(io, counter);
  const u64 candidates = length(
      io, s.candidates.size(), kWireBytes<std::string> + 8, "candidate");
  if constexpr (kReads<IO>) s.candidates.resize(candidates);
  for (auto& [key, count] : s.candidates) {
    field<std::string>(io, key);
    field<u64>(io, count);
  }
  if constexpr (kReads<IO>) {
    try {
      t.enabled = true;
      t.registered_users =
          sketch::Hll::from_registers(std::move(s.registered_users));
      t.transacting_users =
          sketch::Hll::from_registers(std::move(s.transacting_users));
      t.txn_sizes = sketch::TDigest::from_state(s.digest);
      t.apps = sketch::HeavyHitters::from_state(
          static_cast<std::size_t>(s.capacity),
          sketch::CountMin::from_table(static_cast<std::size_t>(s.depth),
                                       static_cast<std::size_t>(s.width),
                                       std::move(s.table)),
          std::move(s.candidates));
    } catch (const util::ConfigError& e) {
      throw util::ParseError(e.what());
    }
  }
}

template <typename IO>
void layout(IO& io, Ref<IO, trace::QuarantineStats> q) {
  for (const trace::QuarantineCounter& c : trace::kQuarantineCounters) {
    field<u64>(io, q.*c.member);
  }
}

template <typename T>
[[nodiscard]] std::string write_section(const T& value) {
  std::string payload;
  SectionWriter w{util::BufferEncoder(payload)};
  layout(w, value);
  return payload;
}

/// Decodes section `id` whole (callers assign the result only on success,
/// so a lenient reader leaves a damaged section's tally default-initialized).
template <typename T>
[[nodiscard]] T read_section(std::span<const std::byte> payload,
                             std::uint32_t id) {
  SectionReader r{util::MemorySpanDecoder(payload)};
  T value;
  layout(r, value);
  if (!r.dec.at_eof()) {
    throw util::ParseError(std::string("partial snapshot: trailing bytes in ") +
                           section_name(id) + " section");
  }
  return value;
}

[[nodiscard]] PartitionHeader decode_header(std::span<const std::byte> bytes) {
  return read_section<PartitionHeader>(
      bytes, static_cast<std::uint32_t>(SectionId::kPartition));
}

/// Applies one decoded non-header section to `out`, whose header is
/// already decoded.  Throws ParseError on a malformed payload.
void apply_section(std::uint32_t id, std::span<const std::byte> payload,
                   PartialSnapshot& out) {
  switch (static_cast<SectionId>(id)) {
    case SectionId::kAdoption: {
      core::AdoptionTally adoption =
          read_section<core::AdoptionTally>(payload, id);
      if (adoption.observation_days != out.header.observation_days) {
        throw util::ParseError(
            "partial snapshot: adoption window differs from the partition "
            "header's");
      }
      out.tallies.adoption = std::move(adoption);
      break;
    }
    case SectionId::kActivity:
      out.tallies.activity = read_section<core::ActivityTally>(payload, id);
      break;
    case SectionId::kApps:
      out.tallies.apps = read_section<live::AppTally>(payload, id);
      break;
    case SectionId::kSectors:
      out.tallies.sectors = read_section<live::SectorTally>(payload, id);
      break;
    case SectionId::kSketch:
      out.tallies.sketch = read_section<live::SketchTally>(payload, id);
      break;
    case SectionId::kQuarantine:
      out.feed_quarantine = read_section<trace::QuarantineStats>(payload, id);
      break;
    default:
      break;  // Unknown ids skip silently (forward compatibility).
  }
}

/// One chain entry as located by the section scan.
struct SectionEntry {
  std::uint32_t id = 0;
  std::uint64_t offset = 0;  ///< File offset of the section header.
  std::uint32_t crc = 0;
  std::span<const std::byte> payload;
  bool crc_ok = false;
};

/// Scans the section chain after the file header.  `broken_tail` is set
/// when the chain ends mid-header or mid-payload (the remaining bytes are
/// unreadable); entries before the break are still returned.
struct SectionScan {
  std::vector<SectionEntry> entries;
  bool broken_tail = false;
};

[[nodiscard]] SectionScan scan_sections(std::span<const std::byte> bytes) {
  SectionScan scan;
  std::size_t offset = kPartialFileHeaderBytes;
  while (offset < bytes.size()) {
    if (bytes.size() - offset < kSectionHeaderBytes) {
      scan.broken_tail = true;
      break;
    }
    util::MemorySpanDecoder dec(bytes.subspan(offset, kSectionHeaderBytes));
    SectionEntry entry;
    entry.id = dec.get_u32();
    const std::uint32_t byte_length = dec.get_u32();
    entry.crc = dec.get_u32();
    entry.offset = offset;
    offset += kSectionHeaderBytes;
    if (bytes.size() - offset < byte_length) {
      scan.broken_tail = true;
      break;
    }
    entry.payload = bytes.subspan(offset, byte_length);
    offset += byte_length;
    entry.crc_ok = util::crc32(entry.payload) == entry.crc;
    scan.entries.push_back(entry);
  }
  return scan;
}

/// Validates the 8-byte file header.  Returns false on a short buffer,
/// wrong magic or unknown version.
[[nodiscard]] bool check_file_header(std::span<const std::byte> bytes) {
  if (bytes.size() < kPartialFileHeaderBytes) return false;
  util::MemorySpanDecoder dec(bytes.first(kPartialFileHeaderBytes));
  if (dec.get_u32() != kPartialMagic) return false;
  if (dec.get_u16() != kPartialVersion) return false;
  (void)dec.get_u16();  // reserved
  return true;
}

[[nodiscard]] std::uint64_t checksum_of(
    const std::vector<SectionEntry>& entries) {
  std::uint64_t fold = kPartialMagic;
  for (const SectionEntry& entry : entries) {
    if (entry.id == static_cast<std::uint32_t>(SectionId::kPartition)) {
      continue;
    }
    fold = fold_checksum(fold, entry.id, entry.crc);
  }
  return fold;
}

/// The ids a complete partial must carry besides the partition header.
[[nodiscard]] std::vector<std::uint32_t> expected_sections(
    const PartitionHeader& header) {
  std::vector<std::uint32_t> expected(std::begin(kRequiredSections),
                                      std::end(kRequiredSections));
  if (header.sketch_enabled != 0) {
    expected.push_back(static_cast<std::uint32_t>(SectionId::kSketch));
  }
  std::sort(expected.begin(), expected.end());
  return expected;
}

}  // namespace

const char* section_name(std::uint32_t id) noexcept {
  switch (static_cast<SectionId>(id)) {
    case SectionId::kPartition: return "partition";
    case SectionId::kAdoption: return "adoption";
    case SectionId::kActivity: return "activity";
    case SectionId::kApps: return "apps";
    case SectionId::kSectors: return "sectors";
    case SectionId::kSketch: return "sketch";
    case SectionId::kQuarantine: return "quarantine";
  }
  return "?";
}

std::string encode_partial(const PartialSnapshot& partial) {
  // Encode the non-header sections first: the partition header carries
  // their checksum fold, so it is sealed last.
  struct Pending {
    std::uint32_t id = 0;
    std::string payload;
  };
  std::vector<Pending> sections;
  const auto add = [&sections](SectionId id, const auto& value) {
    sections.push_back({static_cast<std::uint32_t>(id), write_section(value)});
  };
  add(SectionId::kAdoption, partial.tallies.adoption);
  add(SectionId::kActivity, partial.tallies.activity);
  add(SectionId::kApps, partial.tallies.apps);
  add(SectionId::kSectors, partial.tallies.sectors);
  if (partial.header.sketch_enabled != 0) {
    add(SectionId::kSketch, partial.tallies.sketch);
  }
  add(SectionId::kQuarantine, partial.feed_quarantine);

  std::uint64_t fold = kPartialMagic;
  std::vector<std::uint32_t> crcs;
  crcs.reserve(sections.size());
  for (const Pending& section : sections) {
    const std::uint32_t crc = payload_crc(section.payload);
    crcs.push_back(crc);
    fold = fold_checksum(fold, section.id, crc);
  }

  PartitionHeader header = partial.header;
  header.payload_checksum = fold;
  const std::string header_payload = write_section(header);

  std::string out;
  util::BufferEncoder enc(out);
  enc.put_u32(kPartialMagic);
  enc.put_u16(kPartialVersion);
  enc.put_u16(0);  // reserved
  const auto frame = [&enc, &out](std::uint32_t id, const std::string& payload,
                                  std::uint32_t crc) {
    enc.put_u32(id);
    enc.put_u32(static_cast<std::uint32_t>(payload.size()));
    enc.put_u32(crc);
    out.append(payload);
  };
  frame(static_cast<std::uint32_t>(SectionId::kPartition), header_payload,
        payload_crc(header_payload));
  for (std::size_t i = 0; i < sections.size(); ++i) {
    frame(sections[i].id, sections[i].payload, crcs[i]);
  }
  return out;
}

void write_partial_file(const std::filesystem::path& path,
                        const PartialSnapshot& partial) {
  const std::string bytes = encode_partial(partial);
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw util::IoError("cannot open partial snapshot file " + tmp.string());
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      throw util::IoError("short write to partial snapshot file " +
                          tmp.string());
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw util::IoError("cannot publish partial snapshot file " +
                        path.string() + ": " + ec.message());
  }
}

PartialSnapshot decode_partial(std::span<const std::byte> bytes) {
  if (!check_file_header(bytes)) {
    throw util::ParseError("partial snapshot: bad file header");
  }
  const SectionScan scan = scan_sections(bytes);
  if (scan.broken_tail) {
    throw util::ParseError("partial snapshot: truncated section chain");
  }
  if (scan.entries.empty()) {
    throw util::ParseError("partial snapshot: no sections");
  }
  const SectionEntry& first = scan.entries.front();
  if (first.id != static_cast<std::uint32_t>(SectionId::kPartition)) {
    throw util::ParseError(
        "partial snapshot: partition header is not the first section");
  }
  std::uint32_t prev_id = 0;
  for (const SectionEntry& entry : scan.entries) {
    if (!entry.crc_ok) {
      throw util::ParseError(std::string("partial snapshot: CRC mismatch in ") +
                             section_name(entry.id) + " section");
    }
    if (entry.id <= prev_id) {
      throw util::ParseError(
          "partial snapshot: duplicate or out-of-order section");
    }
    prev_id = entry.id;
  }

  PartialSnapshot out;
  out.header = decode_header(first.payload);
  if (checksum_of(scan.entries) != out.header.payload_checksum) {
    throw util::ParseError("partial snapshot: payload checksum mismatch");
  }
  std::vector<std::uint32_t> present;
  for (std::size_t i = 1; i < scan.entries.size(); ++i) {
    apply_section(scan.entries[i].id, scan.entries[i].payload, out);
    present.push_back(scan.entries[i].id);
  }
  for (const std::uint32_t id : expected_sections(out.header)) {
    if (std::find(present.begin(), present.end(), id) == present.end()) {
      throw util::ParseError(std::string("partial snapshot: missing ") +
                             section_name(id) + " section");
    }
  }
  return out;
}

std::optional<PartialSnapshot> read_partial_lenient(
    std::span<const std::byte> bytes, trace::QuarantineStats& quarantine) {
  if (!check_file_header(bytes)) {
    quarantine.corrupt_files += 1;
    return std::nullopt;
  }
  const SectionScan scan = scan_sections(bytes);

  // The partition header is the file's meaning: without an intact,
  // decodable copy the cover metadata cannot be trusted and the whole
  // file is rejected.
  PartialSnapshot out;
  bool have_header = false;
  for (const SectionEntry& entry : scan.entries) {
    if (entry.id != static_cast<std::uint32_t>(SectionId::kPartition)) {
      continue;
    }
    if (!entry.crc_ok) break;
    try {
      out.header = decode_header(entry.payload);
      have_header = true;
      // Accounted below: !have_header counts one corrupt_files.
      // wearscope-lint: allow(quarantine-pairing)
    } catch (const util::ParseError&) {
    }
    break;
  }
  if (!have_header) {
    quarantine.corrupt_files += 1;
    return std::nullopt;
  }

  // Recover every other section independently: damage is section-granular
  // and the byte_length chain resyncs past a bad payload.
  std::vector<std::uint32_t> recovered;
  std::uint64_t damaged = 0;
  for (const SectionEntry& entry : scan.entries) {
    if (entry.id == static_cast<std::uint32_t>(SectionId::kPartition)) {
      continue;
    }
    const bool duplicate =
        std::find(recovered.begin(), recovered.end(), entry.id) !=
        recovered.end();
    if (duplicate) continue;  // First instance wins.
    if (!entry.crc_ok) {
      damaged += 1;
      continue;
    }
    try {
      apply_section(entry.id, entry.payload, out);
      recovered.push_back(entry.id);
      // `damaged` folds into quarantine.corrupt_blocks below.
      // wearscope-lint: allow(quarantine-pairing)
    } catch (const util::ParseError&) {
      damaged += 1;
    }
  }
  // Expected sections that never decoded count one block each (the
  // damaged instances above are those same losses, so take the max to
  // avoid double counting a section that is both present and broken).
  std::uint64_t missing = 0;
  for (const std::uint32_t id : expected_sections(out.header)) {
    if (std::find(recovered.begin(), recovered.end(), id) == recovered.end()) {
      missing += 1;
    }
  }
  const std::uint64_t lost = std::max(missing, damaged);
  quarantine.corrupt_blocks += lost;

  if (lost == 0 && !scan.broken_tail &&
      checksum_of(scan.entries) != out.header.payload_checksum) {
    // Sections all verify individually but the *set* is not the one the
    // writer sealed (e.g. a section was cleanly spliced out and the
    // header re-written, or mixed files): reject — the cover cannot be
    // trusted.
    quarantine.corrupt_files += 1;
    return std::nullopt;
  }
  if (scan.broken_tail && lost == 0) {
    // Trailing garbage after every expected section was recovered.
    quarantine.corrupt_blocks += 1;
  }
  return out;
}

PartialSnapshot read_partial_file(const std::filesystem::path& path) {
  const util::MappedFile file(path);
  return decode_partial(file.bytes());
}

PartialAudit audit_partial(std::span<const std::byte> bytes) {
  PartialAudit audit;
  audit.file_bytes = bytes.size();
  trace::QuarantineStats quarantine;
  const std::optional<PartialSnapshot> partial =
      read_partial_lenient(bytes, quarantine);
  audit.quarantine = quarantine;
  if (!check_file_header(bytes)) return audit;

  const SectionScan scan = scan_sections(bytes);
  // Sections are judged against the first partition header that decodes
  // (the adoption tally must match its window).
  PartialSnapshot scratch;
  bool have_header = false;
  for (const SectionEntry& entry : scan.entries) {
    SectionAudit section;
    section.id = entry.id;
    section.offset = entry.offset;
    section.byte_length = static_cast<std::uint32_t>(entry.payload.size());
    section.crc_ok = entry.crc_ok;
    if (entry.crc_ok) {
      try {
        if (entry.id == static_cast<std::uint32_t>(SectionId::kPartition)) {
          const PartitionHeader header = decode_header(entry.payload);
          if (!have_header) scratch.header = header;
          have_header = true;
        } else {
          apply_section(entry.id, entry.payload, scratch);
        }
        section.decode_ok = true;
        // Audit accounting rides in audit.quarantine (the lenient read
        // above); this probe only fills decode_ok.
        // wearscope-lint: allow(quarantine-pairing)
      } catch (const util::ParseError&) {
      }
    }
    audit.sections.push_back(section);
  }
  if (partial.has_value()) {
    audit.header_ok = true;
    audit.header = partial->header;
    audit.checksum_ok =
        checksum_of(scan.entries) == partial->header.payload_checksum;
  }
  return audit;
}

PartialSnapshot make_partial(const live::LiveSnapshot& snap,
                             const live::LiveOptions& opt) {
  util::ensure(snap.tallies != nullptr,
               "make_partial requires capture_tallies snapshots");
  PartialSnapshot partial;
  partial.header.partition_id = static_cast<std::uint32_t>(opt.partition_id);
  partial.header.partition_count =
      static_cast<std::uint32_t>(opt.partition_count);
  partial.header.epoch = snap.epoch;
  partial.header.records = snap.records;
  partial.header.feed_records = snap.feed_records;
  partial.header.observation_days = opt.observation_days;
  partial.header.detailed_start_day = opt.detailed_start_day;
  partial.header.usage_gap_s = opt.usage_gap_s;
  partial.header.long_tail_apps = opt.long_tail_apps;
  partial.header.signature_coverage = opt.signature_coverage;
  partial.header.sketch_enabled = opt.sketch_aggregates ? 1 : 0;
  partial.tallies = *snap.tallies;
  partial.feed_quarantine = snap.quarantine;
  return partial;
}

std::string partial_file_name(std::uint32_t partition_id,
                              std::uint32_t partition_count,
                              std::uint64_t epoch) {
  return "part" + std::to_string(partition_id) + "of" +
         std::to_string(partition_count) + "_epoch" + std::to_string(epoch) +
         ".wsfd";
}

}  // namespace wearscope::fed
