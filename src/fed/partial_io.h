// Partial-snapshot on-disk format (federation wire format, version 1).
//
// One partitioned `wearscope_live` process owns the users whose
// par::shard_of(user, partition_count) == partition_id and periodically
// persists its *mergeable* snapshot state — the pre-finalize tallies of
// LiveSnapshot::TallySet plus the feed-side quarantine accounting — so a
// `wearscope_merge` coordinator can federate N user-disjoint partials
// into the single-process snapshot bitwise (fed/merge.h proves it).
//
// Layout, same framing discipline as the blocked v2 trace format, written
// and read through the one byte codec (util/byte_codec.h):
//
//   [magic "WSFD" u32][version=1 u16][reserved u16]    file header
//   repeat {
//     [section_id u32][byte_length u32][crc32 u32]     section header
//     [byte_length payload bytes]
//   }
//
// The partition-header section must come first; the others follow in
// ascending id order.  Every map serializes in strictly ascending key
// order, so the bytes are a pure function of the logical state (no
// hash-iteration leakage); readers reject any other key order.  `payload_checksum` in the partition header folds every
// subsequent section's (id, crc) pair through util::splitmix64, which
// pins the section *set* — a cleanly deleted section cannot go unnoticed.
//
// Corruption discipline mirrors trace v2/v3 exactly:
//   * strict readers throw util::ParseError on any damage;
//   * lenient readers skip-and-count: a rejected file header or a damaged
//     partition header counts one `corrupt_files` and yields nothing (the
//     cover metadata is the file's meaning); any other damaged section
//     counts one `corrupt_blocks`, is zeroed, and the reader resyncs at
//     the next section header via the byte_length chain.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "live/snapshot.h"
#include "trace/quarantine.h"

namespace wearscope::live {
struct LiveOptions;
}  // namespace wearscope::live

namespace wearscope::fed {

/// File magic, little-endian "WSFD".
inline constexpr std::uint32_t kPartialMagic = 0x44465357;
/// On-disk version this writer emits.
inline constexpr std::uint16_t kPartialVersion = 1;
/// Bytes of the file header (magic + version + reserved).
inline constexpr std::size_t kPartialFileHeaderBytes = 8;
/// Bytes of one section header (id + byte_length + crc32).
inline constexpr std::size_t kSectionHeaderBytes = 12;

/// Section ids in canonical file order.
enum class SectionId : std::uint32_t {
  kPartition = 1,   ///< Cover metadata; must be the first section.
  kAdoption = 2,    ///< core::AdoptionTally.
  kActivity = 3,    ///< core::ActivityTally.
  kApps = 4,        ///< live::AppTally (incl. class mix).
  kSectors = 5,     ///< live::SectorTally.
  kSketch = 6,      ///< live::SketchTally; present iff sketch_enabled.
  kQuarantine = 7,  ///< Feed-side trace::QuarantineStats.
};

/// Human-readable section name ("?" for an unknown id).
[[nodiscard]] const char* section_name(std::uint32_t id) noexcept;

/// Cover metadata + the engine options the partial was produced under.
/// Two partials can merge only when every field but partition_id and
/// records agrees (fed/merge.h enforces it).
struct PartitionHeader {
  std::uint32_t partition_id = 0;
  std::uint32_t partition_count = 1;
  std::uint64_t epoch = 0;
  /// Records this partition's engine consumed (its owned range).
  std::uint64_t records = 0;
  /// Records the full feed offered (owned + filtered) — identical across
  /// every partition of one cover, which merge uses as a cheap
  /// same-feed check.
  std::uint64_t feed_records = 0;
  std::int32_t observation_days = 0;
  std::int32_t detailed_start_day = 0;
  std::int64_t usage_gap_s = 0;
  std::uint32_t long_tail_apps = 0;
  double signature_coverage = 1.0;
  std::uint8_t sketch_enabled = 0;
  /// splitmix64 fold over the (id, crc32) of every non-header section.
  std::uint64_t payload_checksum = 0;

  friend bool operator==(const PartitionHeader&,
                         const PartitionHeader&) = default;
};

/// One partition's mergeable snapshot state: what the file carries.
struct PartialSnapshot {
  PartitionHeader header;
  live::LiveSnapshot::TallySet tallies;
  /// Feed-side quarantine at snapshot time.  Every partition replays the
  /// same sanitized feed, so these are identical across a cover (merge
  /// checks that and carries one copy into the federated snapshot).
  trace::QuarantineStats feed_quarantine;
};

/// Packages one captured engine snapshot as the partial its partition
/// persists.  The snapshot must carry tallies (LiveOptions::
/// capture_tallies); `opt` supplies the engine options the cover check
/// compares (fed/merge.h).
[[nodiscard]] PartialSnapshot make_partial(const live::LiveSnapshot& snap,
                                           const live::LiveOptions& opt);

/// Encodes a partial snapshot into the WSFD byte layout.
[[nodiscard]] std::string encode_partial(const PartialSnapshot& partial);

/// Writes encode_partial() to `path` (via a temp file + rename, so a
/// crashed writer never leaves a torn partial behind a final name).
/// Throws util::IoError on filesystem failure.
void write_partial_file(const std::filesystem::path& path,
                        const PartialSnapshot& partial);

/// Strict decode: throws util::ParseError on any structural damage,
/// CRC mismatch, missing/duplicate section or checksum mismatch.
[[nodiscard]] PartialSnapshot decode_partial(std::span<const std::byte> bytes);

/// Lenient decode with skip-and-count quarantine (see the file comment
/// for the discipline).  Returns nullopt when the file is rejected
/// wholesale (one `corrupt_files`); otherwise sections lost individually
/// count `corrupt_blocks` and leave their tally default-initialized.
[[nodiscard]] std::optional<PartialSnapshot> read_partial_lenient(
    std::span<const std::byte> bytes, trace::QuarantineStats& quarantine);

/// Strict whole-file read through util::MappedFile.
[[nodiscard]] PartialSnapshot read_partial_file(
    const std::filesystem::path& path);

/// One section as seen by the audit scan (wearscope_inspect).
struct SectionAudit {
  std::uint32_t id = 0;
  std::uint64_t offset = 0;       ///< File offset of the section header.
  std::uint32_t byte_length = 0;  ///< Claimed payload bytes.
  bool crc_ok = false;            ///< Stored CRC matches the payload.
  bool decode_ok = false;         ///< Payload decodes as its section type.
};

/// Operator-facing audit of one candidate partial file: never throws,
/// reports whatever structure survives.
struct PartialAudit {
  std::uint64_t file_bytes = 0;
  bool header_ok = false;  ///< File header + partition section intact.
  PartitionHeader header;  ///< Valid only when header_ok.
  bool checksum_ok = false;  ///< payload_checksum matches the sections.
  std::vector<SectionAudit> sections;
  /// What a lenient read of this file would quarantine.
  trace::QuarantineStats quarantine;
};

/// Scans `bytes` as a partial-snapshot file for audits.
[[nodiscard]] PartialAudit audit_partial(std::span<const std::byte> bytes);

/// Canonical partial file name: "part<i>of<N>_epoch<E>.wsfd".
[[nodiscard]] std::string partial_file_name(std::uint32_t partition_id,
                                            std::uint32_t partition_count,
                                            std::uint64_t epoch);

}  // namespace wearscope::fed
