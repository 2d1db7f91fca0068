// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte spans.
//
// Used by the framed trace formats (v2 blocks, v3 column segments; read by
// trace/log_reader) to check every payload: a flipped bit anywhere in a
// unit fails its checksum, so the lenient reader can quarantine exactly
// one unit and resync at the next header instead of abandoning the whole
// file tail.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace wearscope::util {

/// CRC-32 of `bytes` (init 0xFFFFFFFF, final xor 0xFFFFFFFF — the zlib
/// convention, so crc32({}) == 0).
[[nodiscard]] std::uint32_t crc32(std::span<const std::byte> bytes) noexcept;

/// Incremental form: feed `crc32_update(seed, chunk)` the running value
/// (start from 0) to checksum data that arrives in pieces.
[[nodiscard]] std::uint32_t crc32_update(
    std::uint32_t crc, std::span<const std::byte> bytes) noexcept;

}  // namespace wearscope::util
