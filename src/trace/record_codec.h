// Field-level record decoder of the v1 and v2 trace formats, plus the
// per-record-type file magic every binary version shares.
//
// v1 and v2 are read-only: v3 (trace/columnar_io) is the one version
// written, and the checked-in fixtures under tests/data/legacy are the
// compatibility contract for these decoders.  The byte layout of one
// record is defined here, over the one byte codec (util/byte_codec.h):
// all integers little-endian, strings u16-length-prefixed UTF-8.  A proxy
// record's host and URL path are stored in full and decoding interns them
// into the caller's pools.  The other record types take the pools too, so
// the generic readers call one signature, and ignore them.
#pragma once

#include <cstdint>

#include "trace/records.h"
#include "trace/string_pool.h"
#include "util/byte_codec.h"
#include "util/error.h"

namespace wearscope::trace {

/// Per-record-type magic so that a proxy log cannot be fed to an MME
/// reader.
template <typename Record>
constexpr std::uint32_t magic_of();
template <>
constexpr std::uint32_t magic_of<ProxyRecord>() {
  return 0x57505258;  // "WPRX"
}
template <>
constexpr std::uint32_t magic_of<MmeRecord>() {
  return 0x574d4d45;  // "WMME"
}
template <>
constexpr std::uint32_t magic_of<DeviceRecord>() {
  return 0x57444556;  // "WDEV"
}
template <>
constexpr std::uint32_t magic_of<SectorInfo>() {
  return 0x57534543;  // "WSEC"
}

inline void decode_record(util::MemorySpanDecoder& dec, ProxyRecord& r,
                          ProxyPools& pools) {
  r.timestamp = dec.get_i64();
  r.user_id = dec.get_u64();
  r.tac = dec.get_u32();
  const std::uint8_t proto = dec.get_u8();
  if (proto > 1) throw util::ParseError("proxy record: bad protocol byte");
  r.protocol = static_cast<Protocol>(proto);
  r.host_id = pools.hosts.intern(dec.get_string_view());
  r.path_id = pools.paths.intern(dec.get_string_view());
  r.bytes_up = dec.get_u64();
  r.bytes_down = dec.get_u64();
  r.duration_ms = dec.get_u32();
}

inline void decode_record(util::MemorySpanDecoder& dec, MmeRecord& r,
                          ProxyPools&) {
  r.timestamp = dec.get_i64();
  r.user_id = dec.get_u64();
  r.tac = dec.get_u32();
  const std::uint8_t ev = dec.get_u8();
  if (ev > 3) throw util::ParseError("mme record: bad event byte");
  r.event = static_cast<MmeEvent>(ev);
  r.sector_id = dec.get_u32();
}

inline void decode_record(util::MemorySpanDecoder& dec, DeviceRecord& r,
                          ProxyPools&) {
  r.tac = dec.get_u32();
  r.model = dec.get_string();
  r.manufacturer = dec.get_string();
  r.os = dec.get_string();
}

inline void decode_record(util::MemorySpanDecoder& dec, SectorInfo& r,
                          ProxyPools&) {
  r.sector_id = dec.get_u32();
  r.position.lat_deg = dec.get_f64();
  r.position.lon_deg = dec.get_f64();
}

}  // namespace wearscope::trace
