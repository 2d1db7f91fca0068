// Field-level record codec shared by the v1 and v2 trace formats.
//
// The byte layout of one record is defined exactly once here, over the one
// byte codec (util/byte_codec.h), so the writers (trace/block_io) and the
// reader (trace/log_reader) can never disagree about what a record looks
// like on disk.  All integers little-endian, strings u16-length-prefixed
// UTF-8.  A proxy record's host and URL path are written out in full:
// encoding resolves its ids through the caller's pools, decoding interns
// the strings into them.  The other record types take the pools too, so
// the generic readers and writers call one signature, and ignore them.
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

inline void encode_record(util::BufferEncoder& enc, const ProxyRecord& r,
                          const ProxyPools& pools) {
  enc.put_i64(r.timestamp);
  enc.put_u64(r.user_id);
  enc.put_u32(r.tac);
  enc.put_u8(static_cast<std::uint8_t>(r.protocol));
  enc.put_string(pools.hosts[r.host_id]);
  enc.put_string(pools.paths[r.path_id]);
  enc.put_u64(r.bytes_up);
  enc.put_u64(r.bytes_down);
  enc.put_u32(r.duration_ms);
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

inline void encode_record(util::BufferEncoder& enc, const MmeRecord& r,
                          const ProxyPools&) {
  enc.put_i64(r.timestamp);
  enc.put_u64(r.user_id);
  enc.put_u32(r.tac);
  enc.put_u8(static_cast<std::uint8_t>(r.event));
  enc.put_u32(r.sector_id);
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

inline void encode_record(util::BufferEncoder& enc, const DeviceRecord& r,
                          const ProxyPools&) {
  enc.put_u32(r.tac);
  enc.put_string(r.model);
  enc.put_string(r.manufacturer);
  enc.put_string(r.os);
}

inline void decode_record(util::MemorySpanDecoder& dec, DeviceRecord& r,
                          ProxyPools&) {
  r.tac = dec.get_u32();
  r.model = dec.get_string();
  r.manufacturer = dec.get_string();
  r.os = dec.get_string();
}

inline void encode_record(util::BufferEncoder& enc, const SectorInfo& r,
                          const ProxyPools&) {
  enc.put_u32(r.sector_id);
  enc.put_f64(r.position.lat_deg);
  enc.put_f64(r.position.lon_deg);
}

inline void decode_record(util::MemorySpanDecoder& dec, SectorInfo& r,
                          ProxyPools&) {
  r.sector_id = dec.get_u32();
  r.position.lat_deg = dec.get_f64();
  r.position.lon_deg = dec.get_f64();
}

}  // namespace wearscope::trace
