// Field-level codec shared by every binary trace serializer.
//
// The byte layout of one record is defined exactly once here, templated on
// the encoder/decoder type, so the v1 stream reader (trace/binary_io), the
// v2 block decode (trace/log_reader) and the zero-copy span decoder
// (util/span_decoder) can never disagree about what a record looks like on
// disk.  Encoders provide put_u8..put_string, decoders get_u8..get_string;
// all integers little-endian, strings u16-length-prefixed UTF-8.
#pragma once

#include <cstdint>

#include "trace/records.h"
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

template <typename Encoder>
void encode_record(Encoder& enc, const ProxyRecord& r) {
  enc.put_i64(r.timestamp);
  enc.put_u64(r.user_id);
  enc.put_u32(r.tac);
  enc.put_u8(static_cast<std::uint8_t>(r.protocol));
  enc.put_string(r.host);
  enc.put_string(r.url_path);
  enc.put_u64(r.bytes_up);
  enc.put_u64(r.bytes_down);
  enc.put_u32(r.duration_ms);
}

template <typename Decoder>
void decode_record(Decoder& dec, ProxyRecord& r) {
  r.timestamp = dec.get_i64();
  r.user_id = dec.get_u64();
  r.tac = dec.get_u32();
  const std::uint8_t proto = dec.get_u8();
  if (proto > 1) throw util::ParseError("proxy record: bad protocol byte");
  r.protocol = static_cast<Protocol>(proto);
  r.host = dec.get_string();
  r.url_path = dec.get_string();
  r.bytes_up = dec.get_u64();
  r.bytes_down = dec.get_u64();
  r.duration_ms = dec.get_u32();
}

template <typename Encoder>
void encode_record(Encoder& enc, const MmeRecord& r) {
  enc.put_i64(r.timestamp);
  enc.put_u64(r.user_id);
  enc.put_u32(r.tac);
  enc.put_u8(static_cast<std::uint8_t>(r.event));
  enc.put_u32(r.sector_id);
}

template <typename Decoder>
void decode_record(Decoder& dec, MmeRecord& r) {
  r.timestamp = dec.get_i64();
  r.user_id = dec.get_u64();
  r.tac = dec.get_u32();
  const std::uint8_t ev = dec.get_u8();
  if (ev > 3) throw util::ParseError("mme record: bad event byte");
  r.event = static_cast<MmeEvent>(ev);
  r.sector_id = dec.get_u32();
}

template <typename Encoder>
void encode_record(Encoder& enc, const DeviceRecord& r) {
  enc.put_u32(r.tac);
  enc.put_string(r.model);
  enc.put_string(r.manufacturer);
  enc.put_string(r.os);
}

template <typename Decoder>
void decode_record(Decoder& dec, DeviceRecord& r) {
  r.tac = dec.get_u32();
  r.model = dec.get_string();
  r.manufacturer = dec.get_string();
  r.os = dec.get_string();
}

template <typename Encoder>
void encode_record(Encoder& enc, const SectorInfo& r) {
  enc.put_u32(r.sector_id);
  enc.put_f64(r.position.lat_deg);
  enc.put_f64(r.position.lon_deg);
}

template <typename Decoder>
void decode_record(Decoder& dec, SectorInfo& r) {
  r.sector_id = dec.get_u32();
  r.position.lat_deg = dec.get_f64();
  r.position.lon_deg = dec.get_f64();
}

}  // namespace wearscope::trace
