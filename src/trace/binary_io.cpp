#include "trace/binary_io.h"

#include <array>
#include <bit>
#include <optional>
#include <utility>

#include "trace/record_codec.h"
#include "util/error.h"

namespace wearscope::trace {

void BinaryEncoder::put_u8(std::uint8_t v) {
  out_->put(static_cast<char>(v));
  if (!*out_) throw util::IoError("binary write failed");
}

void BinaryEncoder::put_u16(std::uint16_t v) {
  const std::array<char, 2> b = {static_cast<char>(v & 0xff),
                                 static_cast<char>((v >> 8) & 0xff)};
  out_->write(b.data(), b.size());
  if (!*out_) throw util::IoError("binary write failed");
}

void BinaryEncoder::put_u32(std::uint32_t v) {
  std::array<char, 4> b{};
  for (int i = 0; i < 4; ++i) b[static_cast<std::size_t>(i)] =
      static_cast<char>((v >> (8 * i)) & 0xff);
  out_->write(b.data(), b.size());
  if (!*out_) throw util::IoError("binary write failed");
}

void BinaryEncoder::put_u64(std::uint64_t v) {
  std::array<char, 8> b{};
  for (int i = 0; i < 8; ++i) b[static_cast<std::size_t>(i)] =
      static_cast<char>((v >> (8 * i)) & 0xff);
  out_->write(b.data(), b.size());
  if (!*out_) throw util::IoError("binary write failed");
}

void BinaryEncoder::put_i64(std::int64_t v) {
  put_u64(static_cast<std::uint64_t>(v));
}

void BinaryEncoder::put_f64(double v) {
  put_u64(std::bit_cast<std::uint64_t>(v));
}

void BinaryEncoder::put_string(const std::string& s) {
  util::require(s.size() <= 0xffff, "binary string field too long");
  put_u16(static_cast<std::uint16_t>(s.size()));
  out_->write(s.data(), static_cast<std::streamsize>(s.size()));
  if (!*out_) throw util::IoError("binary write failed");
}

std::uint8_t BinaryDecoder::get_u8() {
  const int c = in_->get();
  if (c == std::char_traits<char>::eof())
    throw util::ParseError("binary log: truncated record at byte " +
                           std::to_string(offset_));
  ++offset_;
  return static_cast<std::uint8_t>(c);
}

std::uint16_t BinaryDecoder::get_u16() {
  std::array<char, 2> b{};
  in_->read(b.data(), b.size());
  if (in_->gcount() != 2)
    throw util::ParseError("binary log: truncated u16 at byte " +
                           std::to_string(offset_));
  offset_ += 2;
  return static_cast<std::uint16_t>(
      static_cast<std::uint8_t>(b[0]) |
      (static_cast<std::uint16_t>(static_cast<std::uint8_t>(b[1])) << 8));
}

std::uint32_t BinaryDecoder::get_u32() {
  std::array<char, 4> b{};
  in_->read(b.data(), b.size());
  if (in_->gcount() != 4)
    throw util::ParseError("binary log: truncated u32 at byte " +
                           std::to_string(offset_));
  offset_ += 4;
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i)
    v = (v << 8) |
        static_cast<std::uint8_t>(b[static_cast<std::size_t>(i)]);
  return v;
}

std::uint64_t BinaryDecoder::get_u64() {
  std::array<char, 8> b{};
  in_->read(b.data(), b.size());
  if (in_->gcount() != 8)
    throw util::ParseError("binary log: truncated u64 at byte " +
                           std::to_string(offset_));
  offset_ += 8;
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i)
    v = (v << 8) |
        static_cast<std::uint8_t>(b[static_cast<std::size_t>(i)]);
  return v;
}

std::int64_t BinaryDecoder::get_i64() {
  return static_cast<std::int64_t>(get_u64());
}

double BinaryDecoder::get_f64() { return std::bit_cast<double>(get_u64()); }

std::string BinaryDecoder::get_string() {
  const std::uint64_t prefix_at = offset_;
  const std::uint16_t len = get_u16();
  if (len == 0) return {};
  // Clamp the claimed length against what the stream can actually deliver
  // before allocating: a corrupt prefix must fail cleanly, not commit
  // 64 KiB for a 5-byte tail.  Seekable streams (files, stringstreams —
  // every bundle source) know their remaining size; for the rare
  // non-seekable stream the post-read gcount check below still guards.
  const std::streampos pos = in_->tellg();
  if (pos != std::streampos(-1)) {
    in_->seekg(0, std::ios::end);
    const std::streampos end = in_->tellg();
    in_->seekg(pos);
    if (end != std::streampos(-1) &&
        static_cast<std::uint64_t>(end - pos) < len) {
      throw util::ParseError(
          "binary log: string length " + std::to_string(len) + " exceeds " +
          std::to_string(static_cast<std::uint64_t>(end - pos)) +
          " remaining bytes (corrupt length prefix at byte " +
          std::to_string(prefix_at) + ")");
    }
  }
  std::string s(len, '\0');
  in_->read(s.data(), len);
  if (in_->gcount() != static_cast<std::streamsize>(len))
    throw util::ParseError("binary log: truncated string at byte " +
                           std::to_string(offset_));
  offset_ += len;
  return s;
}

bool BinaryDecoder::at_eof() {
  return in_->peek() == std::char_traits<char>::eof();
}

template <typename Record>
BinaryLogWriter<Record>::BinaryLogWriter(std::ostream& out) : enc_(out) {
  enc_.put_u32(magic_of<Record>());
  enc_.put_u16(kBinaryFormatVersion);
  enc_.put_u16(0);  // reserved
}

template <typename Record>
void BinaryLogWriter<Record>::write(const Record& r) {
  encode_record(enc_, r);
  ++count_;
}

template <typename Record>
BinaryLogReader<Record>::BinaryLogReader(std::istream& in) : dec_(in) {
  const std::uint32_t magic = dec_.get_u32();
  if (magic != magic_of<Record>())
    throw util::ParseError("binary log: wrong magic (different record type?)");
  const std::uint16_t version = dec_.get_u16();
  if (version != kBinaryFormatVersion) {
    if (version == 2)
      throw util::ParseError(
          "binary log: blocked v2 log given to the v1 stream reader (load "
          "it via trace/log_reader, which handles every version)");
    throw util::ParseError("binary log: unsupported format version " +
                           std::to_string(version));
  }
  dec_.get_u16();  // reserved
}

template <typename Record>
bool BinaryLogReader<Record>::next(Record& out) {
  if (dec_.at_eof()) return false;
  decode_record(dec_, out);
  return true;
}

template <typename Record>
std::vector<Record> read_binary_log_lenient(std::istream& in,
                                            QuarantineStats& quarantine) {
  std::vector<Record> records;
  std::optional<BinaryLogReader<Record>> reader;
  try {
    reader.emplace(in);
  } catch (const util::ParseError&) {
    ++quarantine.corrupt_files;
    return records;
  }
  try {
    Record r;
    while (reader->next(r)) records.push_back(std::move(r));
  } catch (const util::ParseError&) {
    ++quarantine.corrupt_tails;
  }
  return records;
}

template std::vector<ProxyRecord> read_binary_log_lenient<ProxyRecord>(
    std::istream&, QuarantineStats&);
template std::vector<MmeRecord> read_binary_log_lenient<MmeRecord>(
    std::istream&, QuarantineStats&);
template std::vector<DeviceRecord> read_binary_log_lenient<DeviceRecord>(
    std::istream&, QuarantineStats&);
template std::vector<SectorInfo> read_binary_log_lenient<SectorInfo>(
    std::istream&, QuarantineStats&);

template class BinaryLogWriter<ProxyRecord>;
template class BinaryLogWriter<MmeRecord>;
template class BinaryLogWriter<DeviceRecord>;
template class BinaryLogWriter<SectorInfo>;
template class BinaryLogReader<ProxyRecord>;
template class BinaryLogReader<MmeRecord>;
template class BinaryLogReader<DeviceRecord>;
template class BinaryLogReader<SectorInfo>;

}  // namespace wearscope::trace
