#include "trace/block_io.h"

#include <array>

#include "trace/record_codec.h"
#include "util/byte_codec.h"
#include "util/crc32.h"
#include "util/error.h"

namespace wearscope::trace {

namespace {

/// Encodes the three u32 fields of a frame header into `out`.
void encode_frame_header(std::array<char, kFrameHeaderBytes>& out,
                         std::uint32_t record_count, std::uint32_t byte_length,
                         std::uint32_t crc) {
  const auto put = [&out](std::size_t at, std::uint32_t v) {
    for (std::size_t i = 0; i < 4; ++i)
      out[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  };
  put(0, record_count);
  put(4, byte_length);
  put(8, crc);
}

void write_bytes(std::ostream& out, const std::string& bytes) {
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) throw util::IoError("binary write failed");
}

/// Writes the 8-byte file header shared by every binary version.
template <typename Record>
void write_file_header(std::ostream& out, std::uint16_t version) {
  std::string header;
  util::BufferEncoder enc(header);
  enc.put_u32(magic_of<Record>());
  enc.put_u16(version);
  enc.put_u16(0);  // reserved
  write_bytes(out, header);
}

/// The pools handed to the codec by writers of pool-free record types,
/// which never read them.
const ProxyPools& no_pools() {
  static const ProxyPools none;
  return none;
}

}  // namespace

// ---------------------------------------------------------------------------
// BinaryLogWriter
// ---------------------------------------------------------------------------

template <typename Record>
BinaryLogWriter<Record>::BinaryLogWriter(std::ostream& out,
                                         const ProxyPools& pools)
    : out_(&out), pools_(&pools) {
  write_file_header<Record>(out, kBinaryFormatV1);
}

template <typename Record>
BinaryLogWriter<Record>::BinaryLogWriter(std::ostream& out)
  requires PoolFree<Record>
    : BinaryLogWriter(out, no_pools()) {}

template <typename Record>
void BinaryLogWriter<Record>::write(const Record& r) {
  scratch_.clear();
  util::BufferEncoder enc(scratch_);
  encode_record(enc, r, *pools_);
  write_bytes(*out_, scratch_);
}

// ---------------------------------------------------------------------------
// BlockLogWriter
// ---------------------------------------------------------------------------

template <typename Record>
BlockLogWriter<Record>::BlockLogWriter(std::ostream& out,
                                       BlockWriterOptions options)
  requires PoolFree<Record>
    : BlockLogWriter(out, no_pools(), options) {}

template <typename Record>
BlockLogWriter<Record>::BlockLogWriter(std::ostream& out,
                                       const ProxyPools& pools,
                                       BlockWriterOptions options)
    : out_(&out), pools_(&pools), options_(options) {
  util::require(options_.target_block_bytes > 0 &&
                    options_.max_block_records > 0,
                "block writer limits must be positive");
  write_file_header<Record>(out, kBinaryFormatV2);
}

template <typename Record>
BlockLogWriter<Record>::~BlockLogWriter() {
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; call finish() explicitly to observe
    // write failures.
  }
}

template <typename Record>
void BlockLogWriter<Record>::write(const Record& r) {
  util::ensure(!finished_, "BlockLogWriter: write after finish");
  util::BufferEncoder enc(scratch_);
  encode_record(enc, r, *pools_);
  ++pending_records_;
  ++count_;
  if (scratch_.size() >= options_.target_block_bytes ||
      pending_records_ >= options_.max_block_records) {
    flush_block();
  }
}

template <typename Record>
void BlockLogWriter<Record>::finish() {
  if (finished_) return;
  if (pending_records_ > 0) flush_block();
  finished_ = true;
}

template <typename Record>
void BlockLogWriter<Record>::flush_block() {
  const std::uint32_t crc = util::crc32(
      std::as_bytes(std::span<const char>(scratch_.data(), scratch_.size())));
  std::array<char, kFrameHeaderBytes> header{};
  encode_frame_header(header, pending_records_,
                      static_cast<std::uint32_t>(scratch_.size()), crc);
  out_->write(header.data(), static_cast<std::streamsize>(header.size()));
  out_->write(scratch_.data(), static_cast<std::streamsize>(scratch_.size()));
  if (!*out_) throw util::IoError("binary write failed");
  scratch_.clear();
  pending_records_ = 0;
  ++blocks_;
}

template class BinaryLogWriter<ProxyRecord>;
template class BinaryLogWriter<MmeRecord>;
template class BinaryLogWriter<DeviceRecord>;
template class BinaryLogWriter<SectorInfo>;
template class BlockLogWriter<ProxyRecord>;
template class BlockLogWriter<MmeRecord>;
template class BlockLogWriter<DeviceRecord>;
template class BlockLogWriter<SectorInfo>;

}  // namespace wearscope::trace
