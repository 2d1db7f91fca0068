// Persistence of a complete capture to a directory, mirroring how the
// measurement infrastructure stores one file per vantage point:
//
//   <dir>/proxy.(bin|csv)    transparent-proxy transaction log
//   <dir>/mme.(bin|csv)      MME mobility log
//   <dir>/devices.(bin|csv)  DeviceDB snapshot
//   <dir>/sectors.(bin|csv)  antenna-sector positions
//
// Binary logs are written in the columnar v3 format (trace/columnar_io:
// dictionary-coded, CRC-framed row groups), the one binary version
// written.  v1 record streams and v2 blocks stay readable — trace/log_reader
// is the one reader of all three — so old captures still load, and
// `wearscope_inspect --convert OUT --format binary` rewrites them as v3.
// When both <stem>.bin and <stem>.csv exist, the binary file wins and the
// loader says so on stderr — a silent preference bit us in the field.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "trace/columnar_io.h"
#include "trace/quarantine.h"
#include "trace/store.h"

namespace wearscope::trace {

/// Serialization format of a saved bundle.
enum class BundleFormat {
  kBinary,  ///< Columnar v3 binary (default).
  kCsv,     ///< Header-validated CSV, one file per log.
};

/// Writes all four logs of `store` into `dir` (created if absent), as v3
/// binary logs or as CSV.  `binary_version` must be kBinaryFormatV3 (any
/// other value throws util::ConfigError): v3 is the only version written,
/// and the parameter stays only because existing callers name the version
/// explicitly.  Throws util::IoError on filesystem failures, with the OS
/// errno explanation in the message.
void save_bundle(const TraceStore& store, const std::filesystem::path& dir,
                 BundleFormat format = BundleFormat::kBinary,
                 std::uint16_t binary_version = kBinaryFormatV3);

/// Knobs for load_bundle.  With `threads > 1` every v2 block and v3 row
/// group of every log joins ONE task batch on a par::TaskPool (v1/CSV logs
/// contribute one whole-log task each); the loaded store is bitwise
/// identical for any thread count.
struct LoadOptions {
  int threads = 1;
};

/// Loads a bundle previously written by save_bundle. The format is detected
/// from the file extensions present in `dir` (binary version from the file
/// header — v1, v2 and v3 all load).
/// Throws util::IoError when files are missing, util::ParseError when they
/// are malformed.
TraceStore load_bundle(const std::filesystem::path& dir,
                       const LoadOptions& options);
TraceStore load_bundle(const std::filesystem::path& dir);

/// Lenient variant for hostile captures: instead of aborting on the first
/// malformed byte, recovers every record it can and accounts for the rest
/// in `quarantine` (see trace/quarantine.h — rejected headers, abandoned
/// v1 binary tails, quarantined v2 blocks and v3 row groups, skipped CSV
/// rows).  Missing
/// files still throw util::IoError: an absent log is a deployment error,
/// not line noise.
TraceStore load_bundle(const std::filesystem::path& dir,
                       QuarantineStats& quarantine,
                       const LoadOptions& options);
TraceStore load_bundle(const std::filesystem::path& dir,
                       QuarantineStats& quarantine);

/// What one log of a bundle looks like on disk, for operator audits
/// (`wearscope_inspect`): which file backs the stem, its format version
/// (0 = CSV), and how many blocks/records it claims.
struct BundleLogAudit {
  std::string stem;           ///< "proxy", "mme", "devices" or "sectors".
  std::string file;           ///< File name actually loaded, e.g. "proxy.bin".
  std::uint16_t version = 0;  ///< 3 = columnar, 2 = blocked, 1 = v1, 0 = CSV.
  std::uint64_t blocks = 0;   ///< v2 frames / v3 row groups (0 otherwise).
  std::uint64_t records = 0;  ///< Records a lenient reader would recover.
  /// v3 only: dictionary sizes and per-column compressed bytes (the
  /// column_bytes vector is empty for every other version).
  ColumnarLayoutInfo columnar;
};

/// Probes all four logs of a bundle without building a TraceStore.
/// Throws util::IoError on missing files, util::ParseError when a binary
/// header is not the expected record type at all.
std::vector<BundleLogAudit> audit_bundle(const std::filesystem::path& dir);

}  // namespace wearscope::trace
