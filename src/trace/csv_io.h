// Human-inspectable CSV form of the trace logs.  Each file starts with a
// header row naming the columns; readers validate the header so that a
// device table cannot be loaded as a proxy log.
#pragma once

#include <istream>
#include <ostream>
#include <vector>

#include "trace/quarantine.h"
#include "trace/records.h"
#include "trace/string_pool.h"

namespace wearscope::trace {

/// Streaming CSV writer for one record type (header row written eagerly).
template <typename Record>
class CsvLogWriter {
 public:
  /// Proxy records' ids resolve through `pools`, which must outlive the
  /// writer.
  CsvLogWriter(std::ostream& out, const ProxyPools& pools);
  explicit CsvLogWriter(std::ostream& out)
    requires PoolFree<Record>;
  /// Appends one record as a CSV row.
  void write(const Record& r);

 private:
  std::ostream* out_ = nullptr;
  const ProxyPools* pools_ = nullptr;  ///< Null for pool-free record types.
};

/// Streaming CSV reader for one record type.
/// Throws util::ParseError on header mismatch or malformed rows.
template <typename Record>
class CsvLogReader {
 public:
  /// Proxy hosts and paths are interned into `pools`, which must outlive
  /// the reader.
  CsvLogReader(std::istream& in, ProxyPools& pools);
  explicit CsvLogReader(std::istream& in)
    requires PoolFree<Record>;
  /// Reads the next record; returns false at EOF. Blank lines are skipped.
  bool next(Record& out);

 private:
  void read_header();

  std::istream* in_ = nullptr;
  ProxyPools* pools_ = nullptr;  ///< Null for pool-free record types.
};

/// Lenient read of one whole CSV log with skip-and-count quarantine
/// semantics.  Unlike the binary format, CSV rows are line-framed, so a
/// malformed row is skipped *individually* (one `corrupt_rows` each) and
/// parsing resumes on the next line; only a rejected header abandons the
/// file (one `corrupt_files`).  Never throws ParseError.  Proxy hosts and
/// paths are interned into `pools`; a skipped row interns nothing.
template <typename Record>
Rows<Record> read_csv_log_lenient(std::istream& in,
                                  QuarantineStats& quarantine,
                                  ProxyPools& pools);
template <PoolFree Record>
Rows<Record> read_csv_log_lenient(std::istream& in,
                                  QuarantineStats& quarantine) {
  ProxyPools unused;
  return read_csv_log_lenient<Record>(in, quarantine, unused);
}

extern template class CsvLogWriter<ProxyRecord>;
extern template class CsvLogWriter<MmeRecord>;
extern template class CsvLogWriter<DeviceRecord>;
extern template class CsvLogWriter<SectorInfo>;
extern template class CsvLogReader<ProxyRecord>;
extern template class CsvLogReader<MmeRecord>;
extern template class CsvLogReader<DeviceRecord>;
extern template class CsvLogReader<SectorInfo>;

}  // namespace wearscope::trace
