#include "trace/csv_io.h"

#include <charconv>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/csv.h"
#include "util/error.h"

namespace wearscope::trace {

namespace {

template <typename Record>
const char* header_of();
template <>
const char* header_of<ProxyRecord>() {
  return "timestamp,user_id,tac,protocol,host,url_path,bytes_up,bytes_down,"
         "duration_ms";
}
template <>
const char* header_of<MmeRecord>() {
  return "timestamp,user_id,tac,event,sector_id";
}
template <>
const char* header_of<DeviceRecord>() {
  return "tac,model,manufacturer,os";
}
template <>
const char* header_of<SectorInfo>() {
  return "sector_id,lat_deg,lon_deg";
}

template <typename Int>
Int parse_int(const std::string& field, const char* what) {
  Int value{};
  const auto [ptr, ec] =
      std::from_chars(field.data(), field.data() + field.size(), value);
  if (ec != std::errc{} || ptr != field.data() + field.size())
    throw util::ParseError(std::string("csv log: bad ") + what + " '" + field +
                           "'");
  return value;
}

double parse_double(const std::string& field, const char* what) {
  try {
    std::size_t used = 0;
    const double v = std::stod(field, &used);
    if (used != field.size()) throw util::ParseError("");
    return v;
  } catch (const std::exception&) {
    throw util::ParseError(std::string("csv log: bad ") + what + " '" + field +
                           "'");
  }
}

void expect_fields(const std::vector<std::string>& f, std::size_t n,
                   const char* what) {
  if (f.size() != n)
    throw util::ParseError(std::string("csv log: ") + what + " row has " +
                           std::to_string(f.size()) + " fields, expected " +
                           std::to_string(n));
}

void write_record(std::ostream& out, const ProxyRecord& r,
                  const ProxyPools& pools) {
  util::CsvWriter w(out);
  w.row(r.timestamp, r.user_id, r.tac,
        r.protocol == Protocol::kHttp ? "http" : "https",
        pools.hosts[r.host_id], pools.paths[r.path_id], r.bytes_up,
        r.bytes_down, r.duration_ms);
}

void parse_record(const std::vector<std::string>& f, ProxyRecord& r,
                  ProxyPools& pools) {
  expect_fields(f, 9, "proxy");
  r.timestamp = parse_int<std::int64_t>(f[0], "timestamp");
  r.user_id = parse_int<std::uint64_t>(f[1], "user_id");
  r.tac = parse_int<std::uint32_t>(f[2], "tac");
  if (f[3] == "http") {
    r.protocol = Protocol::kHttp;
  } else if (f[3] == "https") {
    r.protocol = Protocol::kHttps;
  } else {
    throw util::ParseError("csv log: bad protocol '" + f[3] + "'");
  }
  r.bytes_up = parse_int<std::uint64_t>(f[6], "bytes_up");
  r.bytes_down = parse_int<std::uint64_t>(f[7], "bytes_down");
  r.duration_ms = parse_int<std::uint32_t>(f[8], "duration_ms");
  // Interned last, so a row rejected above leaves no pool entry behind.
  r.host_id = pools.hosts.intern(f[4]);
  r.path_id = pools.paths.intern(f[5]);
}

const char* event_name(MmeEvent e) {
  switch (e) {
    case MmeEvent::kAttach:
      return "attach";
    case MmeEvent::kHandover:
      return "handover";
    case MmeEvent::kDetach:
      return "detach";
    case MmeEvent::kTau:
      return "tau";
  }
  return "attach";
}

MmeEvent parse_event(const std::string& s) {
  if (s == "attach") return MmeEvent::kAttach;
  if (s == "handover") return MmeEvent::kHandover;
  if (s == "detach") return MmeEvent::kDetach;
  if (s == "tau") return MmeEvent::kTau;
  throw util::ParseError("csv log: bad mme event '" + s + "'");
}

void write_record(std::ostream& out, const MmeRecord& r) {
  util::CsvWriter w(out);
  w.row(r.timestamp, r.user_id, r.tac, event_name(r.event), r.sector_id);
}

void parse_record(const std::vector<std::string>& f, MmeRecord& r) {
  expect_fields(f, 5, "mme");
  r.timestamp = parse_int<std::int64_t>(f[0], "timestamp");
  r.user_id = parse_int<std::uint64_t>(f[1], "user_id");
  r.tac = parse_int<std::uint32_t>(f[2], "tac");
  r.event = parse_event(f[3]);
  r.sector_id = parse_int<std::uint32_t>(f[4], "sector_id");
}

void write_record(std::ostream& out, const DeviceRecord& r) {
  util::CsvWriter w(out);
  w.row(r.tac, r.model, r.manufacturer, r.os);
}

void parse_record(const std::vector<std::string>& f, DeviceRecord& r) {
  expect_fields(f, 4, "device");
  r.tac = parse_int<std::uint32_t>(f[0], "tac");
  r.model = f[1];
  r.manufacturer = f[2];
  r.os = f[3];
}

void write_record(std::ostream& out, const SectorInfo& r) {
  util::CsvWriter w(out);
  char lat[32];
  char lon[32];
  std::snprintf(lat, sizeof(lat), "%.6f", r.position.lat_deg);
  std::snprintf(lon, sizeof(lon), "%.6f", r.position.lon_deg);
  w.row(r.sector_id, lat, lon);
}

void parse_record(const std::vector<std::string>& f, SectorInfo& r) {
  expect_fields(f, 3, "sector");
  r.sector_id = parse_int<std::uint32_t>(f[0], "sector_id");
  r.position.lat_deg = parse_double(f[1], "lat_deg");
  r.position.lon_deg = parse_double(f[2], "lon_deg");
}

}  // namespace

template <typename Record>
CsvLogWriter<Record>::CsvLogWriter(std::ostream& out, const ProxyPools& pools)
    : out_(&out), pools_(&pools) {
  *out_ << header_of<Record>() << '\n';
}

template <typename Record>
CsvLogWriter<Record>::CsvLogWriter(std::ostream& out)
  requires PoolFree<Record>
    : out_(&out) {
  *out_ << header_of<Record>() << '\n';
}

template <typename Record>
void CsvLogWriter<Record>::write(const Record& r) {
  if constexpr (PoolFree<Record>) {
    write_record(*out_, r);
  } else {
    write_record(*out_, r, *pools_);
  }
}

template <typename Record>
CsvLogReader<Record>::CsvLogReader(std::istream& in, ProxyPools& pools)
    : in_(&in), pools_(&pools) {
  read_header();
}

template <typename Record>
CsvLogReader<Record>::CsvLogReader(std::istream& in)
  requires PoolFree<Record>
    : in_(&in) {
  read_header();
}

template <typename Record>
void CsvLogReader<Record>::read_header() {
  std::string header;
  if (!std::getline(*in_, header))
    throw util::ParseError("csv log: missing header row");
  if (!header.empty() && header.back() == '\r') header.pop_back();
  if (header != header_of<Record>())
    throw util::ParseError("csv log: unexpected header '" + header + "'");
}

template <typename Record>
bool CsvLogReader<Record>::next(Record& out) {
  std::string line;
  while (std::getline(*in_, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if constexpr (PoolFree<Record>) {
      parse_record(util::csv_parse_line(line), out);
    } else {
      parse_record(util::csv_parse_line(line), out, *pools_);
    }
    return true;
  }
  return false;
}

template <typename Record>
Rows<Record> read_csv_log_lenient(std::istream& in,
                                  QuarantineStats& quarantine,
                                  ProxyPools& pools) {
  Rows<Record> records;
  std::optional<CsvLogReader<Record>> reader;
  try {
    reader.emplace(in, pools);
  } catch (const util::ParseError&) {
    ++quarantine.corrupt_files;
    return records;
  }
  for (;;) {
    Record r;
    try {
      if (!reader->next(r)) break;
    } catch (const util::ParseError&) {
      // next() consumed the offending line, so resuming is safe.
      ++quarantine.corrupt_rows;
      continue;
    }
    records.push_back(std::move(r));
  }
  return records;
}

template Rows<ProxyRecord> read_csv_log_lenient<ProxyRecord>(
    std::istream&, QuarantineStats&, ProxyPools&);
template Rows<MmeRecord> read_csv_log_lenient<MmeRecord>(
    std::istream&, QuarantineStats&, ProxyPools&);
template Rows<DeviceRecord> read_csv_log_lenient<DeviceRecord>(
    std::istream&, QuarantineStats&, ProxyPools&);
template Rows<SectorInfo> read_csv_log_lenient<SectorInfo>(
    std::istream&, QuarantineStats&, ProxyPools&);

template class CsvLogWriter<ProxyRecord>;
template class CsvLogWriter<MmeRecord>;
template class CsvLogWriter<DeviceRecord>;
template class CsvLogWriter<SectorInfo>;
template class CsvLogReader<ProxyRecord>;
template class CsvLogReader<MmeRecord>;
template class CsvLogReader<DeviceRecord>;
template class CsvLogReader<SectorInfo>;

}  // namespace wearscope::trace
