// wearscope_inspect — look inside a trace bundle without running the study.
//
//   wearscope_inspect --trace d                    # summary
//   wearscope_inspect --trace d --daily            # per-day record counts
//   wearscope_inspect --trace d --top-hosts 20     # busiest endpoints
//   wearscope_inspect --trace d --devices          # DeviceDB + TAC usage
//   wearscope_inspect --trace d --convert e --format csv   # transcode
//   wearscope_inspect --trace old --convert new --format binary
//                                                  # v1/v2 bundle -> v3
//   wearscope_inspect --partials p/                # audit partial files
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <unordered_map>

#include "core/device_id.h"
#include "fed/partial_io.h"
#include "trace/anonymize.h"
#include "trace/bundle.h"
#include "util/ascii_chart.h"
#include "util/error.h"
#include "util/flags.h"
#include "util/mapped_file.h"
#include "util/strings.h"

namespace {

using namespace wearscope;

void print_files(const std::vector<trace::BundleLogAudit>& audits) {
  std::printf("== on-disk files ==\n");
  std::vector<std::vector<std::string>> rows;
  for (const trace::BundleLogAudit& a : audits) {
    const std::string format =
        a.version == 0 ? "csv" : "binary v" + std::to_string(a.version);
    rows.push_back({a.file, format,
                    a.version >= 2 ? std::to_string(a.blocks) : "-",
                    std::to_string(a.records)});
  }
  std::fputs(util::table({"file", "format", "blocks", "records"}, rows).c_str(),
             stdout);

  // v3 logs: the columnar layout (dictionary sizes, per-column compressed
  // bytes) is the whole story of the format, so the audit shows it.
  for (const trace::BundleLogAudit& a : audits) {
    if (a.version != trace::kBinaryFormatV3) continue;
    const trace::ColumnarLayoutInfo& c = a.columnar;
    std::printf("-- %s columnar layout: %llu groups, dicts "
                "hosts=%llu tacs=%llu sectors=%llu (%llu bytes)\n",
                a.file.c_str(), static_cast<unsigned long long>(c.groups),
                static_cast<unsigned long long>(c.dict_hosts),
                static_cast<unsigned long long>(c.dict_tacs),
                static_cast<unsigned long long>(c.dict_sectors),
                static_cast<unsigned long long>(c.dict_bytes));
    std::vector<std::vector<std::string>> cols;
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < c.column_bytes.size(); ++i) {
      total += c.column_bytes[i];
      const double per_record =
          c.records > 0 ? static_cast<double>(c.column_bytes[i]) /
                              static_cast<double>(c.records)
                        : 0.0;
      cols.push_back({"col " + std::to_string(i),
                      std::to_string(c.column_bytes[i]),
                      util::format_num(per_record, 2)});
    }
    cols.push_back({"total", std::to_string(total),
                    util::format_num(
                        c.records > 0 ? static_cast<double>(total) /
                                            static_cast<double>(c.records)
                                      : 0.0,
                        2)});
    std::fputs(util::table({"column", "bytes", "B/record"}, cols).c_str(),
               stdout);
  }
}

void print_summary(const trace::TraceStore& store) {
  const trace::TraceSummary sum = store.summarize();
  std::printf("== bundle summary ==\n");
  std::printf("  proxy transactions : %zu\n", sum.proxy_records);
  std::printf("  MME events         : %zu\n", sum.mme_records);
  std::printf("  DeviceDB rows      : %zu\n", sum.devices);
  std::printf("  antenna sectors    : %zu\n", sum.sectors);
  std::printf("  users (proxy/MME)  : %zu / %zu\n", sum.distinct_proxy_users,
              sum.distinct_mme_users);
  std::printf("  total volume       : %.3f GB\n",
              static_cast<double>(sum.total_bytes) / 1e9);
  std::printf("  time span          : %s .. %s\n",
              util::format_sim_time(sum.first_timestamp).c_str(),
              util::format_sim_time(sum.last_timestamp).c_str());
}

void print_daily(const trace::TraceStore& store) {
  std::map<int, std::pair<std::size_t, std::size_t>> days;  // proxy, mme
  for (const trace::ProxyRecord& r : store.proxy)
    days[util::day_of(r.timestamp)].first++;
  for (const trace::MmeRecord& r : store.mme)
    days[util::day_of(r.timestamp)].second++;
  std::printf("== per-day record counts ==\n");
  std::vector<double> proxy_series;
  for (const auto& [day, counts] : days) proxy_series.push_back(
      static_cast<double>(counts.first));
  std::printf("proxy: [%s]\n", util::sparkline(proxy_series).c_str());
  std::printf("%-6s %12s %12s\n", "day", "proxy", "mme");
  for (const auto& [day, counts] : days) {
    std::printf("%-6d %12zu %12zu\n", day, counts.first, counts.second);
  }
}

void print_top_hosts(const trace::TraceStore& store, std::int64_t top) {
  // Tally per host id, then fold each pool entry into its domain once.
  std::vector<std::pair<std::size_t, std::uint64_t>> per_host(
      store.hosts.size());
  for (const trace::ProxyRecord& r : store.proxy) {
    auto& [txns, bytes] = per_host[r.host_id];
    ++txns;
    bytes += r.bytes_total();
  }
  std::unordered_map<std::string, std::pair<std::size_t, std::uint64_t>> hosts;
  for (std::uint32_t id = 0; id < per_host.size(); ++id) {
    if (per_host[id].first == 0) continue;
    auto& [txns, bytes] = hosts[util::registrable_domain(store.hosts[id])];
    txns += per_host[id].first;
    bytes += per_host[id].second;
  }
  std::vector<std::pair<std::string, std::pair<std::size_t, std::uint64_t>>>
      ranked(hosts.begin(), hosts.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second.first != b.second.first ? a.second.first > b.second.first
                                            : a.first < b.first;
  });
  std::printf("== top endpoints by transactions (registrable domain) ==\n");
  std::vector<std::vector<std::string>> rows;
  for (std::int64_t i = 0;
       i < top && i < static_cast<std::int64_t>(ranked.size()); ++i) {
    const auto& [domain, stats] = ranked[static_cast<std::size_t>(i)];
    rows.push_back({domain, std::to_string(stats.first),
                    util::format_num(
                        static_cast<double>(stats.second) / 1e6, 1)});
  }
  std::fputs(util::table({"domain", "txns", "MB"}, rows).c_str(), stdout);
}

void print_devices(const trace::TraceStore& store) {
  const core::DeviceClassifier classifier(store.devices);
  std::unordered_map<trace::Tac, std::size_t> tac_txns;
  for (const trace::ProxyRecord& r : store.proxy) tac_txns[r.tac]++;
  std::printf("== DeviceDB (wearable classification + traffic) ==\n");
  std::vector<std::vector<std::string>> rows;
  for (const trace::DeviceRecord& d : store.devices) {
    rows.push_back({std::to_string(d.tac), d.manufacturer, d.model, d.os,
                    classifier.is_wearable(d.tac) ? "WEARABLE" : "-",
                    std::to_string(tac_txns[d.tac])});
  }
  std::fputs(util::table({"TAC", "vendor", "model", "OS", "class", "txns"},
                         rows)
                 .c_str(),
             stdout);
}

/// Audits one candidate partial-snapshot file (never throws past I/O:
/// fed::audit_partial reports whatever structure survives).
void print_partial_audit(const std::filesystem::path& path) {
  const util::MappedFile file(path);
  const fed::PartialAudit audit = fed::audit_partial(file.bytes());
  std::printf("== partial %s (%llu bytes) ==\n", path.string().c_str(),
              static_cast<unsigned long long>(audit.file_bytes));
  if (audit.header_ok) {
    const fed::PartitionHeader& h = audit.header;
    std::printf("  partition %u of %u, epoch %llu, %llu owned / %llu feed "
                "records, sketch=%s\n",
                h.partition_id, h.partition_count,
                static_cast<unsigned long long>(h.epoch),
                static_cast<unsigned long long>(h.records),
                static_cast<unsigned long long>(h.feed_records),
                h.sketch_enabled ? "on" : "off");
    std::printf("  window %d days (detail from day %d), gap %llds, "
                "%u apps @ %.2f coverage, checksum %s\n",
                h.observation_days, h.detailed_start_day,
                static_cast<long long>(h.usage_gap_s), h.long_tail_apps,
                h.signature_coverage, audit.checksum_ok ? "OK" : "MISMATCH");
  } else {
    std::printf("  file/partition header DAMAGED — a lenient reader "
                "rejects the whole file\n");
  }
  std::vector<std::vector<std::string>> rows;
  for (const fed::SectionAudit& s : audit.sections) {
    rows.push_back({fed::section_name(s.id), std::to_string(s.id),
                    std::to_string(s.offset), std::to_string(s.byte_length),
                    s.crc_ok ? "OK" : "BAD",
                    s.decode_ok ? "OK" : (s.crc_ok ? "BAD" : "-")});
  }
  std::fputs(util::table({"section", "id", "offset", "bytes", "crc",
                          "decode"},
                         rows)
                 .c_str(),
             stdout);
  if (audit.quarantine.any()) {
    std::printf("  lenient read would quarantine: %llu corrupt files, "
                "%llu corrupt blocks\n",
                static_cast<unsigned long long>(
                    audit.quarantine.corrupt_files),
                static_cast<unsigned long long>(
                    audit.quarantine.corrupt_blocks));
  }
}

/// Expands --partials: a directory scans for *.wsfd, otherwise a
/// comma-separated file list.
std::vector<std::filesystem::path> partial_paths(const std::string& arg) {
  std::vector<std::filesystem::path> out;
  if (std::filesystem::is_directory(arg)) {
    for (const auto& entry : std::filesystem::directory_iterator(arg)) {
      if (entry.is_regular_file() &&
          entry.path().extension() == ".wsfd") {
        out.push_back(entry.path());
      }
    }
    std::sort(out.begin(), out.end());
    util::require(!out.empty(), "no .wsfd files in " + arg);
  } else {
    std::size_t start = 0;
    while (start <= arg.size()) {
      const std::size_t comma = arg.find(',', start);
      const std::size_t end = comma == std::string::npos ? arg.size() : comma;
      if (end > start) out.emplace_back(arg.substr(start, end - start));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    util::require(!out.empty(), "--partials names no files");
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wearscope;
  try {
    std::string trace_dir;
    std::string convert_dir;
    std::string anonymize_dir;
    std::int64_t anon_key = 1;
    std::int64_t anon_quantum = 1;
    std::string format = "csv";
    bool daily = false;
    bool devices = false;
    std::int64_t top_hosts = 0;
    std::int64_t threads = 1;
    std::string partials;

    util::FlagParser flags(
        "wearscope_inspect: summarize, slice or transcode a trace bundle");
    flags.add_string("trace", &trace_dir, "bundle directory (required)");
    flags.add_string("partials", &partials,
                     "audit partial-snapshot files instead: a directory of "
                     ".wsfd files or a comma-separated list");
    flags.add_bool("daily", &daily, "print per-day record counts");
    flags.add_bool("devices", &devices, "print the DeviceDB with wearable "
                                        "classification and per-TAC traffic");
    flags.add_int("top-hosts", &top_hosts,
                  "print the N busiest registrable domains");
    flags.add_string("convert", &convert_dir,
                     "re-write the bundle into this directory");
    flags.add_string("anonymize", &anonymize_dir,
                     "write a release-safe anonymized copy here");
    flags.add_int("anon-key", &anon_key,
                  "secret key for the user-id re-hash");
    flags.add_int("anon-quantum", &anon_quantum,
                  "timestamp quantization in seconds");
    flags.add_string("format", &format,
                     "target format for --convert: binary (columnar v3) or "
                     "csv; --anonymize always writes binary");
    flags.add_int("threads", &threads,
                  "decoder threads for loading v2/v3 bundles");
    if (!flags.parse(argc, argv)) return 0;
    if (!partials.empty()) {
      for (const std::filesystem::path& path : partial_paths(partials)) {
        print_partial_audit(path);
      }
      return 0;
    }
    util::require(!trace_dir.empty(), "--trace is required");
    util::require(threads >= 1, "--threads must be >= 1");

    trace::LoadOptions load_options;
    load_options.threads = static_cast<int>(threads);
    trace::TraceStore store = trace::load_bundle(trace_dir, load_options);
    store.sort_by_time();

    print_files(trace::audit_bundle(trace_dir));
    print_summary(store);
    if (daily) print_daily(store);
    if (top_hosts > 0) print_top_hosts(store, top_hosts);
    if (devices) print_devices(store);
    if (!anonymize_dir.empty()) {
      trace::TraceStore anon = store;
      trace::AnonymizePolicy policy;
      policy.key = static_cast<std::uint64_t>(anon_key);
      policy.time_quantum_s = anon_quantum;
      trace::anonymize(anon, policy);
      trace::save_bundle(anon, anonymize_dir);
      std::printf("anonymized bundle written to %s\n",
                  anonymize_dir.c_str());
    }
    if (!convert_dir.empty()) {
      const trace::BundleFormat f = format == "binary"
                                        ? trace::BundleFormat::kBinary
                                        : trace::BundleFormat::kCsv;
      util::require(format == "binary" || format == "csv",
                    "unknown --format (expected binary|csv)");
      trace::save_bundle(store, convert_dir, f);
      std::printf("bundle transcoded to %s (%s)\n", convert_dir.c_str(),
                  format.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
