#include "trace/bundle.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <utility>

#include "par/task_pool.h"
#include "trace/csv_io.h"
#include "trace/log_reader.h"
#include "util/error.h"
#include "util/mapped_file.h"

namespace wearscope::trace {

namespace {

/// IoError carrying the failing path AND the OS errno explanation, so
/// "cannot open" tells the operator *why* (ENOENT vs EACCES vs EMFILE).
[[noreturn]] void fail_io(const std::string& action,
                          const std::filesystem::path& path) {
  const int err = errno;
  std::string msg = action + ": " + path.string();
  if (err != 0) {
    msg += " (";
    msg += std::strerror(err);
    msg += ")";
  }
  throw util::IoError(msg);
}

/// Writes one log (a std::vector or trace::Rows); proxy ids resolve
/// through `pools` (the store's).
template <typename Records>
void save_log(const Records& records, const ProxyPools& pools,
              const std::filesystem::path& path, BundleFormat format) {
  using Record = typename Records::value_type;
  errno = 0;
  std::ofstream out(path, std::ios::binary);
  if (!out) fail_io("cannot open for writing", path);
  if (format == BundleFormat::kBinary) {
    (void)write_columnar_log(out, records, pools);
  } else {
    CsvLogWriter<Record> writer(out, pools);
    for (const Record& r : records) writer.write(r);
  }
  out.flush();
  if (!out) fail_io("write failed", path);
}

[[noreturn]] void fail_missing(const std::filesystem::path& dir,
                               const std::string& stem) {
  throw util::IoError("bundle log missing: " + (dir / stem).string() +
                      ".{bin,csv}");
}

/// Emitted once per stem, at prepare time (sequential, fixed log order),
/// so the warning stream is deterministic.
void warn_dual_format(const std::filesystem::path& dir,
                      const std::string& stem) {
  std::cerr << "warning: both " << stem << ".bin and " << stem
            << ".csv exist in " << dir.string() << "; loading " << stem
            << ".bin (binary is preferred over csv)\n";
}

/// Per-log state of the one-batch bundle load.  prepare() — sequential —
/// maps the file, validates the header and appends this log's decode tasks
/// to the shared batch (one task per v2 block or v3 row group; one
/// whole-log task for v1/CSV, since those have no internal framing to split
/// on).  After the batch drains, finalize() — sequential again, called in
/// fixed log order — compacts failed units and merges this log's
/// quarantine counters, keeping the accounting deterministic for every
/// thread count.  Each decode unit interns proxy strings into pools of its
/// own (a v1 or CSV log is one unit); finalize() merges them into the
/// store's pools in unit order.
template <typename Record>
class LogLoad {
 public:
  void prepare(const std::filesystem::path& dir, const std::string& stem,
               bool lenient, std::vector<std::function<void()>>& batch) {
    const std::filesystem::path bin = dir / (stem + ".bin");
    const std::filesystem::path csv = dir / (stem + ".csv");
    const bool have_bin = std::filesystem::exists(bin);
    const bool have_csv = std::filesystem::exists(csv);
    if (have_bin && have_csv) warn_dual_format(dir, stem);
    if (have_bin) {
      prepare_binary(bin, lenient, batch);
    } else if (have_csv) {
      prepare_csv(csv, lenient, batch);
    } else {
      fail_missing(dir, stem);
    }
  }

  /// Merges this log's quarantine counters into `quarantine` (lenient
  /// loads only) and its proxy strings into `pools`, and hands over the
  /// records.  A v2/v3 proxy log rewrites its rows' ids on `pool`, one
  /// task per unit.
  Rows<Record> finalize(QuarantineStats* quarantine, ProxyPools& pools,
                        par::TaskPool& pool) {
    if (decode_.has_value()) {
      local_ += decode_->finalize(out_, pools, &pool);
    } else if constexpr (!PoolFree<Record>) {
      remap_ids(out_, log_pools_, pools);
    }
    if (quarantine != nullptr) *quarantine += local_;
    decode_.reset();
    file_.reset();
    return std::move(out_);
  }

 private:
  void prepare_binary(const std::filesystem::path& bin, bool lenient,
                      std::vector<std::function<void()>>& batch) {
    errno = 0;
    file_.emplace(bin, util::MapMode::kAuto);
    const std::span<const std::byte> bytes = file_->bytes();
    std::uint16_t version = 0;
    if (lenient) {
      try {
        version = read_log_header<Record>(bytes);
      } catch (const util::ParseError&) {
        ++local_.corrupt_files;  // header rejected: nothing recoverable
        return;
      }
    } else {
      version = read_log_header<Record>(bytes);
    }
    if (version != kBinaryFormatV1) {
      decode_.emplace(bytes.subspan(8), version, lenient);
      decode_->schedule(out_, batch);
      return;
    }
    // v1 stream: one contiguous record run, decoded as a single task.
    batch.push_back([this, bytes, lenient] {
      if (lenient) {
        out_ = read_binary_log_lenient<Record>(bytes, local_, log_pools_,
                                               nullptr);
      } else {
        out_ = read_binary_log<Record>(bytes, log_pools_, nullptr);
      }
    });
  }

  void prepare_csv(const std::filesystem::path& csv, bool lenient,
                   std::vector<std::function<void()>>& batch) {
    csv_path_ = csv;
    batch.push_back([this, lenient] {
      errno = 0;
      std::ifstream in(csv_path_);
      if (!in) fail_io("cannot open", csv_path_);
      if (lenient) {
        out_ = read_csv_log_lenient<Record>(in, local_, log_pools_);
      } else {
        CsvLogReader<Record> reader(in, log_pools_);
        Record r;
        while (reader.next(r)) out_.push_back(r);
      }
    });
  }

  std::optional<util::MappedFile> file_;
  std::optional<LogDecode<Record>> decode_;
  Rows<Record> out_;
  ProxyPools log_pools_;  ///< A whole-log (v1/CSV) unit's string tables.
  QuarantineStats local_;
  std::filesystem::path csv_path_;
};

TraceStore load_bundle_impl(const std::filesystem::path& dir,
                            QuarantineStats* quarantine,
                            const LoadOptions& options) {
  util::require(options.threads >= 1, "load_bundle: threads must be >= 1");
  const bool lenient = quarantine != nullptr;
  LogLoad<ProxyRecord> proxy;
  LogLoad<MmeRecord> mme;
  LogLoad<DeviceRecord> devices;
  LogLoad<SectorInfo> sectors;
  // Phase 1 (sequential): map files, validate headers, scan v2/v3 unit
  // chains, size the destinations (the event logs' rows stay unwritten:
  // each decode task is the first to touch its own slice) — and collect
  // EVERY decode task of all four logs into one flat batch, so a pool
  // thread never idles while another log still has blocks left.
  std::vector<std::function<void()>> batch;
  proxy.prepare(dir, "proxy", lenient, batch);
  mme.prepare(dir, "mme", lenient, batch);
  devices.prepare(dir, "devices", lenient, batch);
  sectors.prepare(dir, "sectors", lenient, batch);
  // Phase 2: drain the batch.  Tasks write disjoint slices (and their own
  // per-log counters), so any thread count produces the same bytes.
  par::TaskPool pool(static_cast<std::size_t>(options.threads));
  pool.run(std::move(batch));
  // Phase 3 (fixed log order): merge each log's strings sequentially,
  // rewrite the proxy rows' ids as a second batch of one task per unit,
  // compact failed units and merge quarantine accounting.
  TraceStore store;
  store.proxy = proxy.finalize(quarantine, store, pool);
  store.mme = mme.finalize(quarantine, store, pool);
  store.devices = devices.finalize(quarantine, store, pool);
  store.sectors = sectors.finalize(quarantine, store, pool);
  return store;
}

template <typename Record>
BundleLogAudit audit_log(const std::filesystem::path& dir,
                         const std::string& stem) {
  BundleLogAudit audit;
  audit.stem = stem;
  const std::filesystem::path bin = dir / (stem + ".bin");
  const std::filesystem::path csv = dir / (stem + ".csv");
  if (std::filesystem::exists(bin)) {
    audit.file = bin.filename().string();
    errno = 0;
    const util::MappedFile file(bin, util::MapMode::kAuto);
    const BinaryLogInfo info = probe_binary_log<Record>(file.bytes());
    audit.version = info.version;
    audit.blocks = info.blocks;
    audit.records = info.records;
    if (info.version == kBinaryFormatV3)
      audit.columnar = probe_columnar_layout<Record>(file.bytes().subspan(8));
  } else if (std::filesystem::exists(csv)) {
    audit.file = csv.filename().string();
    errno = 0;
    std::ifstream in(csv);
    if (!in) fail_io("cannot open", csv);
    QuarantineStats scratch;  // audit only reports; the load path accounts
    ProxyPools strings;
    audit.records = read_csv_log_lenient<Record>(in, scratch, strings).size();
  } else {
    fail_missing(dir, stem);
  }
  return audit;
}

const char* extension(BundleFormat format) {
  return format == BundleFormat::kBinary ? ".bin" : ".csv";
}

}  // namespace

void save_bundle(const TraceStore& store, const std::filesystem::path& dir,
                 BundleFormat format, std::uint16_t binary_version) {
  util::require(binary_version == kBinaryFormatV3,
                "save_bundle: v3 is the only binary version written (v1 "
                "and v2 are read-only)");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec)
    throw util::IoError("cannot create directory: " + dir.string() + " (" +
                        ec.message() + ")");
  const std::string ext = extension(format);
  save_log(store.proxy, store, dir / ("proxy" + ext), format);
  save_log(store.mme, store, dir / ("mme" + ext), format);
  save_log(store.devices, store, dir / ("devices" + ext), format);
  save_log(store.sectors, store, dir / ("sectors" + ext), format);
}

TraceStore load_bundle(const std::filesystem::path& dir,
                       const LoadOptions& options) {
  return load_bundle_impl(dir, nullptr, options);
}

TraceStore load_bundle(const std::filesystem::path& dir) {
  return load_bundle_impl(dir, nullptr, LoadOptions{});
}

TraceStore load_bundle(const std::filesystem::path& dir,
                       QuarantineStats& quarantine,
                       const LoadOptions& options) {
  return load_bundle_impl(dir, &quarantine, options);
}

TraceStore load_bundle(const std::filesystem::path& dir,
                       QuarantineStats& quarantine) {
  return load_bundle_impl(dir, &quarantine, LoadOptions{});
}

std::vector<BundleLogAudit> audit_bundle(const std::filesystem::path& dir) {
  return {audit_log<ProxyRecord>(dir, "proxy"), audit_log<MmeRecord>(dir, "mme"),
          audit_log<DeviceRecord>(dir, "devices"),
          audit_log<SectorInfo>(dir, "sectors")};
}

}  // namespace wearscope::trace
