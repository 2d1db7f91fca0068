// The three measured user paths of the end-to-end benchmark.
//
//   batch_standard         load_bundle -> sort_by_time -> Pipeline -> run
//                          -> to_text, the analyst path (wearscope_analyze)
//   ingest_serve_standard  FeedReplayer -> LiveEngine, every daily snapshot
//                          published into a SnapshotStore that a LineServer
//                          serves to an open-loop TCP query load
//                          (wearscope_serve --port)
//   fed_cover_standard     an N=4 partition cover, one partition after
//                          another, then load_partials -> merge_partials
//                          (wearscope_live --partition + wearscope_merge)
//
// Each run function repeats its path for the configured time after one
// discarded warm-up repetition, checks the outputs outside the timed
// region, and fills an Outcome.  Timed repetitions are untraced; in traced
// mode they alternate with traced ones, which give the per-layer numbers
// and the tracing overhead.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "tracer.h"

namespace perfbench {

inline constexpr std::size_t kShards = 2;
inline constexpr std::size_t kRingCapacity = 4096;
inline constexpr std::size_t kRetain = 64;
/// Three, not four: at four the largest partition of the standard preset
/// holds about 2^19 proxy records, so whether its feed vector has doubled
/// (and peak RSS jumps by ~40%) depends on the seed.
inline constexpr std::size_t kPartitions = 3;
inline constexpr double kQueryRate = 4000.0;

struct Config {
  std::string workload;
  std::filesystem::path bundle;
  std::filesystem::path work;  ///< Scratch space (partial files).
  double seconds = 10.0;       ///< Minimum measured time.
  bool traced = false;
  int threads = 1;             ///< Pipeline / load / load_partials threads.
};

/// What one measured run produced: metrics by name, operation and check
/// counts, and set-up work done inside the measuring process.
struct Outcome {
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  double setup_s = 0.0;  ///< Set-up done here (ingest: load + sort).
  std::vector<double> rep_walls;     ///< Every untraced timed repetition.
  std::vector<double> rep_peaks_mb;  ///< Their peak resident sets.

  /// Counts one correctness check.
  void check(bool ok, const std::string& what);
  /// Counts `n` operations of which `bad` failed.
  void count(std::uint64_t n, std::uint64_t bad, const std::string& what);
};

void run_batch(const Config& cfg, Tracer& tracer, Outcome& out);
void run_ingest_serve(const Config& cfg, Tracer& tracer, Outcome& out);
void run_fed_cover(const Config& cfg, Tracer& tracer, Outcome& out);

/// Peak resident set of this process so far (VmHWM), in MB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
