// Quarantine accounting for graceful degradation.
//
// Real vantage-point feeds are not clean: proxy logs arrive truncated,
// MME batches carry duplicates and out-of-order records, middleboxes stall
// and retry.  Instead of aborting on the first malformed byte, the lenient
// readers (trace/bundle), the stream sanitizer (trace/sanitize) and the
// live feed (live/replayer) *skip and count*: every record or file they
// give up on increments exactly one counter here, so "the ingest degraded
// gracefully" becomes a checkable number instead of a vibe.  The chaos
// differential harness (src/chaos) asserts these counters equal the number
// of injected faults bit-for-bit.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace wearscope::trace {

/// Counters of everything the ingest path skipped instead of crashing on.
/// Each quarantined item increments exactly one counter; `reordered` is the
/// only non-drop counter (late arrivals repaired inside the reorder window
/// are kept).
struct QuarantineStats {
  // --- IO level (lenient bundle loading) -------------------------------
  std::uint64_t corrupt_files = 0;  ///< Header rejected; file yielded nothing.
  std::uint64_t corrupt_tails = 0;  ///< Mid-stream error; v1 binary tail dropped.
  std::uint64_t corrupt_blocks = 0;  ///< v2 blocks dropped (CRC/frame damage).
  std::uint64_t corrupt_rows = 0;   ///< CSV rows skipped individually.

  // --- Record level (stream sanitizer) ---------------------------------
  std::uint64_t duplicates = 0;     ///< Exact re-deliveries dropped.
  std::uint64_t regressions = 0;    ///< Timestamps too late to repair.
  std::uint64_t unknown_tac = 0;    ///< TAC absent from the DeviceDB.
  std::uint64_t bad_host = 0;       ///< Empty/non-printable proxy host.
  std::uint64_t reordered = 0;      ///< Late arrivals repaired (kept!).

  // --- Runtime level (live feed) ---------------------------------------
  std::uint64_t transient_retries = 0;    ///< Read retries that recovered.
  std::uint64_t dropped_after_retry = 0;  ///< Records lost to exhausted retries.

  /// Sum of every *dropped* item (reordered repairs and recovered retries
  /// are not drops).
  [[nodiscard]] std::uint64_t total_dropped() const noexcept {
    return corrupt_files + corrupt_tails + corrupt_blocks + corrupt_rows +
           duplicates + regressions + unknown_tac + bad_host +
           dropped_after_retry;
  }

  /// True when any counter is non-zero (including repairs/retries).
  [[nodiscard]] bool any() const noexcept {
    return total_dropped() + reordered + transient_retries > 0;
  }

  QuarantineStats& operator+=(const QuarantineStats& o) noexcept;

  friend bool operator==(const QuarantineStats&,
                         const QuarantineStats&) = default;
};

/// One counter of QuarantineStats: its machine key (serve's `quarantine`
/// answer), its human label (to_text) and the member itself.  Every place
/// that handles all counters walks kQuarantineCounters, so adding a counter
/// is one table row.
struct QuarantineCounter {
  const char* key = nullptr;
  const char* label = nullptr;
  std::uint64_t QuarantineStats::*member = nullptr;
};

/// Every counter, in declaration order (which is also the WSFD wire order).
inline constexpr std::array<QuarantineCounter, 11> kQuarantineCounters = {{
    {"corrupt_files", "corrupt files rejected   ",
     &QuarantineStats::corrupt_files},
    {"corrupt_tails", "corrupt binary tails     ",
     &QuarantineStats::corrupt_tails},
    {"corrupt_blocks", "corrupt v2 blocks        ",
     &QuarantineStats::corrupt_blocks},
    {"corrupt_rows", "corrupt csv rows         ",
     &QuarantineStats::corrupt_rows},
    {"duplicates", "duplicates dropped       ", &QuarantineStats::duplicates},
    {"regressions", "timestamp regressions    ",
     &QuarantineStats::regressions},
    {"unknown_tac", "unknown TACs dropped     ",
     &QuarantineStats::unknown_tac},
    {"bad_host", "bad hosts dropped        ", &QuarantineStats::bad_host},
    {"reordered", "late arrivals repaired   ", &QuarantineStats::reordered},
    {"transient_retries", "transient reads recovered",
     &QuarantineStats::transient_retries},
    {"dropped_after_retry", "dropped after retries    ",
     &QuarantineStats::dropped_after_retry},
}};
static_assert(kQuarantineCounters.size() * sizeof(std::uint64_t) ==
                  sizeof(QuarantineStats),
              "kQuarantineCounters must list every QuarantineStats counter");

inline QuarantineStats& QuarantineStats::operator+=(
    const QuarantineStats& o) noexcept {
  for (const QuarantineCounter& c : kQuarantineCounters)
    this->*c.member += o.*c.member;
  return *this;
}

/// Multi-line human-readable rendering (empty string when !stats.any()).
std::string to_text(const QuarantineStats& stats);

}  // namespace wearscope::trace
