// wearscope::chaos — deterministic, seeded fault injection.
//
// A FaultPlan turns (seed, profile) into a reproducible set of faults at
// three levels of the ingest stack:
//
//   * byte level     — corrupted v1 log images (truncation, length
//                      bombs, bad magic, bit flips) for the v1 reader in
//                      trace/log_reader, made from v1 log bytes the caller
//                      supplies (the checked-in fixtures: no v1 writer
//                      remains);
//   * record level   — duplicates, bounded reordering, timestamp
//                      regressions, unknown TACs and hostile SNIs spliced
//                      into a clean capture, for trace/sanitize;
//   * runtime level  — transient and permanent read failures against
//                      live::FeedReplayer, plus seeded stall/burst
//                      schedules for the ring-buffer stress tests.
//
// Every injector returns a manifest of exactly what it did, phrased in the
// same units as trace::QuarantineStats — that is what lets the differential
// harness (chaos/diff_runner.h) assert quarantine == injected *exactly*,
// not approximately.  All randomness flows through util::Pcg32 streams
// forked from the plan seed, so a (seed, profile) pair replays the same
// faults on every platform and every run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "live/replayer.h"
#include "trace/quarantine.h"
#include "trace/store.h"
#include "util/rng.h"

namespace wearscope::chaos {

/// How many faults of each kind a plan injects.  Counts are requests; the
/// injectors clamp to what the input can absorb (e.g. a ten-record log
/// cannot host twenty disjoint swaps) and report actuals in the manifest.
struct FaultProfile {
  std::string name = "custom";

  // --- Record level (trace/sanitize) -----------------------------------
  std::uint32_t duplicates = 0;    ///< Exact re-deliveries spliced in.
  std::uint32_t regressions = 0;   ///< Wildly-late records spliced in.
  std::uint32_t unknown_tacs = 0;  ///< Records with TACs absent from DeviceDB.
  std::uint32_t bad_hosts = 0;     ///< Proxy records with hostile SNIs.
  std::uint32_t reorder_swaps = 0; ///< Adjacent swaps (repairable lateness).

  // --- Runtime level (live/replayer) -----------------------------------
  std::uint32_t transient_reads = 0;  ///< Records whose read fails, then
                                      ///< recovers within the retry budget.
  std::uint32_t permanent_reads = 0;  ///< Records failing past the budget.

  // --- Byte level (v1 log fuzz corpus sizing) ---------------------------
  std::uint32_t truncations = 0;
  std::uint32_t length_bombs = 0;
  std::uint32_t bad_magics = 0;
  std::uint32_t bit_flips = 0;

  /// True when any record-level injector is active.
  [[nodiscard]] bool any_record_faults() const noexcept {
    return duplicates + regressions + unknown_tacs + bad_hosts +
               reorder_swaps >
           0;
  }
  /// True when any runtime-level injector is active.
  [[nodiscard]] bool any_runtime_faults() const noexcept {
    return transient_reads + permanent_reads > 0;
  }

  /// Named presets: "records", "records-heavy", "io", "transient",
  /// "runtime", "all".  Throws util::ConfigError for unknown names.
  static FaultProfile named(const std::string& name);
  /// The preset names, for --help text and sweeps.
  static std::vector<std::string> names();
};

/// What a plan actually injected, in quarantine units.
struct FaultManifest {
  /// The counters trace::sanitize_store / live::FeedReplayer must report
  /// for the injected faults — the exact-accounting contract.
  trace::QuarantineStats expected;
  /// Feed sequence numbers (merge order, both logs) whose reads fail past
  /// the retry budget; sorted ascending.  The differential runner removes
  /// exactly these records from the batch side.
  std::vector<std::uint64_t> permanent_fail_seqs;

  FaultManifest& operator+=(const FaultManifest& o) {
    expected += o.expected;
    permanent_fail_seqs.insert(permanent_fail_seqs.end(),
                               o.permanent_fail_seqs.begin(),
                               o.permanent_fail_seqs.end());
    return *this;
  }
};

// ---------------------------------------------------------------------------
// Byte level
// ---------------------------------------------------------------------------

/// A v1 binary log plus the offset of every record, so injectors can aim
/// at structure instead of guessing.
struct BinaryImage {
  std::string bytes;
  std::vector<std::size_t> record_offsets;  ///< First record at offset 8.
};

/// Indexes the v1 `Record` log `v1_log`: finds each record's offset by
/// walking the log with the reader's own record decoder
/// (trace::decode_record).  Throws util::ParseError unless the bytes are
/// a clean v1 log of `Record`s: a wrong header, another version, or a
/// record cut short.
template <typename Record>
BinaryImage image_of(std::string v1_log);

/// The byte-level injector kinds.
enum class ByteFaultKind {
  kTruncate,    ///< Cut the image mid-record.
  kLengthBomb,  ///< Overwrite a string length prefix with 0xFFFF.
  kBadMagic,    ///< Corrupt the file magic.
  kBitFlip,     ///< Flip 1..8 random bits anywhere (no exact accounting).
};

/// One corrupted image plus what the lenient reader must do with it.
struct ByteFault {
  ByteFaultKind kind = ByteFaultKind::kBitFlip;
  std::string bytes;                  ///< The corrupted image.
  std::size_t expected_survivors = 0; ///< Records the lenient read keeps.
  trace::QuarantineStats expected;    ///< corrupt_files / corrupt_tails.
  /// False for bit flips: the reader must merely survive (no crash, no
  /// UB, survivors <= input) — the damage is not structurally aimed.
  bool exact = true;
};

/// Applies one seeded fault of `kind` to a copy of `image`.  kLengthBomb
/// requires a ProxyRecord image (the only record type carrying strings at
/// a fixed offset); pass `proxy_layout = true` for those images.
ByteFault inject_bytes(const BinaryImage& image, ByteFaultKind kind,
                       util::Pcg32& rng, bool proxy_layout);

// ---------------------------------------------------------------------------
// Runtime level
// ---------------------------------------------------------------------------

/// A deterministic transient-read-failure schedule for FeedReplayer.
struct RuntimeFaults {
  /// Drop-in value for live::ReplayOptions::read_faults.
  std::function<std::uint32_t(std::uint64_t seq)> schedule;
  /// Sorted seqs that exhaust the retry budget (records lost).
  std::vector<std::uint64_t> permanent_seqs;
  /// Expected quarantine counters (transient_retries, dropped_after_retry).
  trace::QuarantineStats expected;
};

/// Seeded stall/burst schedule for ring-buffer stress tests: a pure
/// function of (seed, i), so producer and consumer threads need no shared
/// state to agree on it.
struct StallSchedule {
  std::uint64_t seed = 0;
  std::uint32_t stall_permille = 50;    ///< P(consumer stalls at pop i).
  std::uint32_t max_stall_us = 200;     ///< Stall length upper bound.
  std::uint32_t burst_permille = 80;    ///< P(producer bursts at push i).
  std::uint32_t max_burst = 32;         ///< Burst length upper bound.

  /// Consumer stall before pop #i, in microseconds (0 = no stall).
  [[nodiscard]] std::uint32_t stall_us(std::uint64_t i) const noexcept;
  /// Extra records the producer shoves back-to-back at push #i.
  [[nodiscard]] std::uint32_t burst_len(std::uint64_t i) const noexcept;
};

// ---------------------------------------------------------------------------
// The plan
// ---------------------------------------------------------------------------

/// A seeded, reproducible composition of the injectors above.
class FaultPlan {
 public:
  FaultPlan(std::uint64_t seed, FaultProfile profile);

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] const FaultProfile& profile() const noexcept {
    return profile_;
  }

  /// Record level: perturbs `store`'s proxy and MME logs in place from a
  /// clean time-sorted capture into a hostile arrival-ordered one, and
  /// returns the exact expected quarantine.  For the exactness contract
  /// the input must be duplicate-free and time-sorted (run
  /// trace::sanitize_store on it first); on arbitrary input the injection
  /// still works but the counts become lower bounds.
  FaultManifest inject_records(trace::TraceStore& store) const;

  /// Runtime level: a read-failure schedule for a feed of `feed_records`
  /// merged records, sized by the profile and bounded by `retry`.
  [[nodiscard]] RuntimeFaults runtime_faults(
      std::uint64_t feed_records, const live::RetryPolicy& retry) const;

  /// Byte level: the seeded fuzz corpus for one image — profile-sized
  /// counts of each ByteFaultKind.
  [[nodiscard]] std::vector<ByteFault> byte_corpus(const BinaryImage& image,
                                                   bool proxy_layout) const;

  /// The stress-test stall/burst schedule derived from this plan's seed.
  [[nodiscard]] StallSchedule stall_schedule() const;

 private:
  std::uint64_t seed_;
  FaultProfile profile_;
};

}  // namespace wearscope::chaos
