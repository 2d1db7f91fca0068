// The chaos differential harness.
//
// For any seeded FaultPlan, the batch pipeline and the live engine must
// tell the same story about the records that survive quarantine — and the
// quarantine counters must equal the injected fault counts *exactly*.
// run_differential() drives the whole contract over one clean capture:
//
//   1. canonicalize the capture (sort + sanitize — a clean capture is a
//      fixed point of the sanitizer);
//   2. inject the plan's record-level faults, sanitize the hostile copy,
//      and require (a) quarantine == manifest bit-for-bit, (b) the
//      surviving records == the canonical capture bit-for-bit;
//   3. run core::Pipeline over the survivors minus the plan's permanent
//      feed drops (the batch truth);
//   4. replay the survivors through LiveEngine at every requested shard
//      count, with the plan's transient/permanent read faults live, and
//      require adoption + activity to match the batch truth bitwise and
//      every snapshot's quarantine to equal injected counts exactly.
//
// A DiffReport with passed=false lists every mismatch as a human-readable
// string; tests assert on `passed` and print the strings.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "core/context.h"
#include "trace/quarantine.h"
#include "trace/store.h"

namespace wearscope::chaos {

/// Configuration of one differential run.
struct DiffOptions {
  std::uint64_t seed = 1;
  FaultProfile profile = FaultProfile::named("records");
  /// Every shard count the live side is checked at.
  std::vector<std::size_t> shard_counts = {1, 2, 4, 8};
  /// Analysis window shared by both sides.
  core::AnalysisOptions analysis;
  /// Ring capacity for the live engines (small values exercise
  /// backpressure during the differential itself).
  std::size_t ring_capacity = 1024;
};

/// Outcome of one differential run.
struct DiffReport {
  bool passed = false;
  /// Human-readable description of every divergence (empty when passed).
  std::vector<std::string> mismatches;
  /// What the sanitizer counted on the hostile copy.
  trace::QuarantineStats observed;
  /// What the plan injected (record + runtime level).
  FaultManifest manifest;
  /// Survivor counts after sanitization.
  std::size_t surviving_proxy = 0;
  std::size_t surviving_mme = 0;

  /// One-line summary for logs.
  [[nodiscard]] std::string summary() const;
};

/// Appends one "<what>.<counter>: a != b" line to `mismatches` per
/// QuarantineStats counter that differs — the comparison every quarantine
/// check of run_differential makes.
void diff_quarantine(const std::string& what, const trace::QuarantineStats& a,
                     const trace::QuarantineStats& b,
                     std::vector<std::string>& mismatches);

/// Runs the full differential contract for (clean capture, seed, profile).
/// `clean` is copied; the capture needs a non-empty DeviceDB snapshot
/// (both the TAC filter and the live engine classify against it).
DiffReport run_differential(const trace::TraceStore& clean,
                            const DiffOptions& options);

}  // namespace wearscope::chaos
