// Replayable schedule traces.
//
// A deterministic-scheduler run is a pure function of its decision
// sequence: at every choice point the scheduler picked one position out
// of the runnable-candidate list, and ScheduleTrace records exactly those
// positions plus enough context (thread, operation, object) to print a
// human-readable schedule.  The decision string ("0.2.1.0...") is the
// whole reproduction recipe — feeding it back through a ReplaySource
// (sched/scheduler.h) re-executes the identical interleaving, which is
// what `wearscope_sched --replay` and the mutation test rely on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/sched_hook.h"

namespace wearscope::sched {

/// One runnable thread at a choice point, as the scheduler saw it.
struct StepCandidate {
  int thread = 0;           ///< Stable thread index (registration order).
  util::sched::Op op = util::sched::Op::kUserPoint;  ///< Its pending op.
  std::uint64_t obj = 0;    ///< Stable id of the object it acts on.
  bool is_current = false;  ///< Was the running thread before this point.
};

/// One scheduling decision: which thread ran, out of which candidates.
struct TraceStep {
  std::uint64_t clock = 0;  ///< Virtual time: 0-based step index.
  int thread = 0;           ///< Chosen thread (stable index).
  std::string thread_name;  ///< Chosen thread's name at registration.
  util::sched::Op op = util::sched::Op::kUserPoint;  ///< Its op.
  std::uint64_t obj = 0;    ///< Stable object id (0 = none).
  int chosen_pos = 0;       ///< Position picked in `candidates`.
  bool preemption = false;  ///< Switched away from a still-runnable thread.
  std::vector<StepCandidate> candidates;  ///< Ordered by thread index.
};

/// The full record of one explored schedule.
struct ScheduleTrace {
  /// Seed of the random walk that produced it (0 for prefix/replay runs).
  std::uint64_t seed = 0;
  /// The decision sequence: candidate positions, one per step.
  std::vector<int> decisions;
  std::vector<TraceStep> steps;
  bool deadlock = false;  ///< All threads blocked with work remaining.
  /// Invariant violations recorded by the model (empty = schedule passed).
  std::vector<std::string> failures;

  [[nodiscard]] bool passed() const noexcept {
    return failures.empty() && !deadlock;
  }

  /// Dotted decision sequence, e.g. "0.2.1.0" ("" when no steps ran).
  [[nodiscard]] std::string decision_string() const;

  /// Human-readable schedule: header (seed + decision string + verdict)
  /// followed by at most `max_steps` step lines like
  ///   t=012 shard-1 ring-pop obj#2 <pos 1/2, preempt>
  /// and the failure messages.  This is what a failing sched test prints;
  /// the header carries everything --replay needs.
  [[nodiscard]] std::string format(std::size_t max_steps = 120) const;

  /// format() followed by the replay recipe line
  ///   replay with: --replay "0.2.1.0"
  /// — what a failing `wearscope_sched` run or deadlock prints.
  [[nodiscard]] std::string report() const;
};

/// Parses a dotted decision string back into positions.  Throws
/// util::Error on malformed input.
[[nodiscard]] std::vector<int> parse_decisions(const std::string& text);

}  // namespace wearscope::sched
