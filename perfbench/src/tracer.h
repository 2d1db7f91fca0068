// Timing helpers and the benchmark's span recorder.
//
// Spans are recorded from the benchmark's own code around each call into
// the library, never from inside it.  A span carries its name, start and
// end on the steady clock, its parent span and the run (repetition) it
// belongs to.  Everything stays in memory until the process writes the
// spans out at exit.
//
// Threading: only the thread that drives the workload opens spans (the
// batch path, the feed thread of the live replay, the federated cover).
// The query generator's threads keep their own latency samples instead.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated percentile (`q` in [0, 100]) of `values`; 0 when
/// empty.  Takes a copy because it sorts.
[[nodiscard]] double percentile(std::vector<double> values, double q);

[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< Index into Tracer::spans(), -1 for a root.
  int run = 0;
};

/// One run of the workload's path, or a probe outside it.
struct RunInfo {
  int id = 0;
  std::string label;  ///< "rep" (timed repetition) or "probe".
};

class Tracer {
 public:
  /// RAII span; a no-op when the tracer is not recording.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  [[nodiscard]] Scope span(const char* name) {
    return Scope(recording_ ? this : nullptr, name);
  }

  /// Starts recording run `label` (spans until end_run() belong to it).
  void begin_run(const std::string& label);
  void end_run() { recording_ = false; }

  /// For every span name: its summed duration in each run with `label`,
  /// in seconds (runs where the name never occurs contribute 0).
  [[nodiscard]] std::map<std::string, std::vector<double>> totals_per_run(
      const std::string& label) const {
    return per_run(label, /*longest=*/false);
  }
  /// For every span name: its longest single span in each run with `label`.
  [[nodiscard]] std::map<std::string, std::vector<double>> max_per_run(
      const std::string& label) const {
    return per_run(label, /*longest=*/true);
  }
  /// Durations in seconds of every span named `name`, pooled over runs.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

  /// Self-time table over the runs with `label`: per span name, the mean
  /// count, total and self time per run (self = duration minus the part
  /// covered by child spans), and the share of the mean root-span time.
  [[nodiscard]] std::string stage_table(const std::string& label) const;
  /// Sum over runs with `label` of root-span self time divided by the
  /// sum of root-span durations: the part of the timed path no library
  /// call accounts for.
  [[nodiscard]] double unattributed_share(const std::string& label) const;

  /// Writes one JSON object per span, tagged with `workload`.
  void write_jsonl(const std::filesystem::path& path,
                   const std::string& workload) const;

 private:
  /// Run id -> position among the runs with `label`.
  [[nodiscard]] std::map<int, std::size_t> runs_with(
      const std::string& label) const;
  [[nodiscard]] std::map<std::string, std::vector<double>> per_run(
      const std::string& label, bool longest) const;
  [[nodiscard]] std::vector<double> self_seconds() const;

  bool recording_ = false;
  std::vector<RunInfo> runs_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< Stack of open span indices.
  Clock::time_point epoch_ = Clock::now();
};

}  // namespace perfbench
