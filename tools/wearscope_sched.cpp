// wearscope_sched — deterministic interleaving exploration from the CLI.
//
//   wearscope_sched --scenario live --mode exhaustive --preemption-bound 2
//   wearscope_sched --scenario live-serve --mode walk --walks 1000 --seed 7
//   wearscope_sched --scenario mutation --mode exhaustive
//   wearscope_sched --scenario ring-close-producer --replay "0.2.1.0"
//   wearscope_sched --list
//
// Runs one of the registered concurrency scenarios (src/sched/models.h)
// under the deterministic scheduler, either exhaustively (bounded
// preemptions, partial-order reduction) or as seeded random walks.  A
// failing schedule prints its full replayable trace; feed the decision
// string back through --replay to re-execute the identical interleaving
// (e.g. under a debugger).  Exit status 1 on any invariant violation;
// a deadlocked schedule prints its trace the same way and ends the
// process with status 3 (sched::kDeadlockExitCode).
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sched/explorer.h"
#include "sched/models.h"
#include "util/error.h"
#include "util/flags.h"

namespace {

using namespace wearscope;

struct Scenario {
  const char* name;
  const char* what;
  sched::Model (*make)();
};

sched::Model make_ring() { return sched::ring_transfer_model(4, 2); }
sched::Model make_ring_close_producer() {
  return sched::ring_close_producer_model();
}
sched::Model make_ring_close_consumer() {
  return sched::ring_close_consumer_model();
}
sched::Model make_lane_handoff() { return sched::lane_handoff_model(false); }
sched::Model make_lane_handoff_close() {
  return sched::lane_handoff_model(true);
}
sched::Model make_store() { return sched::store_publish_read_model(1, 3); }
sched::Model make_live() { return sched::live_barrier_model(); }
sched::Model make_live_serve() { return sched::live_serve_model(); }
sched::Model make_mutation() { return sched::racy_counter_model(true); }

constexpr Scenario kScenarios[] = {
    {"ring", "SPSC ring handoff (FIFO + exact stats)", make_ring},
    {"ring-close-producer", "close() racing a pushing producer",
     make_ring_close_producer},
    {"ring-close-consumer", "close() racing a draining consumer",
     make_ring_close_consumer},
    {"lane-handoff", "two decode lanes popped round-robin (unit order)",
     make_lane_handoff},
    {"lane-handoff-close", "lane handoff closed after the first unit",
     make_lane_handoff_close},
    {"store", "SnapshotStore publish/read race (retain=1)", make_store},
    {"live", "2-shard engine vs sequential reference (tiny)", make_live},
    {"live-serve", "engine + snapshot store + racing reader",
     make_live_serve},
    {"mutation", "seeded lost-update bug (must be FOUND)", make_mutation},
};

int report(const sched::ScheduleTrace& trace) {
  if (trace.passed()) return 0;
  std::fputs(trace.report().c_str(), stderr);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string scenario = "live";
    std::string mode = "exhaustive";
    std::string replay_decisions;
    std::int64_t walks = 200;
    std::int64_t seed = 1;
    std::int64_t preemption_bound = 2;
    std::int64_t max_schedules = 200000;
    bool list = false;
    bool expect_failure = false;

    util::FlagParser flags(
        "wearscope_sched: explore thread interleavings of the live-ingest "
        "and serving layers under a deterministic scheduler; failing "
        "schedules print a seed + decision string that --replay re-executes "
        "exactly");
    flags.add_string("scenario", &scenario,
                     "scenario to explore (see --list)");
    flags.add_string("mode", &mode, "exhaustive | walk");
    flags.add_int("walks", &walks, "random-walk schedules (mode=walk)");
    flags.add_int("seed", &seed, "base seed for mode=walk");
    flags.add_int("preemption-bound", &preemption_bound,
                  "context bound for mode=exhaustive");
    flags.add_int("max-schedules", &max_schedules,
                  "exhaustive-enumeration budget");
    flags.add_string("replay", &replay_decisions,
                     "decision string to re-execute (overrides --mode)");
    flags.add_bool("list", &list, "print the scenario registry and exit");
    flags.add_bool("expect-failure", &expect_failure,
                   "invert the exit status: succeed only when a failing "
                   "schedule is found (mutation-test gate)");
    if (!flags.parse(argc, argv)) return 0;

    if (list) {
      for (const Scenario& s : kScenarios)
        std::fprintf(stdout, "%-22s %s\n", s.name, s.what);
      return 0;
    }

    const Scenario* chosen = nullptr;
    for (const Scenario& s : kScenarios) {
      if (scenario == s.name) chosen = &s;
    }
    util::require(chosen != nullptr,
                  "unknown --scenario (try --list): " + scenario);
    const sched::Model model = chosen->make();

    if (!replay_decisions.empty()) {
      const sched::ScheduleTrace trace =
          sched::replay(model, sched::parse_decisions(replay_decisions));
      std::fprintf(stderr, "replayed %zu steps: %s\n", trace.steps.size(),
                   trace.passed() ? "PASS" : "FAIL");
      const int rc = report(trace);
      return expect_failure ? (rc == 1 ? 0 : 1) : rc;
    }

    sched::ExploreStats stats;
    if (mode == "exhaustive") {
      sched::ExhaustOptions opt;
      opt.preemption_bound = static_cast<int>(preemption_bound);
      opt.max_schedules = static_cast<std::size_t>(max_schedules);
      stats = sched::exhaust(model, opt);
      std::fprintf(stderr,
                   "exhaustive: %zu schedules (pruned %zu independent, "
                   "%zu over bound)%s\n",
                   stats.schedules, stats.pruned_independent,
                   stats.pruned_bound,
                   stats.budget_exhausted ? " [budget exhausted]" : "");
    } else if (mode == "walk") {
      stats = sched::random_walks(model,
                                  static_cast<std::uint64_t>(seed),
                                  static_cast<std::size_t>(walks));
      std::fprintf(stderr, "walk: %zu seeded schedules\n", stats.schedules);
    } else {
      throw util::ConfigError("--mode must be exhaustive or walk, got " +
                              mode);
    }

    int rc = 0;
    if (stats.failure) rc = report(*stats.failure);
    return expect_failure ? (rc == 1 ? 0 : 1) : rc;
  } catch (const util::Error& e) {
    std::fprintf(stderr, "wearscope_sched: %s\n", e.what());
    return 2;
  }
}
