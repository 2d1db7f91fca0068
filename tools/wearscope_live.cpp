// wearscope_live — replay an on-disk capture through the concurrent
// live-ingest engine and report its online statistics.
//
//   wearscope_live --bundle traces/run1 --shards 4
//   wearscope_live --bundle d --shards 8 --snapshot-every 1d --speedup 0
//   wearscope_live --bundle d --verify          # cross-check vs batch
//
// --speedup 0 (the default) replays as fast as the engine accepts;
// --speedup 1 replays in real time. --snapshot-every takes seconds of
// stream time, with optional s/m/h/d suffix; 0 disables periodic
// snapshots (the final drain snapshot is always taken).
// --chaos-seed N injects a seeded fault plan (--chaos-profile) before the
// replay: record-level damage is quarantined by the sanitizer (surfacing in
// the snapshot), runtime read faults exercise the replayer's retry/backoff
// path.  --verify stays exact under chaos as long as the profile has no
// permanent read faults (use "transient" for that combination).
//
// --partition i/N runs the engine as partition i of an N-way federated
// cover: records whose user another partition owns are filtered at the
// router (the global stream position still advances, so `wearscope_merge`
// reassembles the single-process snapshot bitwise).  --partial-dir DIR
// persists a partial snapshot per epoch (fed/partial_io.h wire format).
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "chaos/fault_plan.h"
#include "fed/partial_io.h"
#include "live/engine.h"
#include "live/replayer.h"
#include "serve/reference.h"
#include "simnet/config_io.h"
#include "trace/bundle.h"
#include "trace/sanitize.h"
#include "util/error.h"
#include "util/flags.h"

namespace {

using namespace wearscope;

void print_snapshot(const live::LiveSnapshot& snap, const char* label) {
  std::printf("%s (epoch %llu, %llu records):\n", label,
              static_cast<unsigned long long>(snap.epoch),
              static_cast<unsigned long long>(snap.records));
  std::printf("  ever registered    : %zu (%.1f%% transacting)\n",
              snap.adoption.ever_registered,
              snap.adoption.ever_transacting_fraction * 100.0);
  std::printf("  monthly growth     : %+.2f%%\n",
              snap.adoption.monthly_growth * 100.0);
  std::printf("  mean active        : %.2f days/week, %.2f h/day\n",
              snap.activity.mean_active_days,
              snap.activity.mean_active_hours);
  std::printf("  median transaction : %.0f bytes (%.0f%% under 10 KB)\n",
              snap.activity.median_txn_bytes,
              snap.activity.frac_txn_under_10kb * 100.0);
  std::printf("  class mix (txns)   : app=%llu util=%llu ads=%llu "
              "analytics=%llu\n",
              static_cast<unsigned long long>(snap.class_txns[0]),
              static_cast<unsigned long long>(snap.class_txns[1]),
              static_cast<unsigned long long>(snap.class_txns[2]),
              static_cast<unsigned long long>(snap.class_txns[3]));
  const std::size_t top = std::min<std::size_t>(5, snap.apps.size());
  for (std::size_t i = 0; i < top; ++i) {
    const live::LiveSnapshot::AppRow& row = snap.apps[i];
    std::printf("  app #%zu            : %-18s %8llu txns %6llu usages "
                "%5llu users\n",
                i + 1, row.name.c_str(),
                static_cast<unsigned long long>(row.counter.transactions),
                static_cast<unsigned long long>(row.counter.usages),
                static_cast<unsigned long long>(row.counter.distinct_users));
  }
  if (snap.sketch.enabled) {
    std::printf("  sketch memory      : %zu bytes (merged across shards)\n",
                snap.sketch.memory_bytes);
    std::printf("  ~registered users  : %.0f (HLL)\n",
                snap.sketch.registered_users);
    std::printf("  ~transacting users : %.0f (HLL)\n",
                snap.sketch.transacting_users);
    std::printf("  ~txn size p50/95/99: %.0f / %.0f / %.0f bytes (t-digest)\n",
                snap.sketch.txn_size_p50, snap.sketch.txn_size_p95,
                snap.sketch.txn_size_p99);
    const std::size_t hh = std::min<std::size_t>(5, snap.sketch.top_apps.size());
    for (std::size_t i = 0; i < hh; ++i) {
      std::printf("  heavy hitter #%zu    : %-18s %8llu txns\n", i + 1,
                  snap.sketch.top_apps[i].first.c_str(),
                  static_cast<unsigned long long>(
                      snap.sketch.top_apps[i].second));
    }
  }
  std::printf("  backpressure       : %llu feed stalls, %llu idle waits\n",
              static_cast<unsigned long long>(
                  snap.backpressure.producer_waits),
              static_cast<unsigned long long>(
                  snap.backpressure.consumer_waits));
  if (snap.quarantine.any()) {
    std::printf("  quarantine         : %llu dropped, %llu repaired, "
                "%llu retried reads\n",
                static_cast<unsigned long long>(
                    snap.quarantine.total_dropped()),
                static_cast<unsigned long long>(snap.quarantine.reordered),
                static_cast<unsigned long long>(
                    snap.quarantine.transient_retries));
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::string bundle_dir;
    std::int64_t shards = 4;
    std::int64_t ring_capacity = 4096;
    std::string snapshot_every = "0";
    double speedup = 0.0;
    bool verify = false;
    bool sketch = false;
    std::int64_t observation_days = -1;
    std::int64_t detailed_start_day = -1;
    std::int64_t chaos_seed = -1;
    std::string chaos_profile = "records";
    std::string partition;
    std::string partial_dir;

    util::FlagParser flags(
        "wearscope_live: replay a trace bundle through the concurrent "
        "live-ingest engine (sharded workers + periodic snapshots)");
    flags.add_string("bundle", &bundle_dir, "bundle directory (required)");
    flags.add_int("shards", &shards, "worker shards (user partitions)");
    flags.add_int("ring-capacity", &ring_capacity,
                  "events buffered per shard ring");
    flags.add_string("snapshot-every", &snapshot_every,
                     "periodic snapshot interval in stream time "
                     "(e.g. 90, 15m, 6h, 1d; 0 = final only)");
    flags.add_double("speedup", &speedup,
                     "stream-time/wall-time ratio (0 = as fast as possible)");
    flags.add_bool("verify", &verify,
                   "also run the batch pipeline and require the final "
                   "snapshot to match it exactly");
    flags.add_bool("sketch", &sketch,
                   "bounded-memory mode: approximate distinct users, "
                   "transaction-size quantiles and heavy-hitter apps via "
                   "HLL/t-digest/count-min sketches (incompatible with "
                   "--verify)");
    flags.add_int("observation-days", &observation_days,
                  "window length (-1: from generator.cfg or default)");
    flags.add_int("detailed-start-day", &detailed_start_day,
                  "first detailed day (-1: from generator.cfg or default)");
    flags.add_int("chaos-seed", &chaos_seed,
                  "inject a seeded fault plan before replay (-1 = off)");
    flags.add_string("chaos-profile", &chaos_profile,
                     "fault profile: records, records-heavy, io, transient, "
                     "runtime, all");
    flags.add_string("partition", &partition,
                     "run as partition i of an N-way federated cover "
                     "(format i/N; needs --partial-dir)");
    flags.add_string("partial-dir", &partial_dir,
                     "directory for partial-snapshot files, one per epoch");
    if (!flags.parse(argc, argv)) return 0;
    util::require(!bundle_dir.empty(), "--bundle is required");
    util::require(shards >= 1, "--shards must be >= 1");
    util::require(ring_capacity >= 1, "--ring-capacity must be >= 1");
    util::require(!(sketch && verify),
                  "--verify needs exact aggregates; drop --sketch");

    live::LiveOptions opt;
    opt.shards = static_cast<std::size_t>(shards);
    opt.ring_capacity = static_cast<std::size_t>(ring_capacity);
    opt.sketch_aggregates = sketch;
    if (!partition.empty()) {
      unsigned long long pid = 0;
      unsigned long long pcount = 0;
      char trailing = 0;
      util::require(std::sscanf(partition.c_str(), "%llu/%llu%c", &pid,
                                &pcount, &trailing) == 2 &&
                        pcount >= 1 && pid < pcount,
                    "--partition must be i/N with 0 <= i < N");
      util::require(!partial_dir.empty(),
                    "--partition needs --partial-dir to persist partials");
      util::require(!verify,
                    "--verify compares the full feed; a partition only owns "
                    "a slice (use wearscope_merge --verify instead)");
      opt.partition_id = static_cast<std::size_t>(pid);
      opt.partition_count = static_cast<std::size_t>(pcount);
    }
    if (!partial_dir.empty()) opt.capture_tallies = true;
    const std::filesystem::path cfg_path =
        std::filesystem::path(bundle_dir) / "generator.cfg";
    if (std::filesystem::exists(cfg_path)) {
      const simnet::SimConfig cfg = simnet::load_config_file(cfg_path);
      opt.observation_days = cfg.observation_days;
      opt.detailed_start_day = cfg.observation_days - cfg.detailed_days;
      opt.long_tail_apps = cfg.long_tail_apps;
    }
    if (observation_days > 0)
      opt.observation_days = static_cast<int>(observation_days);
    if (detailed_start_day >= 0)
      opt.detailed_start_day = static_cast<int>(detailed_start_day);

    live::ReplayOptions replay_opt;
    replay_opt.speedup = speedup;
    replay_opt.snapshot_every_s =
        util::parse_duration_s(snapshot_every, "--snapshot-every");

    trace::TraceStore store = trace::load_bundle(bundle_dir);
    store.sort_by_time();

    trace::QuarantineStats pre_quarantine;
    if (chaos_seed >= 0) {
      const chaos::FaultPlan plan(static_cast<std::uint64_t>(chaos_seed),
                                  chaos::FaultProfile::named(chaos_profile));
      util::require(!verify || plan.profile().permanent_reads == 0,
                    "--verify needs a chaos profile without permanent read "
                    "faults (try --chaos-profile transient)");
      // Clean fixed point first, then damage, then sanitize-with-counting:
      // the survivors feed the engine, the counters ride into the snapshot.
      trace::sanitize_store(store);
      plan.inject_records(store);
      pre_quarantine = trace::sanitize_store(store);
      const chaos::RuntimeFaults runtime = plan.runtime_faults(
          store.proxy.size() + store.mme.size(), replay_opt.retry);
      replay_opt.read_faults = runtime.schedule;
      std::printf("chaos: profile '%s' seed %lld, %llu records quarantined "
                  "before replay, %zu reads scheduled to fail permanently\n",
                  plan.profile().name.c_str(),
                  static_cast<long long>(chaos_seed),
                  static_cast<unsigned long long>(
                      pre_quarantine.total_dropped()),
                  runtime.permanent_seqs.size());
    }

    const trace::TraceSummary sum = store.summarize();
    std::printf("replaying %zu proxy + %zu MME records through %lld "
                "shard(s)\n",
                sum.proxy_records, sum.mme_records,
                static_cast<long long>(shards));

    if (!partial_dir.empty()) {
      std::filesystem::create_directories(partial_dir);
    }

    live::LiveEngine engine(store.devices, opt);
    engine.add_quarantine(pre_quarantine);
    const live::FeedReplayer replayer(store, replay_opt);
    const live::ReplayReport report = replayer.replay(engine);
    const auto persist_partial = [&](const live::LiveSnapshot& snap) {
      const std::filesystem::path path =
          std::filesystem::path(partial_dir) /
          fed::partial_file_name(
              static_cast<std::uint32_t>(opt.partition_id),
              static_cast<std::uint32_t>(opt.partition_count), snap.epoch);
      fed::write_partial_file(path, fed::make_partial(snap, opt));
      std::printf("   wrote partial %s (%llu owned of %llu feed records)\n",
                  path.string().c_str(),
                  static_cast<unsigned long long>(snap.records),
                  static_cast<unsigned long long>(snap.feed_records));
    };
    for (const live::LiveSnapshot& snap : report.snapshots) {
      std::printf("-- periodic snapshot at epoch %llu: %llu records\n",
                  static_cast<unsigned long long>(snap.epoch),
                  static_cast<unsigned long long>(snap.records));
      if (!partial_dir.empty()) persist_partial(snap);
    }
    const live::LiveSnapshot final_snap = engine.stop();
    if (!partial_dir.empty()) persist_partial(final_snap);
    if (opt.partition_count > 1) {
      std::printf("partition %zu/%zu: %llu records owned, %llu filtered to "
                  "other partitions\n",
                  opt.partition_id, opt.partition_count,
                  static_cast<unsigned long long>(final_snap.records),
                  static_cast<unsigned long long>(engine.filtered_records()));
    }

    const double rate =
        report.wall_seconds > 0.0
            ? static_cast<double>(report.records_pushed) / report.wall_seconds
            : 0.0;
    std::printf("replayed %llu records in %.2fs (%.0f records/s)\n",
                static_cast<unsigned long long>(report.records_pushed),
                report.wall_seconds, rate);
    print_snapshot(final_snap, "final snapshot");

    if (verify) {
      // The feed-side accounting tracked here, apart from the engine's.
      trace::QuarantineStats expected = pre_quarantine;
      expected += report.quarantine;
      const std::vector<serve::VerifyMismatch> mismatches =
          serve::verify_responses(final_snap, store, opt, expected);
      for (const serve::VerifyMismatch& m : mismatches) {
        std::printf("  MISMATCH %s\n    live : %s\n    batch: %s\n",
                    m.query.c_str(), m.serve.c_str(), m.batch.c_str());
      }
      if (!mismatches.empty()) {
        std::fprintf(stderr,
                     "error: live snapshot diverges from batch pipeline\n");
        return 1;
      }
      std::printf("verify: live snapshot == batch pipeline (exact adoption, "
                  "activity, apps, sectors and quarantine)\n");
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
