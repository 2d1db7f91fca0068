#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <optional>
#include <utility>

#include "core/analysis_activity.h"
#include "core/analysis_adoption.h"
#include "core/analysis_apps.h"
#include "core/analysis_categories.h"
#include "core/analysis_cohorts.h"
#include "core/analysis_comparison.h"
#include "core/analysis_diurnal.h"
#include "core/analysis_geography.h"
#include "core/analysis_mobility.h"
#include "core/analysis_protocol.h"
#include "core/analysis_retention.h"
#include "core/analysis_thirdparty.h"
#include "core/analysis_throughdevice.h"
#include "core/analysis_usage.h"
#include "core/pipeline.h"
#include "fed/feed_filter.h"
#include "fed/merge.h"
#include "fed/partial_io.h"
#include "live/engine.h"
#include "live/replayer.h"
#include "loadgen.h"
#include "serve/query_engine.h"
#include "serve/reference.h"
#include "serve/server.h"
#include "serve/snapshot_store.h"
#include "simnet/config_io.h"
#include "trace/bundle.h"
#include "util/sim_time.h"

namespace perfbench {

namespace fs = std::filesystem;
using namespace wearscope;

void Outcome::check(bool ok, const std::string& what) {
  count(1, ok ? 0 : 1, what);
}

void Outcome::count(std::uint64_t n, std::uint64_t bad,
                    const std::string& what) {
  attempted += n;
  failed += bad;
  if (bad > 0) failures.push_back(what + " (" + std::to_string(bad) + ")");
}

double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu", &kb) == 1) break;
  }
  std::fclose(status);
  return static_cast<double>(kb) / 1024.0;
}

namespace {

/// Resets VmHWM to the current resident set (Linux clear_refs "5"), so the
/// next read covers only what ran in between.  False where refused.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

enum class Pass { kWarmup, kTimed, kTraced };

constexpr std::size_t kMinReps = 3;         // untraced mode
constexpr std::size_t kMinTracedReps = 2;   // traced mode, of each kind

/// Runs `rep` once as a discarded warm-up (a cold first pass is much
/// slower than the steady state), then until `cfg.seconds` have passed and
/// the minimum repetition count is in.  Traced mode alternates untraced
/// and traced repetitions; wall_s and peak_rss_mb only ever come from
/// untraced ones, as medians over repetitions.  The peak resident set is
/// taken per repetition, each starting from a trimmed heap as a fresh
/// process would: memory the allocator's per-thread arenas kept from the
/// previous repetition otherwise shifts the peak by a random amount.
template <typename Rep>
void repeat(const Config& cfg, Tracer& tracer, Rep&& rep, Outcome& out) {
  (void)rep(Pass::kWarmup);
  std::vector<double> plain;
  std::vector<double> traced;
  std::vector<double> peaks;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool trace_this = cfg.traced && i % 2 == 1;
    if (trace_this) tracer.begin_run("rep");
    malloc_trim(0);
    const bool reset = reset_peak_rss();
    const double wall = rep(trace_this ? Pass::kTraced : Pass::kTimed);
    tracer.end_run();
    (trace_this ? traced : plain).push_back(wall);
    if (!trace_this && reset) peaks.push_back(peak_rss_mb());
    const bool enough = cfg.traced ? std::min(plain.size(), traced.size()) >=
                                         kMinTracedReps
                                   : plain.size() >= kMinReps;
    if (enough && seconds_since(t0) >= cfg.seconds) break;
  }
  out.rep_walls = plain;
  out.rep_peaks_mb = peaks;
  out.metrics["wall_s"] = median(plain);
  out.metrics["peak_rss_mb"] =
      peaks.size() == plain.size() ? median(peaks) : peak_rss_mb();
  out.metrics["bench.reps"] = static_cast<double>(plain.size());
  if (cfg.traced) {
    const double untraced_s = median(plain);
    const double traced_s = median(traced);
    out.metrics["bench.traced_wall_s"] = traced_s;
    out.metrics["bench.trace_overhead"] = traced_s / untraced_s - 1.0;
    out.metrics["bench.unattributed_share"] = tracer.unattributed_share("rep");
  }
}

/// Median over traced repetitions of each span's per-repetition total,
/// as `<name>_s`.
void emit_span_medians(const Tracer& tracer, Outcome& out,
                       std::initializer_list<const char*> names) {
  const auto totals = tracer.totals_per_run("rep");
  for (const char* name : names) {
    const auto it = totals.find(name);
    out.metrics[std::string(name) + "_s"] =
        it == totals.end() ? 0.0 : median(it->second);
  }
}

simnet::SimConfig bundle_config(const fs::path& bundle) {
  return simnet::load_config_file(bundle / "generator.cfg");
}

/// Engine options the way wearscope_serve/wearscope_live derive them.
live::LiveOptions live_options(const fs::path& bundle) {
  const simnet::SimConfig sim = bundle_config(bundle);
  live::LiveOptions opt;
  opt.shards = kShards;
  opt.ring_capacity = kRingCapacity;
  opt.observation_days = sim.observation_days;
  opt.detailed_start_day = sim.observation_days - sim.detailed_days;
  opt.long_tail_apps = sim.long_tail_apps;
  return opt;
}

/// The query set whose final-epoch answers must not change between
/// repetitions (and that serve::verify_responses holds to the batch).
std::vector<std::string> canonical_answers(serve::QueryEngine& queries) {
  std::vector<std::string> out;
  for (const char* q :
       {"adoption", "activity", "top-apps 10", "sectors 10", "quarantine"}) {
    out.push_back(queries.answer(q));
  }
  return out;
}

/// Counts one check that the final answers equal those of the first timed
/// repetition (the first call only records them).
void check_same_answers(std::vector<std::string> answers,
                        std::vector<std::string>& first, Outcome& out,
                        const char* what) {
  if (first.empty()) {
    first = std::move(answers);
    return;
  }
  out.check(answers == first, what);
}

void check_verify(const std::vector<serve::VerifyMismatch>& mismatches,
                  Outcome& out, const char* what) {
  for (const serve::VerifyMismatch& m : mismatches) {
    std::fprintf(stderr, "MISMATCH %s\n  serve: %s\n  batch: %s\n",
                 m.query.c_str(), m.serve.c_str(), m.batch.c_str());
  }
  out.check(mismatches.empty(), what);
}

/// Each analyze_* pass once, one after another, on a settled context.
void probe_analyses(const core::AnalysisContext& ctx, Tracer& tracer) {
  tracer.begin_run("probe");
  const auto time = [&](const char* name, const auto& fn) {
    const Tracer::Scope span = tracer.span(name);
    fn();
  };
  time("core.analyze_adoption", [&] { (void)core::analyze_adoption(ctx); });
  time("core.analyze_diurnal", [&] { (void)core::analyze_diurnal(ctx); });
  time("core.analyze_activity", [&] { (void)core::analyze_activity(ctx); });
  time("core.analyze_comparison",
       [&] { (void)core::analyze_comparison(ctx); });
  time("core.analyze_mobility", [&] { (void)core::analyze_mobility(ctx); });
  time("core.analyze_apps", [&] { (void)core::analyze_apps(ctx); });
  time("core.analyze_categories",
       [&] { (void)core::analyze_categories(ctx); });
  time("core.analyze_usage", [&] { (void)core::analyze_usage(ctx); });
  time("core.analyze_thirdparty",
       [&] { (void)core::analyze_thirdparty(ctx); });
  time("core.analyze_throughdevice",
       [&] { (void)core::analyze_throughdevice(ctx); });
  time("core.analyze_cohorts", [&] { (void)core::analyze_cohorts(ctx); });
  time("core.analyze_retention", [&] { (void)core::analyze_retention(ctx); });
  time("core.analyze_protocol", [&] { (void)core::analyze_protocol(ctx); });
  time("core.analyze_geography", [&] { (void)core::analyze_geography(ctx); });
  tracer.end_run();
}

}  // namespace

// --- batch_standard --------------------------------------------------------

void run_batch(const Config& cfg, Tracer& tracer, Outcome& out) {
  const simnet::SimConfig sim = bundle_config(cfg.bundle);
  core::AnalysisOptions opt;
  opt.observation_days = sim.observation_days;
  opt.detailed_start_day = sim.observation_days - sim.detailed_days;
  opt.long_tail_apps = sim.long_tail_apps;
  opt.threads = cfg.threads;
  trace::LoadOptions load;
  load.threads = cfg.threads;

  std::string first_report;
  double records = 0.0;
  double failed_checks = 0.0;
  const auto rep = [&](Pass pass) {
    trace::TraceStore store;
    std::optional<core::Pipeline> pipeline;
    core::StudyReport report;
    std::string text;
    double wall = 0.0;
    {
      const Tracer::Scope root = tracer.span("bench.batch");
      const Clock::time_point t0 = Clock::now();
      {
        const Tracer::Scope span = tracer.span("trace.load_bundle");
        store = trace::load_bundle(cfg.bundle, load);
      }
      {
        const Tracer::Scope span = tracer.span("trace.sort_by_time");
        store.sort_by_time();
      }
      {
        const Tracer::Scope span = tracer.span("core.context");
        pipeline.emplace(store, opt);
      }
      {
        const Tracer::Scope span = tracer.span("core.pipeline_run");
        report = pipeline->run();
      }
      {
        const Tracer::Scope span = tracer.span("core.render");
        text = report.to_text();
      }
      wall = seconds_since(t0);
    }
    records = static_cast<double>(store.proxy.size() + store.mme.size());
    failed_checks = static_cast<double>(report.failed_checks());
    if (first_report.empty()) {
      first_report = std::move(text);
    } else {
      out.check(text == first_report,
                "batch: report differs between repetitions");
    }
    if (pass == Pass::kTraced) probe_analyses(pipeline->context(), tracer);
    // The store and context are freed here, outside the timed region.
    return wall;
  };
  repeat(cfg, tracer, rep, out);
  out.metrics["trace.records"] = records;
  // Paper-claim checks that miss their range are a property of the seed's
  // synthetic capture, not an error: the standard preset misses one on
  // about half the seeds.  The gate below pins them to the reference.
  out.metrics["core.failed_checks"] = failed_checks;

  // Reference: the sequential pipeline must render the same bytes.
  {
    trace::TraceStore store = trace::load_bundle(cfg.bundle);
    store.sort_by_time();
    core::AnalysisOptions sequential = opt;
    sequential.threads = 1;
    const std::string reference =
        core::Pipeline(store, sequential).run().to_text();
    out.check(reference == first_report,
              "batch: report differs from the threads=1 reference");
  }

  if (!cfg.traced) return;
  emit_span_medians(tracer, out,
                    {"trace.load_bundle", "trace.sort_by_time", "core.context",
                     "core.pipeline_run", "core.render"});
  double analyses = 0.0;
  double longest = 0.0;
  for (const auto& [name, per_run] : tracer.totals_per_run("probe")) {
    const double s = median(per_run);
    out.metrics[name + "_s"] = s;
    analyses += s;
    longest = std::max(longest, s);
  }
  const double run_s = out.metrics["core.pipeline_run_s"];
  out.metrics["core.parallel_efficiency"] =
      analyses / (static_cast<double>(cfg.threads) * run_s);
  out.metrics["core.critical_share"] = longest / run_s;
}

// --- ingest_serve_standard -------------------------------------------------

namespace {

/// perf_serve's dashboard "mixed" set; the two historical entries read
/// the epoch kHistoryDepth behind the latest.
const std::vector<MixEntry>& dashboard_mix() {
  static const std::vector<MixEntry> mix = {
      {"adoption", false},   {"activity", false}, {"top-apps 10", false},
      {"sectors 10", false}, {"quarantine", false}, {"epochs", false},
      {"adoption", true},    {"top-apps 5", true},
  };
  return mix;
}

/// Per-kind answer latency on a quiet store: p50 in microseconds of each
/// mix entry answered directly through QueryEngine::answer.
std::vector<double> direct_answer_p50_us(serve::QueryEngine& queries,
                                         std::uint64_t latest_epoch) {
  constexpr int kCalls = 300;
  const std::uint64_t epoch =
      latest_epoch >= kHistoryDepth ? latest_epoch - kHistoryDepth : 0;
  std::vector<double> out;
  for (const MixEntry& entry : dashboard_mix()) {
    const std::string line =
        entry.historical ? entry.text + " @" + std::to_string(epoch)
                         : entry.text;
    std::vector<double> us;
    for (int i = 0; i < kCalls; ++i) {
      const Clock::time_point t0 = Clock::now();
      (void)queries.answer(line);
      us.push_back(seconds_since(t0) * 1e6);
    }
    out.push_back(median(std::move(us)));
  }
  return out;
}

}  // namespace

void run_ingest_serve(const Config& cfg, Tracer& tracer, Outcome& out) {
  const live::LiveOptions opt = live_options(cfg.bundle);
  // Set-up, the way wearscope_serve does it: load, then sort.
  const Clock::time_point s0 = Clock::now();
  trace::TraceStore store = trace::load_bundle(cfg.bundle);
  store.sort_by_time();
  out.setup_s = seconds_since(s0);
  const std::uint64_t records = store.proxy.size() + store.mme.size();

  std::vector<double> latency_us;
  std::vector<double> late_ms;
  std::vector<double> sent;
  std::vector<double> epoch_gaps_ms;
  std::vector<double> epochs;
  std::vector<double> feed_stalls;
  std::vector<double> idle_waits;
  std::vector<std::vector<double>> answer_p50;  // per traced rep, per entry
  std::vector<std::string> first_answers;
  serve::SnapshotRef last_final;
  trace::QuarantineStats last_quarantine;

  const auto rep = [&](Pass pass) {
    serve::SnapshotStore snapshots(kRetain);
    serve::QueryEngine queries(snapshots);
    serve::LineServer server(queries);
    server.start_listener(0);
    OpenLoopLoad load(server.bound_port(), kQueryRate, dashboard_mix());

    std::vector<Clock::time_point> publish_times;
    live::ReplayOptions ropt;
    ropt.snapshot_every_s = util::kSecondsPerDay;
    ropt.on_snapshot = [&](live::LiveSnapshot snap) {
      const std::uint64_t epoch = snap.epoch;
      {
        const Tracer::Scope span = tracer.span("serve.publish");
        snapshots.publish(std::move(snap));
      }
      load.on_publish(epoch);
      if (pass == Pass::kTraced) publish_times.push_back(Clock::now());
    };
    live::LiveEngine engine(store.devices, opt);
    const live::FeedReplayer replayer(store, ropt);
    live::ReplayReport report;
    double wall = 0.0;
    {
      const Tracer::Scope root = tracer.span("bench.ingest");
      const Clock::time_point t0 = Clock::now();
      {
        const Tracer::Scope span = tracer.span("live.replay");
        report = replayer.replay(engine);
      }
      live::LiveSnapshot final_snap;
      {
        const Tracer::Scope span = tracer.span("live.stop");
        final_snap = engine.stop();
      }
      const std::uint64_t final_epoch = final_snap.epoch;
      {
        const Tracer::Scope span = tracer.span("serve.publish");
        snapshots.publish(std::move(final_snap), /*final_epoch=*/true);
      }
      load.on_publish(final_epoch);
      wall = seconds_since(t0);
    }
    LoadStats stats = load.finish();

    out.count(stats.sent, stats.sent - std::min(stats.sent, stats.answered),
              "ingest_serve: queries without an answer");
    out.count(0, stats.errors, "ingest_serve: ERR answers, first: " +
                                   stats.first_error);
    out.check(!stats.receive_failed, "ingest_serve: answer stream failed");
    const serve::SnapshotRef final_ref = snapshots.latest();
    out.check(final_ref != nullptr && final_ref->final_epoch &&
                  final_ref->snap.records == records,
              "ingest_serve: final snapshot does not cover the capture");
    check_same_answers(canonical_answers(queries), first_answers, out,
                       "ingest_serve: final answers differ between "
                       "repetitions");
    if (pass != Pass::kWarmup) {
      latency_us.insert(latency_us.end(), stats.latency_us.begin(),
                        stats.latency_us.end());
      late_ms.insert(late_ms.end(), stats.late_ms.begin(),
                     stats.late_ms.end());
      sent.push_back(static_cast<double>(stats.sent));
      const live::RingStats ring = engine.backpressure();
      epochs.push_back(static_cast<double>(engine.epochs_issued()));
      feed_stalls.push_back(static_cast<double>(ring.producer_waits));
      idle_waits.push_back(static_cast<double>(ring.consumer_waits));
    }
    if (pass == Pass::kTraced) {
      for (std::size_t i = 1; i < publish_times.size(); ++i) {
        epoch_gaps_ms.push_back(
            std::chrono::duration<double, std::milli>(publish_times[i] -
                                                      publish_times[i - 1])
                .count());
      }
      answer_p50.push_back(
          direct_answer_p50_us(queries, final_ref->snap.epoch));
    }
    server.stop_listener();
    last_final = final_ref;
    last_quarantine = report.quarantine;
    return wall;
  };
  repeat(cfg, tracer, rep, out);
  out.metrics["trace.records"] = static_cast<double>(records);
  out.metrics["serve.query_p50_us"] = percentile(latency_us, 50);
  out.metrics["serve.query_p99_us"] = percentile(latency_us, 99);
  out.metrics["serve.query_samples"] = static_cast<double>(latency_us.size());

  check_verify(serve::verify_responses(last_final->snap, store, opt,
                                       last_quarantine),
               out, "ingest_serve: final epoch diverges from the batch");

  if (!cfg.traced) return;
  emit_span_medians(tracer, out, {"live.replay", "live.stop", "serve.publish"});
  out.metrics["live.epochs"] = median(epochs);
  out.metrics["live.feed_stalls"] = median(feed_stalls);
  out.metrics["live.idle_waits"] = median(idle_waits);
  out.metrics["live.epoch_wall_ms_p50"] = percentile(epoch_gaps_ms, 50);
  out.metrics["live.epoch_wall_ms_p99"] = percentile(epoch_gaps_ms, 99);
  std::vector<double> publish_us = tracer.durations("serve.publish");
  for (double& d : publish_us) d *= 1e6;
  out.metrics["serve.publish_us_p50"] = percentile(publish_us, 50);
  out.metrics["serve.publish_us_p99"] = percentile(std::move(publish_us), 99);

  // Entry order follows dashboard_mix(); the two historical entries share
  // one kind.
  const auto entry_p50 = [&](std::size_t entry) {
    std::vector<double> v;
    for (const std::vector<double>& rep_p50 : answer_p50) {
      v.push_back(rep_p50[entry]);
    }
    return median(std::move(v));
  };
  const char* kinds[] = {"adoption", "activity",   "top_apps",
                         "sectors",  "quarantine", "epochs"};
  double weighted = 0.0;
  for (std::size_t e = 0; e < dashboard_mix().size(); ++e) {
    const double p50 = entry_p50(e);
    weighted += p50 / static_cast<double>(dashboard_mix().size());
    if (e < std::size(kinds)) {
      out.metrics[std::string("serve.answer_us_") + kinds[e]] = p50;
    }
  }
  out.metrics["serve.answer_us_historical"] = (entry_p50(6) + entry_p50(7)) / 2;
  out.metrics["serve.tcp_overhead_us"] =
      out.metrics["serve.query_p50_us"] - weighted;
  out.metrics["loadgen.sent"] = median(sent);
  out.metrics["loadgen.late_ms_p99"] = percentile(late_ms, 99);
}

// --- fed_cover_standard ----------------------------------------------------

void run_fed_cover(const Config& cfg, Tracer& tracer, Outcome& out) {
  live::LiveOptions base = live_options(cfg.bundle);
  base.capture_tallies = true;
  const fs::path partial_dir = cfg.work / "partials";

  std::vector<double> partial_bytes;
  std::vector<double> owned_share;
  std::vector<double> epochs;
  std::vector<double> feed_stalls;
  std::vector<double> idle_waits;
  std::vector<std::string> first_answers;
  fed::MergeResult last;
  double records = 0.0;

  const auto rep = [&](Pass pass) {
    fs::remove_all(partial_dir);
    fs::create_directories(partial_dir);
    std::vector<fs::path> paths;
    std::uint64_t largest_owned = 0;  // the partition that owns the most
    std::uint64_t feed_records = 0;
    std::uint64_t epochs_issued = 0;
    live::RingStats ring;
    fed::MergeResult merged;
    double wall = 0.0;
    {
      const Tracer::Scope root = tracer.span("bench.fed");
      const Clock::time_point t0 = Clock::now();
      for (std::size_t id = 0; id < kPartitions; ++id) {
        const Tracer::Scope partition = tracer.span("fed.partition");
        fed::PartitionFeed feed;
        {
          const Tracer::Scope span = tracer.span("fed.load_feed");
          feed = fed::load_partition_feed(cfg.bundle, id, kPartitions);
        }
        live::LiveOptions opt = base;
        opt.partition_id = id;
        opt.partition_count = kPartitions;
        live::LiveEngine engine(feed.devices, opt);
        {
          const Tracer::Scope span = tracer.span("fed.replay");
          fed::replay_partition_feed(feed, engine);
        }
        live::LiveSnapshot snap;
        {
          const Tracer::Scope span = tracer.span("live.stop");
          snap = engine.stop();
        }
        fed::PartialSnapshot partial;
        {
          const Tracer::Scope span = tracer.span("fed.make_partial");
          partial = fed::make_partial(snap, opt);
        }
        paths.push_back(partial_dir /
                        fed::partial_file_name(partial.header.partition_id,
                                               partial.header.partition_count,
                                               partial.header.epoch));
        {
          const Tracer::Scope span = tracer.span("fed.write_partial");
          fed::write_partial_file(paths.back(), partial);
        }
        largest_owned = std::max<std::uint64_t>(
            largest_owned, feed.proxy.size() + feed.mme.size());
        feed_records = feed.feed_records;
        epochs_issued += engine.epochs_issued();
        ring += engine.backpressure();
      }
      std::vector<fed::LoadedPartial> loaded;
      {
        const Tracer::Scope span = tracer.span("fed.load_partials");
        loaded = fed::load_partials(paths,
                                    static_cast<std::size_t>(cfg.threads));
      }
      {
        const Tracer::Scope span = tracer.span("fed.merge");
        merged = fed::merge_partials(std::move(loaded));
      }
      wall = seconds_since(t0);
    }
    records = static_cast<double>(feed_records);
    out.check(merged.merged_partitions == kPartitions &&
                  merged.snapshot.records == feed_records,
              "fed_cover: merged snapshot does not cover the feed");
    {
      serve::SnapshotStore store(1);
      store.publish(live::LiveSnapshot(merged.snapshot), true);
      serve::QueryEngine queries(store);
      check_same_answers(canonical_answers(queries), first_answers, out,
                         "fed_cover: merged answers differ between "
                         "repetitions");
    }
    if (pass != Pass::kWarmup) {
      double bytes = 0.0;
      for (const fs::path& p : paths) {
        bytes += static_cast<double>(fs::file_size(p));
      }
      partial_bytes.push_back(bytes);
      owned_share.push_back(static_cast<double>(largest_owned) /
                            static_cast<double>(feed_records));
      epochs.push_back(static_cast<double>(epochs_issued));
      feed_stalls.push_back(static_cast<double>(ring.producer_waits));
      idle_waits.push_back(static_cast<double>(ring.consumer_waits));
    }
    last = std::move(merged);
    return wall;
  };
  repeat(cfg, tracer, rep, out);
  out.metrics["trace.records"] = records;
  fs::remove_all(partial_dir);

  // The federated snapshot must answer like the batch over the same bundle.
  {
    trace::TraceStore store = trace::load_bundle(cfg.bundle);
    store.sort_by_time();
    check_verify(serve::verify_responses(last.snapshot, store, last.options,
                                         last.snapshot.quarantine),
                 out, "fed_cover: merged snapshot diverges from the batch");
  }

  if (!cfg.traced) return;
  emit_span_medians(tracer, out,
                    {"fed.load_feed", "fed.replay", "live.stop",
                     "fed.make_partial", "fed.write_partial",
                     "fed.load_partials", "fed.merge"});
  const auto longest = tracer.max_per_run("rep");
  const auto it = longest.find("fed.partition");
  out.metrics["fed.max_partition_s"] =
      it == longest.end() ? 0.0 : median(it->second);
  out.metrics["fed.partial_bytes"] = median(partial_bytes);
  out.metrics["fed.owned_share"] = median(owned_share);
  out.metrics["live.epochs"] = median(epochs);
  out.metrics["live.feed_stalls"] = median(feed_stalls);
  out.metrics["live.idle_waits"] = median(idle_waits);
}

}  // namespace perfbench
