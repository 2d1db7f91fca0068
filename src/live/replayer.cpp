#include "live/replayer.h"

#include <chrono>
#include <thread>

#include "util/error.h"

namespace wearscope::live {

FeedReplayer::FeedReplayer(const trace::TraceStore& store,
                           ReplayOptions options)
    : store_(&store), opt_(options) {
  util::require(store.is_sorted(),
                "FeedReplayer: store must be time-sorted (sort_by_time)");
}

namespace {

// Pause before retry number `attempt` (0-based), growing geometrically and
// capped. A zero initial backoff disables sleeping entirely, which keeps
// fault-heavy tests fast without changing the accounting.
void backoff_sleep(const RetryPolicy& policy, std::uint32_t attempt) {
  if (policy.initial_backoff.count() <= 0) return;
  double us = static_cast<double>(policy.initial_backoff.count());
  for (std::uint32_t i = 0; i < attempt; ++i) us *= policy.backoff_multiplier;
  const double cap = static_cast<double>(policy.max_backoff.count());
  if (us > cap) us = cap;
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<std::int64_t>(us)));
}

}  // namespace

ReplayReport FeedReplayer::replay(LiveEngine& engine) const {
  using Clock = std::chrono::steady_clock;
  ReplayReport report;
  engine.bind_hosts(store_->hosts);
  const bool paced = opt_.speedup > 0.0;

  // Stream-time origin: the first event's timestamp, the earliest record
  // of either log.
  util::SimTime t0 = 0;
  util::SimTime next_snapshot = 0;

  const Clock::time_point wall0 = Clock::now();
  walk_feed(*store_, [&](const FeedEvent& event) {
    const util::SimTime ts =
        event.mme != nullptr ? event.mme->timestamp : event.proxy->timestamp;
    if (event.seq == 0) {
      t0 = ts;
      next_snapshot = t0 + opt_.snapshot_every_s;
    }

    if (opt_.snapshot_every_s > 0 && ts >= next_snapshot) {
      if (opt_.on_snapshot) {
        opt_.on_snapshot(engine.snapshot());
      } else {
        report.snapshots.push_back(engine.snapshot());
      }
      // Skip empty intervals so one quiet week costs one snapshot, not 168.
      while (next_snapshot <= ts) next_snapshot += opt_.snapshot_every_s;
    }
    if (paced) {
      engine.flush();
      const double wall_target =
          static_cast<double>(ts - t0) / opt_.speedup;
      std::this_thread::sleep_until(
          wall0 + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(wall_target)));
    }

    if (opt_.read_faults) {
      const std::uint32_t faults = opt_.read_faults(event.seq);
      if (faults > 0) {
        trace::QuarantineStats delta;
        if (faults >= opt_.retry.max_attempts) {
          // Retry budget exhausted: quarantine the record, keep the feed
          // alive. The failed attempts still cost their backoff pauses.
          for (std::uint32_t a = 0; a + 1 < opt_.retry.max_attempts; ++a)
            backoff_sleep(opt_.retry, a);
          delta.dropped_after_retry = 1;
          report.quarantine += delta;
          engine.add_quarantine(delta);
          return;
        }
        // Transient: the read succeeds on attempt `faults`.
        for (std::uint32_t a = 0; a < faults; ++a) backoff_sleep(opt_.retry, a);
        delta.transient_retries = faults;
        report.quarantine += delta;
        engine.add_quarantine(delta);
      }
    }

    const bool accepted = event.mme != nullptr ? engine.push(*event.mme)
                                               : engine.push(*event.proxy);
    if (accepted) ++report.records_pushed;
  });
  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - wall0).count();
  return report;
}

}  // namespace wearscope::live
