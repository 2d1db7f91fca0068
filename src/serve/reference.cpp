#include "serve/reference.h"

#include "appdb/app_catalog.h"
#include "core/pipeline.h"
#include "serve/query.h"
#include "util/error.h"

namespace wearscope::serve {

namespace {

/// Walks `store` in feed-merge order (timestamp order, MME before proxy on
/// ties — FeedReplayer's order), calling `on_mme` / `on_proxy` for each of
/// the first `records` events.  `on_proxy` receives the record's position
/// in the proxy stream, which is the seq the router would have stamped.
template <typename OnMme, typename OnProxy>
void walk_merge_order(const trace::TraceStore& store, std::uint64_t records,
                      OnMme&& on_mme, OnProxy&& on_proxy) {
  const auto& proxy = store.proxy;
  const auto& mme = store.mme;
  std::size_t pi = 0;
  std::size_t mi = 0;
  std::uint64_t taken = 0;
  while (taken < records && (pi < proxy.size() || mi < mme.size())) {
    const bool take_mme =
        mi < mme.size() &&
        (pi >= proxy.size() || mme[mi].timestamp <= proxy[pi].timestamp);
    if (take_mme) {
      on_mme(mme[mi]);
      ++mi;
    } else {
      on_proxy(proxy[pi], static_cast<std::uint64_t>(pi));
      ++pi;
    }
    ++taken;
  }
  util::require(taken == records,
                "prefix cut asks for more records than the store holds");
}

}  // namespace

trace::TraceStore prefix_store(const trace::TraceStore& store,
                               std::uint64_t records) {
  util::require(store.is_sorted(),
                "prefix_store: store must be time-sorted (sort_by_time)");
  trace::TraceStore prefix;
  prefix.devices = store.devices;
  prefix.sectors = store.sectors;
  static_cast<trace::ProxyPools&>(prefix) = store;
  walk_merge_order(
      store, records,
      [&](const trace::MmeRecord& record) { prefix.mme.push_back(record); },
      [&](const trace::ProxyRecord& record, std::uint64_t) {
        prefix.proxy.push_back(record);
      });
  // The cut drops the pool entries only later records use.
  trace::canonicalize_pools(prefix.proxy, prefix);
  return prefix;
}

live::LiveSnapshot reference_snapshot(const trace::TraceStore& store,
                                      const live::LiveOptions& options,
                                      std::uint64_t epoch,
                                      const trace::QuarantineStats& quarantine,
                                      std::uint64_t records) {
  util::require(store.is_sorted(),
                "reference_snapshot: store must be time-sorted");
  const std::uint64_t total = store.proxy.size() + store.mme.size();
  const std::uint64_t cut = records == kAllRecords ? total : records;
  util::require(cut <= total,
                "reference_snapshot: prefix cut exceeds the capture");
  // The exact construction path LiveEngine takes, minus the threads.
  const appdb::AppCatalog catalog(options.long_tail_apps);
  const core::DeviceClassifier devices(store.devices);
  const core::AppSignatureTable signatures(catalog,
                                           options.signature_coverage);
  const live::HostBinding hosts{&store.hosts};
  live::ShardStats stats(devices, signatures, hosts, options.observation_days,
                         options.detailed_start_day, options.usage_gap_s);
  walk_merge_order(
      store, cut,
      [&](const trace::MmeRecord& record) { stats.on_mme(record); },
      [&](const trace::ProxyRecord& record, std::uint64_t seq) {
        stats.on_proxy(record, seq);
      });
  live::SnapshotCoordinator coordinator(1, signatures);
  coordinator.deposit(epoch, stats.snapshot(0));
  live::LiveSnapshot snap = coordinator.wait_for(epoch);
  snap.quarantine = quarantine;
  return snap;
}

std::vector<VerifyMismatch> verify_responses(
    const live::LiveSnapshot& served, const trace::TraceStore& store,
    const live::LiveOptions& options,
    const trace::QuarantineStats& expected_quarantine, std::size_t top_k) {
  std::vector<VerifyMismatch> mismatches;
  const auto compare = [&](std::string query, std::string serve_line,
                           std::string batch_line) {
    if (serve_line != batch_line) {
      mismatches.push_back(VerifyMismatch{std::move(query),
                                          std::move(serve_line),
                                          std::move(batch_line)});
    }
  };

  // Batch ground truth: the figures wearscope_analyze computes.
  core::AnalysisOptions aopt;
  aopt.observation_days = options.observation_days;
  aopt.detailed_start_day = options.detailed_start_day;
  aopt.usage_gap_s = options.usage_gap_s;
  aopt.signature_coverage = options.signature_coverage;
  aopt.long_tail_apps = options.long_tail_apps;
  const core::Pipeline pipeline(store, aopt);
  const core::StudyReport batch = pipeline.run();

  compare("adoption",
          render_adoption(served.epoch, served.records, served.adoption),
          render_adoption(served.epoch, served.records, batch.adoption));
  // class_txns has no batch-report counterpart; the sequential reference
  // below covers it, so the batch comparison reuses the served tally and
  // pins the ActivityResult fields.
  compare("activity",
          render_activity(served.epoch, served.records, served.activity,
                          served.class_txns),
          render_activity(served.epoch, served.records, batch.activity,
                          served.class_txns));

  // Sequential same-machinery reference: pins the live-only tallies
  // (per-app counters, per-sector activity, class mix).
  const live::LiveSnapshot reference =
      reference_snapshot(store, options, served.epoch);
  compare("activity(class mix)",
          render_activity(served.epoch, served.records, served.activity,
                          served.class_txns),
          render_activity(served.epoch, served.records, served.activity,
                          reference.class_txns));
  compare("top-apps",
          render_top_apps(served.epoch, top_k, served.apps),
          render_top_apps(served.epoch, top_k, reference.apps));
  compare("sectors",
          render_sectors(served.epoch, top_k, served.sectors),
          render_sectors(served.epoch, top_k, reference.sectors));
  compare("quarantine",
          render_quarantine(served.epoch, served.quarantine),
          render_quarantine(served.epoch, expected_quarantine));
  return mismatches;
}

}  // namespace wearscope::serve
