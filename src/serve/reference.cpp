#include "serve/reference.h"

#include "appdb/app_catalog.h"
#include "core/pipeline.h"
#include "live/replayer.h"
#include "serve/query.h"
#include "util/error.h"

namespace wearscope::serve {

trace::TraceStore prefix_store(const trace::TraceStore& store,
                               std::uint64_t records) {
  util::require(store.is_sorted(),
                "prefix_store: store must be time-sorted (sort_by_time)");
  trace::TraceStore prefix;
  prefix.devices = store.devices;
  prefix.sectors = store.sectors;
  static_cast<trace::ProxyPools&>(prefix) = store;
  const std::uint64_t taken = live::walk_feed(
      store,
      [&](const live::FeedEvent& event) {
        if (event.mme != nullptr) {
          prefix.mme.push_back(*event.mme);
        } else {
          prefix.proxy.push_back(*event.proxy);
        }
      },
      records);
  util::require(taken == records,
                "prefix cut asks for more records than the store holds");
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
  live::walk_feed(
      store,
      [&](const live::FeedEvent& event) {
        if (event.mme != nullptr) {
          stats.on_mme(*event.mme);
        } else {
          stats.on_proxy(*event.proxy, event.proxy_seq);
        }
      },
      cut);
  stats.sort_new_sizes();
  const live::TallyView part = stats.view();
  live::LiveSnapshot snap = live::assemble(epoch, {&part, 1}, signatures);
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
