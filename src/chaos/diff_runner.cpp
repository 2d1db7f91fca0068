#include "chaos/diff_runner.h"

#include <bit>
#include <unordered_set>
#include <utility>

#include "core/pipeline.h"
#include "live/engine.h"
#include "live/replayer.h"
#include "trace/sanitize.h"
#include "util/error.h"

namespace wearscope::chaos {

namespace {

/// Bitwise double equality (a != b would flag NaN == NaN as a mismatch,
/// and the equivalence contract is "same bits", not "close").
bool same_bits(double a, double b) noexcept {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

class Mismatches {
 public:
  explicit Mismatches(std::vector<std::string>& out) : out_(&out) {}

  void note(std::string text) { out_->push_back(std::move(text)); }

  void eq_u64(const std::string& what, std::uint64_t a, std::uint64_t b) {
    if (a != b) {
      note(what + ": " + std::to_string(a) + " != " + std::to_string(b));
    }
  }
  void eq_d(const std::string& what, double a, double b) {
    if (!same_bits(a, b)) {
      note(what + ": " + std::to_string(a) + " != " + std::to_string(b));
    }
  }
  void eq_ecdf(const std::string& what, const util::Ecdf& a,
               const util::Ecdf& b) {
    if (a.size() != b.size()) {
      eq_u64(what + ".size", a.size(), b.size());
      return;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!same_bits(a.sorted()[i], b.sorted()[i])) {
        note(what + "[" + std::to_string(i) + "]: " +
             std::to_string(a.sorted()[i]) + " != " +
             std::to_string(b.sorted()[i]));
        return;  // One divergent sample is enough signal per ECDF.
      }
    }
  }

 private:
  std::vector<std::string>* out_;
};

void compare_adoption(Mismatches& m, const std::string& label,
                      const core::AdoptionResult& a,
                      const core::AdoptionResult& b) {
  m.eq_u64(label + ".ever_registered", a.ever_registered, b.ever_registered);
  m.eq_u64(label + ".ever_transacted", a.ever_transacted, b.ever_transacted);
  m.eq_d(label + ".ever_transacting_fraction", a.ever_transacting_fraction,
         b.ever_transacting_fraction);
  m.eq_d(label + ".total_growth", a.total_growth, b.total_growth);
  m.eq_d(label + ".monthly_growth", a.monthly_growth, b.monthly_growth);
  m.eq_d(label + ".still_active_share", a.still_active_share,
         b.still_active_share);
  m.eq_d(label + ".gone_share", a.gone_share, b.gone_share);
  m.eq_d(label + ".new_share", a.new_share, b.new_share);
  m.eq_d(label + ".churned_of_initial", a.churned_of_initial,
         b.churned_of_initial);
  m.eq_u64(label + ".daily.size", a.daily_registered_norm.size(),
           b.daily_registered_norm.size());
  if (a.daily_registered_norm.size() == b.daily_registered_norm.size()) {
    for (std::size_t d = 0; d < a.daily_registered_norm.size(); ++d) {
      m.eq_d(label + ".daily[" + std::to_string(d) + "]",
             a.daily_registered_norm[d], b.daily_registered_norm[d]);
    }
  }
}

void compare_activity(Mismatches& m, const std::string& label,
                      const core::ActivityResult& a,
                      const core::ActivityResult& b) {
  m.eq_ecdf(label + ".active_days_per_week", a.active_days_per_week,
            b.active_days_per_week);
  m.eq_ecdf(label + ".active_hours_per_day", a.active_hours_per_day,
            b.active_hours_per_day);
  m.eq_ecdf(label + ".txn_size_bytes", a.txn_size_bytes, b.txn_size_bytes);
  m.eq_ecdf(label + ".hourly_txns_per_user", a.hourly_txns_per_user,
            b.hourly_txns_per_user);
  m.eq_ecdf(label + ".hourly_bytes_per_user", a.hourly_bytes_per_user,
            b.hourly_bytes_per_user);
  m.eq_d(label + ".mean_active_days", a.mean_active_days, b.mean_active_days);
  m.eq_d(label + ".mean_active_hours", a.mean_active_hours,
         b.mean_active_hours);
  m.eq_d(label + ".frac_over_10h", a.frac_over_10h, b.frac_over_10h);
  m.eq_d(label + ".frac_under_5h", a.frac_under_5h, b.frac_under_5h);
  m.eq_d(label + ".mean_txn_bytes", a.mean_txn_bytes, b.mean_txn_bytes);
  m.eq_d(label + ".median_txn_bytes", a.median_txn_bytes, b.median_txn_bytes);
  m.eq_d(label + ".frac_txn_under_10kb", a.frac_txn_under_10kb,
         b.frac_txn_under_10kb);
  m.eq_d(label + ".correlation", a.correlation, b.correlation);
  m.eq_d(label + ".binned_trend_corr", a.binned_trend_corr,
         b.binned_trend_corr);
}

void compare_snapshots(Mismatches& m, const std::string& label,
                       const live::LiveSnapshot& a,
                       const live::LiveSnapshot& b) {
  m.eq_u64(label + ".records", a.records, b.records);
  compare_adoption(m, label + ".adoption", a.adoption, b.adoption);
  compare_activity(m, label + ".activity", a.activity, b.activity);
  m.eq_u64(label + ".apps.size", a.apps.size(), b.apps.size());
  if (a.apps.size() == b.apps.size()) {
    for (std::size_t i = 0; i < a.apps.size(); ++i) {
      const std::string row = label + ".apps[" + std::to_string(i) + "]";
      m.eq_u64(row + ".app", a.apps[i].app, b.apps[i].app);
      m.eq_u64(row + ".transactions", a.apps[i].counter.transactions,
               b.apps[i].counter.transactions);
      m.eq_u64(row + ".usages", a.apps[i].counter.usages,
               b.apps[i].counter.usages);
      m.eq_u64(row + ".distinct_users", a.apps[i].counter.distinct_users,
               b.apps[i].counter.distinct_users);
    }
  }
  for (std::size_t c = 0; c < a.class_txns.size(); ++c) {
    m.eq_u64(label + ".class_txns[" + std::to_string(c) + "]",
             a.class_txns[c], b.class_txns[c]);
  }
}

/// The survivors minus the plan's permanent feed drops, removed in exactly
/// the order FeedReplayer walks the feed (live::walk_feed).
trace::TraceStore drop_permanent(const trace::TraceStore& canon,
                                 const std::vector<std::uint64_t>& seqs) {
  const std::unordered_set<std::uint64_t> drop(seqs.begin(), seqs.end());
  trace::TraceStore out;
  out.devices = canon.devices;
  out.sectors = canon.sectors;
  static_cast<trace::ProxyPools&>(out) = canon;
  out.proxy.reserve(canon.proxy.size());
  out.mme.reserve(canon.mme.size());
  live::walk_feed(canon, [&](const live::FeedEvent& event) {
    if (drop.contains(event.seq)) return;
    if (event.mme != nullptr) {
      out.mme.push_back(*event.mme);
    } else {
      out.proxy.push_back(*event.proxy);
    }
  });
  // Dropped records may have been the last users of a host or path.
  trace::canonicalize_pools(out.proxy, out);
  return out;
}

}  // namespace

std::string DiffReport::summary() const {
  std::string s = passed ? "chaos diff PASSED" : "chaos diff FAILED";
  s += " (dropped " + std::to_string(observed.total_dropped()) +
       ", repaired " + std::to_string(observed.reordered) + ", survivors " +
       std::to_string(surviving_proxy) + "+" +
       std::to_string(surviving_mme) + ")";
  if (!passed) {
    s += ": " + std::to_string(mismatches.size()) + " mismatch(es), first: " +
         (mismatches.empty() ? std::string("?") : mismatches.front());
  }
  return s;
}

void diff_quarantine(const std::string& what, const trace::QuarantineStats& a,
                     const trace::QuarantineStats& b,
                     std::vector<std::string>& mismatches) {
  Mismatches m(mismatches);
  for (const trace::QuarantineCounter& c : trace::kQuarantineCounters)
    m.eq_u64(what + "." + c.key, a.*c.member, b.*c.member);
}

DiffReport run_differential(const trace::TraceStore& clean,
                            const DiffOptions& options) {
  util::require(!clean.devices.empty(),
                "run_differential: capture needs a DeviceDB snapshot");
  DiffReport rep;
  Mismatches m(rep.mismatches);
  const FaultPlan plan(options.seed, options.profile);

  // 1. Canonical capture: sorted + sanitized. Sanitizing a clean capture
  // is idempotent, so the canon is the fixed point both sides must reach.
  trace::TraceStore canon = clean;
  canon.sort_by_time();
  trace::sanitize_store(canon);

  // 2. Inject, sanitize, and hold the sanitizer to exact accounting.
  trace::TraceStore hostile = canon;
  rep.manifest = plan.inject_records(hostile);
  rep.observed = trace::sanitize_store(hostile);
  rep.surviving_proxy = hostile.proxy.size();
  rep.surviving_mme = hostile.mme.size();
  diff_quarantine("sanitize", rep.observed, rep.manifest.expected,
                  rep.mismatches);
  m.eq_u64("survivors.proxy", hostile.proxy.size(), canon.proxy.size());
  m.eq_u64("survivors.mme", hostile.mme.size(), canon.mme.size());
  if (!(hostile.proxy == canon.proxy && hostile.mme == canon.mme &&
        static_cast<const trace::ProxyPools&>(hostile) == canon)) {
    m.note("survivors differ from canonical capture record-for-record");
  }

  // 3. Runtime faults + the batch truth over what the live feed will keep.
  const live::RetryPolicy retry{
      .max_attempts = 4,
      .initial_backoff = std::chrono::microseconds(2),
      .backoff_multiplier = 2.0,
      .max_backoff = std::chrono::microseconds(50),
  };
  const std::uint64_t feed_records = canon.proxy.size() + canon.mme.size();
  const RuntimeFaults rf = plan.runtime_faults(feed_records, retry);
  rep.manifest.expected += rf.expected;
  rep.manifest.permanent_fail_seqs = rf.permanent_seqs;
  const trace::TraceStore batch_store =
      drop_permanent(canon, rf.permanent_seqs);
  const core::StudyReport batch =
      core::Pipeline(batch_store, options.analysis).run();
  const std::uint64_t expected_pushed =
      feed_records - rf.permanent_seqs.size();

  // 4. Live side, at every shard count, with the runtime faults active.
  live::LiveSnapshot reference;
  for (const std::size_t shards : options.shard_counts) {
    const std::string label =
        "shards=" + std::to_string(shards) + "/seed=" +
        std::to_string(options.seed) + "/" + options.profile.name;
    live::LiveOptions lopt;
    lopt.shards = shards;
    lopt.ring_capacity = options.ring_capacity;
    lopt.observation_days = options.analysis.observation_days;
    lopt.detailed_start_day = options.analysis.detailed_start_day;
    lopt.usage_gap_s = options.analysis.usage_gap_s;
    lopt.long_tail_apps = options.analysis.long_tail_apps;
    lopt.signature_coverage = options.analysis.signature_coverage;

    live::LiveEngine engine(canon.devices, lopt);
    engine.add_quarantine(rep.observed);  // As the tools surface it.
    live::ReplayOptions ropt;
    ropt.retry = retry;
    ropt.read_faults = rf.schedule;
    const live::ReplayReport replay =
        live::FeedReplayer(canon, ropt).replay(engine);
    const live::LiveSnapshot snap = engine.stop();

    m.eq_u64(label + ".records_pushed", replay.records_pushed,
             expected_pushed);
    diff_quarantine(label + ".replay.quarantine", replay.quarantine,
                    rf.expected, rep.mismatches);
    trace::QuarantineStats total = rep.observed;
    total += rf.expected;
    diff_quarantine(label + ".snapshot.quarantine", snap.quarantine, total,
                    rep.mismatches);
    m.eq_u64(label + ".records", snap.records, expected_pushed);
    compare_adoption(m, label + ".adoption", snap.adoption, batch.adoption);
    compare_activity(m, label + ".activity", snap.activity, batch.activity);

    // Shard counts must also agree with each other on everything the
    // snapshot carries — including the per-app table and class mix the
    // batch comparison above does not cover.
    if (shards == options.shard_counts.front()) {
      reference = snap;
    } else {
      compare_snapshots(m, label + " vs shards=" +
                              std::to_string(options.shard_counts.front()),
                        snap, reference);
    }
  }

  rep.passed = rep.mismatches.empty();
  return rep;
}

}  // namespace wearscope::chaos
