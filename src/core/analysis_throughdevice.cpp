#include "core/analysis_throughdevice.h"

#include <cstdint>
#include <span>

#include "core/analysis_mobility.h"
#include "util/error.h"
#include "util/stats.h"
#include "util/strings.h"

namespace wearscope::core {

ThroughDevicePass::ThroughDevicePass(const AnalysisContext& ctx)
    : ctx_(&ctx) {
  const auto sigs = appdb::companion_signatures();
  util::require(sigs.size() <= 32,
                "through-device: more than 32 companion signatures");
  // The suffix match runs once per distinct host instead of once per
  // phone transaction.  A signature matches on its first matching domain.
  const trace::StringPool& hosts = ctx.store().hosts;
  host_sigs_.assign(hosts.size(), 0);
  for (std::uint32_t k = 0; k < hosts.size(); ++k) {
    for (std::size_t s = 0; s < sigs.size(); ++s) {
      for (const std::string& d : sigs[s].domains) {
        if (util::host_matches_suffix(hosts[k], d)) {
          host_sigs_[k] |= std::uint32_t{1} << s;
          break;
        }
      }
    }
  }
}

ThroughDevicePartial ThroughDevicePass::partial(std::size_t lo,
                                                std::size_t hi) const {
  const AnalysisContext& ctx = *ctx_;
  const std::size_t signatures = appdb::companion_signatures().size();
  ThroughDevicePartial out;
  out.per_signature.assign(signatures, 0);
  const double days = ctx.options().observation_days -
                      ctx.options().detailed_start_day;
  const auto& log = ctx.store().proxy;
  for (std::size_t i = lo; i < hi; ++i) {
    const UserView& u = ctx.users()[i];
    double txns = 0.0;
    double bytes = 0.0;
    std::array<double, 24> hours{};
    std::uint32_t matched = 0;
    for_each_row(log, ctx.detailed_suffix(log, u.phone_rows),
                 [&](const trace::ProxyRecord& r) {
                   txns += 1.0;
                   bytes += static_cast<double>(r.bytes_total());
                   hours[static_cast<std::size_t>(
                       util::hour_of(r.timestamp))] += 1.0;
                   matched |= host_sigs_[r.host_id];
                 });
    if (u.has_wearable) {
      out.sim_txns.push_back(txns / days);
      out.sim_bytes.push_back(bytes / days);
      out.sim_entropy.push_back(user_location_entropy(ctx, u));
      for (std::size_t h = 0; h < 24; ++h) out.sim_hours[h] += hours[h];
    } else if (matched != 0) {
      ++out.detected_users;
      for (std::size_t s = 0; s < signatures; ++s) {
        if ((matched >> s & 1U) != 0) ++out.per_signature[s];
      }
      out.td_txns.push_back(txns / days);
      out.td_bytes.push_back(bytes / days);
      out.td_entropy.push_back(user_location_entropy(ctx, u));
      for (std::size_t h = 0; h < 24; ++h) out.td_hours[h] += hours[h];
    }
  }
  return out;
}

ThroughDeviceResult ThroughDevicePass::finish(
    std::span<const ThroughDevicePartial> partials) const {
  ThroughDeviceResult res;
  for (const appdb::CompanionSignature& s : appdb::companion_signatures())
    res.signature_names.push_back(s.wearable);
  res.per_signature.assign(res.signature_names.size(), 0);

  // Medians rather than means: per-user traffic is heavy-tailed and the
  // detected-TD sample is small, so a single whale would swamp a mean.
  ThroughDevicePartial all;
  const auto append = [](std::vector<double>& to,
                         const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  for (const ThroughDevicePartial& p : partials) {
    res.detected_users += p.detected_users;
    for (std::size_t s = 0; s < res.per_signature.size(); ++s)
      res.per_signature[s] += p.per_signature[s];
    append(all.td_txns, p.td_txns);
    append(all.td_bytes, p.td_bytes);
    append(all.td_entropy, p.td_entropy);
    append(all.sim_txns, p.sim_txns);
    append(all.sim_bytes, p.sim_bytes);
    append(all.sim_entropy, p.sim_entropy);
    for (std::size_t h = 0; h < 24; ++h) {
      all.td_hours[h] += p.td_hours[h];
      all.sim_hours[h] += p.sim_hours[h];
    }
  }

  const double sim_txn_med = util::median(all.sim_txns);
  const double sim_byte_med = util::median(all.sim_bytes);
  const double sim_entropy_med = util::median(all.sim_entropy);
  if (sim_txn_med > 0.0)
    res.daily_txn_ratio = util::median(all.td_txns) / sim_txn_med;
  if (sim_byte_med > 0.0)
    res.daily_bytes_ratio = util::median(all.td_bytes) / sim_byte_med;
  if (sim_entropy_med > 0.0)
    res.entropy_ratio = util::median(all.td_entropy) / sim_entropy_med;

  // Normalize the hourly profiles to shares and correlate them.
  const auto normalize = [](std::array<double, 24>& h) {
    double total = 0.0;
    for (const double v : h) total += v;
    if (total > 0.0) {
      for (double& v : h) v /= total;
    }
  };
  normalize(all.td_hours);
  normalize(all.sim_hours);
  res.td_hourly = all.td_hours;
  res.sim_hourly = all.sim_hours;
  res.diurnal_similarity = util::pearson(
      std::span<const double>(all.td_hours.data(), all.td_hours.size()),
      std::span<const double>(all.sim_hours.data(), all.sim_hours.size()));
  return res;
}

ThroughDeviceResult analyze_throughdevice(const AnalysisContext& ctx) {
  const ThroughDevicePass pass(ctx);
  const ThroughDevicePartial all = pass.partial(0, ctx.users().size());
  return pass.finish({&all, 1});
}

FigureData figure_sec6(const ThroughDeviceResult& r) {
  FigureData fig;
  fig.id = "sec6";
  fig.title = "Through-Device wearable fingerprinting (conclusion)";
  Series s;
  s.name = "detected_users_per_signature";
  for (std::size_t i = 0; i < r.per_signature.size(); ++i) {
    s.labels.push_back(r.signature_names[i]);
    s.y.push_back(static_cast<double>(r.per_signature[i]));
  }
  fig.series.push_back(std::move(s));
  Series td_prof;
  td_prof.name = "td_hourly_txn_share";
  Series sim_prof;
  sim_prof.name = "sim_hourly_txn_share";
  for (int h = 0; h < 24; ++h) {
    td_prof.x.push_back(h);
    td_prof.y.push_back(r.td_hourly[static_cast<std::size_t>(h)]);
    sim_prof.x.push_back(h);
    sim_prof.y.push_back(r.sim_hourly[static_cast<std::size_t>(h)]);
  }
  fig.series.push_back(std::move(td_prof));
  fig.series.push_back(std::move(sim_prof));

  fig.checks.push_back(make_check(
      "TD/SIM diurnal profile correlation (similar shape)", 0.9,
      r.diurnal_similarity, 0.6, 1.0));
  fig.checks.push_back(make_check("fingerprinted TD users found (> 0)", 1.0,
                                  r.detected_users > 0 ? 1.0 : 0.0, 1.0,
                                  1.0));
  fig.checks.push_back(make_check(
      "TD/SIM daily phone transactions (similar behaviour)", 1.0,
      r.daily_txn_ratio, 0.6, 1.8));
  // Wide band: the fingerprinted sample is only ~16% of TD users, so the
  // median of per-user heavy-tailed volumes is noisy at small scale.
  fig.checks.push_back(make_check(
      "TD/SIM daily phone bytes (similar behaviour)", 1.0,
      r.daily_bytes_ratio, 0.45, 1.9));
  fig.checks.push_back(make_check(
      "TD/SIM location entropy (similar mobility)", 1.0, r.entropy_ratio,
      0.6, 1.5));
  fig.notes.push_back(
      "the paper estimates fingerprints cover ~16% of Through-Device users "
      "via market reports; coverage cannot be measured from traffic alone");
  return fig;
}

}  // namespace wearscope::core
