#include "core/analysis_throughdevice.h"

#include <cstdint>
#include <span>

#include "core/analysis_mobility.h"
#include "util/error.h"
#include "util/stats.h"
#include "util/strings.h"

namespace wearscope::core {

ThroughDeviceResult analyze_throughdevice(const AnalysisContext& ctx) {
  ThroughDeviceResult res;
  const auto sigs = appdb::companion_signatures();
  util::require(sigs.size() <= 32,
                "through-device: more than 32 companion signatures");
  res.per_signature.assign(sigs.size(), 0);
  for (const appdb::CompanionSignature& s : sigs)
    res.signature_names.push_back(s.wearable);

  const double days = ctx.options().observation_days -
                      ctx.options().detailed_start_day;

  // Medians rather than means: per-user traffic is heavy-tailed and the
  // detected-TD sample is small, so a single whale would swamp a mean.
  std::vector<double> td_txns;
  std::vector<double> td_bytes;
  std::vector<double> td_entropy;
  std::vector<double> sim_txns;
  std::vector<double> sim_bytes;
  std::vector<double> sim_entropy;

  std::array<double, 24> td_hours{};
  std::array<double, 24> sim_hours{};

  // Signature bitmask per host-dictionary entry (bit s == signature s): the
  // suffix match runs once per distinct host instead of once per phone
  // transaction.  A signature matches on its first matching domain.
  const trace::TraceStore& store = ctx.store();
  const trace::ProxyColumns& pc = store.proxy_columns();
  std::vector<std::uint32_t> host_sigs(pc.hosts.size(), 0);
  for (std::size_t k = 0; k < pc.hosts.size(); ++k) {
    for (std::size_t s = 0; s < sigs.size(); ++s) {
      for (const std::string& d : sigs[s].domains) {
        if (util::host_matches_suffix(pc.hosts[k], d)) {
          host_sigs[k] |= std::uint32_t{1} << s;
          break;
        }
      }
    }
  }

  for (const UserView& u : ctx.users()) {
    double txns = 0.0;
    double bytes = 0.0;
    std::array<double, 24> hours{};
    std::uint32_t matched = 0;
    for (const trace::ProxyRecord* r : ctx.detailed_suffix(u.phone_txns)) {
      txns += 1.0;
      bytes += static_cast<double>(r->bytes_total());
      hours[static_cast<std::size_t>(util::hour_of(r->timestamp))] += 1.0;
      // phone_txns point into store.proxy, so the offset is the column row.
      const auto row = static_cast<std::size_t>(r - store.proxy.data());
      matched |= host_sigs[pc.host_id[row]];
    }
    if (u.has_wearable) {
      sim_txns.push_back(txns / days);
      sim_bytes.push_back(bytes / days);
      sim_entropy.push_back(user_location_entropy(ctx, u));
      for (std::size_t h = 0; h < 24; ++h) sim_hours[h] += hours[h];
    } else if (matched != 0) {
      ++res.detected_users;
      for (std::size_t s = 0; s < sigs.size(); ++s) {
        if ((matched >> s & 1U) != 0) ++res.per_signature[s];
      }
      td_txns.push_back(txns / days);
      td_bytes.push_back(bytes / days);
      td_entropy.push_back(user_location_entropy(ctx, u));
      for (std::size_t h = 0; h < 24; ++h) td_hours[h] += hours[h];
    }
  }

  const double sim_txn_med = util::median(sim_txns);
  const double sim_byte_med = util::median(sim_bytes);
  const double sim_entropy_med = util::median(sim_entropy);
  if (sim_txn_med > 0.0)
    res.daily_txn_ratio = util::median(td_txns) / sim_txn_med;
  if (sim_byte_med > 0.0)
    res.daily_bytes_ratio = util::median(td_bytes) / sim_byte_med;
  if (sim_entropy_med > 0.0)
    res.entropy_ratio = util::median(td_entropy) / sim_entropy_med;

  // Normalize the hourly profiles to shares and correlate them.
  const auto normalize = [](std::array<double, 24>& h) {
    double total = 0.0;
    for (const double v : h) total += v;
    if (total > 0.0) {
      for (double& v : h) v /= total;
    }
  };
  normalize(td_hours);
  normalize(sim_hours);
  res.td_hourly = td_hours;
  res.sim_hourly = sim_hours;
  res.diurnal_similarity = util::pearson(
      std::span<const double>(td_hours.data(), td_hours.size()),
      std::span<const double>(sim_hours.data(), sim_hours.size()));
  return res;
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
