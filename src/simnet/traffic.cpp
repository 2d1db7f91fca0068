#include "simnet/traffic.h"

#include <algorithm>
#include <cmath>

#include "appdb/third_party.h"
#include "appdb/traffic_profile.h"
#include "simnet/diurnal.h"
#include "util/error.h"

namespace wearscope::simnet {

namespace {

constexpr util::SimTime kHour = util::kSecondsPerHour;

/// Hour mask applied to "home users" (§4.4: 60% of data-active users
/// transact from a single location): their usage concentrates in the hours
/// the itinerary puts them at home.
constexpr std::array<double, 24> kHomeHourMask = {
    1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.05, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.0, 0.0, 0.0, 0.0, 0.0, 0.05, 0.10, 0.35, 0.80, 1.0, 1.0, 1.0};

/// Subdomain prefixes used when materializing third-party hosts.
constexpr std::array<std::string_view, 6> kThirdPartyPrefixes = {
    "api", "edge", "a1", "pixel", "s", "m"};

std::string third_party_host(appdb::TransactionClass cls, util::Pcg32& rng) {
  std::span<const std::string_view> pool;
  switch (cls) {
    case appdb::TransactionClass::kUtilities:
      pool = appdb::utility_domains();
      break;
    case appdb::TransactionClass::kAdvertising:
      pool = appdb::advertising_domains();
      break;
    case appdb::TransactionClass::kAnalytics:
      pool = appdb::analytics_domains();
      break;
    case appdb::TransactionClass::kApplication:
      util::ensure(false, "third_party_host called for first-party class");
  }
  const auto d = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
  const auto p = static_cast<std::size_t>(rng.uniform_int(
      0, static_cast<std::int64_t>(kThirdPartyPrefixes.size()) - 1));
  return std::string(kThirdPartyPrefixes[p]) + "." + std::string(pool[d]);
}

}  // namespace

TrafficModel::TrafficModel(const SimConfig& config,
                           const appdb::AppCatalog& apps)
    : config_(&config), apps_(&apps) {}

double TrafficModel::mean_active_hours_of(const Subscriber& sub) const {
  // Heavy-user mixture component (engagement drawn uniform in [2.8, 5.5])
  // maps to 8-16 h/day; the lognormal bulk maps to ~3 h/day on average
  // (Fig. 3b: mean 3 h, 80% < 5 h, 7% > 10 h).
  if (sub.engagement > 2.79) {
    return std::clamp(sub.engagement * 2.9, 8.0, 16.0);
  }
  // Dampened exponent keeps the bulk under 5 h/day (80% of users) while
  // the mixture's heavy component supplies the 7% above 10 h.
  return std::clamp(2.3 * std::pow(sub.engagement, 0.7), 0.5, 7.0);
}

WearableDayPlan TrafficModel::plan_wearable_day(const Subscriber& sub,
                                                int day,
                                                util::Pcg32& rng) const {
  WearableDayPlan plan;
  if (!sub.wearable_alive(day)) return plan;

  plan.registered = rng.bernoulli(config_->daily_register_prob);
  if (!plan.registered || sub.silent) return plan;

  // Active-day probability: targets "about 1 day a week" on average, with
  // per-user heterogeneity tied to engagement (dampened square root).
  // Activity clusters into "active weeks": a user engages the wearable in
  // bursts rather than uniformly (this is what makes ~35% of a week's
  // actives show up on any given day, Fig. 3a, while the long-run mean
  // stays at ~1 active day per week).
  const double week_active_p =
      std::clamp(0.5 * std::sqrt(sub.engagement), 0.05, 0.9);
  util::Pcg32 week_rng(util::splitmix64(
                           sub.rng_key ^
                           (static_cast<std::uint64_t>(day / 7) * std::uint64_t{0x77EE4B})),
                       0x7EE6ULL);
  if (!week_rng.bernoulli(week_active_p)) return plan;

  // Weekends tilt slightly up for wearables (the paper observes a higher
  // *relative* wearable share on weekends/evenings, §4.2).
  const double weekend_tilt = util::is_weekend_day(day) ? 1.12 : 0.952;
  const double p_active =
      std::clamp((config_->mean_active_days_per_week / 7.0) *
                     std::sqrt(sub.engagement) * weekend_tilt / week_active_p,
                 0.02, 0.95);
  plan.active = rng.bernoulli(p_active);
  if (!plan.active) return plan;

  // Number of active hours today around the user's personal mean.
  const double h_mean = mean_active_hours_of(sub);
  const int n_hours = static_cast<int>(std::clamp(
      std::lround(rng.normal(h_mean, 0.3 * h_mean)), 1L, 18L));

  // Hour selection: diurnal curve (weekday/weekend shapes of Fig. 3a),
  // multiplied by the stay-at-home mask for single-location users.
  const HourWeights& base =
      hour_weights(/*wearable=*/true, util::is_weekend_day(day));
  std::array<double, 24> weights{};
  for (int h = 0; h < 24; ++h) {
    weights[static_cast<std::size_t>(h)] =
        base[static_cast<std::size_t>(h)] *
        (sub.home_user ? kHomeHourMask[static_cast<std::size_t>(h)] : 1.0);
  }
  std::array<bool, 24> chosen{};
  for (int k = 0; k < n_hours; ++k) {
    const std::size_t h = rng.weighted_index(weights);
    if (weights[h] <= 0.0) break;  // all hours exhausted
    chosen[h] = true;
    weights[h] = 0.0;
  }
  for (int h = 0; h < 24; ++h) {
    if (chosen[static_cast<std::size_t>(h)]) plan.active_hours.push_back(h);
  }
  if (plan.active_hours.empty()) plan.active = false;
  return plan;
}

std::vector<appdb::AppId> TrafficModel::pick_day_apps(
    const Subscriber& sub, util::Pcg32& rng) const {
  util::ensure(!sub.wearable_apps.empty(), "wearable owner has no apps");
  // Weight installed apps by popularity x daily-use multiplier, with
  // WiFi-preferring apps strongly damped on cellular (paper §5.1 notes
  // Health & Fitness sync waits for WiFi).
  // Which installed app a user actually reaches for depends on personal
  // affinity far more than on global chart position: global popularity
  // enters install choice (Population) at full strength but daily use only
  // with a dampened exponent.  WiFi-preferring apps are strongly damped on
  // cellular (paper §5.1 notes Health & Fitness sync waits for WiFi).
  std::vector<double> weights;
  weights.reserve(sub.wearable_apps.size());
  for (const appdb::AppId id : sub.wearable_apps) {
    const appdb::AppInfo& app = apps_->app(id);
    util::Pcg32 affinity_rng(
        util::splitmix64(sub.rng_key ^ (static_cast<std::uint64_t>(id) *
                                        0x51ED0031ULL)),
        0xAFF1ULL);
    const double affinity = affinity_rng.lognormal(0.0, 0.5);
    weights.push_back(std::pow(app.popularity_weight, 0.35) *
                      app.daily_use_multiplier * affinity *
                      (app.wifi_preferred ? 0.15 : 1.0));
  }
  // 1 + Poisson(extra) distinct apps today ("93% run only one app/day").
  const std::uint32_t extra = rng.poisson(config_->extra_apps_per_day);
  const std::size_t target = std::min<std::size_t>(
      sub.wearable_apps.size(), static_cast<std::size_t>(1 + extra));
  std::vector<appdb::AppId> day_apps;
  while (day_apps.size() < target) {
    const std::size_t idx = rng.weighted_index(weights);
    if (weights[idx] <= 0.0) break;
    day_apps.push_back(sub.wearable_apps[idx]);
    weights[idx] = 0.0;
  }
  if (day_apps.empty()) day_apps.push_back(sub.wearable_apps.front());
  return day_apps;
}

TrafficModel::Endpoint TrafficModel::pick_endpoint(const appdb::AppInfo& app,
                                                   util::Pcg32& rng) const {
  const appdb::TrafficProfile& prof = appdb::profile_for(app.profile);
  Endpoint ep;
  const double u = rng.next_double();
  const appdb::ThirdPartyMix& mix = prof.third_party;
  if (u < mix.utilities) {
    ep.host = third_party_host(appdb::TransactionClass::kUtilities, rng);
    // CDN transactions carry offloaded media: heavier than first-party.
    ep.bytes_scale = 1.6;
  } else if (u < mix.utilities + mix.advertising) {
    ep.host = third_party_host(appdb::TransactionClass::kAdvertising, rng);
    ep.bytes_scale = 0.8;
  } else if (u < mix.utilities + mix.advertising + mix.analytics) {
    ep.host = third_party_host(appdb::TransactionClass::kAnalytics, rng);
    ep.bytes_scale = 0.5;
  } else {
    const auto d = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(app.domains.size()) - 1));
    ep.host = app.domains[d];
    ep.bytes_scale = 1.0;
  }
  ep.is_http = rng.bernoulli(prof.http_fraction);
  if (ep.is_http) {
    ep.path = "/api/v" + std::to_string(rng.uniform_int(1, 3)) + "/r" +
              std::to_string(rng.uniform_int(1, 40));
  }
  return ep;
}

void TrafficModel::emit_usage(const Subscriber& sub,
                              const appdb::AppInfo& app, util::SimTime start,
                              util::SimTime end_limit, double intensity,
                              trace::Tac tac, util::Pcg32& rng,
                              trace::TraceStore& out) const {
  const appdb::TrafficProfile& prof = appdb::profile_for(app.profile);
  // Usage length is a property of the app class, not of the user: user
  // intensity scales how often usages happen, not how long they are.
  (void)intensity;
  const auto n_txn = static_cast<int>(
      1 + rng.poisson(std::max(0.0, prof.transactions_per_usage - 1.0)));
  util::SimTime t = start;
  for (int i = 0; i < n_txn; ++i) {
    if (t >= end_limit) break;
    const Endpoint ep = pick_endpoint(app, rng);
    trace::ProxyRecord r;
    r.timestamp = t;
    r.user_id = sub.user_id;
    r.tac = tac;
    r.protocol = ep.is_http ? trace::Protocol::kHttp : trace::Protocol::kHttps;
    r.host_id = out.hosts.intern(ep.host);
    r.path_id = out.paths.intern(ep.path);
    const double bytes =
        rng.lognormal(prof.bytes_log_mu, prof.bytes_log_sigma) *
        ep.bytes_scale;
    const auto total = static_cast<std::uint64_t>(
        std::clamp(bytes, 64.0, 2.0e9));
    const double up_frac =
        std::clamp(prof.uplink_fraction * rng.lognormal(0.0, 0.3), 0.01, 0.9);
    r.bytes_up = static_cast<std::uint64_t>(static_cast<double>(total) * up_frac);
    r.bytes_down = total - r.bytes_up;
    r.duration_ms = static_cast<std::uint32_t>(
        std::clamp(rng.exponential(1.0 / prof.duration_mean_ms), 20.0, 60000.0));
    out.proxy.push_back(r);
    // Intra-usage gap: exponential, capped below the 60 s sessionization
    // threshold so one usage never splits (paper's definition §5.1).
    const double gap =
        std::min(55.0, rng.exponential(1.0 / prof.intra_usage_gap_s) + 0.5);
    t += static_cast<util::SimTime>(std::lround(gap));
  }
}

void TrafficModel::generate_wearable_day(
    const Subscriber& sub, const WearableDayPlan& plan,
    const DayItinerary& itinerary, util::Pcg32& rng,
    trace::TraceStore& out) const {
  if (!plan.active) return;
  const std::vector<appdb::AppId> day_apps = pick_day_apps(sub, rng);

  // Per-user transaction intensity: more active-hours per day <=> more
  // transactions per hour (drives the Fig. 3d correlation).
  const double h_mean = mean_active_hours_of(sub);
  const double intensity = std::clamp(
      0.4 + 0.6 * h_mean / std::max(0.5, config_->mean_active_hours), 0.4,
      3.4);

  std::vector<double> app_weights;
  app_weights.reserve(day_apps.size());
  for (const appdb::AppId id : day_apps)
    app_weights.push_back(apps_->app(id).popularity_weight);

  // Single-location users (§4.4) transact only while parked at their home
  // sector: remap any planned hour that the itinerary spends elsewhere to
  // an hour at home (late evening and night hours qualify on every day).
  std::vector<int> hours = plan.active_hours;
  const util::SimTime base = util::day_start(itinerary.day);
  if (sub.home_user) {
    // Candidate replacement hours: at home, weighted by the same diurnal
    // curve + home mask the planner used (a uniform pick would flatten the
    // weekday/weekend shape of Fig. 3a).
    const HourWeights& diurnal =
        hour_weights(/*wearable=*/true, util::is_weekend_day(itinerary.day));
    std::vector<int> home_hours;
    std::vector<double> home_weights;
    for (int h = 0; h < 24; ++h) {
      const util::SimTime mid = base + h * kHour + kHour / 2;
      if (itinerary.sector_at(mid) == sub.home_sector) {
        home_hours.push_back(h);
        home_weights.push_back(diurnal[static_cast<std::size_t>(h)] *
                               kHomeHourMask[static_cast<std::size_t>(h)]);
      }
    }
    if (!home_hours.empty()) {
      for (int& h : hours) {
        const util::SimTime mid = base + h * kHour + kHour / 2;
        if (itinerary.sector_at(mid) != sub.home_sector) {
          h = home_hours[rng.weighted_index(home_weights)];
        }
      }
    }
  }
  for (const int hour : hours) {
    // Which of today's apps acts this hour (usually there is only one).
    const appdb::AppInfo& app =
        apps_->app(day_apps[rng.weighted_index(app_weights)]);
    const appdb::TrafficProfile& prof = appdb::profile_for(app.profile);
    // Super-linear in intensity: engaged users not only spread over more
    // hours, they also pack each hour more densely (Fig. 3d/4d relations).
    const double usage_rate =
        prof.usages_per_active_hour * std::pow(intensity, 1.5);
    const auto usages = static_cast<int>(
        std::max<std::uint32_t>(1, rng.poisson(usage_rate)));
    for (int u = 0; u < usages; ++u) {
      util::SimTime start =
          base + hour * kHour + rng.uniform_int(0, kHour - 120);
      if (sub.home_user) {
        // Anchor the whole usage at the home sector: a start drawn just
        // before the return-home handover would otherwise leak a foreign
        // sector into this user's transaction history (§4.4's 60%
        // single-location statistic erodes over long windows otherwise).
        for (int attempt = 0;
             attempt < 6 && itinerary.sector_at(start) != sub.home_sector;
             ++attempt) {
          start = base + hour * kHour + rng.uniform_int(0, kHour - 120);
        }
        if (itinerary.sector_at(start) != sub.home_sector) continue;
      }
      emit_usage(sub, app, start, util::day_start(itinerary.day + 1),
                 intensity, sub.wearable_tac, rng, out);
    }
  }
  (void)itinerary;  // position is implied by the MME log at analysis time
}

void TrafficModel::generate_phone_day(
    const Subscriber& sub, int day, const DayItinerary& itinerary,
    util::Pcg32& rng, trace::TraceStore& out) const {
  // Phones are active nearly every day.
  if (!rng.bernoulli(0.96)) return;

  const bool owner = sub.segment == Segment::kWearableOwner;
  const bool through = sub.segment == Segment::kThroughDevice;

  // Owners make +48% transactions; volume inflation lands at +26% because
  // per-transaction bytes shrink by the ratio of the two multipliers.
  double txn_mult = sub.phone_engagement;
  double byte_mult = 1.0;
  if (owner) {
    // The wearable itself contributes the remaining transaction inflation
    // (owners' wearable transactions add ~0.27x of a control user's phone
    // transactions), so the phone side carries a reduced multiplier and
    // the *total* lands at the configured +48%.
    const double phone_txn_mult = config_->owner_txn_multiplier * 0.82;
    txn_mult *= phone_txn_mult;
    byte_mult *= sub.tech_multiplier / phone_txn_mult;
    // The heaviest wearable adopters offload real usage to the watch:
    // their phones run noticeably quieter (this is what produces the
    // "10% of users get >= 3% of their traffic from the wearable" tail).
    if (sub.engagement > 2.79) byte_mult *= 0.45;
  } else if (through) {
    txn_mult *= 1.0 + (config_->owner_txn_multiplier - 1.0) * 0.8;
    byte_mult *= sub.tech_multiplier /
                 (1.0 + (config_->owner_txn_multiplier - 1.0) * 0.8);
  }

  // Phones tilt the other way: slightly quieter on weekends.
  const double phone_tilt = util::is_weekend_day(day) ? 0.93 : 1.028;
  const auto n_txn =
      rng.poisson(config_->phone_txn_per_day * txn_mult * phone_tilt);
  if (n_txn == 0 && sub.companion_signature < 0) return;

  const HourWeights& hours =
      hour_weights(/*wearable=*/false, util::is_weekend_day(day));
  const util::SimTime base = util::day_start(day);
  std::vector<double> hour_w(hours.begin(), hours.end());

  for (std::uint32_t i = 0; i < n_txn; ++i) {
    const std::size_t hour = rng.weighted_index(hour_w);
    const util::SimTime t = base + static_cast<util::SimTime>(hour) * kHour +
                            rng.uniform_int(0, kHour - 1);
    const appdb::AppInfo& app = apps_->app(
        sub.phone_apps[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(sub.phone_apps.size()) - 1))]);
    const Endpoint ep = pick_endpoint(app, rng);
    trace::ProxyRecord r;
    r.timestamp = t;
    r.user_id = sub.user_id;
    r.tac = sub.phone_tac;
    r.protocol = ep.is_http ? trace::Protocol::kHttp : trace::Protocol::kHttps;
    r.host_id = out.hosts.intern(ep.host);
    r.path_id = out.paths.intern(ep.path);
    // Phone records are coarse foreground bursts, not individual fetches.
    const double bytes = rng.lognormal(config_->phone_bytes_log_mu,
                                       config_->phone_bytes_log_sigma) *
                         byte_mult * ep.bytes_scale;
    const auto total = static_cast<std::uint64_t>(
        std::clamp(bytes, 256.0, 4.0e9));
    r.bytes_up = static_cast<std::uint64_t>(static_cast<double>(total) * 0.1);
    r.bytes_down = total - r.bytes_up;
    r.duration_ms = static_cast<std::uint32_t>(
        std::clamp(rng.exponential(1.0 / 900.0), 30.0, 120000.0));
    out.proxy.push_back(r);
  }

  // Companion sync traffic of fingerprintable Through-Device wearables:
  // periodic small uploads to the vendor/app wearable endpoints.
  if (sub.companion_signature >= 0) {
    const appdb::CompanionSignature& sig =
        appdb::companion_signatures()[static_cast<std::size_t>(
            sub.companion_signature)];
    const auto syncs = rng.poisson(5.0);
    for (std::uint32_t s = 0; s < syncs; ++s) {
      const std::size_t hour = rng.weighted_index(hour_w);
      trace::ProxyRecord r;
      r.timestamp = base + static_cast<util::SimTime>(hour) * kHour +
                    rng.uniform_int(0, kHour - 1);
      r.user_id = sub.user_id;
      r.tac = sub.phone_tac;
      r.protocol = trace::Protocol::kHttps;
      const auto d = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(sig.domains.size()) - 1));
      r.host_id = out.hosts.intern(sig.domains[d]);
      r.path_id = out.paths.intern("");
      const auto total = static_cast<std::uint64_t>(
          std::clamp(rng.lognormal(8.3, 0.8), 256.0, 1.0e8));
      r.bytes_up = total * 6 / 10;  // mostly uplink: sensor sync
      r.bytes_down = total - r.bytes_up;
      r.duration_ms = static_cast<std::uint32_t>(
          std::clamp(rng.exponential(1.0 / 500.0), 30.0, 60000.0));
      out.proxy.push_back(r);
    }
  }
  (void)itinerary;
}

}  // namespace wearscope::simnet
