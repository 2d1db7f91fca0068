// Simulation configuration: population sizes, observation window, and the
// behavioural calibration knobs that target the paper's published statistics.
//
// Every default below is a calibration target lifted from the paper; the
// comment next to each knob names the claim it serves.  The analysis pipeline
// never reads this struct — it must recover these numbers from the logs.
#pragma once

#include <cstdint>
#include <string_view>

#include "util/sim_time.h"

namespace wearscope::simnet {

/// Full generator configuration. Value-semantic; validate() before use.
struct SimConfig {
  // ---- Scale -----------------------------------------------------------
  /// Master seed; equal seeds give byte-identical traces.
  std::uint64_t seed = 42;
  /// Worker threads for trace generation. 0 = one per hardware core.
  /// The output is byte-identical for ANY thread count: every (user, day)
  /// draws from its own forked RNG stream and records are merged in user
  /// order before the canonical time sort.
  std::uint32_t threads = 0;
  /// SIM-enabled wearable owners ("order of thousands", §3.2).
  std::uint32_t wearable_users = 1000;
  /// Control sample of the remaining ISP customers (stands in for the
  /// "tens of millions"; only relative statistics are reported).
  std::uint32_t control_users = 3200;
  /// Through-Device wearable owners (conclusion §6).
  std::uint32_t through_device_users = 250;

  // ---- Observation window (paper §3.1) -----------------------------------
  /// Summary-statistics span: five months, mid-Dec 2017 .. mid-May 2018.
  int observation_days = util::kObservationDays;
  /// Detailed-log span at the end of the window ("last seven weeks").
  /// Smaller values speed up tests; must be a multiple of 7 and fit the
  /// observation window.
  int detailed_days = 21;

  // ---- Geography ---------------------------------------------------------
  /// Number of cities in the synthetic country.
  std::uint32_t cities = 12;
  /// Antenna sectors per city, scaled by city population rank.
  std::uint32_t sectors_per_city = 24;
  /// Bounding box (degrees) the country occupies.
  double country_lat = 40.0;
  double country_lon = -3.5;
  double country_extent_deg = 5.0;

  // ---- Adoption (Fig. 2) --------------------------------------------------
  /// Monthly growth of the SIM-wearable base: "1.5% per month, 9% in 5
  /// months".
  double monthly_growth = 0.015;
  /// Fraction of first-week users gone by the last week ("7% abandon").
  double churn_fraction = 0.07;
  /// Daily probability that an adopted, unchurned wearable registers with
  /// the MME at all (watch switched on).
  double daily_register_prob = 0.93;

  // ---- Wearable cellular activity (Fig. 2a, §4.1: "only 34% transmit") ----
  /// Fraction of wearable users with no usable data path (no plan, or
  /// WiFi-only habits): they register but never transact.
  double silent_user_fraction = 0.655;
  /// Probability that a data-capable user is active on a given day,
  /// modulated per user; targets "active about 1 day a week" (§4.3).
  double mean_active_days_per_week = 1.0;
  /// Mean active hours on an active day; targets "3 hours per day", with
  /// 80% below 5 h and 7% above 10 h (Fig. 3b).
  double mean_active_hours = 3.0;

  // ---- Traffic (Fig. 3c/4a/4b) --------------------------------------------
  /// Mean wearable transactions per active hour (Fig. 3c reports the
  /// hourly per-user transaction distribution).
  double wearable_txn_per_hour = 9.0;
  /// Mean smartphone foreground transactions per day (coarse: each
  /// record aggregates a fetch burst; Fig. 4 uses only relative volumes).
  double phone_txn_per_day = 12.0;
  /// Log-mu of per-transaction phone bytes (lognormal). Calibrated with
  /// sigma so owners' wearable/total traffic ratio lands near 1e-3
  /// (Fig. 4b).
  double phone_bytes_log_mu = 13.6;  // ~e^13.6 = 0.8 MB
  double phone_bytes_log_sigma = 1.1;
  /// Data/transaction inflation of wearable *owners*' overall traffic vs
  /// control users: "26% more data, 48% more transactions" (§4.3).
  double owner_data_multiplier = 1.26;
  double owner_txn_multiplier = 1.48;

  // ---- Mobility (Fig. 4c/4d) ----------------------------------------------
  /// Log-mu/sigma of the control users' home-work distance (km).
  double commute_log_mu_km = 1.3;  // ~3.7 km median
  double commute_log_sigma = 0.75;
  /// Multiplier on wearable owners' commute/errand radius: targets the
  /// "31 km vs 16 km" max-displacement gap and the +70% location entropy.
  double owner_mobility_multiplier = 2.8;
  /// Probability of a long trip (inter-city) on any day.
  double trip_probability = 0.012;
  /// Fraction of data-active wearable users whose usage happens at a
  /// single anchor location ("60% transmit from one location", §4.4).
  double home_user_fraction = 0.60;

  // ---- Apps (Fig. 5/6/7, §4.3) ---------------------------------------------
  /// Log-mu/sigma of per-user installed Internet-capable wearable apps:
  /// mean ~8, 90% < 20, heavy tail past 100 (§4.3).
  double apps_log_mu = 1.79;  // median ~6
  double apps_log_sigma = 0.85;
  /// Mean number of *extra* distinct apps run on an active day beyond the
  /// first ("93% run only one app per day").
  double extra_apps_per_day = 0.08;
  /// Long-tail catalog size appended after the 50 named apps.
  std::uint32_t long_tail_apps = 150;

  // ---- Extension: Apple Watch launch (paper §6 expects a "sharper
  // increase once the Apple watch is supported by this ISP") ---------------
  /// Day the operator starts supporting the Apple Watch; -1 disables the
  /// scenario (the paper's status quo).
  int apple_watch_launch_day = -1;
  /// Multiplier on the in-window adoption rate after the launch day.
  double launch_adoption_boost = 3.0;
  /// Share of post-launch adopters choosing the Apple Watch.
  double apple_watch_share = 0.55;
  /// Fraction of the owner population that adopts *only because of* the
  /// launch (new demand on top of the organic ramp).
  double launch_extra_adopters = 0.12;

  // ---- Through-Device (conclusion §6) --------------------------------------
  /// Fraction of Through-Device users carrying a fingerprintable device or
  /// wearable-enabled app ("~16% of total Through-Device users").
  double fingerprintable_fraction = 0.16;

  /// Throws util::ConfigError when any knob is out of its documented
  /// domain (negative counts, detailed window not fitting, etc.).
  void validate() const;

  /// Small preset for unit tests (hundreds of users, two weeks).
  static SimConfig small();
  /// Default preset used by the figure benches.
  static SimConfig standard();
  /// Full-fidelity preset mirroring the paper's seven-week window.
  static SimConfig paper();
  /// The preset called `name` ("small", "standard" or "paper").  Throws
  /// util::ConfigError naming the value for any other name.
  static SimConfig preset(std::string_view name);
};

}  // namespace wearscope::simnet
