#include "simnet/config.h"

#include <string>

#include "util/error.h"

namespace wearscope::simnet {

void SimConfig::validate() const {
  using util::require;
  require(threads <= 256, "config: threads out of range [0, 256]");
  require(wearable_users > 0, "config: wearable_users must be positive");
  require(control_users > 0, "config: control_users must be positive");
  require(observation_days >= 14, "config: observation_days must be >= 14");
  require(detailed_days >= 7, "config: detailed_days must be >= 7");
  require(detailed_days % 7 == 0,
          "config: detailed_days must be a multiple of 7");
  require(detailed_days <= observation_days,
          "config: detailed window exceeds observation window");
  require(cities >= 1, "config: need at least one city");
  require(sectors_per_city >= 2, "config: need at least two sectors per city");
  require(monthly_growth >= 0.0 && monthly_growth < 0.5,
          "config: monthly_growth out of range [0, 0.5)");
  require(churn_fraction >= 0.0 && churn_fraction < 1.0,
          "config: churn_fraction out of range [0, 1)");
  require(daily_register_prob > 0.0 && daily_register_prob <= 1.0,
          "config: daily_register_prob out of range (0, 1]");
  require(silent_user_fraction >= 0.0 && silent_user_fraction < 1.0,
          "config: silent_user_fraction out of range [0, 1)");
  require(mean_active_days_per_week > 0.0 && mean_active_days_per_week <= 7.0,
          "config: mean_active_days_per_week out of range (0, 7]");
  require(mean_active_hours > 0.0 && mean_active_hours <= 24.0,
          "config: mean_active_hours out of range (0, 24]");
  require(wearable_txn_per_hour > 0.0,
          "config: wearable_txn_per_hour must be positive");
  require(phone_txn_per_day > 0.0,
          "config: phone_txn_per_day must be positive");
  require(owner_data_multiplier > 0.0 && owner_txn_multiplier > 0.0,
          "config: owner multipliers must be positive");
  require(owner_mobility_multiplier > 0.0,
          "config: owner_mobility_multiplier must be positive");
  require(trip_probability >= 0.0 && trip_probability <= 1.0,
          "config: trip_probability out of range [0, 1]");
  require(home_user_fraction >= 0.0 && home_user_fraction <= 1.0,
          "config: home_user_fraction out of range [0, 1]");
  require(extra_apps_per_day >= 0.0,
          "config: extra_apps_per_day must be non-negative");
  require(fingerprintable_fraction >= 0.0 && fingerprintable_fraction <= 1.0,
          "config: fingerprintable_fraction out of range [0, 1]");
  require(apple_watch_launch_day < observation_days,
          "config: apple_watch_launch_day beyond the observation window");
  require(launch_adoption_boost >= 1.0,
          "config: launch_adoption_boost must be >= 1");
  require(apple_watch_share >= 0.0 && apple_watch_share <= 1.0,
          "config: apple_watch_share out of range [0, 1]");
  require(launch_extra_adopters >= 0.0 && launch_extra_adopters < 0.9,
          "config: launch_extra_adopters out of range [0, 0.9)");
}

SimConfig SimConfig::small() {
  SimConfig c;
  c.wearable_users = 300;
  c.control_users = 900;
  c.through_device_users = 70;
  c.detailed_days = 14;
  c.cities = 6;
  c.sectors_per_city = 12;
  c.long_tail_apps = 120;
  return c;
}

SimConfig SimConfig::standard() { return SimConfig{}; }

SimConfig SimConfig::paper() {
  SimConfig c;
  c.wearable_users = 4000;
  c.control_users = 8000;
  c.through_device_users = 1200;
  c.detailed_days = 49;
  return c;
}

SimConfig SimConfig::preset(std::string_view name) {
  if (name == "small") return small();
  if (name == "standard") return standard();
  if (name == "paper") return paper();
  throw util::ConfigError("unknown preset '" + std::string(name) +
                          "' (expected small|standard|paper)");
}

}  // namespace wearscope::simnet
