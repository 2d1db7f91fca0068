// Unit tests for per-day traffic generation.
#include "simnet/traffic.h"

#include <set>

#include <gtest/gtest.h>

#include "util/strings.h"

namespace wearscope::simnet {
namespace {

struct World {
  SimConfig cfg = SimConfig::small();
  appdb::AppCatalog apps{cfg.long_tail_apps};
  appdb::DeviceModelCatalog devices;
  Geography geo{cfg, util::Pcg32(1)};
  Population pop{cfg, geo, apps, devices, util::Pcg32(2)};
  MobilityModel mobility{cfg, geo};
  TrafficModel traffic{cfg, apps};

  const Subscriber* find_owner(bool silent) const {
    for (const Subscriber* s : pop.of_segment(Segment::kWearableOwner)) {
      if (s->silent == silent && s->adoption_day == 0) return s;
    }
    return nullptr;
  }
};

TEST(TrafficPlan, SilentUsersRegisterButNeverTransact) {
  World w;
  const Subscriber* silent = w.find_owner(true);
  ASSERT_NE(silent, nullptr);
  util::Pcg32 rng(3);
  bool registered = false;
  for (int day = 0; day < 60; ++day) {
    const WearableDayPlan plan = w.traffic.plan_wearable_day(*silent, day, rng);
    EXPECT_FALSE(plan.active);
    registered |= plan.registered;
  }
  EXPECT_TRUE(registered);
}

TEST(TrafficPlan, DeadWearableNeverRegisters) {
  World w;
  Subscriber dead = *w.find_owner(false);
  dead.adoption_day = 100;
  util::Pcg32 rng(4);
  for (int day = 0; day < 100; ++day) {
    const WearableDayPlan plan = w.traffic.plan_wearable_day(dead, day, rng);
    EXPECT_FALSE(plan.registered);
    EXPECT_FALSE(plan.active);
  }
}

TEST(TrafficPlan, ActiveHoursAreValidAndDistinct) {
  World w;
  const Subscriber* s = w.find_owner(false);
  ASSERT_NE(s, nullptr);
  util::Pcg32 rng(5);
  int active_days = 0;
  for (int day = 0; day < 365 && active_days < 20; ++day) {
    const WearableDayPlan plan =
        w.traffic.plan_wearable_day(*s, day % w.cfg.observation_days, rng);
    if (!plan.active) continue;
    ++active_days;
    EXPECT_FALSE(plan.active_hours.empty());
    std::set<int> hours(plan.active_hours.begin(), plan.active_hours.end());
    EXPECT_EQ(hours.size(), plan.active_hours.size());
    for (const int h : plan.active_hours) {
      EXPECT_GE(h, 0);
      EXPECT_LT(h, 24);
    }
  }
  EXPECT_GT(active_days, 0);
}

TEST(TrafficGen, WearableRecordsCarryWearableTacAndStayInDay) {
  World w;
  const Subscriber* s = w.find_owner(false);
  ASSERT_NE(s, nullptr);
  util::Pcg32 rng(6);
  trace::TraceStore out;
  for (int day = 0; day < 120 && out.proxy.empty(); ++day) {
    const WearableDayPlan plan = w.traffic.plan_wearable_day(*s, day, rng);
    if (!plan.active) continue;
    util::Pcg32 mob_rng(7);
    const DayItinerary it = w.mobility.build_day(*s, day, mob_rng);
    util::Pcg32 gen_rng(8);
    w.traffic.generate_wearable_day(*s, plan, it, gen_rng, out);
    for (const trace::ProxyRecord& r : out.proxy) {
      EXPECT_EQ(r.user_id, s->user_id);
      EXPECT_EQ(r.tac, s->wearable_tac);
      EXPECT_GE(util::day_of(r.timestamp), day);
      // A usage that starts before midnight may finish just after it.
      EXPECT_LE(r.timestamp, util::day_start(day + 1) + 15 * 60);
      EXPECT_GT(r.bytes_total(), 0u);
      EXPECT_FALSE(out.hosts[r.host_id].empty());
      if (r.protocol == trace::Protocol::kHttp) {
        EXPECT_FALSE(out.paths[r.path_id].empty());
      } else {
        EXPECT_TRUE(out.paths[r.path_id].empty());
      }
    }
  }
  EXPECT_FALSE(out.proxy.empty());
}

TEST(TrafficGen, IntraUsageGapsStayUnderSessionThreshold) {
  World w;
  const Subscriber* s = w.find_owner(false);
  ASSERT_NE(s, nullptr);
  // Sessionization gap of 60 s must never split one generated usage;
  // verify consecutive same-start-hour records cluster tightly.
  util::Pcg32 rng(9);
  trace::TraceStore out;
  for (int day = 0; day < 200 && out.proxy.size() < 50; ++day) {
    const WearableDayPlan plan =
        w.traffic.plan_wearable_day(*s, day % w.cfg.observation_days, rng);
    if (!plan.active) continue;
    util::Pcg32 mob_rng(10);
    const DayItinerary it =
        w.mobility.build_day(*s, day % w.cfg.observation_days, mob_rng);
    util::Pcg32 gen_rng(static_cast<std::uint64_t>(day));
    w.traffic.generate_wearable_day(*s, plan, it, gen_rng, out);
  }
  ASSERT_GT(out.proxy.size(), 5u);
  // All gaps within a generated usage are < 60 s by construction; we can't
  // see usage ids here, but gaps of (0, 60) must exist.
  std::sort(out.proxy.begin(), out.proxy.end(), trace::ByTimeThenUser{});
  bool saw_intra_gap = false;
  for (std::size_t i = 1; i < out.proxy.size(); ++i) {
    const auto gap = out.proxy[i].timestamp - out.proxy[i - 1].timestamp;
    if (gap > 0 && gap < 60) saw_intra_gap = true;
  }
  EXPECT_TRUE(saw_intra_gap);
}

TEST(TrafficGen, PhoneDayUsesPhoneTac) {
  World w;
  const Subscriber& s = *w.pop.of_segment(Segment::kControl).front();
  util::Pcg32 rng(11);
  util::Pcg32 mob_rng(12);
  const DayItinerary it = w.mobility.build_day(s, 140, mob_rng);
  trace::TraceStore out;
  for (int attempt = 0; attempt < 5 && out.proxy.empty(); ++attempt) {
    w.traffic.generate_phone_day(s, 140, it, rng, out);
  }
  ASSERT_FALSE(out.proxy.empty());
  for (const trace::ProxyRecord& r : out.proxy) {
    EXPECT_EQ(r.tac, s.phone_tac);
    EXPECT_EQ(util::day_of(r.timestamp), 140);
  }
}

TEST(TrafficGen, CompanionDomainsOnlyForFingerprintableUsers) {
  World w;
  const auto sigs = appdb::companion_signatures();
  const auto is_companion_host = [&](const std::string& host) {
    for (const appdb::CompanionSignature& sig : sigs) {
      for (const std::string& d : sig.domains) {
        if (util::host_matches_suffix(host, d)) return true;
      }
    }
    return false;
  };

  const Subscriber* plain = nullptr;
  const Subscriber* marked = nullptr;
  for (const Subscriber* s : w.pop.of_segment(Segment::kThroughDevice)) {
    if (s->companion_signature < 0 && plain == nullptr) plain = s;
    if (s->companion_signature >= 0 && marked == nullptr) marked = s;
  }
  ASSERT_NE(plain, nullptr);
  ASSERT_NE(marked, nullptr);

  util::Pcg32 rng(13);
  util::Pcg32 mob_rng(14);
  trace::TraceStore plain_out;
  trace::TraceStore marked_out;
  for (int day = 140; day < 153; ++day) {
    const DayItinerary it_p = w.mobility.build_day(*plain, day, mob_rng);
    const DayItinerary it_m = w.mobility.build_day(*marked, day, mob_rng);
    w.traffic.generate_phone_day(*plain, day, it_p, rng, plain_out);
    w.traffic.generate_phone_day(*marked, day, it_m, rng, marked_out);
  }
  for (const trace::ProxyRecord& r : plain_out.proxy) {
    const std::string& host = plain_out.hosts[r.host_id];
    EXPECT_FALSE(is_companion_host(host)) << host;
  }
  const bool marked_has_companion = std::any_of(
      marked_out.proxy.begin(), marked_out.proxy.end(),
      [&](const trace::ProxyRecord& r) {
        return is_companion_host(marked_out.hosts[r.host_id]);
      });
  EXPECT_TRUE(marked_has_companion);
}

TEST(TrafficGen, HomeUsersTransactFromHomeSector) {
  World w;
  const Subscriber* home_user = nullptr;
  for (const Subscriber* s : w.pop.of_segment(Segment::kWearableOwner)) {
    if (s->home_user && !s->silent && s->adoption_day == 0) {
      home_user = s;
      break;
    }
  }
  ASSERT_NE(home_user, nullptr);
  util::Pcg32 rng(15);
  std::size_t txns = 0;
  std::size_t at_home = 0;
  for (int day = 0; day < w.cfg.observation_days; ++day) {
    const WearableDayPlan plan =
        w.traffic.plan_wearable_day(*home_user, day, rng);
    if (!plan.active) continue;
    util::Pcg32 mob_rng(16);
    const DayItinerary it = w.mobility.build_day(*home_user, day, mob_rng);
    trace::TraceStore out;
    util::Pcg32 gen_rng(static_cast<std::uint64_t>(day) + 17);
    w.traffic.generate_wearable_day(*home_user, plan, it, gen_rng, out);
    for (const trace::ProxyRecord& r : out.proxy) {
      ++txns;
      if (it.sector_at(r.timestamp) == home_user->home_sector) ++at_home;
    }
  }
  ASSERT_GT(txns, 0u);
  EXPECT_GT(static_cast<double>(at_home) / static_cast<double>(txns), 0.9);
}

TEST(TrafficModel, MeanActiveHoursMixture) {
  World w;
  Subscriber s = *w.find_owner(false);
  s.engagement = 1.0;
  EXPECT_NEAR(w.traffic.mean_active_hours_of(s), 2.3, 0.01);
  s.engagement = 4.0;  // heavy-user mixture component
  EXPECT_NEAR(w.traffic.mean_active_hours_of(s), 11.6, 0.01);
  s.engagement = 0.01;
  EXPECT_GE(w.traffic.mean_active_hours_of(s), 0.5);  // clamped
}

TEST(TrafficPlan, DeterministicGivenSameRngStream) {
  World w;
  const Subscriber* s = w.find_owner(false);
  util::Pcg32 a(42);
  util::Pcg32 b(42);
  for (int day = 0; day < 30; ++day) {
    const WearableDayPlan pa = w.traffic.plan_wearable_day(*s, day, a);
    const WearableDayPlan pb = w.traffic.plan_wearable_day(*s, day, b);
    EXPECT_EQ(pa.registered, pb.registered);
    EXPECT_EQ(pa.active, pb.active);
    EXPECT_EQ(pa.active_hours, pb.active_hours);
  }
}

}  // namespace
}  // namespace wearscope::simnet
