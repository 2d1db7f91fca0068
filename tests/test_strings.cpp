// Unit tests for string utilities and DNS suffix matching.
#include "util/strings.h"

#include <unordered_map>
#include <utility>

#include <gtest/gtest.h>

namespace wearscope::util {
namespace {

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"x"}, ","), "x");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc \t\n"), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, ToLower) {
  EXPECT_EQ(to_lower("AbC123"), "abc123");
  EXPECT_EQ(to_lower(""), "");
}

TEST(HostSuffix, ExactAndSubdomain) {
  EXPECT_TRUE(host_matches_suffix("fitbit.com", "fitbit.com"));
  EXPECT_TRUE(host_matches_suffix("api.fitbit.com", "fitbit.com"));
  EXPECT_TRUE(host_matches_suffix("a.b.fitbit.com", "fitbit.com"));
}

TEST(HostSuffix, RejectsPartialLabelMatch) {
  // The classic trap: "notfitbit.com" must NOT match "fitbit.com".
  EXPECT_FALSE(host_matches_suffix("notfitbit.com", "fitbit.com"));
  EXPECT_FALSE(host_matches_suffix("fitbit.com.evil.com", "fitbit.com"));
  EXPECT_FALSE(host_matches_suffix("fitbit.org", "fitbit.com"));
}

TEST(HostSuffix, CaseInsensitive) {
  EXPECT_TRUE(host_matches_suffix("API.FitBit.COM", "fitbit.com"));
  EXPECT_TRUE(host_matches_suffix("api.fitbit.com", "FITBIT.COM"));
}

TEST(HostSuffix, MixedCaseOnBothSides) {
  EXPECT_TRUE(host_matches_suffix("FitBit.Com", "fITbIT.cOM"));
  EXPECT_TRUE(host_matches_suffix("Eu.Wear.STRAVA.com", "wear.Strava.COM"));
  // Case folding must not turn a near miss into a match.
  EXPECT_FALSE(host_matches_suffix("NotFitbit.COM", "fitbit.com"));
  EXPECT_FALSE(host_matches_suffix("FITBIT.COM.EVIL.NET", "Fitbit.Com"));
  EXPECT_FALSE(host_matches_suffix("API-FITBIT.COM", "fitbit.com"));
}

TEST(HostSuffix, EmptyAndShort) {
  EXPECT_FALSE(host_matches_suffix("a.com", ""));
  EXPECT_FALSE(host_matches_suffix("", "a.com"));
  EXPECT_FALSE(host_matches_suffix("", ""));
  EXPECT_FALSE(host_matches_suffix("om", "a.com"));
  EXPECT_FALSE(host_matches_suffix(".", "a.com"));
  EXPECT_TRUE(host_matches_suffix(".a.com", "a.com"));
}

TEST(RegistrableDomain, TwoLabelHosts) {
  EXPECT_EQ(registrable_domain("example.com"), "example.com");
  EXPECT_EQ(registrable_domain("cdn.ads.example.com"), "example.com");
}

TEST(RegistrableDomain, TwoPartPublicSuffix) {
  EXPECT_EQ(registrable_domain("shop.example.co.uk"), "example.co.uk");
  EXPECT_EQ(registrable_domain("example.co.uk"), "example.co.uk");
}

TEST(RegistrableDomain, SingleLabel) {
  EXPECT_EQ(registrable_domain("localhost"), "localhost");
}

TEST(HasLabel, CompleteLabelsOnly) {
  EXPECT_TRUE(has_label("ads.server.com", "ads"));
  EXPECT_FALSE(has_label("roads.server.com", "ads"));
  EXPECT_TRUE(has_label("a.ADS.b", "ads"));
  EXPECT_FALSE(has_label("adserver.com", "ads"));
  EXPECT_FALSE(has_label("x.com", ""));
}

// --- allocation-free variants ----------------------------------------------

TEST(Strings, ToLowerIntoReusesBuffer) {
  std::string scratch;
  EXPECT_EQ(to_lower_into("AbC123", scratch), "abc123");
  EXPECT_EQ(scratch, "abc123");
  // A shorter input must fully replace the previous content.
  EXPECT_EQ(to_lower_into("XY", scratch), "xy");
  EXPECT_EQ(to_lower_into("", scratch), "");
}

TEST(RegistrableDomain, LowerVariantAgreesWithAllocatingPath) {
  const std::vector<std::string> hosts = {
      "example.com",     "cdn.ads.example.com", "shop.example.co.uk",
      "example.co.uk",   "localhost",           "a.b.c.d.example.com.au",
      "x.org.uk",        "co.uk",               "a..com",
      ".",               ".com",                ".co.uk",
      "a.",              "x",                   "deep.chain.of.labels.net"};
  for (const std::string& h : hosts) {
    // The inputs are already lower-case and trimmed, so both paths must
    // agree exactly.
    EXPECT_EQ(std::string(registrable_domain_of_lower(h)),
              registrable_domain(h))
        << h;
  }
}

TEST(RegistrableDomain, LowerVariantReturnsViewIntoInput) {
  const std::string host = "cdn.ads.example.com";
  const std::string_view reg = registrable_domain_of_lower(host);
  EXPECT_EQ(reg, "example.com");
  EXPECT_GE(reg.data(), host.data());
  EXPECT_LE(reg.data() + reg.size(), host.data() + host.size());
}

TEST(HasLabel, LowerVariantAgreesWithAllocatingPath) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"ads.server.com", "ads"},  {"roads.server.com", "ads"},
      {"adserver.com", "ads"},    {"metrics.a.b", "metrics"},
      {"a.b.metrics", "metrics"}, {"telemetry", "telemetry"},
      {"x.com", "y"}};
  for (const auto& [host, token] : cases) {
    EXPECT_EQ(has_label_lower(host, token), has_label(host, token))
        << host << " / " << token;
  }
}

TEST(Strings, TransparentHashLooksUpWithoutConversion) {
  std::unordered_map<std::string, int, StringHash, std::equal_to<>> map;
  map.emplace("fitbit.com", 1);
  const std::string_view probe = "fitbit.com";
  const auto it = map.find(probe);
  ASSERT_NE(it, map.end());
  EXPECT_EQ(it->second, 1);
  EXPECT_EQ(map.find(std::string_view("nope")), map.end());
}

}  // namespace
}  // namespace wearscope::util
