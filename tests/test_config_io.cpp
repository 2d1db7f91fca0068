// Unit tests for SimConfig text persistence.
#include "simnet/config_io.h"

#include <filesystem>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "util/error.h"

namespace wearscope::simnet {
namespace {

TEST(ConfigIo, RoundTripPreservesEveryKnob) {
  SimConfig in = SimConfig::paper();
  in.seed = 12345;
  in.monthly_growth = 0.021;
  in.silent_user_fraction = 0.5;
  in.country_lat = 48.25;
  in.long_tail_apps = 99;

  std::stringstream buf;
  write_config(in, buf);
  const SimConfig out = read_config(buf);

  EXPECT_EQ(out.seed, in.seed);
  EXPECT_EQ(out.wearable_users, in.wearable_users);
  EXPECT_EQ(out.control_users, in.control_users);
  EXPECT_EQ(out.through_device_users, in.through_device_users);
  EXPECT_EQ(out.observation_days, in.observation_days);
  EXPECT_EQ(out.detailed_days, in.detailed_days);
  EXPECT_DOUBLE_EQ(out.monthly_growth, in.monthly_growth);
  EXPECT_DOUBLE_EQ(out.silent_user_fraction, in.silent_user_fraction);
  EXPECT_DOUBLE_EQ(out.country_lat, in.country_lat);
  EXPECT_EQ(out.long_tail_apps, in.long_tail_apps);
  EXPECT_DOUBLE_EQ(out.owner_mobility_multiplier,
                   in.owner_mobility_multiplier);
}

TEST(ConfigIo, PartialFileKeepsDefaults) {
  std::stringstream buf("seed = 7\nwearable_users = 50\n");
  const SimConfig out = read_config(buf);
  EXPECT_EQ(out.seed, 7u);
  EXPECT_EQ(out.wearable_users, 50u);
  const SimConfig defaults;
  EXPECT_EQ(out.control_users, defaults.control_users);
  EXPECT_DOUBLE_EQ(out.monthly_growth, defaults.monthly_growth);
}

TEST(ConfigIo, CommentsAndBlankLinesIgnored) {
  std::stringstream buf(
      "# a comment\n\nseed = 9   # trailing comment\n   \n");
  EXPECT_EQ(read_config(buf).seed, 9u);
}

TEST(ConfigIo, PresetNamesResolveToTheirFactories) {
  const auto text = [](const SimConfig& cfg) {
    std::stringstream buf;
    write_config(cfg, buf);
    return buf.str();
  };
  EXPECT_EQ(text(SimConfig::preset("small")), text(SimConfig::small()));
  EXPECT_EQ(text(SimConfig::preset("standard")), text(SimConfig::standard()));
  EXPECT_EQ(text(SimConfig::preset("paper")), text(SimConfig::paper()));
  // The three presets differ, so the checks above pin each name.
  EXPECT_NE(text(SimConfig::small()), text(SimConfig::standard()));
  EXPECT_NE(text(SimConfig::standard()), text(SimConfig::paper()));
}

TEST(ConfigIo, UnknownPresetThrowsNamingTheValue) {
  try {
    (void)SimConfig::preset("papr");
    FAIL() << "unknown preset accepted";
  } catch (const util::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("'papr'"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)SimConfig::preset(""), util::ConfigError);
  EXPECT_THROW((void)SimConfig::preset("Small"), util::ConfigError);
}

TEST(ConfigIo, UnknownKeyRejected) {
  std::stringstream buf("wearables = 10\n");
  EXPECT_THROW(read_config(buf), util::ParseError);
}

TEST(ConfigIo, BadValueRejected) {
  std::stringstream buf("wearable_users = lots\n");
  EXPECT_THROW(read_config(buf), util::ParseError);
  std::stringstream buf2("monthly_growth = 1.2.3\n");
  EXPECT_THROW(read_config(buf2), util::ParseError);
}

TEST(ConfigIo, MissingEqualsRejected) {
  std::stringstream buf("seed 7\n");
  EXPECT_THROW(read_config(buf), util::ParseError);
}

TEST(ConfigIo, InvalidConfigurationRejected) {
  // detailed_days not a multiple of 7 fails validate() on load.
  std::stringstream buf("detailed_days = 13\n");
  EXPECT_THROW(read_config(buf), util::ConfigError);
}

TEST(ConfigIo, FileRoundTrip) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("wearscope_cfg_" + std::to_string(::getpid()) + ".cfg");
  SimConfig in = SimConfig::small();
  in.seed = 4242;
  save_config_file(in, path);
  const SimConfig out = load_config_file(path);
  EXPECT_EQ(out.seed, 4242u);
  EXPECT_EQ(out.wearable_users, in.wearable_users);
  std::filesystem::remove(path);
}

TEST(ConfigIo, MissingFileThrows) {
  EXPECT_THROW(load_config_file("/nonexistent/path.cfg"), util::IoError);
}

}  // namespace
}  // namespace wearscope::simnet
