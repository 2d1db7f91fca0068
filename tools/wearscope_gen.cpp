// wearscope_gen — generate a synthetic ISP capture to disk.
//
//   wearscope_gen --out traces/run1                  # standard preset
//   wearscope_gen --preset paper --seed 7 --out d1   # full 7-week window
//   wearscope_gen --config my.cfg --out d2           # explicit knobs
//   wearscope_gen --preset small --write-config s.cfg --out d3
//
// The effective configuration is always echoed next to the bundle
// (<out>/generator.cfg) so any capture can be regenerated bit-for-bit.
#include <chrono>
#include <cstdio>

#include "simnet/config_io.h"
#include "simnet/simulator.h"
#include "trace/bundle.h"
#include "util/error.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace wearscope;
  try {
    std::string preset = "standard";
    std::string config_path;
    std::string out_dir = "wearscope-trace";
    std::string format = "binary";
    std::string write_config_path;
    std::int64_t seed = 42;

    util::FlagParser flags(
        "wearscope_gen: generate a synthetic mobile-ISP capture "
        "(proxy/MME/DeviceDB/sector logs)");
    flags.add_string("preset", &preset,
                     "base preset: small|standard|paper (ignored with "
                     "--config)");
    flags.add_string("config", &config_path,
                     "load all generator knobs from this file");
    flags.add_int("seed", &seed, "generator seed (overrides config file)");
    flags.add_string("out", &out_dir, "output bundle directory");
    flags.add_string("format", &format,
                     "bundle format: binary (columnar v3) or csv");
    flags.add_string("write-config", &write_config_path,
                     "also write the effective config to this path and exit "
                     "without generating when --out is empty");
    if (!flags.parse(argc, argv)) return 0;

    simnet::SimConfig cfg = config_path.empty()
                                ? simnet::SimConfig::preset(preset)
                                : simnet::load_config_file(config_path);
    cfg.seed = static_cast<std::uint64_t>(seed);

    if (!write_config_path.empty()) {
      simnet::save_config_file(cfg, write_config_path);
      std::printf("config written to %s\n", write_config_path.c_str());
      if (out_dir.empty()) return 0;
    }

    trace::BundleFormat bundle_format;
    if (format == "binary") {
      bundle_format = trace::BundleFormat::kBinary;
    } else if (format == "csv") {
      bundle_format = trace::BundleFormat::kCsv;
    } else {
      throw util::ConfigError("unknown format '" + format +
                              "' (expected binary|csv)");
    }

    const auto t0 = std::chrono::steady_clock::now();
    const simnet::SimResult sim = simnet::Simulator(cfg).run();
    const double gen_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    trace::save_bundle(sim.store, out_dir, bundle_format);
    simnet::save_config_file(cfg, std::filesystem::path(out_dir) /
                                      "generator.cfg");

    const trace::TraceSummary sum = sim.store.summarize();
    std::printf("generated in %.2fs:\n", gen_s);
    std::printf("  proxy transactions : %zu\n", sum.proxy_records);
    std::printf("  MME events         : %zu\n", sum.mme_records);
    std::printf("  DeviceDB rows      : %zu\n", sum.devices);
    std::printf("  antenna sectors    : %zu\n", sum.sectors);
    std::printf("  distinct users     : %zu\n", sum.distinct_mme_users);
    std::printf("  total volume       : %.2f GB\n",
                static_cast<double>(sum.total_bytes) / 1e9);
    std::printf("  window             : day 0 .. day %d (detailed from day "
                "%d)\n",
                sim.observation_days - 1, sim.detailed_start_day);
    if (format == "binary") {
      std::printf("bundle + generator.cfg written to %s (binary v3)\n",
                  out_dir.c_str());
    } else {
      std::printf("bundle + generator.cfg written to %s (%s)\n",
                  out_dir.c_str(), format.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
