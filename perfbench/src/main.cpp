// wearscope_perfbench — the measuring half of the end-to-end benchmark.
// perfbench/run.py builds it, drives it and prints the results; see
// perfbench/README.md for the workloads and metrics.
//
//   wearscope_perfbench setup --seed N --out DIR --format v3|default
//       simulates the standard preset and saves the bundle; prints one
//       JSON line with the stage times
//   wearscope_perfbench measure --workload W --bundle DIR --work DIR
//       --seconds S --trace 0|1 --result FILE [--spans FILE]
//       runs one workload's measured phase in this process (so its VmHWM
//       covers only that phase) and writes the result as JSON
#include <sched.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "simnet/config_io.h"
#include "simnet/simulator.h"
#include "trace/bundle.h"
#include "trace/columnar_io.h"
#include "util/error.h"
#include "util/flags.h"
#include "workloads.h"

namespace {

using namespace wearscope;
using perfbench::Clock;
using perfbench::seconds_since;

/// CPUs this process may run on (what `nproc` prints).
unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  return static_cast<unsigned>(CPU_COUNT(&set));
}

#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int setup(int argc, const char* const* argv) {
  std::int64_t seed = 1;
  std::string out_dir;
  std::string format = "v3";
  util::FlagParser flags(
      "wearscope_perfbench setup: simulate the standard preset and save it");
  flags.add_int("seed", &seed, "generator seed");
  flags.add_string("out", &out_dir, "bundle directory to write");
  flags.add_string("format", &format,
                   "v3 (columnar) or default (the library's default writer)");
  if (!flags.parse(argc, argv)) return 0;
  util::require(!out_dir.empty(), "--out is required");
  util::require(format == "v3" || format == "default",
                "--format must be v3 or default");

  simnet::SimConfig cfg = simnet::SimConfig::standard();
  cfg.seed = static_cast<std::uint64_t>(seed);
  const Clock::time_point t0 = Clock::now();
  const simnet::SimResult sim = simnet::Simulator(cfg).run();
  const double simulate_s = seconds_since(t0);
  const Clock::time_point t1 = Clock::now();
  if (format == "v3") {
    trace::save_bundle(sim.store, out_dir, trace::BundleFormat::kBinary,
                       trace::kBinaryFormatV3);
  } else {
    trace::save_bundle(sim.store, out_dir);
  }
  simnet::save_config_file(sim.config, std::filesystem::path(out_dir) /
                                           "generator.cfg");
  const double save_s = seconds_since(t1);
  std::printf("{\"simnet.simulate_s\": %s, \"trace.save_bundle_s\": %s, "
              "\"records\": %zu}\n",
              json_number(simulate_s).c_str(), json_number(save_s).c_str(),
              sim.store.proxy.size() + sim.store.mme.size());
  return 0;
}

int measure(int argc, const char* const* argv) {
  perfbench::Config cfg;
  std::string bundle;
  std::string work;
  std::string result_path;
  std::string spans_path;
  double seconds = 10.0;
  std::int64_t traced = 0;
  util::FlagParser flags(
      "wearscope_perfbench measure: run one workload's measured phase");
  flags.add_string("workload", &cfg.workload,
                   "batch_standard | ingest_serve_standard | "
                   "fed_cover_standard");
  flags.add_string("bundle", &bundle, "bundle directory from `setup`");
  flags.add_string("work", &work, "scratch directory");
  flags.add_double("seconds", &seconds, "minimum measured time");
  flags.add_int("trace", &traced, "1 = traced run (per-layer metrics)");
  flags.add_string("result", &result_path, "result JSON to write");
  flags.add_string("spans", &spans_path, "span JSONL to write (traced)");
  if (!flags.parse(argc, argv)) return 0;
  util::require(!bundle.empty() && !work.empty() && !result_path.empty(),
                "--bundle, --work and --result are required");
  cfg.bundle = bundle;
  cfg.work = work;
  cfg.seconds = seconds;
  cfg.traced = traced != 0;
  const unsigned cpus = nproc();
  cfg.threads = static_cast<int>(std::min(4u, cpus));

  if (!kOptimized) {
    std::fprintf(stderr,
                 "warning: wearscope_perfbench was built without "
                 "optimization; its timings do not describe a user's build\n");
  }

  perfbench::Tracer tracer;
  perfbench::Outcome out;
  if (cfg.workload == "batch_standard") {
    perfbench::run_batch(cfg, tracer, out);
  } else if (cfg.workload == "ingest_serve_standard") {
    perfbench::run_ingest_serve(cfg, tracer, out);
  } else if (cfg.workload == "fed_cover_standard") {
    perfbench::run_fed_cover(cfg, tracer, out);
  } else {
    throw util::ConfigError("unknown workload '" + cfg.workload + "'");
  }

  if (cfg.traced) {
    std::printf("stage table, %s, traced repetitions (mean per repetition):\n"
                "%s",
                cfg.workload.c_str(), tracer.stage_table("rep").c_str());
    const std::string probe = tracer.stage_table("probe");
    if (!probe.empty()) {
      std::printf("analyze_* passes run one after another on the context:\n"
                  "%s",
                  probe.c_str());
    }
    if (!spans_path.empty()) tracer.write_jsonl(spans_path, cfg.workload);
  }

  std::ostringstream json;
  const auto json_list = [&](const std::vector<double>& values) {
    json << "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      json << (i > 0 ? ", " : "") << json_number(values[i]);
    }
    json << "]";
  };
  json << "{\"attempted\": " << out.attempted << ", \"failed\": " << out.failed
       << ", \"setup_s\": " << json_number(out.setup_s) << ", \"rep_walls\": ";
  json_list(out.rep_walls);
  json << ", \"rep_peaks_mb\": ";
  json_list(out.rep_peaks_mb);
  json << ", \"failures\": [";
  for (std::size_t i = 0; i < out.failures.size(); ++i) {
    json << (i > 0 ? ", " : "") << json_string(out.failures[i]);
  }
  json << "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : out.metrics) {
    json << (first ? "" : ", ") << json_string(name) << ": "
         << json_number(value);
    first = false;
  }
  json << "}, \"provenance\": {"
       << "\"nproc\": " << cpus << ", \"hardware_concurrency\": "
       << std::thread::hardware_concurrency()
       << ", \"threads\": " << cfg.threads
       << ", \"shards\": " << perfbench::kShards
       << ", \"ring_capacity\": " << perfbench::kRingCapacity
       << ", \"retain\": " << perfbench::kRetain
       << ", \"partitions\": " << perfbench::kPartitions
       << ", \"query_rate_per_s\": " << json_number(perfbench::kQueryRate)
       << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
       << ", \"optimized\": " << (kOptimized ? "true" : "false")
       << ", \"compiler\": " << json_string(PERFBENCH_COMPILER) << "}}\n";
  std::ofstream file(result_path);
  util::require(static_cast<bool>(file), "cannot write " + result_path);
  file << json.str();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // LineServer writes answers with plain write(); a connection that closes
  // early must not kill the benchmark with SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  try {
    const std::string command = argc > 1 ? argv[1] : "";
    if (command == "setup") return setup(argc - 1, argv + 1);
    if (command == "measure") return measure(argc - 1, argv + 1);
    std::fprintf(stderr, "usage: wearscope_perfbench setup|measure --help\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
