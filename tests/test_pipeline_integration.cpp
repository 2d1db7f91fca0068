// End-to-end integration: synthetic ISP -> logs -> full analysis pipeline.
//
// The central assertion of the whole reproduction lives here: at standard
// scale, every paper-claim check of every figure must pass.
#include <filesystem>
#include <set>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "simnet/simulator.h"
#include "trace/bundle.h"

namespace wearscope {
namespace {

/// Shared one-shot simulation + pipeline run (expensive, reused by tests).
class PipelineIntegration : public ::testing::Test {
 protected:
  struct Run {
    simnet::SimResult sim;
    core::StudyReport report;
  };

  static const Run& run() {
    static const Run r = [] {
      // Standard scale: the paper-claim bands are calibrated for thousands
      // of users; the small preset is too noisy for rank-style checks.
      const simnet::SimConfig cfg = simnet::SimConfig::standard();
      simnet::SimResult sim = simnet::Simulator(cfg).run();
      core::AnalysisOptions opt;
      opt.observation_days = sim.observation_days;
      opt.detailed_start_day = sim.detailed_start_day;
      opt.long_tail_apps = cfg.long_tail_apps;
      const core::Pipeline pipeline(sim.store, opt);
      core::StudyReport report = pipeline.run();
      return Run{std::move(sim), std::move(report)};
    }();
    return r;
  }
};

TEST_F(PipelineIntegration, AllFiguresPresent) {
  const core::StudyReport& rep = run().report;
  const std::vector<std::string> expected = {
      "fig2a", "fig2b", "fig3a", "fig3b", "fig3c", "fig3d",
      "fig4a", "fig4b", "fig4c", "fig4d", "fig5a", "fig5b",
      "fig6",  "fig7",  "fig8",  "sec6",  "cohorts", "retention",
      "protocol", "geography"};
  ASSERT_EQ(rep.figures.size(), expected.size());
  std::set<std::string> ids;
  for (const core::FigureData& f : rep.figures) ids.insert(f.id);
  for (const std::string& id : expected) {
    EXPECT_TRUE(ids.contains(id)) << "missing figure " << id;
    EXPECT_NO_THROW((void)rep.figure(id));
  }
  EXPECT_THROW((void)rep.figure("fig99"), std::out_of_range);
}

TEST_F(PipelineIntegration, EveryFigureHasChecksAndSeries) {
  for (const core::FigureData& f : run().report.figures) {
    EXPECT_FALSE(f.checks.empty()) << f.id;
    EXPECT_FALSE(f.series.empty()) << f.id;
    EXPECT_FALSE(f.title.empty()) << f.id;
  }
}

TEST_F(PipelineIntegration, AllPaperChecksPass) {
  const core::StudyReport& rep = run().report;
  for (const core::FigureData& f : rep.figures) {
    for (const core::Check& c : f.checks) {
      EXPECT_TRUE(c.pass()) << f.id << ": " << c.claim << " measured "
                            << c.measured << " outside [" << c.lo << ", "
                            << c.hi << "]";
    }
  }
  EXPECT_EQ(rep.failed_checks(), 0u);
}

TEST_F(PipelineIntegration, ReportTextMentionsEveryFigure) {
  const std::string text = run().report.to_text();
  for (const core::FigureData& f : run().report.figures) {
    EXPECT_NE(text.find(f.id), std::string::npos);
  }
}

TEST_F(PipelineIntegration, SeriesShapesAreSane) {
  const core::StudyReport& rep = run().report;
  // Fig 2a: one normalized point per observation day, last == 1.
  const core::Series& adoption = rep.figure("fig2a").series.front();
  EXPECT_EQ(adoption.y.size(),
            static_cast<std::size_t>(run().sim.observation_days));
  EXPECT_NEAR(adoption.y.back(), 1.0, 1e-9);
  // Fig 3a: hourly profiles carry 24 points; the day-of-week bars 7.
  for (const core::Series& s : rep.figure("fig3a").series) {
    if (s.labels.empty()) {
      EXPECT_EQ(s.y.size(), 24u) << s.name;
    } else {
      EXPECT_EQ(s.y.size(), 7u) << s.name;
    }
  }
  // CDFs are monotone in y and x.
  for (const char* id : {"fig3b", "fig3c", "fig4a", "fig4b", "fig4c"}) {
    for (const core::Series& s : rep.figure(id).series) {
      for (std::size_t i = 1; i < s.y.size(); ++i) {
        EXPECT_GE(s.y[i], s.y[i - 1]) << id << "/" << s.name;
        EXPECT_GE(s.x[i], s.x[i - 1] - 1e-9) << id << "/" << s.name;
      }
    }
  }
  // Shares sum to ~100% where they are exhaustive.
  const core::Series& cat_users = rep.figure("fig6").series.front();
  double total = 0.0;
  for (const double v : cat_users.y) total += v;
  EXPECT_NEAR(total, 100.0, 1e-6);
}

TEST_F(PipelineIntegration, CsvExportWritesAllSeries) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("wearscope_pipeline_csv_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::size_t series_count = 0;
  for (const core::FigureData& f : run().report.figures) {
    f.write_csv(dir);
    series_count += f.series.size();
  }
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".csv") ++files;
  }
  EXPECT_EQ(files, series_count);
  std::filesystem::remove_all(dir);
}

TEST_F(PipelineIntegration, SurvivesSerializationRoundTrip) {
  // Persist the logs, reload them, re-run the pipeline: identical results.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("wearscope_pipeline_bundle_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  trace::save_bundle(run().sim.store, dir, trace::BundleFormat::kBinary);
  const trace::TraceStore reloaded = trace::load_bundle(dir);
  std::filesystem::remove_all(dir);

  core::AnalysisOptions opt;
  opt.observation_days = run().sim.observation_days;
  opt.detailed_start_day = run().sim.detailed_start_day;
  opt.long_tail_apps = run().sim.config.long_tail_apps;
  const core::Pipeline pipeline(reloaded, opt);
  const core::StudyReport rep = pipeline.run();
  ASSERT_EQ(rep.figures.size(), run().report.figures.size());
  for (std::size_t i = 0; i < rep.figures.size(); ++i) {
    const auto& a = rep.figures[i];
    const auto& b = run().report.figures[i];
    ASSERT_EQ(a.checks.size(), b.checks.size()) << a.id;
    for (std::size_t c = 0; c < a.checks.size(); ++c) {
      EXPECT_DOUBLE_EQ(a.checks[c].measured, b.checks[c].measured)
          << a.id << ": " << a.checks[c].claim;
    }
  }
}

TEST_F(PipelineIntegration, UnknownTrafficFractionIsRealistic) {
  // A quarter of the long tail is unmapped: unknown traffic must exist but
  // stay a minority (the authors' mapping covered most popular apps).
  const double frac = run().report.apps.unknown_traffic_fraction;
  EXPECT_GT(frac, 0.005);
  EXPECT_LT(frac, 0.35);
}

TEST_F(PipelineIntegration, ThirdPartyClassesAllObserved) {
  for (const core::ClassStats& c : run().report.thirdparty.classes) {
    EXPECT_GT(c.txn_share_pct, 0.0);
    EXPECT_GT(c.data_share_pct, 0.0);
  }
}

}  // namespace
}  // namespace wearscope
