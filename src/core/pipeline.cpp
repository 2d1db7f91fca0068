#include "core/pipeline.h"

#include <functional>
#include <stdexcept>
#include <vector>

#include "par/task_pool.h"

namespace wearscope::core {

Pipeline::Pipeline(const trace::TraceStore& store, AnalysisOptions options)
    : ctx_(store, options) {}

StudyReport Pipeline::run() const {
  StudyReport rep;
  // The analyses are independent reads of the (settled) context; each task
  // writes exactly one StudyReport field, or one slice's partial of the
  // through-device study (by far the largest pass), so any execution
  // order yields the same report.  Figures are then rendered sequentially
  // in the canonical order below.
  par::TaskPool pool(static_cast<std::size_t>(ctx_.options().threads));
  const std::vector<UserView>& users = ctx_.users();
  const ThroughDevicePass throughdevice(ctx_);
  // Its work per user is the user's phone transactions.
  const std::vector<std::size_t> bounds =
      par::weighted_slice_bounds(users.size(), pool.threads(),
                                 [&users](std::size_t i) {
                                   return users[i].phone_rows.size();
                                 });
  std::vector<ThroughDevicePartial> partials(bounds.size() - 1);
  std::vector<std::function<void()>> tasks;
  // The slices go first: the pool hands out tasks in order, and the
  // longest should start first.
  for (std::size_t s = 0; s < partials.size(); ++s) {
    tasks.push_back([&, s] {
      partials[s] = throughdevice.partial(bounds[s], bounds[s + 1]);
    });
  }
  tasks.insert(tasks.end(), {
      [&] { rep.adoption = analyze_adoption(ctx_); },
      [&] { rep.diurnal = analyze_diurnal(ctx_); },
      [&] { rep.activity = analyze_activity(ctx_); },
      [&] { rep.comparison = analyze_comparison(ctx_); },
      [&] { rep.mobility = analyze_mobility(ctx_); },
      [&] { rep.apps = analyze_apps(ctx_); },
      [&] { rep.categories = analyze_categories(ctx_); },
      [&] { rep.usage = analyze_usage(ctx_); },
      [&] { rep.thirdparty = analyze_thirdparty(ctx_); },
      [&] { rep.cohorts = analyze_cohorts(ctx_); },
      [&] { rep.retention = analyze_retention(ctx_); },
      [&] { rep.protocol = analyze_protocol(ctx_); },
      [&] { rep.geography = analyze_geography(ctx_); },
  });
  pool.run(std::move(tasks));
  rep.throughdevice = throughdevice.finish(partials);

  rep.figures.push_back(figure2a(rep.adoption));
  rep.figures.push_back(figure2b(rep.adoption));
  rep.figures.push_back(figure3a(rep.diurnal));
  rep.figures.push_back(figure3b(rep.activity));
  rep.figures.push_back(figure3c(rep.activity));
  rep.figures.push_back(figure3d(rep.activity));
  rep.figures.push_back(figure4a(rep.comparison));
  rep.figures.push_back(figure4b(rep.comparison));
  rep.figures.push_back(figure4c(rep.mobility));
  rep.figures.push_back(figure4d(rep.mobility));
  rep.figures.push_back(figure5a(rep.apps));
  rep.figures.push_back(figure5b(rep.apps));
  rep.figures.push_back(figure6(rep.categories));
  rep.figures.push_back(figure7(rep.usage));
  rep.figures.push_back(figure8(rep.thirdparty));
  rep.figures.push_back(figure_sec6(rep.throughdevice));
  rep.figures.push_back(figure_cohorts(rep.cohorts));
  rep.figures.push_back(figure_retention(rep.retention));
  rep.figures.push_back(figure_protocol(rep.protocol));
  rep.figures.push_back(figure_geography(rep.geography));
  return rep;
}

const FigureData& StudyReport::figure(std::string_view id) const {
  const auto rebuild = [this] {
    figure_index_.clear();
    figure_index_.reserve(figures.size());
    for (std::size_t i = 0; i < figures.size(); ++i) {
      figure_index_.emplace(figures[i].id, i);
    }
  };
  if (figure_index_.size() != figures.size()) rebuild();
  auto it = figure_index_.find(id);
  // Same-size mutation (an id edited in place) leaves a stale entry; the
  // id check below catches it and forces one rebuild.
  if (it != figure_index_.end() && figures[it->second].id != id) {
    rebuild();
    it = figure_index_.find(id);
  }
  if (it == figure_index_.end() || figures[it->second].id != id) {
    throw std::out_of_range("unknown figure id: " + std::string(id));
  }
  return figures[it->second];
}

std::string StudyReport::to_text() const {
  std::string out;
  for (const FigureData& f : figures) {
    out += f.to_text();
    out += '\n';
  }
  if (quarantine.any()) {
    out += trace::to_text(quarantine);
    out += '\n';
  }
  return out;
}

std::size_t StudyReport::failed_checks() const noexcept {
  std::size_t failed = 0;
  for (const FigureData& f : figures) {
    for (const Check& c : f.checks) {
      if (!c.pass()) ++failed;
    }
  }
  return failed;
}

}  // namespace wearscope::core
