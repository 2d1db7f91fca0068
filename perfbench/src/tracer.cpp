#include "tracer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span span;
  span.name = name;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - tracer_->epoch_)
                      .count();
  span.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  span.run = tracer_->runs_.back().id;
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(span));
  tracer_->open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           tracer_->epoch_)
          .count();
  tracer_->open_.pop_back();
}

void Tracer::begin_run(const std::string& label) {
  runs_.push_back(RunInfo{static_cast<int>(runs_.size()), label});
  recording_ = true;
}

namespace {

double span_seconds(const Span& s) {
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

}  // namespace

std::vector<double> Tracer::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] += span_seconds(spans_[i]);
    if (spans_[i].parent >= 0) {
      self[static_cast<std::size_t>(spans_[i].parent)] -=
          span_seconds(spans_[i]);
    }
  }
  return self;
}

std::map<int, std::size_t> Tracer::runs_with(const std::string& label) const {
  std::map<int, std::size_t> slot;
  for (const RunInfo& r : runs_) {
    if (r.label == label) slot.emplace(r.id, slot.size());
  }
  return slot;
}

std::map<std::string, std::vector<double>> Tracer::per_run(
    const std::string& label, bool longest) const {
  std::map<std::string, std::vector<double>> out;
  const std::map<int, std::size_t> slot = runs_with(label);
  for (const Span& s : spans_) {
    const auto it = slot.find(s.run);
    if (it == slot.end()) continue;
    std::vector<double>& v = out[s.name];
    v.resize(slot.size());
    double& cell = v[it->second];
    cell = longest ? std::max(cell, span_seconds(s)) : cell + span_seconds(s);
  }
  return out;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(span_seconds(s));
  }
  return out;
}

std::string Tracer::stage_table(const std::string& label) const {
  const std::map<int, std::size_t> runs = runs_with(label);
  if (runs.empty()) return "";
  struct Row {
    double calls = 0, total = 0, self = 0;
  };
  std::map<std::string, Row> rows;
  double root_total = 0.0;
  const std::vector<double> self = self_seconds();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (runs.count(s.run) == 0) continue;
    Row& row = rows[s.name];
    row.calls += 1;
    row.total += span_seconds(s);
    row.self += self[i];
    if (s.parent < 0) root_total += span_seconds(s);
  }
  const double n = static_cast<double>(runs.size());
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self > b.second.self;
  });
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "%-28s %9s %11s %11s %7s\n", "stage",
                "calls/run", "total_ms", "self_ms", "self%");
  out += line;
  for (const auto& [name, row] : sorted) {
    std::snprintf(line, sizeof line, "%-28s %9.1f %11.2f %11.2f %6.1f%%\n",
                  name.c_str(), row.calls / n, row.total / n * 1e3,
                  row.self / n * 1e3,
                  root_total > 0.0 ? 100.0 * row.self / root_total : 0.0);
    out += line;
  }
  return out;
}

double Tracer::unattributed_share(const std::string& label) const {
  const std::map<int, std::size_t> runs = runs_with(label);
  const std::vector<double> self = self_seconds();
  double root_self = 0.0;
  double root_total = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0 || runs.count(spans_[i].run) == 0) continue;
    root_self += self[i];
    root_total += span_seconds(spans_[i]);
  }
  return root_total > 0.0 ? root_self / root_total : 0.0;
}

void Tracer::write_jsonl(const std::filesystem::path& path,
                         const std::string& workload) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"workload\":\"" << workload << "\",\"run\":" << s.run
        << ",\"run_label\":\"" << runs_[static_cast<std::size_t>(s.run)].label
        << "\",\"index\":" << i << ",\"parent\":" << s.parent
        << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

}  // namespace perfbench
