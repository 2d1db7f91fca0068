#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/error.h"

namespace wearscope::util {

void OnlineStats::add(double x) noexcept {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void OnlineStats::merge(const OnlineStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(count_);
  const auto nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double OnlineStats::variance() const noexcept {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_);
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

double quantile_sorted(std::span<const double> sorted, double q) noexcept {
  if (sorted.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return quantile_sorted(values, q);
}

double mean(std::span<const double> values) noexcept {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

Ecdf::Ecdf(std::vector<double> sample) : sorted_(std::move(sample)) {
  // An ascending sample is already what the sort produces: equal values
  // are interchangeable (only ±0 differ in bits, and the sort never fixed
  // their order), so skipping it keeps sorted_ and mean_ bitwise.
  if (!std::is_sorted(sorted_.begin(), sorted_.end())) {
    std::sort(sorted_.begin(), sorted_.end());
  }
  mean_ = util::mean(sorted_);
}

double Ecdf::at(double x) const noexcept {
  if (sorted_.empty()) return 0.0;
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double Ecdf::quantile(double q) const noexcept {
  return quantile_sorted(sorted_, q);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0.0) {
  require(bins >= 1, "Histogram: need at least one bin");
  require(lo < hi, "Histogram: lo must be < hi");
}

void Histogram::add(double x, double weight) noexcept {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto idx = static_cast<std::int64_t>(std::floor((x - lo_) / width));
  idx = std::clamp<std::int64_t>(idx, 0,
                                 static_cast<std::int64_t>(counts_.size()) - 1);
  counts_[static_cast<std::size_t>(idx)] += weight;
  total_ += weight;
}

double Histogram::bin_lo(std::size_t i) const noexcept {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(i);
}

std::vector<double> Histogram::normalized() const {
  std::vector<double> out(counts_.size(), 0.0);
  if (total_ <= 0.0) return out;
  for (std::size_t i = 0; i < counts_.size(); ++i) out[i] = counts_[i] / total_;
  return out;
}

double shannon_entropy(std::span<const double> weights) noexcept {
  double total = 0.0;
  for (const double w : weights)
    if (w > 0.0) total += w;
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (const double w : weights) {
    if (w <= 0.0) continue;
    const double p = w / total;
    h -= p * std::log2(p);
  }
  return h;
}

double pearson(std::span<const double> x, std::span<const double> y) {
  require(x.size() == y.size(), "pearson: size mismatch");
  const std::size_t n = x.size();
  if (n < 2) return 0.0;
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::vector<double> fractional_ranks(std::span<const double> values) {
  const std::size_t n = values.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return values[a] < values[b]; });
  std::vector<double> ranks(n, 0.0);
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j + 1 < n && values[order[j + 1]] == values[order[i]]) ++j;
    const double mid = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 +
                       1.0;  // 1-based mid rank
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = mid;
    i = j + 1;
  }
  return ranks;
}

double spearman(std::span<const double> x, std::span<const double> y) {
  require(x.size() == y.size(), "spearman: size mismatch");
  const std::vector<double> rx = fractional_ranks(x);
  const std::vector<double> ry = fractional_ranks(y);
  return pearson(rx, ry);
}

BinnedRelation binned_relation(std::span<const double> x,
                               std::span<const double> y,
                               std::size_t buckets) {
  require(x.size() == y.size(), "binned_relation: size mismatch");
  BinnedRelation rel;
  if (x.empty() || buckets == 0) return rel;
  std::vector<std::size_t> order(x.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return x[a] < x[b]; });
  // Boundary-based equal-population buckets (sizes differ by at most one);
  // a floor-division scheme would leave a tiny high-leverage remainder
  // bucket at the extreme of the x range.
  buckets = std::min(buckets, x.size());
  for (std::size_t b = 0; b < buckets; ++b) {
    const std::size_t start = b * x.size() / buckets;
    const std::size_t end = (b + 1) * x.size() / buckets;
    if (start == end) continue;
    OnlineStats sx;
    OnlineStats sy;
    for (std::size_t k = start; k < end; ++k) {
      sx.add(x[order[k]]);
      sy.add(y[order[k]]);
    }
    rel.x_centers.push_back(sx.mean());
    rel.y_means.push_back(sy.mean());
    rel.n.push_back(end - start);
  }
  return rel;
}

}  // namespace wearscope::util
