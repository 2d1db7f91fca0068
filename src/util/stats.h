// Descriptive statistics used throughout generation, analysis and testing:
// running moments, quantiles, empirical CDFs, histograms, Shannon entropy
// and correlation coefficients.  All functions are pure and allocation-light.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace wearscope::util {

/// Numerically stable running mean/variance/min/max (Welford's algorithm).
class OnlineStats {
 public:
  /// Folds one observation into the accumulator.
  void add(double x) noexcept;

  /// Merges another accumulator (parallel-friendly, Chan et al.).
  void merge(const OnlineStats& other) noexcept;

  /// Number of observations added so far.
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// Arithmetic mean; 0 when empty.
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Population variance; 0 with fewer than 2 observations.
  [[nodiscard]] double variance() const noexcept;
  /// Population standard deviation.
  [[nodiscard]] double stddev() const noexcept;
  /// Smallest observation; +inf when empty.
  [[nodiscard]] double min() const noexcept { return min_; }
  /// Largest observation; -inf when empty.
  [[nodiscard]] double max() const noexcept { return max_; }
  /// Sum of all observations.
  [[nodiscard]] double sum() const noexcept {
    return mean_ * static_cast<double>(count_);
  }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 1e308 * 10;   // +inf without <limits> in the header
  double max_ = -1e308 * 10;  // -inf
};

/// Linear-interpolated quantile of *sorted* data, q in [0, 1].
/// Returns 0 for empty input.
double quantile_sorted(std::span<const double> sorted, double q) noexcept;

/// Sorts a copy of `values` and returns the q-quantile.
double quantile(std::vector<double> values, double q);

/// Arithmetic mean; 0 for empty input.
double mean(std::span<const double> values) noexcept;

/// Median (allocates a sorted copy).
double median(std::vector<double> values);

/// Empirical cumulative distribution function over a sample.
/// Built once, then evaluated at arbitrary points; also exposes the sorted
/// sample for quantile queries and plotting.
class Ecdf {
 public:
  Ecdf() = default;
  /// Builds the ECDF from an arbitrary-order sample (an ascending one is
  /// taken as is, without a sort).
  explicit Ecdf(std::vector<double> sample);

  /// Fraction of the sample <= x. 0 for empty ECDFs.
  [[nodiscard]] double at(double x) const noexcept;
  /// Inverse ECDF: smallest sample value v with at(v) >= q.
  [[nodiscard]] double quantile(double q) const noexcept;
  /// Sample size.
  [[nodiscard]] std::size_t size() const noexcept { return sorted_.size(); }
  /// The sorted sample (ascending).
  [[nodiscard]] const std::vector<double>& sorted() const noexcept {
    return sorted_;
  }
  /// Sample mean.
  [[nodiscard]] double mean() const noexcept { return mean_; }

 private:
  std::vector<double> sorted_;
  double mean_ = 0.0;
};

/// Fixed-width linear histogram over [lo, hi); out-of-range values clamp to
/// the edge bins so no observation is silently dropped.
class Histogram {
 public:
  /// `bins` must be >= 1 and lo < hi.
  Histogram(double lo, double hi, std::size_t bins);

  /// Adds an observation with optional weight.
  void add(double x, double weight = 1.0) noexcept;

  /// Count (total weight) in bin `i`.
  [[nodiscard]] double bin_count(std::size_t i) const noexcept {
    return counts_[i];
  }
  /// Inclusive lower edge of bin `i`.
  [[nodiscard]] double bin_lo(std::size_t i) const noexcept;
  /// Number of bins.
  [[nodiscard]] std::size_t bins() const noexcept { return counts_.size(); }
  /// Total weight added.
  [[nodiscard]] double total() const noexcept { return total_; }
  /// Bin counts normalized to fractions of the total (all zeros when empty).
  [[nodiscard]] std::vector<double> normalized() const;

 private:
  double lo_;
  double hi_;
  std::vector<double> counts_;
  double total_ = 0.0;
};

/// Shannon entropy (in bits) of a discrete distribution given by
/// non-negative weights; weights are normalized internally.
/// Returns 0 for empty or degenerate input.
double shannon_entropy(std::span<const double> weights) noexcept;

/// Pearson linear correlation coefficient; 0 when either side is constant
/// or the series are shorter than 2. Requires equal lengths.
double pearson(std::span<const double> x, std::span<const double> y);

/// Spearman rank correlation (Pearson over fractional ranks, mid-rank ties).
double spearman(std::span<const double> x, std::span<const double> y);

/// Fractional ranks of `values` (1-based, ties get the mid rank).
std::vector<double> fractional_ranks(std::span<const double> values);

/// Bucket means of y grouped by x-deciles — used to render "metric A vs
/// metric B" scatter relations (Fig. 3d / 4d style) as a compact series.
struct BinnedRelation {
  std::vector<double> x_centers;  ///< Mean x within each bucket.
  std::vector<double> y_means;    ///< Mean y within each bucket.
  std::vector<std::size_t> n;     ///< Observations per bucket.
};

/// Computes BinnedRelation with `buckets` equal-population x-buckets.
BinnedRelation binned_relation(std::span<const double> x,
                               std::span<const double> y,
                               std::size_t buckets);

}  // namespace wearscope::util
