// Unit tests for the descriptive-statistics helpers.
#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "util/error.h"

namespace wearscope::util {
namespace {

TEST(OnlineStats, Empty) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, KnownValues) {
  OnlineStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic population-variance example
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, MergeMatchesSequential) {
  OnlineStats a;
  OnlineStats b;
  OnlineStats all;
  for (int i = 0; i < 50; ++i) {
    const double v = std::sin(i) * 10 + i;
    (i % 2 == 0 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a;
  a.add(1.0);
  OnlineStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(Quantile, SortedInterpolation) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 1.0 / 3.0), 2.0);
}

TEST(Quantile, EmptyAndClamping) {
  EXPECT_DOUBLE_EQ(quantile_sorted({}, 0.5), 0.0);
  const std::vector<double> v = {5.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(v, -1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(v, 2.0), 5.0);
}

TEST(Quantile, UnsortedConvenience) {
  EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(median({9.0, 1.0, 5.0}), 5.0);
}

TEST(Mean, Basics) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{1.0, 2.0, 3.0}), 2.0);
}

TEST(EcdfTest, AtAndQuantile) {
  Ecdf e({4.0, 1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(e.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(e.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(e.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(e.at(4.0), 1.0);
  EXPECT_DOUBLE_EQ(e.at(100.0), 1.0);
  EXPECT_DOUBLE_EQ(e.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(e.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(e.mean(), 2.5);
  EXPECT_EQ(e.size(), 4u);
}

TEST(EcdfTest, Empty) {
  Ecdf e;
  EXPECT_DOUBLE_EQ(e.at(1.0), 0.0);
  EXPECT_DOUBLE_EQ(e.quantile(0.5), 0.0);
  EXPECT_EQ(e.size(), 0u);
}

TEST(EcdfTest, SortedInputEqualsShuffledInputBitwise) {
  // Transaction-size-like values with duplicates and zeros; a sorted input
  // skips the sort, which must not change a bit of the sample or the mean.
  std::mt19937_64 rng(11);
  std::vector<double> sample;
  for (int i = 0; i < 5000; ++i) {
    sample.push_back(static_cast<double>(rng() % 700) * 13.25);
  }
  sample.insert(sample.end(), {0.0, 0.0, 0.1, 0.1, 1e12});
  std::vector<double> sorted = sample;
  std::sort(sorted.begin(), sorted.end());
  std::shuffle(sample.begin(), sample.end(), rng);
  ASSERT_FALSE(std::is_sorted(sample.begin(), sample.end()));

  const Ecdf from_sorted(sorted);
  const Ecdf from_shuffled(sample);
  ASSERT_EQ(from_sorted.size(), from_shuffled.size());
  EXPECT_EQ(std::memcmp(from_sorted.sorted().data(),
                        from_shuffled.sorted().data(),
                        sorted.size() * sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&from_sorted.sorted().front(), &sorted.front(),
                        sorted.size() * sizeof(double)),
            0);
  const double a = from_sorted.mean();
  const double b = from_shuffled.mean();
  EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0);
}

TEST(HistogramTest, BinningAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);   // bin 0
  h.add(9.9);   // bin 4
  h.add(-5.0);  // clamps to bin 0
  h.add(42.0);  // clamps to bin 4
  h.add(5.0, 2.0);  // bin 2 with weight 2
  EXPECT_DOUBLE_EQ(h.bin_count(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_count(2), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_count(4), 2.0);
  EXPECT_DOUBLE_EQ(h.total(), 6.0);
  EXPECT_DOUBLE_EQ(h.bin_lo(2), 4.0);
  const auto norm = h.normalized();
  EXPECT_NEAR(norm[0], 2.0 / 6.0, 1e-12);
}

TEST(HistogramTest, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), ConfigError);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), ConfigError);
}

TEST(ShannonEntropy, KnownValues) {
  // Uniform over 4 outcomes -> 2 bits.
  EXPECT_NEAR(shannon_entropy(std::vector<double>{1, 1, 1, 1}), 2.0, 1e-12);
  // Degenerate -> 0 bits.
  EXPECT_DOUBLE_EQ(shannon_entropy(std::vector<double>{5.0}), 0.0);
  EXPECT_DOUBLE_EQ(shannon_entropy(std::vector<double>{1.0, 0.0}), 0.0);
  // Empty / non-positive -> 0.
  EXPECT_DOUBLE_EQ(shannon_entropy({}), 0.0);
  EXPECT_DOUBLE_EQ(shannon_entropy(std::vector<double>{0.0, -1.0}), 0.0);
  // (1/2, 1/4, 1/4) -> 1.5 bits.
  EXPECT_NEAR(shannon_entropy(std::vector<double>{2, 1, 1}), 1.5, 1e-12);
}

TEST(ShannonEntropy, ScaleInvariant) {
  const std::vector<double> a = {1, 2, 3};
  const std::vector<double> b = {10, 20, 30};
  EXPECT_NEAR(shannon_entropy(a), shannon_entropy(b), 1e-12);
}

TEST(Pearson, PerfectCorrelation) {
  const std::vector<double> x = {1, 2, 3, 4};
  const std::vector<double> y = {2, 4, 6, 8};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  const std::vector<double> ny = {8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, ny), -1.0, 1e-12);
}

TEST(Pearson, ConstantSeriesGivesZero) {
  const std::vector<double> x = {1, 2, 3};
  const std::vector<double> c = {5, 5, 5};
  EXPECT_DOUBLE_EQ(pearson(x, c), 0.0);
}

TEST(Pearson, SizeMismatchThrows) {
  const std::vector<double> x = {1, 2};
  const std::vector<double> y = {1};
  EXPECT_THROW(pearson(x, y), ConfigError);
}

TEST(FractionalRanks, TiesGetMidRank) {
  const std::vector<double> v = {10.0, 20.0, 20.0, 30.0};
  const auto r = fractional_ranks(v);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(Spearman, MonotoneNonlinearIsOne) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {1, 8, 27, 64, 125};  // monotone, nonlinear
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
}

TEST(BinnedRelationTest, EqualPopulationBuckets) {
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 100; ++i) {
    x.push_back(i);
    y.push_back(2.0 * i);
  }
  const BinnedRelation rel = binned_relation(x, y, 10);
  ASSERT_EQ(rel.x_centers.size(), 10u);
  for (std::size_t b = 0; b < 10; ++b) {
    EXPECT_EQ(rel.n[b], 10u);
    EXPECT_NEAR(rel.y_means[b], 2.0 * rel.x_centers[b], 1e-9);
  }
  // Buckets ordered by x.
  for (std::size_t b = 1; b < 10; ++b)
    EXPECT_GT(rel.x_centers[b], rel.x_centers[b - 1]);
}

TEST(BinnedRelationTest, EmptyAndZeroBuckets) {
  EXPECT_TRUE(binned_relation({}, {}, 4).x_centers.empty());
  const std::vector<double> x = {1.0};
  EXPECT_TRUE(binned_relation(x, x, 0).x_centers.empty());
}

}  // namespace
}  // namespace wearscope::util
