// Deterministic pseudo-random number generation and sampling.
//
// All stochastic behaviour in wearscope flows through Pcg32 so that a given
// seed reproduces the exact same synthetic ISP trace on every platform.
// std::mt19937 with std::*_distribution is deliberately avoided: the standard
// distributions are implementation-defined, which would make golden tests and
// paper-calibration checks non-portable (CppCoreGuidelines ES.?? portability
// spirit; the generator itself is the PCG-XSH-RR 64/32 reference algorithm).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace wearscope::util {

/// PCG-XSH-RR 64/32 pseudo-random generator (O'Neill 2014) with a suite of
/// portable sampling helpers.  Cheap to copy; fork() derives independent
/// substreams for per-user / per-day determinism.
class Pcg32 {
 public:
  /// Seeds the generator. `seq` selects one of 2^63 independent streams.
  explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t seq = 0xda3e39cb94b95bdbULL) noexcept;

  /// Next 32 uniformly distributed bits.
  std::uint32_t next_u32() noexcept;

  /// Next 64 uniformly distributed bits (two draws).
  std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1).
  double next_double() noexcept;

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// True with probability `p` (clamped to [0, 1]).
  bool bernoulli(double p) noexcept;

  /// Standard normal variate (Box-Muller, one value per call).
  double normal() noexcept;

  /// Normal variate with the given mean and standard deviation.
  double normal(double mean, double stddev) noexcept;

  /// Log-normal variate: exp(N(mu, sigma)). `mu`/`sigma` act on the log scale.
  double lognormal(double mu, double sigma) noexcept;

  /// Exponential variate with the given rate (mean 1/rate).
  double exponential(double rate) noexcept;

  /// Poisson variate. Uses Knuth's method for small means and a normal
  /// approximation above `mean > 64` (adequate for workload modelling).
  std::uint32_t poisson(double mean) noexcept;

  /// Zipf-distributed rank in [0, n) with exponent `s` (> 0).
  /// Sampled by inversion over the precomputable harmonic weights is too
  /// costly per call, so this uses rejection-inversion (Hörmann 1996-lite).
  std::uint32_t zipf(std::uint32_t n, double s) noexcept;

  /// Picks an index in [0, weights.size()) proportionally to `weights`.
  /// Linear scan; use DiscreteSampler for repeated draws from one table.
  std::size_t weighted_index(std::span<const double> weights) noexcept;

  /// Fisher-Yates shuffle of `values` (a std::vector or trace::Rows).
  template <typename Values>
  void shuffle(Values& values) noexcept {
    for (std::size_t i = values.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  /// Derives a statistically independent generator keyed by `stream_key`.
  /// Used to give each (user, day) its own stream so that changing one
  /// user's parameters never perturbs another user's trace.
  [[nodiscard]] Pcg32 fork(std::uint64_t stream_key) const noexcept;

  /// The raw internal state; exposed for testing determinism only.
  [[nodiscard]] std::uint64_t state() const noexcept { return state_; }

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
};

/// Alias-method sampler for repeated draws from a fixed discrete
/// distribution in O(1) per draw (Walker 1977 / Vose 1991).
class DiscreteSampler {
 public:
  DiscreteSampler() = default;

  /// Builds the alias tables. `weights` must be non-empty with a positive sum;
  /// negative weights are rejected.
  explicit DiscreteSampler(std::span<const double> weights);

  /// Draws an index in [0, size()).
  std::size_t sample(Pcg32& rng) const noexcept;

  /// Number of outcomes.
  [[nodiscard]] std::size_t size() const noexcept { return prob_.size(); }

  /// Normalized probability of outcome `i` (for inspection/testing).
  [[nodiscard]] double probability(std::size_t i) const noexcept {
    return normalized_[i];
  }

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
  std::vector<double> normalized_;
};

/// SplitMix64 step — a strong 64-bit mixing function. Used to hash stream
/// keys and to derive substream seeds.
std::uint64_t splitmix64(std::uint64_t x) noexcept;

}  // namespace wearscope::util
