// Deterministic random-number generation for the simulator.
//
// Every stochastic component in pandarus (topology generation, workload
// arrival, transfer failure injection, metadata corruption) draws from an
// explicitly seeded generator so that an entire campaign is reproducible
// from a single 64-bit seed.  We use our own small generators instead of
// <random> engines so that results are bit-identical across standard
// library implementations.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace pandarus::util {

/// SplitMix64: used for seeding and for cheap stateless hashing.
/// Passes BigCrush when used as a generator; here it mainly expands one
/// seed into independent streams.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** — fast, high-quality 64-bit generator with 2^256 state.
/// This is the workhorse generator for all simulation randomness.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from a single seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept;

  /// Creates an independent child stream (for per-component generators).
  /// Streams derived with distinct tags are statistically independent.
  [[nodiscard]] Rng fork(std::uint64_t tag) noexcept;

  std::uint64_t next_u64() noexcept;
  std::uint64_t operator()() noexcept { return next_u64(); }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept;

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform index in [0, n). Requires n > 0.
  std::size_t uniform_index(std::size_t n) noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean) noexcept;

  /// Standard normal via Box–Muller (no cached spare: keeps state minimal).
  double normal(double mu = 0.0, double sigma = 1.0) noexcept;

  /// Log-normal such that the *median* of the distribution is `median`
  /// and the shape parameter is `sigma` (sigma of the underlying normal).
  double lognormal_median(double median, double sigma) noexcept;

  /// Bounded Pareto on [lo, hi] with tail index alpha (> 0).
  /// Heavy-tailed file sizes and task sizes are drawn from this.
  double pareto_bounded(double lo, double hi, double alpha) noexcept;

  /// Poisson-distributed count with the given mean (Knuth for small mean,
  /// normal approximation above 64).
  std::uint64_t poisson(double mean) noexcept;

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Zero-weight entries are never selected; requires a positive total.
  std::size_t weighted_index(std::span<const double> weights) noexcept;

  /// Same state: both generators will draw the same sequence.
  bool operator==(const Rng&) const noexcept = default;

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::size_t j = uniform_index(i);
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

 private:
  std::uint64_t s_[4];
};

/// Stateless 64-bit mix of up to three keys; used for deterministic
/// per-entity jitter (e.g. per-site diurnal phase) without carrying RNG
/// state around.
[[nodiscard]] std::uint64_t hash_mix(std::uint64_t a, std::uint64_t b = 0,
                                     std::uint64_t c = 0) noexcept;

/// Maps a 64-bit hash to a double in [0, 1).
[[nodiscard]] double hash_unit(std::uint64_t h) noexcept;

}  // namespace pandarus::util
