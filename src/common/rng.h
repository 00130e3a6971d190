// Deterministic pseudo-random number generation (xoshiro256** seeded via
// SplitMix64). Every source of randomness in the library flows through Rng so
// that a fixed seed reproduces a run exactly.

#ifndef UDR_COMMON_RNG_H_
#define UDR_COMMON_RNG_H_

#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/flat_table.h"

namespace udr {

/// Deterministic RNG. Not thread-safe; use one per logical actor.
class Rng {
 public:
  /// Seeds the generator. Two Rng instances with the same seed produce the
  /// same sequence on every platform.
  explicit Rng(uint64_t seed = 42) { Reseed(seed); }

  /// Re-seeds in place.
  void Reseed(uint64_t seed) {
    // SplitMix64 expansion of the seed into the 4-word xoshiro state.
    uint64_t x = seed;
    for (auto& w : s_) {
      x += 0x9E3779B97f4A7C15ULL;
      w = Mix64(x);
    }
  }

  /// Uniform 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  uint64_t Uniform(uint64_t bound) {
    assert(bound > 0);
    // Lemire's multiply-shift rejection method.
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t l = static_cast<uint64_t>(m);
    if (l < bound) {
      uint64_t t = -bound % bound;
      while (l < t) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        l = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformRange(int64_t lo, int64_t hi) {
    assert(hi >= lo);
    return lo + static_cast<int64_t>(
                    Uniform(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p of returning true.
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Exponentially distributed value with the given mean (> 0).
  double Exponential(double mean) {
    double u = NextDouble();
    // Guard against log(0).
    if (u <= 0.0) u = 0x1.0p-53;
    return -mean * std::log(u);
  }

  /// Normally distributed value (Box-Muller).
  double Normal(double mean, double stddev) {
    double u1 = NextDouble();
    double u2 = NextDouble();
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    double r = std::sqrt(-2.0 * std::log(u1));
    return mean + stddev * r * std::cos(2.0 * M_PI * u2);
  }

  /// Zipf-like skewed rank in [0, n): rank 0 is the most popular. skew <= 0
  /// degenerates to uniform. Uses the closed-form inverse CDF of the
  /// continuous power-law density p(x) ~ x^-skew on [1, n+1] — loop-free and
  /// deterministic, with the discrete distribution's qualitative shape.
  uint64_t Zipf(uint64_t n, double skew) {
    assert(n > 0);
    if (skew <= 0.0 || n == 1) return Uniform(n);
    const double s = skew;
    const double u = NextDouble();
    const double top = static_cast<double>(n) + 1.0;
    double x;
    if (std::abs(s - 1.0) < 1e-9) {
      x = std::exp(u * std::log(top));
    } else {
      const double a = 1.0 - s;
      x = std::pow(u * (std::pow(top, a) - 1.0) + 1.0, 1.0 / a);
    }
    uint64_t k = static_cast<uint64_t>(x);
    if (k < 1) k = 1;
    if (k > n) k = n;
    return k - 1;
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = Uniform(i);
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Derives an independent child generator (for per-actor streams).
  Rng Fork() { return Rng(Next() ^ 0xA02BDBF7BB3C0A7ULL); }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
};

}  // namespace udr

#endif  // UDR_COMMON_RNG_H_
