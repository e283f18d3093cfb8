#ifndef TELEPORT_COMMON_RNG_H_
#define TELEPORT_COMMON_RNG_H_

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/logging.h"

namespace teleport {

/// splitmix64's finalizer, applied after one golden-ratio step: the repo's
/// one bit mixer for seeds, hash slots and order-independent digests.
constexpr uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic xoshiro256** PRNG. Every workload generator in the repo is
/// seeded explicitly so all benchmark inputs and results are reproducible
/// bit-for-bit across runs and machines.
class Rng {
 public:
  /// Seeds the generator via splitmix64 expansion of `seed`.
  explicit Rng(uint64_t seed) {
    for (auto& si : s_) {
      si = Mix64(seed);
      seed += 0x9e3779b97f4a7c15ULL;
    }
  }

  /// Returns the next 64 random bits.
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
  uint64_t Uniform(uint64_t bound) { return Scale(Next(), bound); }

  /// Maps 64 random bits to [0, bound), as Uniform does with its draw: one
  /// draw can thereby serve several bounds. bound must be > 0.
  static uint64_t Scale(uint64_t bits, uint64_t bound) {
    TELEPORT_DCHECK(bound > 0);
    // Lemire's multiply-shift rejection-free approximation is fine here;
    // the tiny modulo bias is irrelevant for workload generation.
    return static_cast<uint64_t>(
        (static_cast<__uint128_t>(bits) * bound) >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformRange(int64_t lo, int64_t hi) {
    TELEPORT_DCHECK(hi >= lo);
    return lo + static_cast<int64_t>(
                    Uniform(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Bernoulli draw with probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

/// Samples from a Zipf(n, theta) distribution over [0, n), rank 0 the most
/// popular. Used by the MapReduce text generator (word frequencies) and the
/// YCSB workload (key popularity).
///
/// Precomputes the harmonic normalization once; Sample() is O(1) via the
/// rejection-inversion-free approximation of Gray et al. (the standard YCSB
/// generator). theta must lie in (0, 1): at 1 the quantile transform's
/// exponent is infinite and the skew inverts. When that exponent is an
/// integer to within rounding (theta 0.5, 0.8, 0.99, ...), Sample() raises to
/// it by repeated squaring and returns exactly what std::pow would give.
class ZipfGenerator {
 public:
  ZipfGenerator(uint64_t n, double theta);

  /// Maps a uniform u in [0, 1) to a value in [0, n), skewed toward small
  /// values.
  uint64_t Sample(double u) const;
  uint64_t Sample(Rng& rng) const { return Sample(rng.NextDouble()); }

  uint64_t n() const { return n_; }

 private:
  static double Zeta(uint64_t n, double theta);
  /// The rank n * x^alpha_ floors to, computed without std::pow when
  /// alpha_ is an integer; nullopt when it is not, or when the result
  /// could differ from std::pow's.
  std::optional<uint64_t> FloorByIntegerPower(double x) const;

  uint64_t n_;
  double alpha_;
  /// alpha_ rounded to the nearest integer when it lies within 8 ulps of
  /// it, in [1, 1024], and n < 2^52; else 0 (Sample always calls std::pow).
  uint32_t int_alpha_ = 0;
  double zetan_;
  /// Zeta(2, theta): the rank-1 threshold of u * zetan_.
  double zeta2_;
  double eta_;
};

}  // namespace teleport

#endif  // TELEPORT_COMMON_RNG_H_
