#ifndef TELEPORT_COMMON_RNG_H_
#define TELEPORT_COMMON_RNG_H_

#include <array>
#include <cmath>
#include <cstdint>
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

  /// The characteristic polynomial P(x) of the linear map the state step
  /// applies to the 256 state bits over GF(2), without its leading x^256:
  /// bit i of word i / 64 is the coefficient of x^i. It is the minimal
  /// polynomial of the sequence of any one state bit, which Berlekamp-Massey
  /// finds from 512 of its values (RngTest.CharacteristicPolynomial does).
  static constexpr std::array<uint64_t, 4> kCharPoly = {
      0x9d116f2bb0f0f001ULL, 0x0280002bcefd1a5eULL, 0x04b4edcf26259f85ULL,
      0x0003c03c3f3ecb19ULL};

  /// A jump of a fixed number of draws, computed once and applied to any
  /// number of generators. With T the state step, P(T) = 0, so T^n equals
  /// q(T) for q(x) = x^n mod P(x): applying the jump takes 256 steps from
  /// the state and XORs together those whose coefficient in q is 1, as the
  /// reference jump() of xoshiro256 does for n = 2^128. Building one takes
  /// O(log n) squarings mod P.
  class Jump {
   public:
    explicit Jump(uint64_t n);

    /// Moves `rng` to where n calls of Next() would leave it.
    void Apply(Rng& rng) const;

   private:
    /// x^n mod P(x), laid out as kCharPoly.
    std::array<uint64_t, 4> poly_;
  };

  /// Sets the state to where n calls of Next() would leave it, in O(log n)
  /// time.
  void Advance(uint64_t n) { Jump(n).Apply(*this); }

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
  /// values. Inline: the text generator calls it once per word.
  uint64_t Sample(double u) const {
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < zeta2_) return 1;
    const double x = eta_ * u - eta_ + 1.0;
    uint64_t v = 0;
    if (!FloorByIntegerPower(x, v)) v = FloorByPow(x);
    return v >= n_ ? n_ - 1 : v;
  }
  uint64_t Sample(Rng& rng) const { return Sample(rng.NextDouble()); }

  uint64_t n() const { return n_; }

 private:
  static double Zeta(uint64_t n, double theta);

  /// Sets `v` to the rank n * x^alpha_ floors to, computed without std::pow
  /// when alpha_ is an integer, and returns true; returns false when it is
  /// not, or when the result could differ from std::pow's.
  bool FloorByIntegerPower(double x, uint64_t& v) const {
    if (int_alpha_ == 0 || !(x > 0x1p-16)) return false;
    // y estimates n * x^alpha_ as n * x^m, m = int_alpha_ <= 1024, by
    // repeated squaring. For x > 2^-16, relative to n * x^alpha_:
    //   - the exponent's error |alpha_ - m| * |ln x| <= 8 ulp(m) * 16 ln 2
    //     < 2^-35;
    //   - the squarings and products round with relative error < 2m * 2^-53
    //     <= 2^-42 in all;
    //   - std::pow is within 1 ulp, and each multiply by n rounds once.
    // So y and the std::pow expression both lie within 2^-34 * y of
    // n * x^alpha_. When y is farther than 2^-30 * (y + 1) from every
    // integer, both therefore floor to the same one; otherwise (about 7
    // draws in 10^6 at theta 0.8) std::pow decides. y < n < 2^52, so
    // y - floor(y) is exact, and int64 conversions, one instruction each on
    // x86-64, hold y's floor.
    double r = (int_alpha_ & 1) != 0 ? x : 1.0;
    double p = x;
    for (uint32_t e = int_alpha_ >> 1; e != 0; e >>= 1) {
      p *= p;
      if ((e & 1) != 0) r *= p;
    }
    const double y = static_cast<double>(n_) * r;
    const auto whole = static_cast<int64_t>(y);
    const double frac = y - static_cast<double>(whole);
    const double guard = 0x1p-30 * (y + 1.0);
    if (frac <= guard || 1.0 - frac <= guard) return false;
    v = static_cast<uint64_t>(whole);
    return true;
  }
  /// The rank n * x^alpha_ floors to, by std::pow: the definition.
  uint64_t FloorByPow(double x) const;

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
