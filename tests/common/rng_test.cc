#include "common/rng.h"

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace teleport {
namespace {

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, SeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformStaysInBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.Uniform(17), 17u);
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(9);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const int64_t v = rng.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= v == -3;
    hit_hi |= v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(RngTest, UniformIsRoughlyUniform) {
  Rng rng(11);
  std::array<int, 10> counts{};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.Uniform(10)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / 10 * 0.9);
    EXPECT_LT(c, kDraws / 10 * 1.1);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(RngTest, AdvanceEqualsSteps) {
  std::vector<uint64_t> distances = {0, 1, 2, 255, 256, 257};
  Rng pick(5);
  for (int i = 0; i < 4; ++i) distances.push_back(pick.Uniform(10'000'001));
  for (const uint64_t n : distances) {
    Rng jumped(99), stepped(99);
    jumped.Advance(n);
    for (uint64_t i = 0; i < n; ++i) stepped.Next();
    for (int k = 0; k < 8; ++k) ASSERT_EQ(jumped.Next(), stepped.Next()) << n;
  }
}

TEST(RngTest, AdvanceComposes) {
  Rng pick(6);
  for (int i = 0; i < 4; ++i) {
    const uint64_t a = (1ULL << 40) + pick.Uniform(1ULL << 30);
    const uint64_t b = (1ULL << 40) - pick.Uniform(1ULL << 30);
    Rng twice(i), once(i);
    twice.Advance(a);
    twice.Advance(b);
    once.Advance(a + b);
    for (int k = 0; k < 8; ++k) ASSERT_EQ(twice.Next(), once.Next()) << a;
  }
  // One Jump applied c times advances c times its distance.
  const uint64_t stride = (1ULL << 40) + 12345;
  const Rng::Jump jump(stride);
  Rng repeated(7);
  for (uint64_t c = 1; c <= 4; ++c) {
    jump.Apply(repeated);
    Rng expected(7);
    expected.Advance(c * stride);
    Rng copy = repeated;
    for (int k = 0; k < 8; ++k) ASSERT_EQ(copy.Next(), expected.Next()) << c;
  }
}

// Next() returns rotl(s1 * 5, 7) * 9, which 5 and 9 being odd makes
// invertible, so the outputs give s1 and with it a sequence of one state
// bit. Berlekamp-Massey finds that sequence's minimal polynomial, which is
// the state step's characteristic polynomial when its degree is 256.
TEST(RngTest, CharacteristicPolynomial) {
  auto inverse = [](uint64_t a) {
    uint64_t x = a;  // right to 3 bits; each step doubles that
    for (int i = 0; i < 5; ++i) x *= 2 - a * x;
    return x;
  };
  const uint64_t inv5 = inverse(5), inv9 = inverse(9);
  constexpr int kBits = 600;
  std::vector<uint8_t> bit(kBits);
  Rng rng(2022);
  for (uint8_t& b : bit) {
    const uint64_t r = rng.Next() * inv9;
    const uint64_t s1 = ((r >> 7) | (r << 57)) * inv5;
    b = static_cast<uint8_t>(s1 & 1);
  }
  // Berlekamp-Massey over GF(2): c is the connection polynomial,
  // bit[n] = sum over i in [1, len] of c[i] * bit[n - i].
  std::vector<uint8_t> c(kBits + 1), prev(kBits + 1), saved;
  c[0] = prev[0] = 1;
  int len = 0, shift = 1;
  for (int n = 0; n < kBits; ++n) {
    uint8_t d = bit[n];
    for (int i = 1; i <= len; ++i) d ^= c[i] & bit[n - i];
    if (d == 0) {
      ++shift;
      continue;
    }
    saved = c;
    for (int i = 0; i + shift <= kBits; ++i) c[i + shift] ^= prev[i];
    if (2 * len <= n) {
      len = n + 1 - len;
      prev = saved;
      shift = 1;
    } else {
      ++shift;
    }
  }
  ASSERT_EQ(len, 256);
  // P(x) = x^256 c(1/x): the coefficient of x^j is c[256 - j].
  std::array<uint64_t, 4> poly{};
  for (int j = 0; j < 256; ++j) {
    poly[j / 64] |= static_cast<uint64_t>(c[256 - j]) << (j % 64);
  }
  EXPECT_EQ(poly, Rng::kCharPoly);
}

TEST(ZipfTest, SamplesInRange) {
  Rng rng(23);
  ZipfGenerator zipf(1000, 0.99);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.Sample(rng), 1000u);
}

TEST(ZipfTest, SkewsTowardSmallValues) {
  Rng rng(29);
  ZipfGenerator zipf(10000, 0.99);
  int head = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    if (zipf.Sample(rng) < 100) ++head;  // top 1% of the key space
  }
  // Under Zipf(0.99) the top 1% of keys draw far more than 1% of samples.
  EXPECT_GT(head, kDraws / 4);
}

TEST(ZipfTest, LowerThetaIsLessSkewed) {
  Rng rng1(31), rng2(31);
  ZipfGenerator mild(10000, 0.2), strong(10000, 0.99);
  int mild_head = 0, strong_head = 0;
  for (int i = 0; i < 50000; ++i) {
    if (mild.Sample(rng1) < 100) ++mild_head;
    if (strong.Sample(rng2) < 100) ++strong_head;
  }
  EXPECT_LT(mild_head, strong_head);
}

// ZipfGenerator's quantile formula as it was first written, with std::pow as
// the only exponentiation: the definition Sample must reproduce exactly,
// whichever way it evaluates the power.
class PowFormulaZipf {
 public:
  PowFormulaZipf(uint64_t n, double theta)
      : n_(n),
        alpha_(1.0 / (1.0 - theta)),
        zetan_(Zeta(n, theta)),
        zeta2_(Zeta(2, theta)),
        eta_((1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
             (1.0 - zeta2_ / zetan_)) {}

  uint64_t Sample(double u) const {
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < zeta2_) return 1;
    const uint64_t v = static_cast<uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return v >= n_ ? n_ - 1 : v;
  }

 private:
  static double Zeta(uint64_t n, double theta) {
    double sum = 0;
    for (uint64_t i = 1; i <= n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    return sum;
  }

  uint64_t n_;
  double alpha_, zetan_, zeta2_, eta_;
};

// Random u, plus the 32 grid points on either side of every rank boundary,
// where a power evaluated any other way is most likely to floor to a
// different rank. The grid is NextDouble's: u = j * 2^-53.
TEST(ZipfTest, MatchesPowFormulaAtRankBoundaries) {
  constexpr uint64_t kGridPoints = 1ULL << 53;
  constexpr double kGridStep = 1.0 / static_cast<double>(kGridPoints);
  struct Case {
    uint64_t n;
    double theta;
  };
  // theta 0.8 is the text generator's, 0.99 and 0.5 are YCSB's; 0.2 gives a
  // non-integer exponent.
  for (const Case& c : {Case{20'000, 0.8}, Case{256, 0.99}, Case{1'000, 0.5},
                        Case{10'000, 0.2}}) {
    const ZipfGenerator zipf(c.n, c.theta);
    const PowFormulaZipf formula(c.n, c.theta);
    uint64_t checked = 0, mismatches = 0;
    auto check = [&](uint64_t j) {
      const double u = static_cast<double>(j) * kGridStep;
      ++checked;
      if (zipf.Sample(u) != formula.Sample(u) && mismatches++ == 0) {
        ADD_FAILURE() << "n " << c.n << " theta " << c.theta << ": u = " << j
                      << " * 2^-53 samples " << zipf.Sample(u)
                      << ", the formula gives " << formula.Sample(u);
      }
    };
    Rng rng(41);
    for (int i = 0; i < 1'000'000; ++i) check(rng.Next() >> 11);
    for (uint64_t rank = 1; rank < c.n; ++rank) {
      // The first grid point that samples `rank` or above; the last one
      // samples n - 1.
      uint64_t lo = 0, hi = kGridPoints - 1;
      while (lo < hi) {
        const uint64_t mid = lo + (hi - lo) / 2;
        if (formula.Sample(static_cast<double>(mid) * kGridStep) >= rank) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      const uint64_t first = lo < 32 ? 0 : lo - 32;
      const uint64_t last = lo + 32 < kGridPoints ? lo + 32 : kGridPoints - 1;
      for (uint64_t j = first; j <= last; ++j) check(j);
    }
    EXPECT_EQ(mismatches, 0u) << "n " << c.n << " theta " << c.theta
                              << ", of " << checked << " draws";
  }
}

}  // namespace
}  // namespace teleport
