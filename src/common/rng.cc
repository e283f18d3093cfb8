#include "common/rng.h"

#include <bit>

namespace teleport {

namespace {

/// A polynomial over GF(2) of degree below 256, laid out as Rng::kCharPoly.
using Poly = std::array<uint64_t, 4>;

/// a * x mod P.
constexpr Poly TimesX(const Poly& a) {
  const uint64_t fold = 0 - (a[3] >> 63);
  Poly r = {a[0] << 1, (a[1] << 1) | (a[0] >> 63), (a[2] << 1) | (a[1] >> 63),
            (a[3] << 1) | (a[2] >> 63)};
  for (int k = 0; k < 4; ++k) r[k] ^= Rng::kCharPoly[k] & fold;
  return r;
}

/// kSquareHigh[j] = x^(256 + 2j) mod P: where the upper half of a square's
/// coefficients folds to.
constexpr std::array<Poly, 128> kSquareHigh = [] {
  std::array<Poly, 128> table{};
  Poly p = Rng::kCharPoly;  // x^256 mod P
  for (Poly& entry : table) {
    entry = p;
    p = TimesX(TimesX(p));
  }
  return table;
}();

/// Moves the low 32 bits of x to the even bits: over GF(2),
/// (sum a_i x^i)^2 = sum a_i x^(2i).
constexpr uint64_t SpreadBits(uint64_t x) {
  x &= 0xffffffffULL;
  x = (x | (x << 16)) & 0x0000ffff0000ffffULL;
  x = (x | (x << 8)) & 0x00ff00ff00ff00ffULL;
  x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0fULL;
  x = (x | (x << 2)) & 0x3333333333333333ULL;
  return (x | (x << 1)) & 0x5555555555555555ULL;
}

/// a^2 mod P.
Poly Square(const Poly& a) {
  Poly r = {SpreadBits(a[0]), SpreadBits(a[0] >> 32), SpreadBits(a[1]),
            SpreadBits(a[1] >> 32)};
  for (int j = 0; j < 128; ++j) {
    const uint64_t fold = 0 - ((a[2 + j / 64] >> (j % 64)) & 1);
    for (int k = 0; k < 4; ++k) r[k] ^= kSquareHigh[j][k] & fold;
  }
  return r;
}

}  // namespace

Rng::Jump::Jump(uint64_t n) : poly_{1, 0, 0, 0} {
  // Left to right over n's bits: x^(2m) = (x^m)^2 and x^(m+1) = x^m * x.
  for (int b = static_cast<int>(std::bit_width(n)) - 1; b >= 0; --b) {
    poly_ = Square(poly_);
    if (((n >> b) & 1) != 0) poly_ = TimesX(poly_);
  }
}

void Rng::Jump::Apply(Rng& rng) const {
  uint64_t sum[4] = {0, 0, 0, 0};
  for (int i = 0; i < 256; ++i) {
    const uint64_t take = 0 - ((poly_[i / 64] >> (i % 64)) & 1);
    for (int k = 0; k < 4; ++k) sum[k] ^= rng.s_[k] & take;
    rng.Next();
  }
  for (int k = 0; k < 4; ++k) rng.s_[k] = sum[k];
}

ZipfGenerator::ZipfGenerator(uint64_t n, double theta) : n_(n) {
  TELEPORT_CHECK(n > 0);
  TELEPORT_CHECK(theta > 0 && theta < 1.0)
      << "theta must be in (0,1); got " << theta;
  zetan_ = Zeta(n, theta);
  zeta2_ = Zeta(2, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2_ / zetan_);
  const double m = std::nearbyint(alpha_);
  const double ulp = std::nextafter(m, 2 * m) - m;
  if (m >= 1 && m <= 1024 && std::abs(alpha_ - m) <= 8 * ulp &&
      n < (uint64_t{1} << 52)) {
    int_alpha_ = static_cast<uint32_t>(m);
  }
}

double ZipfGenerator::Zeta(uint64_t n, double theta) {
  double sum = 0;
  for (uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

uint64_t ZipfGenerator::FloorByPow(double x) const {
  return static_cast<uint64_t>(static_cast<double>(n_) * std::pow(x, alpha_));
}

}  // namespace teleport
