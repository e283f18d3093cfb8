#include "common/rng.h"

namespace teleport {

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

std::optional<uint64_t> ZipfGenerator::FloorByIntegerPower(double x) const {
  if (int_alpha_ == 0 || !(x > 0x1p-16)) return std::nullopt;
  // y estimates n * x^alpha_ as n * x^m, m = int_alpha_ <= 1024, by
  // repeated squaring. For x > 2^-16, relative to n * x^alpha_:
  //   - the exponent's error |alpha_ - m| * |ln x| <= 8 ulp(m) * 16 ln 2
  //     < 2^-35;
  //   - the squarings and products round with relative error < 2m * 2^-53
  //     <= 2^-42 in all;
  //   - std::pow is within 1 ulp, and each multiply by n rounds once.
  // So y and the std::pow expression both lie within 2^-34 * y of
  // n * x^alpha_. When y is farther than 2^-30 * (y + 1) from every
  // integer, both therefore floor to the same one; otherwise (about 7 draws
  // in 10^6 at theta 0.8) std::pow decides. y < n < 2^52, so y - floor(y)
  // is exact.
  double r = (int_alpha_ & 1) != 0 ? x : 1.0;
  double p = x;
  for (uint32_t e = int_alpha_ >> 1; e != 0; e >>= 1) {
    p *= p;
    if ((e & 1) != 0) r *= p;
  }
  const double y = static_cast<double>(n_) * r;
  const auto v = static_cast<uint64_t>(y);
  const double frac = y - static_cast<double>(v);
  const double guard = 0x1p-30 * (y + 1.0);
  if (frac <= guard || 1.0 - frac <= guard) return std::nullopt;
  return v;
}

uint64_t ZipfGenerator::Sample(double u) const {
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < zeta2_) return 1;
  const double x = eta_ * u - eta_ + 1.0;
  const std::optional<uint64_t> fast = FloorByIntegerPower(x);
  const uint64_t v =
      fast ? *fast
           : static_cast<uint64_t>(static_cast<double>(n_) *
                                   std::pow(x, alpha_));
  return v >= n_ ? n_ - 1 : v;
}

}  // namespace teleport
