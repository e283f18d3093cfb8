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
}

double ZipfGenerator::Zeta(uint64_t n, double theta) {
  double sum = 0;
  for (uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

uint64_t ZipfGenerator::Sample(double u) const {
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < zeta2_) return 1;
  const uint64_t v = static_cast<uint64_t>(
      static_cast<double>(n_) *
      std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return v >= n_ ? n_ - 1 : v;
}

}  // namespace teleport
