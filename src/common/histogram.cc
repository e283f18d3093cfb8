#include "common/histogram.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <sstream>

#include "common/logging.h"

namespace teleport {

Histogram::Histogram() { Reset(); }

void Histogram::Reset() {
  std::memset(buckets_, 0, sizeof(buckets_));
  count_ = 0;
  sum_ = 0;
  min_ = std::numeric_limits<int64_t>::max();
  max_ = 0;
}

int Histogram::BucketFor(uint64_t v) {
  if (v == 0) return 0;
  const int b = 63 - __builtin_clzll(v);
  return b >= kNumBuckets ? kNumBuckets - 1 : b;
}

void Histogram::Add(int64_t value) {
  if (value < 0) value = 0;
  ++buckets_[BucketFor(static_cast<uint64_t>(value))];
  ++count_;
  sum_ += static_cast<uint64_t>(value);
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
}

void Histogram::Merge(const Histogram& other) {
  for (int i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

int64_t Histogram::min() const { return count_ == 0 ? 0 : min_; }

double Histogram::Mean() const {
  return count_ == 0 ? kEmptyPercentile
                     : static_cast<double>(sum_) / static_cast<double>(count_);
}

double Histogram::Percentile(double p) const {
  TELEPORT_DCHECK(p >= 0 && p <= 100);
  // Empty scope: answer with the defined sentinel *before* touching the
  // observed-range clamp below — min_ is INT64_MAX until the first Add(),
  // and interpolating against it would return uninitialized garbage.
  if (count_ == 0) return kEmptyPercentile;
  const double target = p / 100.0 * static_cast<double>(count_);
  uint64_t cum = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    const uint64_t next = cum + buckets_[i];
    if (static_cast<double>(next) >= target && buckets_[i] > 0) {
      // Interpolate within the bucket's range — [0, 2) for bucket 0,
      // [2^i, 2^(i+1)) otherwise (the top bucket has no power-of-two upper
      // bound: shifting by 64 is UB, and it absorbs everything >= 2^63, so
      // its ceiling is the observed max). Both ends are then tightened to
      // the observed [min, max]: no sample lies outside that range, so no
      // interpolated percentile should either — in particular, all-equal
      // inputs report the exact sample value at every percentile.
      double lo = i == 0 ? 0.0 : static_cast<double>(1ULL << i);
      double hi = i + 1 >= kNumBuckets
                      ? static_cast<double>(max_)
                      : static_cast<double>(1ULL << (i + 1));
      lo = std::max(lo, static_cast<double>(min()));
      hi = std::min(hi, static_cast<double>(max_));
      if (hi < lo) hi = lo;
      const double frac =
          (target - static_cast<double>(cum)) / static_cast<double>(buckets_[i]);
      const double v = lo + frac * (hi - lo);
      return std::clamp(v, static_cast<double>(min()),
                        static_cast<double>(max_));
    }
    cum = next;
  }
  return static_cast<double>(max_);
}

std::string Histogram::ToString() const {
  std::ostringstream os;
  os << "count=" << count_ << " mean=" << Mean() << " p50=" << Percentile(50)
     << " p99=" << Percentile(99) << " max=" << max_;
  return os.str();
}

}  // namespace teleport
