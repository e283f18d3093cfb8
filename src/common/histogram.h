#ifndef TELEPORT_COMMON_HISTOGRAM_H_
#define TELEPORT_COMMON_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

namespace teleport {

/// Log-bucketed histogram for latency-like quantities (nanoseconds, bytes).
/// Bucket 0 covers [0, 2) — both 0 and 1 land there — and bucket i >= 1
/// covers [2^i, 2^(i+1)), with the top bucket also absorbing everything at
/// or above 2^63. Percentiles interpolate linearly inside a bucket after
/// tightening its bounds to the observed [min, max], so a histogram whose
/// samples are all equal reports that exact value at every percentile.
/// Mirrors the RocksDB statistics histogram in spirit.
class Histogram {
 public:
  /// Defined result of every statistic on an *empty* histogram: Mean() and
  /// Percentile() return exactly this, min()/max() return 0. An empty scope
  /// is now a reachable steady state (PR8: a tenant can abort every
  /// transaction, leaving e.g. its commit-latency scope empty), so queries
  /// must not touch the uninitialized min_/max_ sentinels — min_ sits at
  /// INT64_MAX until the first Add(), and clamping an interpolated
  /// percentile against it would fabricate garbage. Merge() treats an empty
  /// operand as the identity for exactly the same reason.
  static constexpr double kEmptyPercentile = 0.0;

  Histogram();

  /// Records one sample (negative samples are clamped to 0).
  void Add(int64_t value);

  /// Merges another histogram into this one.
  void Merge(const Histogram& other);

  void Reset();

  uint64_t count() const { return count_; }
  int64_t min() const;
  int64_t max() const { return max_; }
  double Mean() const;

  /// Returns the value at percentile p in [0, 100], or kEmptyPercentile
  /// when no sample has been recorded.
  double Percentile(double p) const;

  /// One-line summary: count/mean/p50/p99/max.
  std::string ToString() const;

 private:
  static constexpr int kNumBuckets = 64;
  static int BucketFor(uint64_t v);

  uint64_t buckets_[kNumBuckets];
  uint64_t count_;
  /// Samples are clamped to [0, 2^63), so 128 bits hold the sum of 2^64 of
  /// them: no merge of real histograms can overflow it.
  unsigned __int128 sum_;
  int64_t min_;
  int64_t max_;
};

}  // namespace teleport

#endif  // TELEPORT_COMMON_HISTOGRAM_H_
