#include "common/histogram.h"

#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace teleport {
namespace {

TEST(HistogramTest, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
}

// PR8 regression: an empty scope is a reachable steady state (a tenant can
// abort every transaction, so e.g. its commit-latency histogram records
// nothing). Every percentile must return the documented sentinel, not a
// value fabricated from the uninitialized INT64_MAX min_ clamp.
TEST(HistogramTest, EmptyPercentileSentinelAtEveryPercentile) {
  const Histogram h;
  for (const double p : {0.0, 1.0, 50.0, 99.0, 99.9, 100.0}) {
    EXPECT_DOUBLE_EQ(h.Percentile(p), Histogram::kEmptyPercentile) << p;
  }
  EXPECT_DOUBLE_EQ(h.Mean(), Histogram::kEmptyPercentile);
  // Reset() returns a used histogram to exactly the empty-sentinel state.
  Histogram used;
  used.Add(1 << 20);
  used.Reset();
  EXPECT_DOUBLE_EQ(used.Percentile(99), Histogram::kEmptyPercentile);
  EXPECT_EQ(used.min(), 0);
  EXPECT_EQ(used.max(), 0);
}

TEST(HistogramTest, MergeWithEmptyIsIdentityBothWays) {
  Histogram a;
  a.Add(7);
  a.Add(4096);
  Histogram merged = a;
  merged.Merge(Histogram());  // empty right operand
  EXPECT_EQ(merged.count(), a.count());
  EXPECT_EQ(merged.min(), a.min());
  EXPECT_EQ(merged.max(), a.max());
  EXPECT_DOUBLE_EQ(merged.Percentile(50), a.Percentile(50));
  Histogram from_empty;  // empty left operand
  from_empty.Merge(a);
  EXPECT_EQ(from_empty.count(), a.count());
  EXPECT_EQ(from_empty.min(), a.min());
  EXPECT_DOUBLE_EQ(from_empty.Percentile(99), a.Percentile(99));
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Add(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1000);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_DOUBLE_EQ(h.Mean(), 1000.0);
}

TEST(HistogramTest, MeanIsExact) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 100);
}

TEST(HistogramTest, PercentilesAreOrdered) {
  Histogram h;
  for (int i = 0; i < 10000; ++i) h.Add(i % 1000);
  const double p10 = h.Percentile(10);
  const double p50 = h.Percentile(50);
  const double p90 = h.Percentile(90);
  const double p99 = h.Percentile(99);
  EXPECT_LE(p10, p50);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, static_cast<double>(h.max()));
}

TEST(HistogramTest, PercentileWithinBucketBounds) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.Add(512);  // all in bucket [512,1024)
  EXPECT_GE(h.Percentile(50), 512.0);
  EXPECT_LE(h.Percentile(50), 1024.0);
}

// The doc/impl contract fixed in PR4: interpolation bounds are tightened
// to the observed [min, max], so all-equal samples report the exact value
// at every percentile (the seed reported e.g. p50=768 for 1000x 512).
TEST(HistogramTest, AllEqualSamplesReportExactPercentiles) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.Add(777);
  for (const double p : {0.1, 1.0, 50.0, 99.0, 99.9, 100.0}) {
    EXPECT_DOUBLE_EQ(h.Percentile(p), 777.0) << "p" << p;
  }
  Histogram one;
  one.Add(12345);
  EXPECT_DOUBLE_EQ(one.Percentile(50), 12345.0);
}

TEST(HistogramTest, PercentilesNeverLeaveObservedRange) {
  Histogram h;
  h.Add(100);
  h.Add(900);  // same bucket as neither; range [100, 900]
  for (const double p : {1.0, 25.0, 50.0, 75.0, 99.0}) {
    EXPECT_GE(h.Percentile(p), 100.0);
    EXPECT_LE(h.Percentile(p), 900.0);
  }
}

// The top bucket has no power-of-two ceiling (1ULL << 64 is UB); its upper
// bound is the observed max. Samples at and around 2^62..2^63 must neither
// trap under UBSAN nor report values past the max.
TEST(HistogramTest, HugeValuesStayFiniteAndBounded) {
  Histogram h;
  const int64_t big = int64_t{1} << 62;
  h.Add(big);
  h.Add(big + 12345);
  h.Add(std::numeric_limits<int64_t>::max());
  for (const double p : {1.0, 50.0, 99.0, 100.0}) {
    const double v = h.Percentile(p);
    EXPECT_GE(v, static_cast<double>(h.min()));
    EXPECT_LE(v, static_cast<double>(h.max()));
  }
  EXPECT_EQ(h.max(), std::numeric_limits<int64_t>::max());
  // The running sum passes 2^63 within one histogram and again across a
  // merge; the mean must still lie inside the observed range.
  Histogram other;
  other.Add(std::numeric_limits<int64_t>::max());
  other.Add(big);
  h.Merge(other);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_GE(h.Mean(), static_cast<double>(h.min()));
  EXPECT_LE(h.Mean(), static_cast<double>(h.max()));
}

TEST(HistogramTest, NegativeClampsToZero) {
  Histogram h;
  h.Add(-5);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.count(), 1u);
}

TEST(HistogramTest, MergeAccumulates) {
  Histogram a, b;
  a.Add(10);
  a.Add(20);
  b.Add(30);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.Mean(), 20.0);
  EXPECT_EQ(a.max(), 30);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Add(100);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0);
}

TEST(HistogramTest, ToStringMentionsCount) {
  Histogram h;
  h.Add(7);
  EXPECT_NE(h.ToString().find("count=1"), std::string::npos);
}

// All externally observable state of a histogram, for exact comparison in
// the algebraic property tests below.
void ExpectSame(const Histogram& x, const Histogram& y) {
  EXPECT_EQ(x.count(), y.count());
  EXPECT_EQ(x.min(), y.min());
  EXPECT_EQ(x.max(), y.max());
  EXPECT_DOUBLE_EQ(x.Mean(), y.Mean());
  for (const double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
    EXPECT_DOUBLE_EQ(x.Percentile(p), y.Percentile(p)) << "p" << p;
  }
  EXPECT_EQ(x.ToString(), y.ToString());
}

// Property: Merge is associative — (a + b) + c == a + (b + c) — so per-call
// histograms can be combined in any aggregation order (per-operator, then
// per-query, then per-suite) without changing a single reported number.
class HistogramMergeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistogramMergeTest, MergeIsAssociative) {
  Rng rng(GetParam());
  Histogram a, b, c;
  Histogram* parts[] = {&a, &b, &c};
  for (Histogram* h : parts) {
    const int n = static_cast<int>(rng.Uniform(500));
    for (int i = 0; i < n; ++i) {
      h->Add(static_cast<int64_t>(rng.Uniform(1u << 20)));
    }
  }
  Histogram left = a;   // (a + b) + c
  left.Merge(b);
  left.Merge(c);
  Histogram bc = b;     // a + (b + c)
  bc.Merge(c);
  Histogram right = a;
  right.Merge(bc);
  ExpectSame(left, right);
}

TEST_P(HistogramMergeTest, MergeIsCommutativeWithEmptyIdentity) {
  Rng rng(GetParam() ^ 0xabcdef);
  Histogram a, b;
  const int n = static_cast<int>(rng.Uniform(300));
  for (int i = 0; i < n; ++i) a.Add(static_cast<int64_t>(rng.Uniform(1000)));
  const int m = static_cast<int>(rng.Uniform(300));
  for (int i = 0; i < m; ++i) b.Add(static_cast<int64_t>(rng.Uniform(1000)));

  Histogram ab = a;
  ab.Merge(b);
  Histogram ba = b;
  ba.Merge(a);
  ExpectSame(ab, ba);

  Histogram with_empty = a;
  with_empty.Merge(Histogram());
  ExpectSame(with_empty, a);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramMergeTest,
                         ::testing::Values(7, 21, 63, 189, 567));

}  // namespace
}  // namespace teleport
