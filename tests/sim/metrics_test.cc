#include "sim/metrics.h"

#include <gtest/gtest.h>

namespace teleport::sim {
namespace {

TEST(MetricsTest, DefaultAllZero) {
  Metrics m;
  EXPECT_EQ(m.cache_hits, 0u);
  EXPECT_EQ(m.coherence_messages, 0u);
  EXPECT_EQ(m.RemoteMemoryBytes(), 0u);
}

TEST(MetricsTest, AddAccumulatesEveryField) {
  Metrics a, b;
  a.cache_hits = 1;
  a.bytes_from_memory_pool = 100;
  b.cache_hits = 2;
  b.bytes_to_memory_pool = 50;
  b.coherence_messages = 4;
  b.pushdown_calls = 1;
  a.Add(b);
  EXPECT_EQ(a.cache_hits, 3u);
  EXPECT_EQ(a.bytes_from_memory_pool, 100u);
  EXPECT_EQ(a.bytes_to_memory_pool, 50u);
  EXPECT_EQ(a.coherence_messages, 4u);
  EXPECT_EQ(a.pushdown_calls, 1u);
  EXPECT_EQ(a.RemoteMemoryBytes(), 150u);
}

TEST(MetricsTest, DiffInvertsAdd) {
  Metrics base;
  base.cache_hits = 5;
  base.storage_reads = 2;
  Metrics later = base;
  later.cache_hits = 9;
  later.storage_reads = 3;
  later.cpu_ops = 77;
  const Metrics d = later.Diff(base);
  EXPECT_EQ(d.cache_hits, 4u);
  EXPECT_EQ(d.storage_reads, 1u);
  EXPECT_EQ(d.cpu_ops, 77u);
}

TEST(MetricsTest, ToStringContainsSections) {
  Metrics m;
  m.coherence_messages = 12;
  const std::string s = m.ToString();
  EXPECT_NE(s.find("coherence"), std::string::npos);
  EXPECT_NE(s.find("messages=12"), std::string::npos);
}

// The X-macro is now the single source of truth for the field list; these
// exercise Add/Diff/ToString over EVERY field it generates, so a field
// added to the macro but mishandled anywhere shows up here (and a field
// added outside the macro trips the sizeof static_assert in the header).
TEST(MetricsTest, XMacroCoversEveryFieldExactlyOnce) {
  int fields = 0;
#define TELEPORT_METRICS_TEST_COUNT(field, group, label) ++fields;
  TELEPORT_SIM_METRICS_FIELDS(TELEPORT_METRICS_TEST_COUNT)
#undef TELEPORT_METRICS_TEST_COUNT
  EXPECT_EQ(fields, kNumMetricsFields);
  EXPECT_EQ(sizeof(Metrics),
            static_cast<size_t>(kNumMetricsFields) * sizeof(uint64_t));
}

TEST(MetricsTest, AddAndDiffRoundTripEveryGeneratedField) {
  // Give every field a distinct nonzero value via the macro itself.
  Metrics base, delta;
  uint64_t v = 1;
#define TELEPORT_METRICS_TEST_SET(field, group, label) \
  base.field = v;                                      \
  delta.field = 2 * v + 1;                             \
  v += 3;
  TELEPORT_SIM_METRICS_FIELDS(TELEPORT_METRICS_TEST_SET)
#undef TELEPORT_METRICS_TEST_SET

  Metrics sum = base;
  sum.Add(delta);
  const Metrics back = sum.Diff(delta);
#define TELEPORT_METRICS_TEST_CHECK(field, group, label)          \
  EXPECT_EQ(sum.field, base.field + delta.field) << #field;       \
  EXPECT_EQ(back.field, base.field) << #field;
  TELEPORT_SIM_METRICS_FIELDS(TELEPORT_METRICS_TEST_CHECK)
#undef TELEPORT_METRICS_TEST_CHECK
}

TEST(MetricsTest, EveryDumpedLabelAppearsInToString) {
  Metrics m;
  // The txn and netq groups are elided while all-zero (pre-OLTP and
  // pre-contended-fabric dumps stay byte-identical); make each nonzero so
  // their labels are dumped too.
  m.txn_commits = 1;
  m.netq_queued_sends = 1;
  const std::string s = m.ToString();
#define TELEPORT_METRICS_TEST_LABEL(field, group, label)                   \
  if (std::string(#group) != "none") {                                     \
    EXPECT_NE(s.find(std::string(#label) + "="), std::string::npos)        \
        << #label;                                                         \
  }
  TELEPORT_SIM_METRICS_FIELDS(TELEPORT_METRICS_TEST_LABEL)
#undef TELEPORT_METRICS_TEST_LABEL
}

}  // namespace
}  // namespace teleport::sim
