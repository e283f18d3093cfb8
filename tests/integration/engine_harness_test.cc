// The behaviour every engine shares around its wrapped calls, checked on
// one query, one vertex program and one MapReduce job: a run with tenant
// scopes records exactly one sample in the caller's tenant, carrying the
// run's latency and the caller's whole metrics growth; and a pushed
// operator or phase whose pushdown fails aborts the run, naming it.

#include <gtest/gtest.h>

#include "bench/bench_util.h"

namespace teleport {
namespace {

constexpr int kTenant = 1;

void ExpectMetricsEqual(const sim::Metrics& a, const sim::Metrics& b) {
#define TELEPORT_HARNESS_TEST_EQ(field, group, label) \
  EXPECT_EQ(a.field, b.field) << #field;
  TELEPORT_SIM_METRICS_FIELDS(TELEPORT_HARNESS_TEST_EQ)
#undef TELEPORT_HARNESS_TEST_EQ
}

/// Runs `run(ctx)` on a fresh compute context of tenant kTenant with
/// `scopes` and checks the one sample it must record there.
template <typename Run>
void ExpectOneScopedSample(ddc::MemorySystem& ms, sim::TenantScopes& scopes,
                           Run run) {
  auto ctx = ms.CreateContext(ddc::Pool::kCompute, 0, kTenant);
  const sim::Metrics before = ctx->metrics();
  const Nanos total_ns = run(*ctx);
  EXPECT_GT(total_ns, 0);
  EXPECT_EQ(scopes.completed(0), 0u);
  ASSERT_EQ(scopes.completed(kTenant), 1u);
  EXPECT_EQ(scopes.latency(kTenant).min(), total_ns);
  EXPECT_EQ(scopes.latency(kTenant).max(), total_ns);
  ExpectMetricsEqual(scopes.metrics(kTenant), ctx->metrics().Diff(before));
}

TEST(EngineHarnessTest, QueryRecordsOneSampleInTheCallersTenant) {
  auto d = bench::MakeDb(ddc::Platform::kBaseDdc, 0.1);
  sim::TenantScopes scopes(2);
  db::QueryOptions opts;
  opts.runtime = d.runtime.get();
  opts.push_ops = db::DefaultTeleportOps("q6");
  opts.scopes = &scopes;
  ExpectOneScopedSample(*d.ms, scopes, [&](ddc::ExecutionContext& ctx) {
    return db::RunQ6(ctx, *d.database, opts).total_ns;
  });
}

TEST(EngineHarnessTest, VertexProgramRecordsOneSampleInTheCallersTenant) {
  auto d = bench::MakeGraph(ddc::Platform::kBaseDdc, 2'000, 8);
  sim::TenantScopes scopes(2);
  graph::GasOptions opts;
  opts.runtime = d.runtime.get();
  opts.push_phases = graph::DefaultTeleportPhases();
  opts.scopes = &scopes;
  ExpectOneScopedSample(*d.ms, scopes, [&](ddc::ExecutionContext& ctx) {
    return graph::RunSssp(ctx, d.graph, opts).total_ns;
  });
}

TEST(EngineHarnessTest, MapReduceJobRecordsOneSampleInTheCallersTenant) {
  auto d = bench::MakeMr(ddc::Platform::kBaseDdc, 128 << 10);
  sim::TenantScopes scopes(2);
  mr::MrOptions opts;
  opts.runtime = d.runtime.get();
  opts.push_phases = mr::DefaultTeleportPhases();
  opts.scopes = &scopes;
  ExpectOneScopedSample(*d.ms, scopes, [&](ddc::ExecutionContext& ctx) {
    return mr::RunWordCount(ctx, d.corpus, opts).total_ns;
  });
}

// The memory pool goes down for good before the run, so the first pushed
// operator or phase cannot be pushed; the run must stop there, not go on
// as if the call had run.
TEST(EngineHarnessDeathTest, FailedPushdownAbortsNamingTheOperator) {
  auto d = bench::MakeDb(ddc::Platform::kBaseDdc, 0.1);
  db::QueryOptions opts;
  opts.runtime = d.runtime.get();
  opts.push_ops = db::DefaultTeleportOps("q6");
  d.ms->fabric().InjectFailureWindowOn(0, 0);
  EXPECT_DEATH(db::RunQ6(*d.ctx, *d.database, opts),
               "pushdown of .*Selection.shipdate.* failed");
}

TEST(EngineHarnessDeathTest, FailedPushdownAbortsNamingTheGraphPhase) {
  auto d = bench::MakeGraph(ddc::Platform::kBaseDdc, 2'000, 8);
  graph::GasOptions opts;
  opts.runtime = d.runtime.get();
  opts.push_phases = graph::DefaultTeleportPhases();
  d.ms->fabric().InjectFailureWindowOn(0, 0);
  EXPECT_DEATH(graph::RunSssp(*d.ctx, d.graph, opts),
               "pushdown of .*Finalize failed");
}

TEST(EngineHarnessDeathTest, FailedPushdownAbortsNamingTheMapReducePhase) {
  auto d = bench::MakeMr(ddc::Platform::kBaseDdc, 128 << 10);
  mr::MrOptions opts;
  opts.runtime = d.runtime.get();
  opts.push_phases = mr::DefaultTeleportPhases();
  d.ms->fabric().InjectFailureWindowOn(0, 0);
  EXPECT_DEATH(mr::RunWordCount(*d.ctx, d.corpus, opts),
               "pushdown of .*MapShuffle failed");
}

}  // namespace
}  // namespace teleport
