// Tier-1 lock on the PR8 OLTP engine: OCC semantics (commit, abort,
// read-your-writes, read-only validation), the model checker's invariant #7
// end to end — including proof that BOTH planted protocol mutations
// (kSkipOccValidation, kSkipAbortUndo) are caught — pushdown-accelerated
// index probes through the kernel registry, and a multi-session
// interleaved smoke against the sequential golden.

#include <cstdint>
#include <memory>

#include <gtest/gtest.h>

#include "ddc/memory_system.h"
#include "oltp/btree.h"
#include "oltp/txn.h"
#include "oltp/workload.h"
#include "sim/coop_task.h"
#include "sim/interleaver.h"
#include "teleport/model_checker.h"
#include "teleport/pushdown.h"

namespace teleport {
namespace {

using ddc::Pool;
using ddc::ProtocolMutation;
using oltp::BTree;
using oltp::Txn;
using oltp::TxnManager;

constexpr uint64_t kPage = 4096;
constexpr uint64_t kKeys = 16;

struct Rig {
  std::unique_ptr<ddc::MemorySystem> ms;
  std::unique_ptr<tp::PushdownRuntime> runtime;
  std::unique_ptr<ddc::ExecutionContext> ctx;
  std::unique_ptr<BTree> tree;
  std::unique_ptr<TxnManager> mgr;
};

Rig MakeRig(bool push_probes = false, uint64_t keys = kKeys) {
  Rig r;
  ddc::DdcConfig cfg;
  cfg.platform = ddc::Platform::kBaseDdc;
  cfg.compute_cache_bytes = 64 * kPage;
  cfg.memory_pool_bytes = 4096 * kPage;
  r.ms = std::make_unique<ddc::MemorySystem>(cfg, sim::CostParams::Default(),
                                             32 << 20);
  r.runtime = std::make_unique<tp::PushdownRuntime>(r.ms.get());
  r.ctx = r.ms->CreateContext(Pool::kCompute);
  oltp::BTreeOptions opts;
  opts.arena_pages = 512;
  opts.push_probes = push_probes;
  opts.runtime = r.runtime.get();
  r.tree = std::make_unique<BTree>(r.ms.get(), *r.ctx, opts);
  oltp::PreloadTable(*r.ctx, *r.tree, keys);
  r.ms->SeedData();
  r.mgr = std::make_unique<TxnManager>(r.ms.get(), r.tree.get());
  return r;
}

TEST(OltpTxnTest, CommitPublishesWritesAndVersions) {
  Rig r = MakeRig();
  tp::ModelChecker checker(r.ms.get(), tp::ModelChecker::OnViolation::kRecord);
  {
    Txn t(r.mgr.get(), /*session=*/0);
    const Txn::ReadResult rr = t.Read(*r.ctx, 3);
    EXPECT_TRUE(rr.found);
    EXPECT_EQ(rr.value, Mix64(3));
    EXPECT_EQ(rr.version, 0u);
    t.Update(*r.ctx, 3, 5);
    t.Put(100, 77);
    EXPECT_TRUE(t.Commit(*r.ctx));
  }
  {
    Txn t(r.mgr.get(), 0);
    const Txn::ReadResult a = t.Read(*r.ctx, 3);
    EXPECT_EQ(a.value, Mix64(3) + 5);
    EXPECT_EQ(a.version, 1u);
    const Txn::ReadResult b = t.Read(*r.ctx, 100);
    EXPECT_TRUE(b.found);
    EXPECT_EQ(b.value, 77u);
    EXPECT_EQ(b.version, 1u);
    EXPECT_TRUE(t.Commit(*r.ctx));
  }
  EXPECT_EQ(r.ctx->metrics().txn_commits, 2u);
  EXPECT_EQ(r.ctx->metrics().txn_aborts, 0u);
  EXPECT_EQ(r.mgr->commit_seq(), 2u);
  EXPECT_EQ(checker.Finish(), 0u);
}

TEST(OltpTxnTest, ReadYourOwnWrites) {
  Rig r = MakeRig();
  Txn t(r.mgr.get(), 0);
  t.Put(5, 42);
  EXPECT_EQ(t.Read(*r.ctx, 5).value, 42u);
  t.Update(*r.ctx, 5, 1);
  EXPECT_EQ(t.Read(*r.ctx, 5).value, 43u);
  EXPECT_TRUE(t.Commit(*r.ctx));
  Txn t2(r.mgr.get(), 0);
  EXPECT_EQ(t2.Read(*r.ctx, 5).value, 43u);
}

TEST(OltpTxnTest, StaleReadAbortsRollsBackAndRetryCommits) {
  Rig r = MakeRig();
  tp::ModelChecker checker(r.ms.get(), tp::ModelChecker::OnViolation::kRecord);
  const uint64_t preload = Mix64(1);

  Txn a(r.mgr.get(), /*session=*/0);
  a.Update(*r.ctx, 1, 10);  // reads version 0, buffers preload + 10

  Txn b(r.mgr.get(), /*session=*/1);
  b.Update(*r.ctx, 1, 100);
  EXPECT_TRUE(b.Commit(*r.ctx));  // key 1 now preload + 100, version 1

  EXPECT_FALSE(a.Commit(*r.ctx));  // a's read of version 0 is stale

  {
    Txn check(r.mgr.get(), 0);
    const Txn::ReadResult rr = check.Read(*r.ctx, 1);
    EXPECT_EQ(rr.value, preload + 100) << "abort must restore b's committed "
                                          "value, not leave a's provisional";
    EXPECT_EQ(rr.version, 1u);
  }
  Txn retry(r.mgr.get(), 0);
  retry.Update(*r.ctx, 1, 10);  // fresh read of version 1
  EXPECT_TRUE(retry.Commit(*r.ctx));
  {
    Txn check(r.mgr.get(), 0);
    const Txn::ReadResult rr = check.Read(*r.ctx, 1);
    EXPECT_EQ(rr.value, preload + 110);
    EXPECT_EQ(rr.version, 2u);
  }
  EXPECT_EQ(r.ctx->metrics().txn_aborts, 1u);
  EXPECT_EQ(r.ctx->metrics().txn_undo_writes, 1u);
  EXPECT_EQ(checker.Finish(), 0u);
}

TEST(OltpTxnTest, ReadOnlyTransactionStillValidates) {
  Rig r = MakeRig();
  Txn a(r.mgr.get(), 0);
  (void)a.Read(*r.ctx, 2);
  Txn b(r.mgr.get(), 1);
  b.Update(*r.ctx, 2, 9);
  EXPECT_TRUE(b.Commit(*r.ctx));
  EXPECT_FALSE(a.Commit(*r.ctx)) << "read-only txn with a stale read must "
                                    "abort for serializability";
  EXPECT_EQ(r.ctx->metrics().txn_undo_writes, 0u);  // nothing installed
}

TEST(OltpTxnTest, AbsentReadConflictsWithInsert) {
  Rig r = MakeRig();
  Txn a(r.mgr.get(), 0);
  const Txn::ReadResult rr = a.Read(*r.ctx, 200);  // absent, version 0
  EXPECT_FALSE(rr.found);
  Txn b(r.mgr.get(), 1);
  b.Put(200, 1);
  EXPECT_TRUE(b.Commit(*r.ctx));
  a.Put(201, 2);
  EXPECT_FALSE(a.Commit(*r.ctx))
      << "an insert under a's absent read must fail a's validation";
}

TEST(OltpTxnTest, ScanReadsCommittedRecords) {
  Rig r = MakeRig();
  tp::ModelChecker checker(r.ms.get(), tp::ModelChecker::OnViolation::kRecord);
  Txn t(r.mgr.get(), 0);
  const Txn::ScanResult sr = t.Scan(*r.ctx, 0, 8);
  EXPECT_EQ(sr.records, 8u);
  EXPECT_NE(sr.digest, 0u);
  EXPECT_EQ(t.read_set_size(), 8u);
  EXPECT_TRUE(t.Commit(*r.ctx));
  EXPECT_EQ(checker.Finish(), 0u);
}

// --- The planted protocol mutations, provably caught by invariant #7 --------

// A reader that finds a writer mid-flight (an odd seqlock word) can only
// wait for another simulated thread to finish the write, and none runs
// while its context has no yield hook: the retry loops abort instead of
// spinning forever.
TEST(OltpRetryDeathTest, OddNodeVersionWithoutYieldHookAborts) {
  Rig r = MakeRig();
  const ddc::VAddr leaf = r.tree->FindLeaf(*r.ctx, 3);
  r.ctx->Store<uint64_t>(leaf, 7);  // a node's first word is its version
  EXPECT_DEATH(r.tree->FindRecord(*r.ctx, 3), "node .* reads odd version 7");
}

TEST(OltpRetryDeathTest, OddRecordSeqWithoutYieldHookAborts) {
  Rig r = MakeRig();
  const ddc::VAddr record = r.tree->FindRecord(*r.ctx, 3);
  r.ctx->Store<uint64_t>(record + 24, 7);  // {key, value, meta, seq}
  Txn t(r.mgr.get(), 0);
  EXPECT_DEATH(t.Read(*r.ctx, 3), "key 3 reads odd seq 7");
}

TEST(OltpMutationTest, SkipOccValidationLosesUpdateAndIsCaught) {
  Rig r = MakeRig();
  r.ms->set_protocol_mutation(ProtocolMutation::kSkipOccValidation);
  tp::ModelChecker checker(r.ms.get(), tp::ModelChecker::OnViolation::kRecord);
  const uint64_t preload = Mix64(1);

  Txn a(r.mgr.get(), 0);
  a.Update(*r.ctx, 1, 10);
  Txn b(r.mgr.get(), 1);
  b.Update(*r.ctx, 1, 100);
  EXPECT_TRUE(b.Commit(*r.ctx));
  EXPECT_TRUE(a.Commit(*r.ctx))
      << "the mutation must let the stale commit through";

  // The classic lost update: a's value was computed from the pre-b read.
  Txn check(r.mgr.get(), 0);
  EXPECT_EQ(check.Read(*r.ctx, 1).value, preload + 10)
      << "b's committed update should have been clobbered (that's the bug)";
  EXPECT_GT(checker.Finish(), 0u)
      << "invariant #7b must flag the commit against a stale read";
}

TEST(OltpMutationTest, SkipAbortUndoCorruptsValueAndIsCaught) {
  Rig r = MakeRig();
  r.ms->set_protocol_mutation(ProtocolMutation::kSkipAbortUndo);
  tp::ModelChecker checker(r.ms.get(), tp::ModelChecker::OnViolation::kRecord);
  const uint64_t preload = Mix64(1);

  Txn a(r.mgr.get(), 0);
  a.Update(*r.ctx, 1, 10);
  Txn b(r.mgr.get(), 1);
  b.Update(*r.ctx, 1, 100);
  EXPECT_TRUE(b.Commit(*r.ctx));
  EXPECT_FALSE(a.Commit(*r.ctx)) << "validation still runs; only undo is "
                                    "skipped";

  // Version validation can never see this bug: the version word was
  // restored, only the value is the abandoned provisional.
  Txn check(r.mgr.get(), 0);
  const Txn::ReadResult rr = check.Read(*r.ctx, 1);
  EXPECT_EQ(rr.version, 1u);
  EXPECT_EQ(rr.value, preload + 10)
      << "the provisional value should have survived (that's the bug)";
  EXPECT_NE(rr.value, preload + 100);
  EXPECT_GT(checker.Finish(), 0u)
      << "invariant #7c must flag the undischarged undo obligation";
}

// --- Invariant #7 unit surface (hand-crafted event sequences) ---------------

TEST(OltpCheckerTest, FlagsDirtyReadVersion) {
  Rig r = MakeRig();
  tp::ModelChecker checker(r.ms.get(), tp::ModelChecker::OnViolation::kRecord);
  r.ms->NotifyTxnEvent(ddc::CoherenceEvent::Kind::kTxnRead, 3, 7, 0, 0);
  EXPECT_GT(checker.Finish(), 0u);
}

TEST(OltpCheckerTest, FlagsNonSuccessorInstall) {
  Rig r = MakeRig();
  tp::ModelChecker checker(r.ms.get(), tp::ModelChecker::OnViolation::kRecord);
  r.ms->NotifyTxnEvent(ddc::CoherenceEvent::Kind::kTxnWrite, 3, 5, 0, 0);
  EXPECT_GT(checker.Finish(), 0u);
}

TEST(OltpCheckerTest, FlagsNonMonotoneCommitSequence) {
  Rig r = MakeRig();
  tp::ModelChecker checker(r.ms.get(), tp::ModelChecker::OnViolation::kRecord);
  using K = ddc::CoherenceEvent::Kind;
  r.ms->NotifyTxnEvent(K::kTxnWrite, 3, 1, 0, 0);
  r.ms->NotifyTxnEvent(K::kTxnCommit, 0, 1, 0, 0);
  r.ms->NotifyTxnEvent(K::kTxnWrite, 4, 1, 1, 0);
  r.ms->NotifyTxnEvent(K::kTxnCommit, 0, 1, 1, 0);  // sequence reused
  EXPECT_EQ(checker.Finish(), 1u);
}

TEST(OltpCheckerTest, FlagsUnmatchedUndo) {
  Rig r = MakeRig();
  tp::ModelChecker checker(r.ms.get(), tp::ModelChecker::OnViolation::kRecord);
  r.ms->NotifyTxnEvent(ddc::CoherenceEvent::Kind::kTxnUndo, 3, 0, 0, 0);
  EXPECT_GT(checker.Finish(), 0u);
}

TEST(OltpCheckerTest, AcceptsCleanAbortUndoCycle) {
  Rig r = MakeRig();
  tp::ModelChecker checker(r.ms.get(), tp::ModelChecker::OnViolation::kRecord);
  using K = ddc::CoherenceEvent::Kind;
  r.ms->NotifyTxnEvent(K::kTxnRead, 3, 0, 0, 0);
  r.ms->NotifyTxnEvent(K::kTxnWrite, 3, 1, 0, 0);
  r.ms->NotifyTxnEvent(K::kTxnAbort, 0, 0, 0, 0);
  r.ms->NotifyTxnEvent(K::kTxnUndo, 3, 0, 0, 0);
  EXPECT_EQ(checker.Finish(), 0u);
}

// --- Pushdown probes ---------------------------------------------------------

TEST(OltpPushdownTest, KernelRegistryRoundTripAndCounts) {
  Rig r = MakeRig(/*push_probes=*/true);
  const int probe = r.runtime->RegisterKernel("ProbeLeaf");
  const int traverse = r.runtime->RegisterKernel("TraverseInner");
  EXPECT_NE(probe, traverse);
  EXPECT_EQ(r.runtime->RegisterKernel("ProbeLeaf"), probe)
      << "registration must be idempotent";
  EXPECT_EQ(r.runtime->kernel_name(probe), "ProbeLeaf");
  EXPECT_EQ(r.runtime->kernel_calls(probe), 0u);

  Txn t(r.mgr.get(), 0);
  (void)t.Read(*r.ctx, 3);
  (void)t.Scan(*r.ctx, 0, 4);
  EXPECT_TRUE(t.Commit(*r.ctx));
  EXPECT_GE(r.runtime->kernel_calls(probe), 1u);
  EXPECT_GE(r.runtime->kernel_calls(traverse), 1u);
}

TEST(OltpPushdownTest, PushedAndLocalProbesAgreeOnContent) {
  oltp::YcsbConfig cfg;
  cfg.txns_per_session = 8;
  cfg.ops_per_txn = 4;
  cfg.keyspace = kKeys;
  cfg.seed = 7;
  uint64_t digests[2];
  uint64_t commits[2];
  for (int push = 0; push < 2; ++push) {
    Rig r = MakeRig(push == 1);
    const oltp::YcsbResult res = RunYcsbSession(*r.ctx, *r.mgr, cfg, 0);
    digests[push] = r.tree->ContentDigest(*r.ctx);
    commits[push] = res.commit_digest;
    EXPECT_EQ(res.committed, 8u);
  }
  EXPECT_EQ(digests[0], digests[1])
      << "probe offload must never change bytes";
  EXPECT_EQ(commits[0], commits[1]);
}

// --- YCSB configuration -----------------------------------------------------

TEST(OltpYcsbConfigTest, ZipfThetaOutsideOpenUnitIntervalAborts) {
  // At theta = 1 the quantile transform's exponent 1/(1 - theta) is
  // infinite, which sends most samples to the least popular key: the skew
  // would silently invert.
  Rig r = MakeRig();
  oltp::YcsbConfig cfg;
  cfg.zipfian = true;
  cfg.zipf_theta = 1.0;
  EXPECT_DEATH(RunYcsbSession(*r.ctx, *r.mgr, cfg, 0),
               "theta must be in \\(0,1\\); got 1");
  cfg.zipf_theta = 0.0;
  EXPECT_DEATH(RunYcsbSession(*r.ctx, *r.mgr, cfg, 0),
               "theta must be in \\(0,1\\); got 0");
}

// --- Multi-session interleaved smoke (the diff harness in miniature) --------

TEST(OltpInterleavedTest, RandomScheduleMatchesSequentialGolden) {
  oltp::YcsbConfig cfg;
  cfg.txns_per_session = 4;
  cfg.ops_per_txn = 3;
  cfg.keyspace = kKeys;
  cfg.seed = 11;
  constexpr int kSessions = 3;

  // Sequential golden: sessions one after another, no interleaving.
  uint64_t golden_content = 0;
  uint64_t golden_commits = 0;
  {
    Rig r = MakeRig();
    for (int s = 0; s < kSessions; ++s) {
      const oltp::YcsbResult res = RunYcsbSession(*r.ctx, *r.mgr, cfg, s);
      EXPECT_EQ(res.aborted, 0u) << "sequential sessions cannot conflict";
      golden_commits ^= res.commit_digest;
    }
    golden_content = r.tree->ContentDigest(*r.ctx);
  }

  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rig r = MakeRig();
    tp::ModelChecker checker(r.ms.get(),
                             tp::ModelChecker::OnViolation::kRecord);
    std::vector<std::unique_ptr<ddc::ExecutionContext>> ctxs;
    std::vector<oltp::YcsbResult> results(kSessions);
    {
      std::vector<std::unique_ptr<sim::CoopTask>> tasks;
      for (int s = 0; s < kSessions; ++s) {
        ctxs.push_back(r.ms->CreateContext(Pool::kCompute, 0, s));
      }
      sim::Interleaver il;
      for (int s = 0; s < kSessions; ++s) {
        ddc::ExecutionContext* ctx = ctxs[static_cast<size_t>(s)].get();
        auto* mgr = r.mgr.get();
        tasks.push_back(std::make_unique<sim::CoopTask>(
            std::vector<ddc::ExecutionContext*>{ctx},
            [ctx, mgr, &cfg, &results, s] {
              results[static_cast<size_t>(s)] =
                  RunYcsbSession(*ctx, *mgr, cfg, s);
            },
            /*quantum=*/4));
        il.Add(tasks.back().get());
      }
      sim::RandomSchedule schedule(seed);
      il.set_schedule(&schedule);
      il.Run();
    }
    uint64_t commits = 0;
    for (const oltp::YcsbResult& res : results) {
      EXPECT_EQ(res.gave_up, 0u);
      commits ^= res.commit_digest;
    }
    EXPECT_EQ(commits, golden_commits) << "seed " << seed;
    EXPECT_EQ(r.tree->ContentDigest(*r.ctx), golden_content)
        << "final table content diverged under seed " << seed;
    EXPECT_EQ(checker.Finish(), 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace teleport
