#include "bench/micro.h"

#include <gtest/gtest.h>

#include <string>

namespace teleport::bench {
namespace {

MicroConfig TinyConfig() {
  MicroConfig cfg;
  cfg.region_bytes = 8 << 20;
  cfg.cache_bytes = 512 << 10;
  cfg.accesses = 5'000;
  cfg.write_fraction = 0.3;
  return cfg;
}

TEST(MicroTest, Deterministic) {
  const MicroConfig cfg = TinyConfig();
  const MicroResult a = RunMicro(cfg, MicroScenario::kPushCoherence);
  const MicroResult b = RunMicro(cfg, MicroScenario::kPushCoherence);
  EXPECT_EQ(a.time_ns, b.time_ns);
  EXPECT_EQ(a.coherence_messages, b.coherence_messages);
}

TEST(MicroTest, LocalIsFastestBaseDdcSlowest) {
  const MicroConfig cfg = TinyConfig();
  const MicroResult local = RunMicro(cfg, MicroScenario::kLocal);
  const MicroResult base = RunMicro(cfg, MicroScenario::kBaseDdc);
  const MicroResult coherent = RunMicro(cfg, MicroScenario::kPushCoherence);
  EXPECT_LT(local.time_ns, coherent.time_ns);
  EXPECT_LT(coherent.time_ns, base.time_ns);
}

TEST(MicroTest, Fig6OrderingOnTinyConfig) {
  MicroConfig cfg = TinyConfig();
  cfg.region_bytes = 32 << 20;
  cfg.cache_bytes = 2 << 20;
  const Nanos full =
      RunMicro(cfg, MicroScenario::kPushFullProcess).time_ns;
  const Nanos per_thread =
      RunMicro(cfg, MicroScenario::kPushPerThread).time_ns;
  const Nanos coherent =
      RunMicro(cfg, MicroScenario::kPushCoherence).time_ns;
  EXPECT_LT(coherent, per_thread);
  EXPECT_LT(per_thread, full);
}

TEST(MicroTest, ContentionGeneratesMessagesOnlyUnderDefaultProtocol) {
  MicroConfig cfg = TinyConfig();
  cfg.contention_rate = 0.02;
  const MicroResult def = RunMicro(cfg, MicroScenario::kPushCoherence);
  const MicroResult wo = RunMicro(cfg, MicroScenario::kPushWeakOrdering);
  EXPECT_GT(def.coherence_messages, 20u);
  EXPECT_EQ(wo.coherence_messages, 0u);
}

TEST(MicroTest, MoreContentionMoreMessages) {
  MicroConfig low = TinyConfig();
  low.contention_rate = 0.001;
  MicroConfig high = TinyConfig();
  high.contention_rate = 0.05;
  EXPECT_LT(RunMicro(low, MicroScenario::kPushCoherence).coherence_messages,
            RunMicro(high, MicroScenario::kPushCoherence).coherence_messages);
}

TEST(MicroTest, LocalPlatformHasNoNetworkTraffic) {
  const MicroResult r = RunMicro(TinyConfig(), MicroScenario::kLocal);
  EXPECT_EQ(r.net_messages, 0u);
  EXPECT_EQ(r.remote_bytes, 0u);
}

TEST(MicroTest, FalseSharingPingPongsOnlyWithCoherence) {
  MicroConfig cfg = TinyConfig();
  cfg.false_sharing = true;
  cfg.contention_rate = 0.02;
  const MicroResult coherent = RunMicro(cfg, MicroScenario::kPushCoherence);
  const MicroResult manual =
      RunMicro(cfg, MicroScenario::kPushNoCoherenceSyncmem);
  EXPECT_GT(coherent.coherence_messages, 10 * (manual.coherence_messages + 1));
  EXPECT_LE(manual.time_ns, coherent.time_ns);
}

TEST(MicroTest, PsoEliminatesReaderWriterPingPong) {
  MicroConfig cfg = TinyConfig();
  cfg.contention_rate = 0.02;
  cfg.reader_writer = true;  // compute reads, pushed thread writes
  // Subtract the contention-free floor (region-page coherence) so the
  // comparison isolates the contention-attributable traffic.
  MicroConfig quiet = cfg;
  quiet.contention_rate = 0;
  const uint64_t mesi_floor =
      RunMicro(quiet, MicroScenario::kPushCoherence).coherence_messages;
  const uint64_t pso_floor =
      RunMicro(quiet, MicroScenario::kPushPso).coherence_messages;
  const MicroResult mesi = RunMicro(cfg, MicroScenario::kPushCoherence);
  const MicroResult pso = RunMicro(cfg, MicroScenario::kPushPso);
  const uint64_t mesi_contention = mesi.coherence_messages - mesi_floor;
  const uint64_t pso_contention = pso.coherence_messages - pso_floor;
  EXPECT_LT(pso_contention, mesi_contention / 2 + 8);
  EXPECT_LE(pso.time_ns, mesi.time_ns);
}

// Exact outputs of every scenario on the default (kIdeal) fabric backend.
// The figures print times to 0.1 ms, so this is what locks the pushdown
// path's timing, messages and bytes to the nanosecond.
TEST(MicroTest, ExactOutputsOnTinyConfigs) {
  struct Golden {
    MicroScenario scenario;
    Nanos time_ns;
    uint64_t coherence_messages;
    uint64_t net_messages;
    uint64_t remote_bytes;
  };
  MicroConfig rw = TinyConfig();
  rw.contention_rate = 0.02;
  rw.reader_writer = true;
  const struct {
    MicroConfig cfg;
    Golden rows[8];
  } cases[] = {
      {TinyConfig(),
       {{MicroScenario::kLocal, 498'432, 0, 0, 0},
        {MicroScenario::kBaseDdc, 21'538'962, 0, 10'890, 25'280'512},
        {MicroScenario::kPushFullProcess, 2'178'584, 0, 168, 675'840},
        {MicroScenario::kPushPerThread, 927'486, 0, 40, 151'552},
        {MicroScenario::kPushCoherence, 930'950, 160, 162, 139'264},
        {MicroScenario::kPushPso, 930'950, 160, 162, 139'264},
        {MicroScenario::kPushWeakOrdering, 661'620, 0, 2, 0},
        {MicroScenario::kPushNoCoherenceSyncmem, 555'895, 0, 3, 151'552}}},
      {rw,
       {{MicroScenario::kLocal, 507'550, 0, 0, 0},
        {MicroScenario::kBaseDdc, 21'830'017, 0, 11'041, 25'821'184},
        {MicroScenario::kPushFullProcess, 2'191'994, 0, 168, 675'840},
        {MicroScenario::kPushPerThread, 936'604, 0, 40, 151'552},
        {MicroScenario::kPushCoherence, 1'052'901, 274, 276, 229'376},
        {MicroScenario::kPushPso, 987'423, 190, 192, 143'360},
        {MicroScenario::kPushWeakOrdering, 670'738, 0, 2, 0},
        {MicroScenario::kPushNoCoherenceSyncmem, 565'013, 0, 3, 151'552}}},
  };
  for (const auto& c : cases) {
    for (const Golden& g : c.rows) {
      SCOPED_TRACE(std::string(MicroScenarioToString(g.scenario)) +
                   (c.cfg.reader_writer ? " (reader-writer)" : ""));
      const MicroResult r = RunMicro(c.cfg, g.scenario);
      EXPECT_EQ(r.time_ns, g.time_ns);
      EXPECT_EQ(r.coherence_messages, g.coherence_messages);
      EXPECT_EQ(r.net_messages, g.net_messages);
      EXPECT_EQ(r.remote_bytes, g.remote_bytes);
    }
  }
}

TEST(MicroTest, ScenarioNamesAreStable) {
  EXPECT_EQ(MicroScenarioToString(MicroScenario::kLocal), "Local");
  EXPECT_EQ(MicroScenarioToString(MicroScenario::kPushCoherence),
            "TELEPORT(coherence)");
  EXPECT_EQ(MicroScenarioToString(MicroScenario::kPushWeakOrdering),
            "TELEPORT(relaxed)");
}

}  // namespace
}  // namespace teleport::bench
