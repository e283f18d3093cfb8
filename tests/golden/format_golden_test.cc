// Golden-string locks for text formats that downstream tooling parses
// (bench banners, EXPERIMENTS.md extraction, log scrapers). These compare
// full output strings byte-for-byte: any accidental reordering, renamed
// counter, or changed separator fails loudly here instead of silently
// breaking a dashboard regex.

#include <string>

#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "ddc/memory_system.h"
#include "net/fabric.h"
#include "sim/cost_model.h"
#include "oltp/txn.h"
#include "sim/metrics.h"
#include "sim/tracer.h"
#include "teleport/pushdown.h"

namespace teleport {
namespace {

// --- Fabric per-kind breakdown ----------------------------------------------

TEST(FormatGoldenTest, FabricKindBreakdownEmpty) {
  net::Fabric fabric(sim::CostParams::Default());
  EXPECT_EQ(fabric.KindBreakdownToString(), "fabric{}");
}

TEST(FormatGoldenTest, FabricKindBreakdownSkipsZeroKindsAndKeepsEnumOrder) {
  net::Fabric fabric(sim::CostParams::Default());
  // Drive known traffic through the public send APIs; kinds with zero
  // messages must be omitted and the rest printed in enum order.
  fabric.SendToMemory(net::Link{}, 0, 64, net::MessageKind::kPushdownRequest);
  fabric.SendToCompute(net::Link{}, 0, 4096, net::MessageKind::kPageFaultReply);
  fabric.SendToCompute(net::Link{}, 0, 4096, net::MessageKind::kPageFaultReply);
  fabric.SendToMemory(net::Link{}, 0, 128, net::MessageKind::kSyncmem);
  EXPECT_EQ(fabric.KindBreakdownToString(),
            "fabric{PushdownRequest=1/64B PageFaultReply=2/8192B "
            "Syncmem=1/128B}");
}

TEST(FormatGoldenTest, FabricKindBreakdownResetsClean) {
  net::Fabric fabric(sim::CostParams::Default());
  fabric.SendToMemory(net::Link{}, 0, 64, net::MessageKind::kHeartbeat);
  fabric.Reset();
  EXPECT_EQ(fabric.KindBreakdownToString(), "fabric{}");
}

// --- Fabric queue breakdown (PR9 contended backends) -------------------------

TEST(FormatGoldenTest, FabricQueueBreakdownEmptyAndIdeal) {
  sim::CostParams p;
  p.net_latency_ns = 1000;
  p.net_bytes_per_ns = 1.0;
  net::Fabric fabric(p);
  EXPECT_EQ(fabric.QueueBreakdownToString(), "fabricq{}");
  // kIdeal never touches the queue machinery, no matter the traffic.
  fabric.SendToMemory(net::Link{}, 0, 4096,
                      net::MessageKind::kPageFaultRequest);
  EXPECT_EQ(fabric.QueueBreakdownToString(), "fabricq{}");
}

TEST(FormatGoldenTest, FabricQueueBreakdownQueuedShape) {
  sim::CostParams p;
  p.net_latency_ns = 1000;
  p.net_bytes_per_ns = 1.0;
  net::Fabric fabric(p);
  fabric.set_backend(net::Backend::kQueuedRdma);
  // First send posts a doorbell and sails through (wait 0, depth 1); the
  // second coalesces onto it and waits out the first's 500 ns of link
  // service starting from t=100 (wait 650, depth 2). Kinds print in enum
  // order; zero-wait kinds still show their peak depth.
  fabric.SendToMemory(net::Link{}, 0, 500, net::MessageKind::kPageFaultRequest);
  fabric.SendToMemory(net::Link{}, 100, 500, net::MessageKind::kPageReturn);
  EXPECT_EQ(fabric.QueueBreakdownToString(),
            "fabricq{PageFaultRequest=0/0ns/peak1 PageReturn=1/650ns/peak2 "
            "doorbells=1+1c}");
  fabric.Reset();
  EXPECT_EQ(fabric.QueueBreakdownToString(), "fabricq{}");
}

TEST(FormatGoldenTest, FabricQueueBreakdownSmartNicShape) {
  sim::CostParams p;
  p.net_latency_ns = 1000;
  p.net_bytes_per_ns = 1.0;
  net::Fabric fabric(p);
  fabric.set_backend(net::Backend::kSmartNic);
  // A two-segment gather rides one doorbell; the coherence probe behind it
  // coalesces, queues behind the gather's 500 ns of link service, and is
  // NIC-offloaded.
  fabric.SendGatherToMemory(net::Link{}, 0, {64, 436},
                            net::MessageKind::kSyncmem);
  fabric.SendToMemory(net::Link{}, 0, 64, net::MessageKind::kCoherenceRequest);
  EXPECT_EQ(fabric.QueueBreakdownToString(),
            "fabricq{CoherenceRequest=1/750ns/peak2 Syncmem=0/0ns/peak1 "
            "doorbells=1+1c sg=1/2seg offloads=1}");
}

// --- Fabric backend names (TELEPORT_FABRIC_BACKEND vocabulary) ---------------

TEST(FormatGoldenTest, FabricBackendNames) {
  EXPECT_EQ(net::BackendToString(net::Backend::kIdeal), "ideal");
  EXPECT_EQ(net::BackendToString(net::Backend::kQueuedRdma), "queued_rdma");
  EXPECT_EQ(net::BackendToString(net::Backend::kSmartNic), "smartnic");
}

// --- sim::Metrics dump -------------------------------------------------------

TEST(FormatGoldenTest, MetricsToStringFullDump) {
  sim::Metrics m;
  m.cache_hits = 101;
  m.cache_misses = 7;
  m.cache_evictions = 5;
  m.dirty_writebacks = 3;
  m.net_messages = 40;
  m.net_bytes = 16384;
  m.bytes_from_memory_pool = 12288;
  m.bytes_to_memory_pool = 4096;
  m.memory_pool_hits = 6;
  m.memory_pool_faults = 1;
  m.storage_reads = 2;
  m.storage_writes = 1;
  m.coherence_messages = 9;
  m.coherence_invalidations = 4;
  m.coherence_downgrades = 2;
  m.coherence_page_returns = 3;
  m.pushdown_calls = 2;
  m.syncmem_pages = 8;
  m.fault_events = 11;
  m.retries = 5;
  m.fallbacks = 1;
  m.lost_pool_writes = 13;
  m.recovered_pool_writes = 12;
  m.journal_appends = 23;
  m.journal_flushes = 3;
  m.fenced_rpcs = 2;
  m.dedup_hits = 1;
  m.cpu_ops = 90210;
  EXPECT_EQ(m.ToString(),
            "cache: hits=101 misses=7 evictions=5 writebacks=3\n"
            "net: messages=40 bytes=16384 from_mem=12288 to_mem=4096\n"
            "memory pool: hits=6 faults=1\n"
            "storage: reads=2 writes=1\n"
            "coherence: messages=9 invalidations=4 downgrades=2 "
            "page_returns=3\n"
            "teleport: pushdowns=2 syncmem_pages=8\n"
            "resilience: fault_events=11 retries=5 fallbacks=1 "
            "lost_pool_writes=13\n"
            "recovery: recovered_pool_writes=12 journal_appends=23 "
            "journal_flushes=3 fenced_rpcs=2 dedup_hits=1\n"
            "cpu: ops=90210");
}

// The txn group only exists when the OLTP engine ran: a dump with any
// nonzero txn counter gains exactly one line between recovery and cpu,
// and an all-zero txn group is elided so every pre-OLTP golden (this
// file's MetricsToStringFullDump included) stays byte-identical.
TEST(FormatGoldenTest, MetricsTxnGroupLineAndElision) {
  sim::Metrics m;
  const std::string before = m.ToString();
  EXPECT_EQ(before.find("txn:"), std::string::npos)
      << "all-zero txn group must be elided";

  m.txn_commits = 40;
  m.txn_aborts = 6;
  m.txn_retries = 6;
  m.txn_reads_validated = 120;
  m.txn_undo_writes = 9;
  m.btree_splits = 3;
  m.btree_merges = 1;
  // The group slots in between the recovery and cpu lines.
  EXPECT_NE(m.ToString().find(
                "dedup_hits=0\n"
                "txn: commits=40 aborts=6 retries=6 reads_validated=120 "
                "undo_writes=9 node_splits=3 node_merges=1\n"
                "cpu: ops=0"),
            std::string::npos)
      << m.ToString();
  // And it is the only difference from the elided dump.
  sim::Metrics zeroed = m;
  zeroed.txn_commits = zeroed.txn_aborts = zeroed.txn_retries = 0;
  zeroed.txn_reads_validated = zeroed.txn_undo_writes = 0;
  zeroed.btree_splits = zeroed.btree_merges = 0;
  EXPECT_EQ(zeroed.ToString(), before);

  // Any single nonzero counter resurrects the whole group (labels at zero
  // still print, so dashboard regexes never see a partial line).
  sim::Metrics one;
  one.btree_merges = 2;
  EXPECT_NE(one.ToString().find(
                "txn: commits=0 aborts=0 retries=0 reads_validated=0 "
                "undo_writes=0 node_splits=0 node_merges=2"),
            std::string::npos)
      << one.ToString();
}

// Like txn, the netq group only exists when a contended fabric backend
// (non-kIdeal) ran: the line slots in between net and memory pool, and the
// all-zero group is elided so every kIdeal golden — MetricsToStringFullDump
// included — stays byte-identical.
TEST(FormatGoldenTest, MetricsNetqGroupLineAndElision) {
  sim::Metrics m;
  const std::string before = m.ToString();
  EXPECT_EQ(before.find("netq:"), std::string::npos)
      << "all-zero netq group must be elided";

  m.netq_queued_sends = 12;
  m.netq_queue_wait_ns = 34567;
  m.netq_doorbells = 9;
  m.netq_doorbells_coalesced = 21;
  m.netq_sg_segments = 6;
  m.netq_smartnic_offloads = 4;
  EXPECT_NE(m.ToString().find(
                "net: messages=0 bytes=0 from_mem=0 to_mem=0\n"
                "netq: queued_sends=12 queue_wait_ns=34567 doorbells=9 "
                "doorbells_coalesced=21 sg_segments=6 smartnic_offloads=4\n"
                "memory pool: hits=0 faults=0"),
            std::string::npos)
      << m.ToString();
  // Eliding the group is the only difference from the zero dump.
  sim::Metrics zeroed;
  EXPECT_EQ(zeroed.ToString(), before);

  // Any single nonzero counter resurrects the whole line.
  sim::Metrics one;
  one.netq_doorbells = 1;
  EXPECT_NE(one.ToString().find(
                "netq: queued_sends=0 queue_wait_ns=0 doorbells=1 "
                "doorbells_coalesced=0 sg_segments=0 smartnic_offloads=0"),
            std::string::npos)
      << one.ToString();
}

// The resilience line is what the chaos dashboards grep for; lock it in
// the all-zero (fault-free) shape too.
TEST(FormatGoldenTest, MetricsResilienceLineFaultFree) {
  const sim::Metrics m;
  const std::string s = m.ToString();
  EXPECT_NE(s.find("resilience: fault_events=0 retries=0 fallbacks=0 "
                   "lost_pool_writes=0\n"),
            std::string::npos)
      << s;
  EXPECT_NE(s.find("recovery: recovered_pool_writes=0 journal_appends=0 "
                   "journal_flushes=0 fenced_rpcs=0 dedup_hits=0\n"),
            std::string::npos)
      << s;
}

// --- Pushdown breakdown ------------------------------------------------------

TEST(FormatGoldenTest, PushdownBreakdownToString) {
  tp::PushdownBreakdown bd;
  EXPECT_EQ(bd.ToString(),
            "pre_sync=0ms request=0ms queue=0ms setup=0ms exec=0ms "
            "online_sync=0ms response=0ms post_sync=0ms retry=0ms");
  bd.pre_sync_ns = 1 * kMillisecond;
  bd.function_exec_ns = 2500 * kMicrosecond;
  bd.retry_ns = 500 * kMicrosecond;
  EXPECT_EQ(bd.ToString(),
            "pre_sync=1ms request=0ms queue=0ms setup=0ms exec=2.5ms "
            "online_sync=0ms response=0ms post_sync=0ms retry=0.5ms");
}

// --- Chrome trace JSON shape (loaded by chrome://tracing / Perfetto) --------

TEST(FormatGoldenTest, TracerChromeJsonEmpty) {
  sim::Tracer t;
  EXPECT_EQ(
      t.ToChromeJson(),
      "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"compute\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"memory-pool\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":2,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"fabric\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":3,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"coherence\"}}\n"
      "]}\n");
}

TEST(FormatGoldenTest, TracerChromeJsonSpanAndInstant) {
  sim::Tracer t;
  t.Span("pushdown", "call", 1234567, 8901, sim::kTrackCompute, "\"call\":0");
  t.Instant("coherence", "Invalidate", 2000, sim::kTrackCoherence,
            "\"page\":7");
  const std::string json = t.ToChromeJson();
  // Event lines are byte-locked: integer-math microsecond rendering, span
  // dur, instant scope marker, args passthrough.
  EXPECT_NE(json.find("{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":1234.567,"
                      "\"dur\":8.901,\"cat\":\"pushdown\",\"name\":\"call\","
                      "\"args\":{\"call\":0}}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"ph\":\"i\",\"pid\":1,\"tid\":3,\"ts\":2.000,"
                      "\"s\":\"t\",\"cat\":\"coherence\","
                      "\"name\":\"Invalidate\",\"args\":{\"page\":7}}"),
            std::string::npos)
      << json;
}

// --- Per-phase rollup (Fig 19/20-style attribution tables) ------------------

TEST(FormatGoldenTest, TracerRollupFormat) {
  sim::Tracer t;
  t.Span("pushdown", "call", 0, 100, sim::kTrackCompute);
  t.Span("pushdown", "call", 100, 100, sim::kTrackCompute);
  t.Span("db", "Scan", 0, 8, sim::kTrackCompute);
  // Keys sorted, one line each, histogram summary after ": ". All-equal
  // span durations report exact percentiles (the PR4 histogram fix).
  EXPECT_EQ(t.RollupToString(),
            "db/Scan: count=1 mean=8 p50=8 p99=8 max=8\n"
            "pushdown/call: count=2 mean=100 p50=100 p99=100 max=100");
  EXPECT_EQ(sim::Tracer().RollupToString(), "");
}

// --- Bench JSONL records (concatenated into BENCH_PR5.json by CI) -----------

TEST(FormatGoldenTest, BenchRecordJsonLine) {
  bench::BenchRecord r;
  r.figure = "fig20";
  r.workload = "on_demand";
  r.platform = "TELEPORT";
  r.virtual_ns = 8333226;
  r.wall_ns = 41250;
  r.remote_memory_bytes = 100663296;
  r.trace = "traces/fig20_on_demand.trace.json";
  EXPECT_EQ(bench::BenchRecordToJson(r),
            "{\"figure\":\"fig20\",\"workload\":\"on_demand\","
            "\"platform\":\"TELEPORT\",\"virtual_ns\":8333226,"
            "\"wall_ns\":41250,"
            "\"remote_memory_bytes\":100663296,"
            "\"trace\":\"traces/fig20_on_demand.trace.json\"}");
  // Quotes and backslashes in fields are escaped, not framing-breaking.
  bench::BenchRecord esc;
  esc.figure = "f\"1\\2";
  EXPECT_EQ(bench::BenchRecordToJson(esc),
            "{\"figure\":\"f\\\"1\\\\2\",\"workload\":\"\",\"platform\":\"\","
            "\"virtual_ns\":0,\"wall_ns\":0,\"remote_memory_bytes\":0,"
            "\"trace\":\"\"}");
}

// --- Coherence-event names (consumed by trace dumps / replay tooling) -------

TEST(FormatGoldenTest, CoherenceEventKindNames) {
  using K = ddc::CoherenceEvent::Kind;
  EXPECT_EQ(ddc::CoherenceEventKindToString(K::kSessionBegin), "SessionBegin");
  EXPECT_EQ(ddc::CoherenceEventKindToString(K::kSessionEnd), "SessionEnd");
  EXPECT_EQ(ddc::CoherenceEventKindToString(K::kComputeAccess),
            "ComputeAccess");
  EXPECT_EQ(ddc::CoherenceEventKindToString(K::kMemoryAccess), "MemoryAccess");
  EXPECT_EQ(ddc::CoherenceEventKindToString(K::kComputeEvict), "ComputeEvict");
  EXPECT_EQ(ddc::CoherenceEventKindToString(K::kPrefetchFill), "PrefetchFill");
  EXPECT_EQ(ddc::CoherenceEventKindToString(K::kSyncmemPage), "SyncmemPage");
  EXPECT_EQ(ddc::CoherenceEventKindToString(K::kFlushPage), "FlushPage");
  EXPECT_EQ(ddc::CoherenceEventKindToString(K::kRefetchPage), "RefetchPage");
  EXPECT_EQ(ddc::CoherenceEventKindToString(K::kPoolRestart), "PoolRestart");
  EXPECT_EQ(ddc::CoherenceEventKindToString(K::kPoolRecover), "PoolRecover");
  EXPECT_EQ(ddc::CoherenceEventKindToString(K::kJournalCommit),
            "JournalCommit");
  EXPECT_EQ(ddc::CoherenceEventKindToString(K::kJournalTruncate),
            "JournalTruncate");
  EXPECT_EQ(ddc::CoherenceEventKindToString(K::kPushdownAdmit),
            "PushdownAdmit");
  // PR8 transactional events (model-checker invariant #7 vocabulary).
  EXPECT_EQ(ddc::CoherenceEventKindToString(K::kTxnRead), "TxnRead");
  EXPECT_EQ(ddc::CoherenceEventKindToString(K::kTxnWrite), "TxnWrite");
  EXPECT_EQ(ddc::CoherenceEventKindToString(K::kTxnCommit), "TxnCommit");
  EXPECT_EQ(ddc::CoherenceEventKindToString(K::kTxnAbort), "TxnAbort");
  EXPECT_EQ(ddc::CoherenceEventKindToString(K::kTxnUndo), "TxnUndo");
}

// --- OLTP trace vocabulary (grepped out of Chrome traces by tooling) --------

TEST(FormatGoldenTest, OltpTraceEventNames) {
  EXPECT_STREQ(oltp::kTraceCategory, "oltp");
  EXPECT_STREQ(oltp::kTraceCommit, "TxnCommit");
  EXPECT_STREQ(oltp::kTraceAbort, "TxnAbort");
}

}  // namespace
}  // namespace teleport
