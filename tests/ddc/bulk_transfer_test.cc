// Lock for the bulk page-transfer paths: Syncmem, FlushRange(drop) followed
// by BulkRefetch, and FlushAllCache on a 2x2 rack with data on both
// shards, under each fabric backend. The pool is small enough that flushes
// re-admit pages whose pool copies were evicted, and both compute nodes
// hold pages of both shards. Every step's clock, fabric metrics and the
// fabric's per-kind and queueing breakdowns must match the recorded
// transcript exactly.

#include <cstdint>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "ddc/memory_system.h"

namespace teleport::ddc {
namespace {

constexpr uint64_t kPage = 4096;
constexpr uint64_t kPages = 32;  // pages 0-15 on shard 0, 16-31 on shard 1

void Record(std::ostringstream& os, const char* step,
            const ExecutionContext& ctx) {
  const sim::Metrics& m = ctx.metrics();
  os << step << " t=" << ctx.now() << " msgs=" << m.net_messages
     << " bytes=" << m.net_bytes << " to=" << m.bytes_to_memory_pool
     << " from=" << m.bytes_from_memory_pool
     << " queued=" << m.netq_queued_sends << "/" << m.netq_queue_wait_ns
     << " doorbells=" << m.netq_doorbells << "/"
     << m.netq_doorbells_coalesced << " sg=" << m.netq_sg_segments
     << " nic=" << m.netq_smartnic_offloads << "\n";
}

std::string Transcript(net::Backend backend) {
  DdcConfig c;
  c.platform = Platform::kBaseDdc;
  c.compute_nodes = 2;
  c.memory_shards = 2;
  c.compute_cache_bytes = 8 * kPage;
  c.memory_pool_bytes = 12 * kPage;  // 6 pages per shard
  MemorySystem ms(c, sim::CostParams::Default(), kPages * kPage);
  ms.fabric().set_backend(backend);
  const VAddr a = ms.space().Alloc(kPages * kPage, "d");
  ms.SeedData();
  auto n0 = ms.CreateContext(Pool::kCompute, 0);
  auto n1 = ms.CreateContext(Pool::kCompute, 1);
  auto page = [a](uint64_t p) { return a + p * kPage; };

  // Node 0 dirties pages on both shards and reads a few more; node 1 then
  // faults enough shard-0 pages to push node 0's pool copies out.
  for (const uint64_t p : {1, 7, 9, 17, 25}) {
    n0->Store<int64_t>(page(p), static_cast<int64_t>(p));
  }
  for (const uint64_t p : {3, 20, 27}) (void)n0->Load<int64_t>(page(p));
  n1->Store<int64_t>(page(11), 11);
  n1->Store<int64_t>(page(29), 29);
  for (const uint64_t p : {13, 14, 15}) (void)n1->Load<int64_t>(page(p));
  EXPECT_FALSE(ms.in_memory_pool(1));
  EXPECT_FALSE(ms.in_memory_pool(7));
  EXPECT_TRUE(ms.in_memory_pool(17));

  std::ostringstream os;
  Record(os, "setup", *n0);
  ms.Syncmem(*n0, a, kPages * kPage);
  Record(os, "syncmem", *n0);

  n0->Store<int64_t>(page(3), 3);
  n0->Store<int64_t>(page(20), 20);
  const uint64_t moved = ms.FlushRange(*n0, a, kPages * kPage, /*drop=*/true);
  os << "moved=" << moved << " cached0=" << ms.cache_pages_used_on(0) << "\n";
  Record(os, "flush", *n0);
  ms.BulkRefetch(*n0, moved);
  os << "cached0=" << ms.cache_pages_used_on(0) << "\n";
  Record(os, "refetch", *n0);

  os << "flushall=" << ms.FlushAllCache(*n1, /*drop=*/false)
     << " cached1=" << ms.cache_pages_used_on(1)
     << " pool=" << ms.memory_pool_pages_used_on(0) << "/"
     << ms.memory_pool_pages_used_on(1) << "\n";
  Record(os, "flushall", *n1);
  os << ms.fabric().KindBreakdownToString() << "\n"
     << ms.fabric().QueueBreakdownToString() << "\n";
  return os.str();
}

TEST(BulkTransferTest, IdealBackend) {
  // kIdeal streams the eager flush and refill in closed form (no fabric
  // messages); Syncmem still sends one gather per shard.
  EXPECT_EQ(Transcript(net::Backend::kIdeal),
            "setup t=552024 msgs=16 bytes=33792 to=0 from=32768 queued=0/0 "
            "doorbells=0/0 sg=0 nic=0\n"
            "syncmem t=585888 msgs=18 bytes=54400 to=20480 from=32768 "
            "queued=0/0 doorbells=0/0 sg=0 nic=0\n"
            "moved=8 cached0=0\n"
            "flush t=613862 msgs=21 bytes=62656 to=28672 from=32768 "
            "queued=0/0 doorbells=0/0 sg=0 nic=0\n"
            "cached0=8\n"
            "refetch t=659743 msgs=29 bytes=95424 to=28672 from=65536 "
            "queued=0/0 doorbells=0/0 sg=0 nic=0\n"
            "flushall=5 cached1=5 pool=6/6\n"
            "flushall t=509885 msgs=13 bytes=29376 to=8192 from=20480 "
            "queued=0/0 doorbells=0/0 sg=0 nic=0\n"
            "fabric{PageFaultRequest=13/832B PageFaultReply=13/54080B "
            "Syncmem=2/20608B}\n"
            "fabricq{}\n");
}

// The contended backends ride every bulk transfer over the fabric: one
// scatter-gather verb per shard. No coherence traffic runs here, so the
// SmartNIC backend charges exactly what queued RDMA does.
constexpr const char* kQueuedTranscript =
    "setup t=556024 msgs=16 bytes=33792 to=0 from=32768 queued=0/0 "
    "doorbells=16/0 sg=0 nic=0\n"
    "syncmem t=885097 msgs=18 bytes=54400 to=20480 from=32768 "
    "queued=2/590100 doorbells=18/0 sg=7 nic=0\n"
    "moved=8 cached0=0\n"
    "flush t=913063 msgs=21 bytes=62656 to=28672 from=32768 "
    "queued=3/590427 doorbells=20/0 sg=9 nic=0\n"
    "cached0=8\n"
    "refetch t=958163 msgs=29 bytes=95424 to=28672 from=65536 "
    "queued=4/591737 doorbells=22/0 sg=17 nic=0\n"
    "flushall=5 cached1=5 pool=6/6\n"
    "flushall t=928046 msgs=13 bytes=29376 to=8192 from=20480 "
    "queued=4/440889 doorbells=12/0 sg=2 nic=0\n"
    "fabric{PageFaultRequest=13/832B PageFaultReply=15/86848B "
    "PageReturn=4/16384B Syncmem=2/20608B}\n"
    "fabricq{PageFaultRequest=2/389793ns/peak1 PageFaultReply=1/1310ns/peak1 "
    "PageReturn=3/51423ns/peak1 Syncmem=2/590100ns/peak1 doorbells=34+0c "
    "sg=8/19seg}\n";

TEST(BulkTransferTest, QueuedRdmaBackend) {
  EXPECT_EQ(Transcript(net::Backend::kQueuedRdma), kQueuedTranscript);
}

TEST(BulkTransferTest, SmartNicBackend) {
  EXPECT_EQ(Transcript(net::Backend::kSmartNic), kQueuedTranscript);
}

}  // namespace
}  // namespace teleport::ddc
