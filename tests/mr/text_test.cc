#include "mr/text.h"

#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

// Counting replacement of the global allocation functions, forwarding to
// malloc/free. Counting is switched on only around the call under test.
namespace {
bool g_count_allocations = false;
uint64_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t n) {
  if (g_count_allocations) ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace teleport::mr {
namespace {

uint64_t HostAllocationsToGenerate(uint64_t bytes) {
  TextConfig c;
  c.bytes = bytes;
  ddc::DdcConfig local;
  local.platform = ddc::Platform::kLocal;
  ddc::MemorySystem ms(local, sim::CostParams::Default(), bytes + 4096);
  g_allocations = 0;
  g_count_allocations = true;
  GenerateText(&ms, c);
  g_count_allocations = false;
  return g_allocations;
}

TEST(TextGenAllocationTest, HostAllocationCountIsIndependentOfSize) {
  // Staging goes through a fixed set of presized host buffers: the spelled
  // vocabulary and the chunks' kept ranks, sized before any chunk runs.
  // A chunk that allocated would give its thread a malloc arena of its own.
  // Both corpora take one round of chunks. The first generation in a
  // process also sets up state the process keeps, so one runs uncounted.
  HostAllocationsToGenerate(4 << 10);
  const uint64_t small = HostAllocationsToGenerate(64 << 10);
  EXPECT_EQ(small, HostAllocationsToGenerate(4 << 20));
}

}  // namespace
}  // namespace teleport::mr
