#include "graph/graph.h"

#include <algorithm>
#include <cstdlib>
#include <new>
#include <vector>

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

namespace teleport::graph {
namespace {

ddc::DdcConfig LocalConfig() {
  ddc::DdcConfig c;
  c.platform = ddc::Platform::kLocal;
  return c;
}

GraphConfig SmallConfig() {
  GraphConfig c;
  c.vertices = 5'000;
  c.avg_degree = 8;
  return c;
}

class GraphGenTest : public ::testing::Test {
 protected:
  GraphGenTest()
      : ms_(LocalConfig(), sim::CostParams::Default(), 64 << 20),
        g_(GenerateGraph(&ms_, SmallConfig())) {}

  const int64_t* Offsets() const {
    return static_cast<const int64_t*>(
        const_cast<ddc::MemorySystem&>(ms_).space().HostPtr(
            g_.offsets, (g_.vertices + 1) * 8));
  }
  const int64_t* Targets() const {
    return static_cast<const int64_t*>(
        const_cast<ddc::MemorySystem&>(ms_).space().HostPtr(g_.targets,
                                                            g_.edges * 8));
  }
  const int64_t* Weights() const {
    return static_cast<const int64_t*>(
        const_cast<ddc::MemorySystem&>(ms_).space().HostPtr(g_.weights,
                                                            g_.edges * 8));
  }

  ddc::MemorySystem ms_;
  Graph g_;
};

TEST_F(GraphGenTest, CsrIsWellFormed) {
  EXPECT_EQ(g_.vertices, 5'000u);
  EXPECT_EQ(g_.edges, (g_.vertices - 1) * 8);
  const int64_t* off = Offsets();
  EXPECT_EQ(off[0], 0);
  for (uint64_t v = 0; v < g_.vertices; ++v) ASSERT_LE(off[v], off[v + 1]);
  EXPECT_EQ(off[g_.vertices], static_cast<int64_t>(g_.edges));
  const int64_t* tgt = Targets();
  for (uint64_t e = 0; e < g_.edges; ++e) {
    ASSERT_GE(tgt[e], 0);
    ASSERT_LT(tgt[e], static_cast<int64_t>(g_.vertices));
  }
}

TEST_F(GraphGenTest, WeightsInRange) {
  const int64_t* w = Weights();
  for (uint64_t e = 0; e < g_.edges; ++e) {
    ASSERT_GE(w[e], 1);
    ASSERT_LE(w[e], SmallConfig().max_weight);
  }
}

TEST_F(GraphGenTest, EveryVertexReachableFromZero) {
  // BFS over the host CSR; the guaranteed chain edge makes the graph
  // connected from vertex 0.
  const int64_t* off = Offsets();
  const int64_t* tgt = Targets();
  std::vector<bool> seen(g_.vertices, false);
  std::vector<uint64_t> stack = {0};
  seen[0] = true;
  uint64_t visited = 1;
  while (!stack.empty()) {
    const uint64_t v = stack.back();
    stack.pop_back();
    for (int64_t e = off[v]; e < off[v + 1]; ++e) {
      const auto t = static_cast<uint64_t>(tgt[e]);
      if (!seen[t]) {
        seen[t] = true;
        ++visited;
        stack.push_back(t);
      }
    }
  }
  EXPECT_EQ(visited, g_.vertices);
}

TEST_F(GraphGenTest, DegreeDistributionIsSkewed) {
  // Preferential attachment: in-degree max far exceeds the average.
  std::vector<uint64_t> indeg(g_.vertices, 0);
  const int64_t* tgt = Targets();
  for (uint64_t e = 0; e < g_.edges; ++e) {
    ++indeg[static_cast<uint64_t>(tgt[e])];
  }
  const uint64_t max_indeg = *std::max_element(indeg.begin(), indeg.end());
  const double avg =
      static_cast<double>(g_.edges) / static_cast<double>(g_.vertices);
  EXPECT_GT(static_cast<double>(max_indeg), 10 * avg);
}

TEST_F(GraphGenTest, DeterministicInSeed) {
  ddc::MemorySystem ms2(LocalConfig(), sim::CostParams::Default(), 64 << 20);
  const Graph g2 = GenerateGraph(&ms2, SmallConfig());
  ASSERT_EQ(g2.edges, g_.edges);
  const int64_t* a = Targets();
  const int64_t* b = static_cast<const int64_t*>(
      ms2.space().HostPtr(g2.targets, g2.edges * 8));
  for (uint64_t e = 0; e < g_.edges; ++e) ASSERT_EQ(a[e], b[e]);
}

TEST_F(GraphGenTest, EstimateCoversAllocation) {
  EXPECT_GE(EstimateGraphBytes(SmallConfig()) + 3 * 4096,
            g_.TotalBytes());
}

uint64_t HostAllocationsToGenerate(uint64_t vertices) {
  GraphConfig c;
  c.vertices = vertices;
  c.avg_degree = 12;
  ddc::MemorySystem ms(LocalConfig(), sim::CostParams::Default(),
                       EstimateGraphBytes(c) + 3 * 4096);
  g_allocations = 0;
  g_count_allocations = true;
  GenerateGraph(&ms, c);
  g_count_allocations = false;
  return g_allocations;
}

TEST(GraphGenAllocationTest, HostAllocationCountIsIndependentOfSize) {
  // Staging goes through a fixed set of presized host buffers, never one
  // container per vertex: freed per-vertex blocks would raise the heap's
  // high-water mark for every later dataset in the process.
  EXPECT_EQ(HostAllocationsToGenerate(500), HostAllocationsToGenerate(50'000));
}

}  // namespace
}  // namespace teleport::graph
