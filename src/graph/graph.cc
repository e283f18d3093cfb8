#include "graph/graph.h"

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "sim/parallel.h"

namespace teleport::graph {

namespace {

/// `a` if `pick`, else `b`, without a branch. GCC 12 -O3 turns most of
/// the draw loop's ternaries on the random coins into branches, which
/// mispredict half the time; with these masks the whole generator takes
/// about a fifth less time.
uint32_t Select(bool pick, uint32_t a, uint32_t b) {
  const uint32_t mask = 0u - static_cast<uint32_t>(pick);
  return (a & mask) | (b & ~mask);
}

ddc::DatasetKey GraphKey(const GraphConfig& c) {
  static_assert(sizeof(GraphConfig) == 4 * sizeof(uint64_t),
                "a GraphConfig field is missing from GraphKey");
  return {"graph",
          {c.vertices, c.avg_degree, c.seed,
           static_cast<uint64_t>(c.max_weight)}};
}

/// Draws the edges into g's three staged regions: the offsets, which Alloc
/// left zero, and the targets and weights, which it writes whole.
void DrawGraph(ddc::AddressSpace& space, const Graph& g,
               const GraphConfig& config) {
  const uint64_t v_count = g.vertices;
  const uint64_t deg = config.avg_degree;
  const uint64_t edges = g.edges;

  // Host-side edge list (untimed; this is data generation).
  // Preferential attachment: vertex v links to `deg` targets, each either a
  // uniformly random earlier vertex or the endpoint of a random existing
  // edge (which biases toward high-degree vertices). One guaranteed edge
  // v-1 -> v keeps the graph connected from vertex 0.
  //
  // Edges are kept in draw order in flat presized arrays, never in one
  // container per vertex: tens of thousands of freed small blocks would
  // raise the heap's high-water mark for every later dataset in the
  // process.
  // Left uninitialized: the draw writes each entry before it reads it,
  // except endpoint_pool[0], which it reads whenever a draw scales to 0.
  auto sources = std::make_unique_for_overwrite<uint32_t[]>(edges);
  auto weights = std::make_unique_for_overwrite<int32_t[]>(edges);
  // endpoint_pool[e + 1] is edge e's target.
  auto endpoint_pool = std::make_unique_for_overwrite<uint32_t[]>(edges + 1);
  endpoint_pool[0] = 0;
  const bool weighted = config.max_weight > 1;
  const uint64_t weight_draws = weighted ? 1 : 0;

  // Every vertex v >= 1 draws as many values: a weight for its chain edge,
  // then a coin, 64 bits, a coin and a weight for each other edge. So the
  // vertices split into chunks that each jump to their first draw. What
  // orders the edges is the endpoint pool alone, since an edge may pick
  // any earlier edge's target. So the chunks draw every edge's coins,
  // candidate and weight in parallel, parking the candidate in sources[e]
  // and the coins in endpoint_pool[e + 1]; one pass in edge order then
  // resolves them.
  const sim::RowChunks chunks(Rng(config.seed), v_count - 1,
                              weight_draws + (deg - 1) * (3 + weight_draws));
  sim::RunGeneratorChunks([&](size_t c) {
    Rng r = chunks.start(c);
    auto weight = [&] {
      return weighted ? 1 + static_cast<int32_t>(r.Uniform(
                                static_cast<uint64_t>(config.max_weight)))
                      : 1;
    };
    for (uint64_t v = 1 + chunks.begin(c); v < 1 + chunks.end(c); ++v) {
      const uint32_t self = static_cast<uint32_t>(v);
      uint64_t e = (v - 1) * deg;
      sources[e] = self - 1;
      weights[e] = weight();
      endpoint_pool[e + 1] = self;
      for (++e; e < v * deg; ++e) {
        // The other endpoint is an earlier vertex, either uniform or a
        // random endpoint of an existing edge (degree-biased). The edge
        // direction is random, so high-degree early vertices grow forward
        // shortcuts and the directed diameter stays logarithmic — like a
        // real social graph. Both candidates scale the same draw, so the
        // coin only selects between them.
        const bool uniform = r.Bernoulli(0.5);
        const uint64_t bits = r.Next();
        sources[e] = Select(uniform, static_cast<uint32_t>(Rng::Scale(bits, v)),
                            static_cast<uint32_t>(Rng::Scale(bits, e + 1)));
        const bool outward = r.Bernoulli(0.5);
        endpoint_pool[e + 1] = (uniform ? 1u : 0u) | (outward ? 2u : 0u);
        weights[e] = weight();
      }
    }
  });

  auto* off =
      static_cast<int64_t*>(space.HostPtr(g.offsets, (v_count + 1) * 8));
  // In edge order: each edge's other endpoint and direction, and the CSR's
  // out-degree counts (Alloc zero-filled off[]). The pool slot a pending
  // edge reads may be any earlier edge's, so the loop prefetches the one
  // edge e + kAhead is due to read.
  constexpr uint64_t kAhead = 16;
  for (uint64_t v = 1; v < v_count; ++v) {
    const uint32_t self = static_cast<uint32_t>(v);
    uint64_t e = (v - 1) * deg;
    ++off[self];  // the chain edge from self - 1
    for (++e; e < v * deg; ++e) {
      if (e + kAhead < edges) {
        __builtin_prefetch(&endpoint_pool[sources[e + kAhead]]);
      }
      const uint32_t coins = endpoint_pool[e + 1];
      const uint32_t candidate = sources[e];
      uint32_t other =
          Select((coins & 1) != 0, candidate, endpoint_pool[candidate]);
      other = Select(other == self, self - 1, other);
      const bool outward = (coins & 2) != 0;
      sources[e] = Select(outward, self, other);
      endpoint_pool[e + 1] = Select(outward, other, self);
      ++off[sources[e] + 1];
    }
  }

  auto* tgt = static_cast<int64_t*>(space.HostPtr(g.targets, edges * 8));
  auto* wgt = static_cast<int64_t*>(space.HostPtr(g.weights, edges * 8));
  // CSR by a stable counting sort on the source: each vertex's out-edges
  // keep their draw order.
  for (uint64_t v = 0; v < v_count; ++v) off[v + 1] += off[v];
  std::vector<int64_t> cursor(off, off + v_count);
  // Half the edges scatter to a random earlier vertex's slots, so the loop
  // prefetches the slots edge e + kAhead is due to fill (a hint: that
  // cursor may still move). This roughly halves the loop.
  for (uint64_t e = 0; e < edges; ++e) {
    if (e + kAhead < edges) {
      const int64_t ahead = cursor[sources[e + kAhead]];
      __builtin_prefetch(&tgt[ahead], 1);
      __builtin_prefetch(&wgt[ahead], 1);
    }
    const int64_t slot = cursor[sources[e]]++;
    tgt[slot] = endpoint_pool[e + 1];
    wgt[slot] = weights[e];
  }
}

}  // namespace

uint64_t EstimateGraphBytes(const GraphConfig& c) {
  const uint64_t edges = c.vertices * c.avg_degree;
  return (c.vertices + 1 + 2 * edges) * 8;
}

Graph GenerateGraph(ddc::MemorySystem* ms, const GraphConfig& config) {
  const uint64_t v_count = config.vertices;
  const uint64_t deg = config.avg_degree;
  TELEPORT_CHECK(v_count >= 2 && deg >= 1);
  // The draw-order scratch arrays hold 32-bit vertex ids, pool indices and
  // weights: half the bytes of int64 ones, and about a fifth less
  // generator time.
  TELEPORT_CHECK(v_count <= UINT32_MAX && (v_count - 1) * deg < UINT32_MAX &&
                 config.max_weight <= INT32_MAX)
      << "graph of " << v_count << " vertices, degree " << deg
      << ", max_weight " << config.max_weight;

  const bool adopted = ms->space().AdoptDataset(GraphKey(config), nullptr);
  Graph g;
  g.vertices = v_count;
  g.edges = (v_count - 1) * deg;
  g.offsets = ms->space().Alloc((v_count + 1) * 8, "graph.offsets");
  g.targets = ms->space().AllocForOverwrite(g.edges * 8, "graph.targets");
  g.weights = ms->space().AllocForOverwrite(g.edges * 8, "graph.weights");
  if (!adopted) {
    DrawGraph(ms->space(), g, config);
    ms->space().TagDataset({});
  }
  ms->SeedData();
  return g;
}

}  // namespace teleport::graph
