#include "graph/graph.h"

#include <vector>

#include "common/rng.h"

namespace teleport::graph {

uint64_t EstimateGraphBytes(const GraphConfig& c) {
  const uint64_t edges = c.vertices * c.avg_degree;
  return (c.vertices + 1 + 2 * edges) * 8;
}

Graph GenerateGraph(ddc::MemorySystem* ms, const GraphConfig& config) {
  Rng rng(config.seed);
  const uint64_t v_count = config.vertices;
  const uint64_t deg = config.avg_degree;
  TELEPORT_CHECK(v_count >= 2 && deg >= 1);

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
  const uint64_t edges = (v_count - 1) * deg;
  std::vector<int64_t> sources(edges);
  std::vector<int64_t> weights(edges);
  // endpoint_pool[e + 1] is edge e's target.
  std::vector<int64_t> endpoint_pool;
  endpoint_pool.reserve(edges + 1);
  endpoint_pool.push_back(0);
  for (uint64_t v = 1; v < v_count; ++v) {
    for (uint64_t d = 0; d < deg; ++d) {
      int64_t from, to;
      if (d == 0) {
        from = static_cast<int64_t>(v - 1);
        to = static_cast<int64_t>(v);
      } else {
        // The other endpoint is an earlier vertex, either uniform or a
        // random endpoint of an existing edge (degree-biased). The edge
        // direction is random, so high-degree early vertices grow forward
        // shortcuts and the directed diameter stays logarithmic — like a
        // real social graph.
        int64_t other = rng.Bernoulli(0.5)
                            ? static_cast<int64_t>(rng.Uniform(v))
                            : endpoint_pool[rng.Uniform(endpoint_pool.size())];
        if (other == static_cast<int64_t>(v)) {
          other = static_cast<int64_t>(v - 1);
        }
        if (rng.Bernoulli(0.5)) {
          from = static_cast<int64_t>(v);
          to = other;
        } else {
          from = other;
          to = static_cast<int64_t>(v);
        }
      }
      const uint64_t e = (v - 1) * deg + d;
      sources[e] = from;
      weights[e] =
          config.max_weight <= 1
              ? 1
              : 1 + static_cast<int64_t>(
                        rng.Uniform(static_cast<uint64_t>(config.max_weight)));
      endpoint_pool.push_back(to);
    }
  }

  Graph g;
  g.vertices = v_count;
  g.edges = edges;
  g.offsets = ms->space().Alloc((v_count + 1) * 8, "graph.offsets");
  g.targets = ms->space().Alloc(edges * 8, "graph.targets");
  g.weights = ms->space().Alloc(edges * 8, "graph.weights");

  auto* off = static_cast<int64_t*>(
      ms->space().HostPtr(g.offsets, (v_count + 1) * 8));
  auto* tgt = static_cast<int64_t*>(ms->space().HostPtr(g.targets, edges * 8));
  auto* wgt = static_cast<int64_t*>(ms->space().HostPtr(g.weights, edges * 8));
  // CSR by a stable counting sort on the source: each vertex's out-edges
  // keep their draw order. Alloc zero-fills, so off[] starts at 0.
  for (uint64_t e = 0; e < edges; ++e) ++off[sources[e] + 1];
  for (uint64_t v = 0; v < v_count; ++v) off[v + 1] += off[v];
  std::vector<int64_t> cursor(off, off + v_count);
  for (uint64_t e = 0; e < edges; ++e) {
    const int64_t slot = cursor[static_cast<uint64_t>(sources[e])]++;
    tgt[slot] = endpoint_pool[e + 1];
    wgt[slot] = weights[e];
  }

  ms->SeedData();
  return g;
}

}  // namespace teleport::graph
