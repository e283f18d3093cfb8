#ifndef TELEPORT_GRAPH_ENGINE_H_
#define TELEPORT_GRAPH_ENGINE_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "teleport/wrap.h"

namespace teleport::graph {

/// PowerGraph-style execution phases (§5.2). Finalize runs once; the
/// gather/apply/scatter triple repeats until the frontier drains.
enum class Phase { kFinalize, kGather, kApply, kScatter };

std::string_view PhaseToString(Phase p);

/// Per-phase aggregate over all iterations: the Fig 10 (center) breakdown.
using PhaseProfile = tp::PhaseProfile<Phase>;

/// Execution options: which phases to Teleport (§5.2 pushes finalize,
/// gather, and scatter).
struct GasOptions : tp::WrapOptions {
  std::set<Phase> push_phases;
  int max_iterations = 10'000;

  bool ShouldPush(Phase p) const {
    return runtime != nullptr && push_phases.count(p) > 0;
  }
};

/// Result of a GAS run. `values` is the per-vertex result array in DDC
/// space; checksum digests it platform-independently. `phases` holds
/// finalize, gather, apply and scatter, in that order.
struct GasResult : tp::PhasedResult<Phase> {
  ddc::VAddr values = 0;
  int64_t checksum = 0;
  Nanos total_ns = 0;
  int iterations = 0;
};

/// Vertex program hooks (gather-apply-scatter with message combining).
/// All state is int64; PageRank uses 1e6 fixed-point.
class VertexProgram {
 public:
  virtual ~VertexProgram() = default;

  /// Initial vertex value.
  virtual int64_t InitValue(uint64_t vertex) const = 0;
  /// Combiner identity (e.g. +inf for min, 0 for sum).
  virtual int64_t IdentityMessage() const = 0;
  /// Message combiner (min, sum, ...). Must be associative/commutative.
  virtual int64_t Combine(int64_t a, int64_t b) const = 0;
  /// Applies a combined message; returns true if the vertex activated
  /// (its new value must then be scattered).
  virtual bool Apply(int64_t old_value, int64_t msg,
                     int64_t* new_value) const = 0;
  /// Message sent along an out-edge of an active vertex.
  virtual int64_t ScatterMessage(int64_t value, int64_t weight,
                                 int64_t out_degree) const = 0;
  /// Vertices active in the first iteration (before any message).
  virtual bool InitiallyActive(uint64_t vertex) const = 0;
  /// Fixed-iteration programs (PageRank) activate every vertex each round.
  virtual bool AlwaysActive() const { return false; }
};

/// Runs a vertex program on the engine: load (already done by the
/// generator) -> finalize (partition + shuffle, §5.2) -> iterate
/// gather/apply/scatter until the frontier is empty or max_iterations.
GasResult RunGas(ddc::ExecutionContext& ctx, const Graph& g,
                 const VertexProgram& program, const GasOptions& opts);

/// Single-source shortest paths from vertex 0 (Bellman-Ford style rounds).
GasResult RunSssp(ddc::ExecutionContext& ctx, const Graph& g,
                  const GasOptions& opts);

/// Single-source reachability from vertex 0.
GasResult RunReachability(ddc::ExecutionContext& ctx, const Graph& g,
                          const GasOptions& opts);

/// Connected components (min-label propagation over the underlying
/// undirected structure approximated by out-edges; the generator's chain
/// edge makes the graph connected, so labels converge to 0).
GasResult RunConnectedComponents(ddc::ExecutionContext& ctx, const Graph& g,
                                 const GasOptions& opts);

/// PageRank with `iterations` fixed rounds, 1e6 fixed-point.
GasResult RunPageRank(ddc::ExecutionContext& ctx, const Graph& g,
                      const GasOptions& opts, int iterations = 10);

/// Single-source widest path from vertex 0: the bottleneck (max-min)
/// semiring — value[v] is the largest minimum edge weight over any path
/// from the source. Exercises a different combiner than SSSP.
GasResult RunWidestPath(ddc::ExecutionContext& ctx, const Graph& g,
                        const GasOptions& opts);

/// The phases §5.2 pushes down on the TELEPORT platform.
std::set<Phase> DefaultTeleportPhases();

}  // namespace teleport::graph

#endif  // TELEPORT_GRAPH_ENGINE_H_
