#include "graph/engine.h"

#include <algorithm>

namespace teleport::graph {

namespace {

constexpr int64_t kInf = int64_t{1} << 50;

/// Workers the finalize phase partitions vertices over, round-robin (§5.2).
constexpr uint64_t kWorkers = 8;

}  // namespace

std::string_view PhaseToString(Phase p) {
  switch (p) {
    case Phase::kFinalize:
      return "Finalize";
    case Phase::kGather:
      return "Gather";
    case Phase::kApply:
      return "Apply";
    case Phase::kScatter:
      return "Scatter";
  }
  return "Unknown";
}

GasResult RunGas(ddc::ExecutionContext& ctx, const Graph& g,
                 const VertexProgram& program, const GasOptions& opts) {
  ddc::MemorySystem& ms = ctx.memory_system();
  const uint64_t v_count = g.vertices;
  const uint64_t e_count = g.edges;

  // Engine state in DDC space.
  const ddc::VAddr values = ms.space().Alloc(v_count * 8, "gas.values");
  const ddc::VAddr msgs = ms.space().Alloc(v_count * 8, "gas.msgs");
  const ddc::VAddr frontier = ms.space().Alloc(v_count * 8, "gas.frontier");
  const ddc::VAddr frontier_msgs =
      ms.space().Alloc(v_count * 8, "gas.frontier_msgs");
  // Finalize output: worker-partitioned edge arrays.
  const ddc::VAddr f_start = ms.space().Alloc(v_count * 8, "gas.f_start");
  const ddc::VAddr f_deg = ms.space().Alloc(v_count * 8, "gas.f_deg");
  const ddc::VAddr f_targets = ms.space().Alloc(e_count * 8, "gas.f_targets");
  const ddc::VAddr f_weights = ms.space().Alloc(e_count * 8, "gas.f_weights");

  GasResult r;
  for (Phase p : {Phase::kFinalize, Phase::kGather, Phase::kApply,
                  Phase::kScatter}) {
    r.phases.push_back({.phase = p, .pushed = opts.ShouldPush(p)});
  }
  tp::WrappedRun run(ctx, opts, "graph");
  // One call per invocation, i.e. per superstep for the Gather / Apply /
  // Scatter phases of the GAS loop.
  const auto run_phase = [&](Phase p, auto&& body) {
    r.phases[static_cast<size_t>(p)].Add(
        run.Call(PhaseToString(p), opts.ShouldPush(p), body));
  };
  const int64_t identity = program.IdentityMessage();

  // --- Finalize: initialize state, partition vertices round-robin over
  // workers, and shuffle edges into per-worker regions (§5.2).
  run_phase(Phase::kFinalize, [&](ddc::ExecutionContext& c) {
    // Per-worker edge counts (first pass over the CSR).
    std::vector<uint64_t> worker_edges(kWorkers, 0);
    ddc::Cursor off_cur(c);
    for (uint64_t v = 0; v < v_count; ++v) {
      const int64_t begin = off_cur.Load<int64_t>(g.offsets + v * 8);
      const int64_t end = off_cur.Load<int64_t>(g.offsets + (v + 1) * 8);
      worker_edges[v % kWorkers] += static_cast<uint64_t>(end - begin);
      c.ChargeCpu(2);
    }
    std::vector<uint64_t> cursor(kWorkers, 0);
    uint64_t base = 0;
    for (uint64_t w = 0; w < kWorkers; ++w) {
      cursor[w] = base;
      base += worker_edges[w];
    }
    // Second pass: copy each vertex's edges into its worker's region and
    // initialize vertex state. Each array walks its own cursor; the
    // per-worker output regions advance sequentially within a vertex.
    ddc::Cursor val_cur(c);
    ddc::Cursor msg_cur(c);
    ddc::Cursor fs_cur(c);
    ddc::Cursor fd_cur(c);
    ddc::Cursor tgt_cur(c);
    ddc::Cursor wgt_cur(c);
    ddc::Cursor ft_cur(c);
    ddc::Cursor fw_cur(c);
    for (uint64_t v = 0; v < v_count; ++v) {
      val_cur.Store<int64_t>(values + v * 8, program.InitValue(v));
      msg_cur.Store<int64_t>(msgs + v * 8, identity);
      const int64_t begin = off_cur.Load<int64_t>(g.offsets + v * 8);
      const int64_t end = off_cur.Load<int64_t>(g.offsets + (v + 1) * 8);
      uint64_t& cur = cursor[v % kWorkers];
      fs_cur.Store<int64_t>(f_start + v * 8, static_cast<int64_t>(cur));
      fd_cur.Store<int64_t>(f_deg + v * 8, end - begin);
      for (int64_t e = begin; e < end; ++e) {
        const int64_t t = tgt_cur.Load<int64_t>(g.targets + e * 8);
        const int64_t w = wgt_cur.Load<int64_t>(g.weights + e * 8);
        ft_cur.Store<int64_t>(f_targets + cur * 8, t);
        fw_cur.Store<int64_t>(f_weights + cur * 8, w);
        ++cur;
        c.ChargeCpu(2);
      }
      c.ChargeCpu(4);
    }
  });

  // Initial frontier.
  uint64_t frontier_count = 0;
  {
    auto& c = ctx;  // initial activation is bookkeeping, not a GAS phase
    ddc::Cursor fr_cur(c);
    for (uint64_t v = 0; v < v_count; ++v) {
      if (program.InitiallyActive(v)) {
        fr_cur.Store<int64_t>(frontier + frontier_count * 8,
                              static_cast<int64_t>(v));
        ++frontier_count;
      }
      c.ChargeCpu(1);
    }
  }

  int iterations = 0;
  while (frontier_count > 0 && iterations < opts.max_iterations) {
    ++iterations;

    // --- Scatter: active vertices push messages along their (shuffled)
    // out-edges; random writes into msgs[] are the expensive part (§5.2).
    run_phase(Phase::kScatter, [&](ddc::ExecutionContext& c) {
      // Frontier ids are ascending, so the per-vertex arrays stream too;
      // the msgs[] scatter is genuinely random and stays on the plain
      // context path (a pin would only churn).
      ddc::Cursor fr_cur(c);
      ddc::Cursor val_cur(c);
      ddc::Cursor fs_cur(c);
      ddc::Cursor fd_cur(c);
      ddc::Cursor ft_cur(c);
      ddc::Cursor fw_cur(c);
      for (uint64_t i = 0; i < frontier_count; ++i) {
        const int64_t v = fr_cur.Load<int64_t>(frontier + i * 8);
        const int64_t value = val_cur.Load<int64_t>(values + v * 8);
        const int64_t start = fs_cur.Load<int64_t>(f_start + v * 8);
        const int64_t deg = fd_cur.Load<int64_t>(f_deg + v * 8);
        for (int64_t e = start; e < start + deg; ++e) {
          const int64_t t = ft_cur.Load<int64_t>(f_targets + e * 8);
          const int64_t w = fw_cur.Load<int64_t>(f_weights + e * 8);
          const int64_t m = program.ScatterMessage(value, w, deg);
          const ddc::VAddr slot = msgs + static_cast<uint64_t>(t) * 8;
          c.Store<int64_t>(slot, program.Combine(c.Load<int64_t>(slot), m));
          c.ChargeCpu(6);
        }
        c.ChargeCpu(4);
      }
    });

    // --- Gather: collect combined messages into the dense frontier-message
    // list and reset the message array.
    uint64_t gathered = 0;
    run_phase(Phase::kGather, [&](ddc::ExecutionContext& c) {
      ddc::Cursor msg_cur(c);
      ddc::Cursor fr_cur(c);
      ddc::Cursor fm_cur(c);
      for (uint64_t v = 0; v < v_count; ++v) {
        const int64_t m = msg_cur.Load<int64_t>(msgs + v * 8);
        c.ChargeCpu(2);
        if (m != identity) {
          fr_cur.Store<int64_t>(frontier + gathered * 8,
                                static_cast<int64_t>(v));
          fm_cur.Store<int64_t>(frontier_msgs + gathered * 8, m);
          msg_cur.Store<int64_t>(msgs + v * 8, identity);
          ++gathered;
        }
      }
    });

    // --- Apply: run the vertex update; activated vertices form the next
    // scatter frontier (compacted in place).
    uint64_t activated = 0;
    run_phase(Phase::kApply, [&](ddc::ExecutionContext& c) {
      // The compacted frontier is rewritten in place behind the read
      // position, so reads and writes each keep their own cursor.
      ddc::Cursor fr_cur(c);
      ddc::Cursor fm_cur(c);
      ddc::Cursor val_cur(c);
      ddc::Cursor fout_cur(c);
      for (uint64_t i = 0; i < gathered; ++i) {
        const int64_t v = fr_cur.Load<int64_t>(frontier + i * 8);
        const int64_t m = fm_cur.Load<int64_t>(frontier_msgs + i * 8);
        const int64_t old = val_cur.Load<int64_t>(values + v * 8);
        int64_t updated = old;
        const bool act = program.Apply(old, m, &updated);
        c.ChargeCpu(4);
        if (updated != old) val_cur.Store<int64_t>(values + v * 8, updated);
        if (act) {
          fout_cur.Store<int64_t>(frontier + activated * 8, v);
          ++activated;
        }
      }
    });
    frontier_count = activated;

    if (program.AlwaysActive()) {
      // Fixed-round programs re-activate every vertex.
      frontier_count = v_count;
      ddc::Cursor fr_cur(ctx);
      for (uint64_t v = 0; v < v_count; ++v) {
        fr_cur.Store<int64_t>(frontier + v * 8, static_cast<int64_t>(v));
      }
    }
  }

  // Result digest (order-sensitive in vertex id). Accumulated unsigned:
  // unreached vertices keep large kInf sentinels whose products wrap, and
  // the digest is the two's-complement bit pattern, not an arithmetic sum.
  uint64_t checksum = 0;
  ddc::Cursor sum_cur(ctx);
  for (uint64_t v = 0; v < v_count; ++v) {
    const int64_t value = sum_cur.Load<int64_t>(values + v * 8);
    checksum += (v % 97 + 1) * (static_cast<uint64_t>(value) + 13);
    ctx.ChargeCpu(2);
  }

  r.values = values;
  r.checksum = static_cast<int64_t>(checksum);
  r.iterations = iterations;
  r.total_ns = run.Finish();
  return r;
}

namespace {

class SsspProgram : public VertexProgram {
 public:
  int64_t InitValue(uint64_t v) const override { return v == 0 ? 0 : kInf; }
  int64_t IdentityMessage() const override { return kInf; }
  int64_t Combine(int64_t a, int64_t b) const override {
    return std::min(a, b);
  }
  bool Apply(int64_t old_value, int64_t msg,
             int64_t* new_value) const override {
    if (msg < old_value) {
      *new_value = msg;
      return true;
    }
    return false;
  }
  int64_t ScatterMessage(int64_t value, int64_t weight,
                         int64_t) const override {
    return value + weight;
  }
  bool InitiallyActive(uint64_t v) const override { return v == 0; }
};

class ReachProgram : public VertexProgram {
 public:
  int64_t InitValue(uint64_t v) const override { return v == 0 ? 1 : 0; }
  int64_t IdentityMessage() const override { return 0; }
  int64_t Combine(int64_t a, int64_t b) const override {
    return std::max(a, b);
  }
  bool Apply(int64_t old_value, int64_t msg,
             int64_t* new_value) const override {
    if (msg > old_value) {
      *new_value = msg;
      return true;
    }
    return false;
  }
  int64_t ScatterMessage(int64_t, int64_t, int64_t) const override {
    return 1;
  }
  bool InitiallyActive(uint64_t v) const override { return v == 0; }
};

class CcProgram : public VertexProgram {
 public:
  int64_t InitValue(uint64_t v) const override {
    return static_cast<int64_t>(v);
  }
  int64_t IdentityMessage() const override { return kInf; }
  int64_t Combine(int64_t a, int64_t b) const override {
    return std::min(a, b);
  }
  bool Apply(int64_t old_value, int64_t msg,
             int64_t* new_value) const override {
    if (msg < old_value) {
      *new_value = msg;
      return true;
    }
    return false;
  }
  int64_t ScatterMessage(int64_t value, int64_t, int64_t) const override {
    return value;
  }
  bool InitiallyActive(uint64_t) const override { return true; }
};

class WidestPathProgram : public VertexProgram {
 public:
  int64_t InitValue(uint64_t v) const override { return v == 0 ? kInf : 0; }
  int64_t IdentityMessage() const override { return 0; }
  int64_t Combine(int64_t a, int64_t b) const override {
    return std::max(a, b);
  }
  bool Apply(int64_t old_value, int64_t msg,
             int64_t* new_value) const override {
    if (msg > old_value) {
      *new_value = msg;
      return true;
    }
    return false;
  }
  int64_t ScatterMessage(int64_t value, int64_t weight,
                         int64_t) const override {
    return std::min(value, weight);
  }
  bool InitiallyActive(uint64_t v) const override { return v == 0; }
};

class PageRankProgram : public VertexProgram {
 public:
  static constexpr int64_t kScale = 1'000'000;

  explicit PageRankProgram(uint64_t vertices) : vertices_(vertices) {}

  int64_t InitValue(uint64_t) const override {
    return kScale / static_cast<int64_t>(vertices_);
  }
  int64_t IdentityMessage() const override { return 0; }
  int64_t Combine(int64_t a, int64_t b) const override { return a + b; }
  bool Apply(int64_t, int64_t msg, int64_t* new_value) const override {
    *new_value =
        (kScale * 15) / (100 * static_cast<int64_t>(vertices_)) +
        (85 * msg) / 100;
    return true;
  }
  int64_t ScatterMessage(int64_t value, int64_t,
                         int64_t out_degree) const override {
    return out_degree == 0 ? 0 : value / out_degree;
  }
  bool InitiallyActive(uint64_t) const override { return true; }
  bool AlwaysActive() const override { return true; }

 private:
  uint64_t vertices_;
};

}  // namespace

GasResult RunSssp(ddc::ExecutionContext& ctx, const Graph& g,
                  const GasOptions& opts) {
  return RunGas(ctx, g, SsspProgram(), opts);
}

GasResult RunReachability(ddc::ExecutionContext& ctx, const Graph& g,
                          const GasOptions& opts) {
  return RunGas(ctx, g, ReachProgram(), opts);
}

GasResult RunConnectedComponents(ddc::ExecutionContext& ctx, const Graph& g,
                                 const GasOptions& opts) {
  return RunGas(ctx, g, CcProgram(), opts);
}

GasResult RunPageRank(ddc::ExecutionContext& ctx, const Graph& g,
                      const GasOptions& opts, int iterations) {
  GasOptions fixed = opts;
  fixed.max_iterations = iterations;
  return RunGas(ctx, g, PageRankProgram(g.vertices), fixed);
}

GasResult RunWidestPath(ddc::ExecutionContext& ctx, const Graph& g,
                        const GasOptions& opts) {
  return RunGas(ctx, g, WidestPathProgram(), opts);
}

std::set<Phase> DefaultTeleportPhases() {
  return {Phase::kFinalize, Phase::kGather, Phase::kScatter};
}

}  // namespace teleport::graph
