#ifndef TELEPORT_MR_ENGINE_H_
#define TELEPORT_MR_ENGINE_H_

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "mr/text.h"
#include "teleport/wrap.h"

namespace teleport::mr {

/// Phoenix-style execution phases. §5.3 splits map into map-compute (the
/// user-defined map function) and map-shuffle (partitioning key-values to
/// the reduce buffers); map-shuffle is the pushdown target.
enum class MrPhase { kMapCompute, kMapShuffle, kReduce, kMerge };

std::string_view MrPhaseToString(MrPhase p);

using MrPhaseProfile = tp::PhaseProfile<MrPhase>;

struct MrOptions : tp::WrapOptions {
  std::set<MrPhase> push_phases;
  int map_tasks = 8;
  int reduce_tasks = 8;
  /// Optional hint of the number of distinct keys; sizes the keyed reduce
  /// buffers (0 = conservative sizing from the input volume).
  uint64_t distinct_hint = 0;

  bool ShouldPush(MrPhase p) const {
    return runtime != nullptr && push_phases.count(p) > 0;
  }
};

struct MrResult : tp::PhasedResult<MrPhase> {
  int64_t checksum = 0;      ///< platform-independent result digest
  uint64_t pairs = 0;        ///< key-value pairs emitted by map
  uint64_t distinct_keys = 0;
  Nanos total_ns = 0;
};

/// WordCount: map emits (hash(word), 1) per token; reduce sums per key;
/// merge concatenates reduce outputs and digests them.
MrResult RunWordCount(ddc::ExecutionContext& ctx, const TextCorpus& corpus,
                      const MrOptions& opts);

/// Grep: map emits (hash(line), 1) for each line containing `pattern`;
/// reduce/merge as in WordCount. The checksum covers match count and
/// line digests.
MrResult RunGrep(ddc::ExecutionContext& ctx, const TextCorpus& corpus,
                 std::string_view pattern, const MrOptions& opts);

/// §5.3: for WordCount only map-shuffle is worth Teleporting (the map
/// function itself is computationally expensive); Grep's map is a cheap
/// data-intensive scan, so both map sub-phases move to the data.
std::set<MrPhase> DefaultTeleportPhases(bool grep = false);

}  // namespace teleport::mr

#endif  // TELEPORT_MR_ENGINE_H_
