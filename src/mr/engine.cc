#include "mr/engine.h"

#include <algorithm>
#include <string>

#include "common/logging.h"

namespace teleport::mr {

namespace {

constexpr uint64_t kPairBytes = 16;  // {int64 key, int64 value}
constexpr int64_t kEmptyKey = INT64_MIN;

uint64_t NextPow2(uint64_t v) {
  uint64_t p = 16;
  while (p < v) p <<= 1;
  return p;
}

int64_t FnvHash(std::string_view s) {
  uint64_t h = 1469598103934665603ULL;
  for (char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ULL;
  }
  return static_cast<int64_t>(h >> 1);  // non-negative, never kEmptyKey
}

bool IsWordChar(char c) { return c != ' ' && c != '\n'; }

/// Streams bytes of a DDC region in 256-byte blocks (one timed ReadRange
/// per block; sequential scans cost what a SIMD scan would).
class ByteCursor {
 public:
  ByteCursor(ddc::ExecutionContext& ctx, ddc::VAddr base, uint64_t size)
      : cur_(ctx), base_(base), size_(size) {}

  /// Returns the byte at pos, or -1 past the end.
  int Get(uint64_t pos) {
    if (pos >= size_) return -1;
    if (pos < block_start_ || pos >= block_start_ + block_len_) {
      block_start_ = pos;
      block_len_ = std::min<uint64_t>(256, size_ - pos);
      block_ = static_cast<const char*>(
          cur_.ReadRange(base_ + block_start_, block_len_));
    }
    return static_cast<unsigned char>(block_[pos - block_start_]);
  }

 private:
  ddc::Cursor cur_;
  ddc::VAddr base_;
  uint64_t size_;
  const char* block_ = nullptr;
  uint64_t block_start_ = 0;
  uint64_t block_len_ = 0;
};

/// One key-value buffer in DDC space with a bump cursor.
struct KvBuffer {
  ddc::VAddr addr = 0;
  uint64_t capacity = 0;
  uint64_t count = 0;

  /// Bump append through a caller-held cursor (sequential output runs).
  void Emit(ddc::Cursor& cur, int64_t key, int64_t value) {
    TELEPORT_CHECK(count < capacity) << "kv buffer overflow";
    cur.Store<int64_t>(addr + count * kPairBytes, key);
    cur.Store<int64_t>(addr + count * kPairBytes + 8, value);
    ++count;
  }
};

/// The shared Phoenix-style pipeline; `map_chunk(c, begin, end, out)` is the
/// user-defined map function emitting key-value pairs for input words/lines
/// *starting* in [begin, end).
template <typename MapChunkFn>
MrResult RunPipeline(ddc::ExecutionContext& ctx, const TextCorpus& corpus,
                     const MrOptions& opts, MapChunkFn&& map_chunk) {
  ddc::MemorySystem& ms = ctx.memory_system();
  const int m_tasks = std::max(1, opts.map_tasks);
  const int r_tasks = std::max(1, opts.reduce_tasks);
  MrResult r;
  for (MrPhase p : {MrPhase::kMapCompute, MrPhase::kMapShuffle,
                    MrPhase::kReduce, MrPhase::kMerge}) {
    r.phases.push_back({.phase = p, .pushed = opts.ShouldPush(p)});
  }
  tp::WrappedRun run(ctx, opts, "mr");
  const auto run_phase = [&](MrPhase p, auto&& body) {
    r.phases[static_cast<size_t>(p)].Add(
        run.Call(MrPhaseToString(p), opts.ShouldPush(p), body));
  };

  // Pessimistic capacity: one pair per 3 input bytes.
  const uint64_t max_pairs = corpus.bytes / 3 + 64;
  const uint64_t chunk = corpus.bytes / static_cast<uint64_t>(m_tasks) + 1;

  // Map-local buffers, one per task.
  std::vector<KvBuffer> local(static_cast<size_t>(m_tasks));
  for (int t = 0; t < m_tasks; ++t) {
    local[static_cast<size_t>(t)].capacity = chunk / 3 + 64;
    local[static_cast<size_t>(t)].addr = ms.space().Alloc(
        local[static_cast<size_t>(t)].capacity * kPairBytes,
        "mr.map_local." + std::to_string(t));
  }

  // Per-reduce-task keyed buffers (open addressing). As in Phoenix, the
  // shuffle inserts each emitted pair into the destination task's keyed
  // structure, combining duplicates on the way in — the random-access
  // pattern that makes map-shuffle 95% of map time in a DDC (§5.3).
  struct ReduceTable {
    ddc::VAddr addr = 0;
    uint64_t slots = 0;
    uint64_t groups = 0;
  };
  std::vector<ReduceTable> tables(static_cast<size_t>(r_tasks));
  const uint64_t slots_per_table = NextPow2(std::max<uint64_t>(
      64, opts.distinct_hint > 0
              ? 4 * opts.distinct_hint / static_cast<uint64_t>(r_tasks)
              : 2 * max_pairs / static_cast<uint64_t>(r_tasks)));
  for (int r = 0; r < r_tasks; ++r) {
    ReduceTable& tab = tables[static_cast<size_t>(r)];
    tab.slots = slots_per_table;
    tab.addr = ms.space().Alloc(tab.slots * kPairBytes,
                                "mr.reduce_buf." + std::to_string(r));
    // Empty sentinels: the buffers start zeroed; stamp the sentinel value
    // host-side (engine initialization, before the measured region).
    auto* host = static_cast<int64_t*>(
        ms.space().HostPtr(tab.addr, tab.slots * kPairBytes));
    for (uint64_t s = 0; s < tab.slots; ++s) host[s * 2] = kEmptyKey;
  }

  uint64_t total_pairs = 0;
  for (int t = 0; t < m_tasks; ++t) {
    KvBuffer& buf = local[static_cast<size_t>(t)];
    const uint64_t begin = static_cast<uint64_t>(t) * chunk;
    const uint64_t end = std::min(corpus.bytes, begin + chunk);
    if (begin >= corpus.bytes) break;

    // --- Map-compute: the user-defined map function over this chunk.
    run_phase(MrPhase::kMapCompute, [&](ddc::ExecutionContext& c) {
      map_chunk(c, begin, end, buf);
    });

    // --- Map-shuffle: insert this task's pairs into the reduce tasks'
    // keyed buffers (the pushdown target, §5.3).
    run_phase(MrPhase::kMapShuffle, [&](ddc::ExecutionContext& c) {
      // The local buffer streams; the keyed-table probes are random and
      // stay on the plain context path.
      ddc::Cursor buf_cur(c);
      for (uint64_t i = 0; i < buf.count; ++i) {
        const int64_t key = buf_cur.Load<int64_t>(buf.addr + i * kPairBytes);
        const int64_t value =
            buf_cur.Load<int64_t>(buf.addr + i * kPairBytes + 8);
        ReduceTable& tab = tables[static_cast<size_t>(
            static_cast<uint64_t>(key) % static_cast<uint64_t>(r_tasks))];
        const uint64_t mask = tab.slots - 1;
        uint64_t s = (static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ULL >>
                      32) & mask;
        while (true) {
          const int64_t existing = c.Load<int64_t>(tab.addr + s * kPairBytes);
          c.ChargeCpu(4);
          if (existing == kEmptyKey) {
            c.Store<int64_t>(tab.addr + s * kPairBytes, key);
            c.Store<int64_t>(tab.addr + s * kPairBytes + 8, value);
            ++tab.groups;
            TELEPORT_CHECK(tab.groups * 10 < tab.slots * 9)
                << "reduce buffer overflow: raise MrOptions::distinct_hint";
            break;
          }
          if (existing == key) {
            const ddc::VAddr slot = tab.addr + s * kPairBytes + 8;
            c.Store<int64_t>(slot, c.Load<int64_t>(slot) + value);
            break;
          }
          s = (s + 1) & mask;
        }
      }
    });
    total_pairs += buf.count;
  }

  // --- Reduce: each reduce task compacts its keyed buffer into a dense
  // (key, count) output run.
  std::vector<KvBuffer> outputs(static_cast<size_t>(r_tasks));
  for (int r = 0; r < r_tasks; ++r) {
    const ReduceTable& tab = tables[static_cast<size_t>(r)];
    KvBuffer& out = outputs[static_cast<size_t>(r)];
    out.capacity = std::max<uint64_t>(1, tab.groups);
    out.addr = ms.space().Alloc(out.capacity * kPairBytes,
                                "mr.reduce_out." + std::to_string(r));
    run_phase(MrPhase::kReduce, [&](ddc::ExecutionContext& c) {
      ddc::Cursor scan_cur(c);
      ddc::Cursor out_cur(c);
      for (uint64_t s = 0; s < tab.slots; ++s) {
        const int64_t key = scan_cur.Load<int64_t>(tab.addr + s * kPairBytes);
        c.ChargeCpu(2);
        if (key == kEmptyKey) continue;
        const int64_t value =
            scan_cur.Load<int64_t>(tab.addr + s * kPairBytes + 8);
        out.Emit(out_cur, key, value);
      }
    });
  }

  // --- Merge: concatenate reduce outputs and digest them.
  uint64_t distinct = 0;
  for (const KvBuffer& out : outputs) distinct += out.count;
  const ddc::VAddr merged = ms.space().Alloc(
      std::max<uint64_t>(kPairBytes, distinct * kPairBytes), "mr.merged");
  int64_t checksum = 0;
  run_phase(MrPhase::kMerge, [&](ddc::ExecutionContext& c) {
    uint64_t n = 0;
    ddc::Cursor in_cur(c);
    ddc::Cursor out_cur(c);
    for (const KvBuffer& out : outputs) {
      for (uint64_t i = 0; i < out.count; ++i) {
        const int64_t key = in_cur.Load<int64_t>(out.addr + i * kPairBytes);
        const int64_t value =
            in_cur.Load<int64_t>(out.addr + i * kPairBytes + 8);
        out_cur.Store<int64_t>(merged + n * kPairBytes, key);
        out_cur.Store<int64_t>(merged + n * kPairBytes + 8, value);
        ++n;
        c.ChargeCpu(2);
        // Order-independent digest (outputs are hash-ordered).
        checksum += (key % 1'000'003 + 7) * (value + 13);
      }
    }
    TELEPORT_CHECK(n == distinct);
  });

  r.checksum = checksum;
  r.pairs = total_pairs;
  r.distinct_keys = distinct;
  r.total_ns = run.Finish();
  return r;
}

}  // namespace

std::string_view MrPhaseToString(MrPhase p) {
  switch (p) {
    case MrPhase::kMapCompute:
      return "MapCompute";
    case MrPhase::kMapShuffle:
      return "MapShuffle";
    case MrPhase::kReduce:
      return "Reduce";
    case MrPhase::kMerge:
      return "Merge";
  }
  return "Unknown";
}

MrResult RunWordCount(ddc::ExecutionContext& ctx, const TextCorpus& corpus,
                      const MrOptions& opts) {
  return RunPipeline(
      ctx, corpus, opts,
      [&corpus](ddc::ExecutionContext& c, uint64_t begin, uint64_t end,
                KvBuffer& out) {
        ByteCursor bytes(c, corpus.addr, corpus.bytes);
        ddc::Cursor out_cur(c);
        uint64_t pos = begin;
        // Words straddling the chunk start belong to the previous task.
        if (begin > 0) {
          int prev = bytes.Get(begin - 1);
          if (prev >= 0 && IsWordChar(static_cast<char>(prev))) {
            while (pos < end) {
              const int ch = bytes.Get(pos);
              if (ch < 0 || !IsWordChar(static_cast<char>(ch))) break;
              ++pos;
            }
          }
        }
        std::string word;
        while (pos < corpus.bytes) {
          const int ch = bytes.Get(pos);
          const bool is_word = ch >= 0 && IsWordChar(static_cast<char>(ch));
          if (is_word) {
            // Only words *starting* inside [begin, end) are ours; a word
            // already in progress is consumed to completion even past end.
            if (word.empty() && pos >= end) break;
            word += static_cast<char>(ch);
          } else {
            if (!word.empty()) {
              c.ChargeCpu(word.size() + 2);
              out.Emit(out_cur, FnvHash(word), 1);
              word.clear();
            }
            if (pos >= end) break;
          }
          ++pos;
        }
        if (!word.empty()) {
          c.ChargeCpu(word.size() + 2);
          out.Emit(out_cur, FnvHash(word), 1);
        }
      });
}

MrResult RunGrep(ddc::ExecutionContext& ctx, const TextCorpus& corpus,
                 std::string_view pattern, const MrOptions& opts) {
  const std::string needle(pattern);
  MrOptions grep_opts = opts;
  if (grep_opts.distinct_hint == 0) {
    // Grep emits at most one pair per line.
    grep_opts.distinct_hint = corpus.lines + 1024;
  }
  return RunPipeline(
      ctx, corpus, grep_opts,
      [&corpus, needle](ddc::ExecutionContext& c, uint64_t begin,
                        uint64_t end, KvBuffer& out) {
        ByteCursor bytes(c, corpus.addr, corpus.bytes);
        ddc::Cursor out_cur(c);
        uint64_t pos = begin;
        // Lines straddling the chunk start belong to the previous task
        // (unless the chunk begins exactly at a line start).
        if (begin > 0 && bytes.Get(begin - 1) != '\n') {
          while (pos < corpus.bytes) {
            const int ch = bytes.Get(pos);
            ++pos;
            if (ch == '\n') break;
          }
        }
        std::string line;
        uint64_t line_start = pos;
        while (pos < corpus.bytes && line_start < end) {
          const int ch = bytes.Get(pos);
          if (ch != '\n') {
            line += static_cast<char>(ch);
            ++pos;
            continue;
          }
          // End of line.
          c.ChargeCpu(line.size() + needle.size());
          if (line.find(needle) != std::string::npos) {
            out.Emit(out_cur, FnvHash(line), 1);
          }
          line.clear();
          ++pos;
          line_start = pos;
        }
        // Unterminated final line at EOF.
        if (!line.empty() && pos >= corpus.bytes && line_start < end) {
          c.ChargeCpu(line.size() + needle.size());
          if (line.find(needle) != std::string::npos) {
            out.Emit(out_cur, FnvHash(line), 1);
          }
        }
      });
}

std::set<MrPhase> DefaultTeleportPhases(bool grep) {
  if (grep) return {MrPhase::kMapCompute, MrPhase::kMapShuffle};
  return {MrPhase::kMapShuffle};
}

}  // namespace teleport::mr
