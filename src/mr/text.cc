#include "mr/text.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <mutex>

#include "common/rng.h"
#include "mr/text_chunks.h"
#include "sim/parallel.h"

namespace teleport::mr {

namespace {

ddc::DatasetKey TextKey(const TextConfig& c) {
  static_assert(sizeof(TextConfig) == 5 * sizeof(uint64_t),
                "a TextConfig field is missing from TextKey");
  return {"text",
          {c.bytes, c.vocabulary, std::bit_cast<uint64_t>(c.zipf_theta),
           c.words_per_line, c.seed}};
}

/// Draws the corpus into its region of `space` and counts its words and
/// lines into `corpus`, in rounds of sim::kGeneratorChunks chunks of the
/// one draw stream (DESIGN.md §5). A chunk whose start is known when it
/// starts, or learns it part-way, writes in place; the others keep their
/// draws' ranks, and a chain over the chunks places them in order. The
/// thread whose report lets the chain pass a kept chunk writes it. A round
/// draws what the bytes left should take; a corpus that needs more draws
/// gets another round.
template <typename Entry>
void DrawText(const TextConfig& config, ddc::AddressSpace& space,
              TextCorpus& corpus) {
  const uint64_t bytes = config.bytes;
  char* out = static_cast<char*>(space.HostPtr(corpus.addr, bytes));
  const TextDrawer<Entry> drawer(config);
  constexpr size_t kChunks = sim::kGeneratorChunks;
  constexpr size_t kNone = kChunks;

  struct alignas(64) Slot {
    // Set by the chain before `known`.
    TextPlace start;
    std::atomic<bool> known{false};
    // Set by the chunk before it reports to the chain.
    bool finished = false;
    bool placed = false;  // it wrote its draws; `end` is where it stopped
    bool ended = false;   // the corpus ended in it, at `end`
    DeferredChunk deferred;
    // Where it stopped: set by a placed chunk itself, for a kept one by the
    // thread that writes it.
    TextPlace end;
  };
  Slot slots[kChunks];
  // Guards the chain: the slots' `finished` and the chunks' starts, the
  // first chunk it has not passed and where the next round starts.
  std::mutex mu;
  size_t frontier = 0;
  TextPlace after_round;
  // The chunk the corpus ends in, once the chain has found it.
  std::atomic<size_t> end_chunk{kNone};

  // Entries for the first round's draws; later rounds draw fewer. They
  // are left uninitialized: only deferred chunks touch theirs.
  uint64_t draws = drawer.EstimateDraws(bytes);
  const std::unique_ptr<Entry[]> scratch(new Entry[draws]);
  Entry* entries = scratch.get();

  // Passes every finished chunk at the frontier: a placed one by where it
  // stopped, a deferred one by its summary. Each chunk passed places the
  // next one.
  auto advance = [&](const sim::RowChunks& plan) {
    while (end_chunk.load(std::memory_order_relaxed) == kNone &&
           frontier < kChunks && slots[frontier].finished) {
      Slot& f = slots[frontier];
      const Entry* kept = entries + plan.begin(frontier);
      TextPlace next = f.placed ? f.end : f.start;
      const bool more =
          f.placed ? !f.ended : drawer.Walk(f.deferred, kept, bytes, next);
      if (!more) {
        end_chunk.store(frontier, std::memory_order_relaxed);
        return;
      }
      if (++frontier == kChunks) {
        after_round = next;
      } else {
        slots[frontier].start = next;
        slots[frontier].known.store(true, std::memory_order_release);
      }
    }
  };

  TextPlace at = {0, 0, 0, drawer.quota()};
  Rng rng(config.seed);
  while (true) {
    const sim::RowChunks plan(rng, draws, 1);
    for (Slot& s : slots) {
      s.known.store(false, std::memory_order_relaxed);
      s.finished = s.placed = s.ended = false;
    }
    slots[0].start = at;
    slots[0].known.store(true, std::memory_order_relaxed);
    frontier = 0;
    end_chunk.store(kNone, std::memory_order_relaxed);

    sim::RunGeneratorChunks([&](size_t c) {
      Slot& s = slots[c];
      Entry* kept = entries + plan.begin(c);
      const uint64_t n = plan.end(c) - plan.begin(c);
      Rng r = plan.start(c);
      s.deferred = drawer.Defer();
      DeferredChunk& d = s.deferred;
      while (!s.known.load(std::memory_order_acquire) && d.drawn < n) {
        if (end_chunk.load(std::memory_order_relaxed) < c) return;
        drawer.DrawDeferred(r, std::min(n, d.drawn + kTextPollDraws), kept, d);
      }
      if (s.known.load(std::memory_order_acquire)) {
        using Placed = typename TextDrawer<Entry>::Placed;
        s.end = s.start;
        const Placed placed = drawer.Place(r, n, kept, d, out, bytes, s.end);
        s.placed = placed != Placed::kDeferred;
        s.ended = placed == Placed::kEnded;
      } else {
        drawer.DrawDeferred(r, n, kept, d);
      }
      // Report to the chain, then write the kept chunks it passed on this
      // report: the one the corpus ends in up to the end, the others up to
      // the next chunk's first byte, which their 8-byte stores stay below.
      size_t from;
      size_t to;
      size_t end;
      {
        std::lock_guard<std::mutex> lock(mu);
        s.finished = true;
        from = frontier;
        const bool ended_before =
            end_chunk.load(std::memory_order_relaxed) != kNone;
        advance(plan);
        end = end_chunk.load(std::memory_order_relaxed);
        to = end != kNone && !ended_before ? end + 1 : frontier;
      }
      for (size_t p = from; p < to; ++p) {
        Slot& w = slots[p];
        if (w.placed) continue;
        const uint64_t limit =
            p == end ? bytes
                     : (p + 1 < kChunks ? slots[p + 1].start : after_round).pos;
        w.end = w.start;
        drawer.Write(w.deferred, entries + plan.begin(p), out, bytes, limit,
                     w.end);
      }
    });

    const size_t last = end_chunk.load(std::memory_order_relaxed);
    if (last != kNone) {
      corpus.words = slots[last].end.words;
      corpus.lines = slots[last].end.lines;
      return;
    }
    at = after_round;
    rng = plan.After();
    draws = drawer.EstimateDraws(bytes - at.pos);
  }
}

}  // namespace

TextCorpus GenerateText(ddc::MemorySystem* ms, const TextConfig& config) {
  std::vector<uint64_t> counts;
  const bool adopted = ms->space().AdoptDataset(TextKey(config), &counts);
  TextCorpus corpus;
  // DrawText writes every byte of the corpus.
  corpus.addr = ms->space().AllocForOverwrite(config.bytes, "text.corpus");
  corpus.bytes = config.bytes;
  if (adopted) {
    corpus.words = counts[0];
    corpus.lines = counts[1];
  } else {
    // Two-byte entries hold every rank below 2^15.
    if (config.vocabulary <= TextDrawer<uint16_t>::kFlag) {
      DrawText<uint16_t>(config, ms->space(), corpus);
    } else {
      DrawText<uint32_t>(config, ms->space(), corpus);
    }
    ms->space().TagDataset({corpus.words, corpus.lines});
  }
  ms->SeedData();
  return corpus;
}

}  // namespace teleport::mr
