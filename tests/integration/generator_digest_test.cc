// Byte-identity locks on the three dataset generators: the FNV-1a-64 of
// every byte a generator stages into a fresh address space, at the default
// seeds and one past them (perfbench --seed n shifts every generator seed by
// n). Every engine checksum and virtual time downstream is a function of
// these bytes, so a host-side rewrite of a generator must reproduce them.
//
// The same locks hold when a deployment adopts the dataset an earlier one
// staged (DESIGN.md §5), and when a tampered or mismatched spare makes it
// generate again.
//
// The generators draw in sim::kGeneratorChunks chunks on several host
// threads. The TPC-H and graph generators' last case has rows or vertices
// that do not divide evenly into the chunks; its digest, like every other
// here, was taken from the single-threaded generator before the split. The
// text generator's chunks are also checked against a verbatim copy of its
// sequential loop over random shapes, and chunk by chunk against a
// sequential walk of the same draws.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "db/tpch.h"
#include "graph/graph.h"
#include "mr/text.h"
#include "mr/text_chunks.h"
#include "sim/parallel.h"

namespace teleport {
namespace {

ddc::DdcConfig LocalConfig() {
  ddc::DdcConfig c;
  c.platform = ddc::Platform::kLocal;
  return c;
}

/// FNV-1a-64 of the first `n` bytes of `ms`'s address space.
uint64_t PrefixDigest(ddc::MemorySystem& ms, uint64_t n) {
  const auto* b = static_cast<const unsigned char*>(ms.space().HostPtr(0, n));
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint64_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t StagedDigest(ddc::MemorySystem& ms) {
  return PrefixDigest(ms, ms.space().used_bytes());
}

TEST(GeneratorDigestTest, Graph) {
  struct Case {
    uint64_t vertices, degree, seed;
    int64_t max_weight;
    uint64_t digest;
  };
  // max_weight 1 is the unweighted path, which draws no weight.
  for (const Case& c : {Case{50'000, 12, 7, 100, 0xb3f94cc046be2cd4ULL},
                        Case{50'000, 12, 8, 100, 0x38f4d9b421ec2190ULL},
                        Case{50'000, 12, 7, 1, 0x8f8c63f9337abe7aULL},
                        Case{500, 4, 7, 100, 0x9ce16ea7df40f5f5ULL},
                        Case{2, 1, 7, 100, 0xb48cd3c26c896143ULL},
                        Case{10'007, 7, 9, 13, 0x80a941955c38cb8aULL}}) {
    graph::GraphConfig gc;
    gc.vertices = c.vertices;
    gc.avg_degree = c.degree;
    gc.seed = c.seed;
    gc.max_weight = c.max_weight;
    ddc::MemorySystem ms(LocalConfig(), sim::CostParams::Default(),
                         graph::EstimateGraphBytes(gc) + 3 * 4096);
    graph::GenerateGraph(&ms, gc);
    EXPECT_EQ(StagedDigest(ms), c.digest)
        << c.vertices << "x" << c.degree << " seed " << c.seed << " w "
        << c.max_weight;
  }
}

TEST(GeneratorDigestTest, Text) {
  struct Case {
    uint64_t bytes, seed, digest, words, lines;
    uint64_t vocabulary = mr::TextConfig{}.vocabulary;
    double theta = mr::TextConfig{}.zipf_theta;
    uint64_t words_per_line = mr::TextConfig{}.words_per_line;
  };
  // The 100-byte corpus ends in the tail-padding path. The last word of the
  // (64 KiB + 3)-byte corpus starts 7 bytes before the end, too close for a
  // whole 8-byte word slot; that of the (64 KiB + 5)-byte one starts 9 bytes
  // before it.
  for (const Case& c :
       {Case{4 << 20, 17, 0x88e3645fe31dc3c3ULL, 949'820, 55'929},
        Case{4 << 20, 18, 0x1054100795528518ULL, 950'433, 55'971},
        Case{64 << 10, 17, 0xd20f7f4781b71793ULL, 14'857, 872},
        Case{(64 << 10) + 3, 17, 0x505a2bdc16940aa9ULL, 14'858, 872},
        Case{(64 << 10) + 5, 17, 0xd674a2e44cb31869ULL, 14'858, 872},
        Case{100, 17, 0x7d2c10c78e89b380ULL, 21, 1},
        // Four letter-count thresholds and a non-integer Zipf exponent.
        Case{300'007, 19, 0x36f5c6784b1c7294ULL, 58'430, 6'169, 50'000, 0.6,
             7}}) {
    mr::TextConfig tc;
    tc.bytes = c.bytes;
    tc.seed = c.seed;
    tc.vocabulary = c.vocabulary;
    tc.zipf_theta = c.theta;
    tc.words_per_line = c.words_per_line;
    ddc::MemorySystem ms(LocalConfig(), sim::CostParams::Default(),
                         c.bytes + 4096);
    const mr::TextCorpus corpus = mr::GenerateText(&ms, tc);
    EXPECT_EQ(StagedDigest(ms), c.digest) << c.bytes << " seed " << c.seed;
    EXPECT_EQ(corpus.words, c.words) << c.bytes << " seed " << c.seed;
    EXPECT_EQ(corpus.lines, c.lines) << c.bytes << " seed " << c.seed;
  }
}

// --- The text generator's chunks --------------------------------------------

/// The text generator's loop before it drew in chunks, verbatim: the
/// reference for the chunked one. Draws the corpus into `out` (config.bytes
/// long) and counts its words and lines into `corpus`.
void SequentialDrawText(const mr::TextConfig& config, char* out,
                        mr::TextCorpus& corpus) {
  Rng rng(config.seed);
  ZipfGenerator zipf(config.vocabulary, config.zipf_theta);

  // Spell the vocabulary once into a table of fixed-stride slots: word i is
  // 'w' followed by the base-26 digits of i, least significant first. A
  // slot is at least 8 bytes, so a word is emitted with one 8-byte store:
  // the bytes past its end are overwritten by the separator and the next
  // word, or by the tail padding.
  uint64_t stride = 2;
  for (uint64_t n = config.vocabulary - 1; n >= 26; n /= 26) ++stride;
  constexpr uint64_t kSlot = 8;
  if (stride < kSlot) stride = kSlot;
  std::vector<char> spelled(config.vocabulary * stride);
  std::vector<uint8_t> length(config.vocabulary);
  for (uint64_t id = 0; id < config.vocabulary; ++id) {
    char* w = &spelled[id * stride];
    uint8_t len = 0;
    w[len++] = 'w';
    uint64_t rest = id;
    do {
      w[len++] = static_cast<char>('a' + rest % 26);
      rest /= 26;
    } while (rest > 0);
    length[id] = len;
  }

  uint64_t pos = 0;
  uint64_t words_on_line = 0;
  while (pos < config.bytes) {
    const uint64_t id = zipf.Sample(rng);
    const uint64_t len = length[id];
    if (pos + len + 1 >= config.bytes) {
      // Pad the tail with spaces (tokenizers skip them).
      while (pos < config.bytes) out[pos++] = ' ';
      break;
    }
    const char* word = &spelled[id * stride];
    if (stride == kSlot && pos + kSlot <= config.bytes) {
      std::memcpy(out + pos, word, kSlot);
    } else {
      std::memcpy(out + pos, word, len);
    }
    pos += len;
    ++corpus.words;
    ++words_on_line;
    if (words_on_line >= config.words_per_line &&
        rng.Bernoulli(2.0 / static_cast<double>(config.words_per_line))) {
      out[pos++] = '\n';
      ++corpus.lines;
      words_on_line = 0;
    } else {
      out[pos++] = ' ';
    }
  }
}

/// The line automaton of mr/text_chunks.h, one draw at a time, with no end
/// of corpus: the sequential walk a chunk's summary must reproduce.
struct LineWalk {
  explicit LineWalk(const mr::TextConfig& c)
      : zipf(c.vocabulary, c.zipf_theta),
        quota(std::max<uint64_t>(c.words_per_line, 1)),
        coin(2.0 / static_cast<double>(c.words_per_line)) {}

  static uint64_t Letters(uint64_t rank) {
    uint64_t letters = 2;
    for (uint64_t power = 26; power <= rank; power *= 26) ++letters;
    return letters;
  }

  /// Moves `at` by one draw of `rng`; returns the letters of the word it
  /// drew, or 0 for a coin.
  uint64_t Step(Rng& rng, mr::TextPlace& at) const {
    if (at.state == 0) {
      const bool land = rng.NextDouble() < coin;
      ++at.pos;
      at.lines += land ? 1 : 0;
      at.state = land ? quota : 1;
      return 0;
    }
    const uint64_t letters = Letters(zipf.Sample(rng));
    at.pos += letters;
    ++at.words;
    if (--at.state != 0) ++at.pos;
    return letters;
  }

  ZipfGenerator zipf;
  uint64_t quota;
  double coin;
};

/// The draw stream of a whole corpus, walked to the word it ends at.
struct CorpusWalk {
  uint64_t draws = 0;  // up to and including the word the corpus ends at
  /// pos[i] for i <= draws: the byte before draw i, had the corpus not
  /// ended.
  std::vector<uint64_t> pos;
};

CorpusWalk WalkCorpus(const mr::TextConfig& c) {
  const LineWalk walk(c);
  CorpusWalk out;
  Rng rng(c.seed);
  mr::TextPlace at = {0, 0, 0, walk.quota};
  out.pos.push_back(0);
  while (c.bytes > 0) {
    ++out.draws;
    const uint64_t before = at.pos;
    const uint64_t letters = walk.Step(rng, at);
    out.pos.push_back(at.pos);
    if (letters > 0 && before + letters + 1 >= c.bytes) break;
  }
  return out;
}

/// The first round's draws for `c`.
uint64_t EstimateDraws(const mr::TextConfig& c) {
  return c.vocabulary <= mr::TextDrawer<uint16_t>::kFlag
             ? mr::TextDrawer<uint16_t>(c).EstimateDraws(c.bytes)
             : mr::TextDrawer<uint32_t>(c).EstimateDraws(c.bytes);
}

template <typename Entry>
void CheckChunksFromEveryStartState(const mr::TextConfig& c, Rng& pick,
                                    int& met, int& unmet) {
  const mr::TextDrawer<Entry> drawer(c);
  const LineWalk walk(c);
  for (const uint64_t n : {0, 1, 2, 3, 5, 9, 30, 100, 1'000, 5'000}) {
    const Rng start(pick.Next());
    // Drawn in blocks of random sizes, as a chunk polls between blocks.
    std::vector<Entry> entries(n + 1);
    mr::DeferredChunk chunk = drawer.Defer();
    Rng deferred = start;
    while (chunk.drawn < n) {
      const uint64_t block = 1 + pick.Uniform(600);
      drawer.DrawDeferred(deferred, std::min(n, chunk.drawn + block),
                          entries.data(), chunk);
    }
    ASSERT_EQ(chunk.drawn, n);
    (chunk.met ? met : unmet) += 1;
    for (uint64_t state = 0; state <= drawer.quota(); ++state) {
      const mr::TextPlace from = {pick.Uniform(1'000), pick.Uniform(1'000),
                                  pick.Uniform(100), state};
      mr::TextPlace want = from;
      Rng rng = start;
      uint64_t reach = from.pos;  // past the last word and its separator
      for (uint64_t i = 0; i < n; ++i) {
        const uint64_t before = want.pos;
        const uint64_t letters = walk.Step(rng, want);
        if (letters > 0) reach = before + letters + 1;
      }
      const std::string what = "n " + std::to_string(n) + " from state " +
                               std::to_string(state) + " of " +
                               std::to_string(drawer.quota());
      mr::TextPlace got = from;
      ASSERT_TRUE(drawer.Walk(chunk, entries.data(), UINT64_MAX, got)) << what;
      ASSERT_EQ(got, want) << what;

      // The corpus ends in the chunk exactly when a word reaches its end.
      const uint64_t bytes =
          from.pos + 1 + pick.Uniform(want.pos - from.pos + 2);
      got = from;
      EXPECT_EQ(drawer.Walk(chunk, entries.data(), bytes, got), reach < bytes)
          << what << ", corpus of " << bytes << " bytes";

      // Writing the kept draws gives the bytes and place of drawing them in
      // place, and neither writes past the chunk's end: Write's 8-byte
      // stores stop below the limit, DrawInPlace's within its last draws.
      std::vector<char> written(want.pos + 8, '?');
      std::vector<char> drawn(want.pos + 8, '?');
      got = from;
      ASSERT_TRUE(drawer.Write(chunk, entries.data(), written.data(),
                               UINT64_MAX, want.pos, got));
      EXPECT_EQ(got, want) << what;
      got = from;
      rng = start;
      ASSERT_TRUE(drawer.DrawInPlace(rng, n, drawn.data(), UINT64_MAX, got));
      EXPECT_EQ(got, want) << what;
      EXPECT_TRUE(std::equal(written.begin() + from.pos,
                             written.begin() + want.pos,
                             drawn.begin() + from.pos))
          << what;
      for (const std::vector<char>* out : {&written, &drawn}) {
        EXPECT_TRUE(std::all_of(out->begin() + want.pos, out->end(),
                                [](char b) { return b == '?'; }))
            << what;
      }
    }
  }
}

TEST(GeneratorDigestTest, TextChunkFromEveryStartStateMatchesASequentialWalk) {
  Rng pick(2027);
  int met = 0;
  int unmet = 0;
  for (uint64_t words_per_line = 0; words_per_line <= 20; ++words_per_line) {
    for (const double theta : {0.3, 0.8, 0.99}) {
      mr::TextConfig c;
      c.words_per_line = words_per_line;
      c.zipf_theta = theta;
      c.vocabulary = 2 + pick.Uniform(30'000);
      CheckChunksFromEveryStartState<uint16_t>(c, pick, met, unmet);
    }
  }
  // Past 63 states the paths are not tracked, and a larger vocabulary takes
  // four-byte entries.
  mr::TextConfig c;
  c.words_per_line = 70;
  CheckChunksFromEveryStartState<uint16_t>(c, pick, met, unmet);
  c.words_per_line = 12;
  c.vocabulary = 100'000;
  CheckChunksFromEveryStartState<uint32_t>(c, pick, met, unmet);
  // Both kinds of chunk occur: ones whose paths met, and ones too short
  // for them to meet.
  EXPECT_GT(met, 50);
  EXPECT_GT(unmet, 100);
}

TEST(GeneratorDigestTest, TextMatchesSequentialLoop) {
  // Log-uniform sizes and vocabularies: small corpora split into chunks of
  // a few draws, and vocabularies cross 26, 676, 17,576 and 65,536.
  Rng pick(2026);
  int beyond_estimate = 0;  // needed more draws than the first round's
  int near_chunk_end = 0;   // ended within 8 bytes of a chunk's end
  for (int i = 0; i < 300; ++i) {
    mr::TextConfig c;
    c.bytes = static_cast<uint64_t>(
        std::exp(pick.NextDouble() * std::log(300'000.0)));
    c.vocabulary = 2 + static_cast<uint64_t>(
                           std::exp(pick.NextDouble() * std::log(99'999.0)));
    c.zipf_theta = std::array{0.3, 0.5, 0.6, 0.8, 0.99}[pick.Uniform(5)];
    c.words_per_line = pick.Uniform(21);
    c.seed = pick.Next();
    const std::string what =
        std::to_string(c.bytes) + " B, vocabulary " +
        std::to_string(c.vocabulary) + ", theta " +
        std::to_string(c.zipf_theta) + ", " +
        std::to_string(c.words_per_line) + " words per line, seed " +
        std::to_string(c.seed);

    std::vector<char> want(c.bytes);
    mr::TextCorpus reference;
    SequentialDrawText(c, want.data(), reference);
    ddc::MemorySystem ms(LocalConfig(), sim::CostParams::Default(),
                         c.bytes + 4096);
    const mr::TextCorpus corpus = mr::GenerateText(&ms, c);
    const auto* got =
        static_cast<const char*>(ms.space().HostPtr(corpus.addr, c.bytes));
    EXPECT_TRUE(std::equal(want.begin(), want.end(), got)) << what;
    EXPECT_EQ(corpus.words, reference.words) << what;
    EXPECT_EQ(corpus.lines, reference.lines) << what;

    // Where the first round's chunks split the draws.
    const uint64_t estimate = EstimateDraws(c);
    const CorpusWalk walk = WalkCorpus(c);
    if (walk.draws > estimate) ++beyond_estimate;
    const uint64_t per_chunk =
        (estimate + sim::kGeneratorChunks - 1) / sim::kGeneratorChunks;
    for (uint64_t d = per_chunk; d <= walk.draws; d += per_chunk) {
      if (c.bytes <= walk.pos[d] + 8 && walk.pos[d] <= c.bytes + 8) {
        ++near_chunk_end;
        break;
      }
    }
  }
  EXPECT_GE(beyond_estimate, 10);
  EXPECT_GE(near_chunk_end, 30);
}

template <typename Entry>
void CheckPlaceAfterEveryStop(const mr::TextConfig& c, Rng& pick,
                              int& deferred, int& ended) {
  using Placed = typename mr::TextDrawer<Entry>::Placed;
  constexpr uint64_t kWhole = mr::TextDrawer<Entry>::kWholeStoreDraws;
  const mr::TextDrawer<Entry> drawer(c);
  const LineWalk walk(c);
  for (const uint64_t n : {1, 2, 5, 6, 7, 8, 13, 100, 3'000}) {
    const Rng start(pick.Next());
    const mr::TextPlace from = {pick.Uniform(1'000), pick.Uniform(1'000),
                                pick.Uniform(100),
                                pick.Uniform(drawer.quota() + 1)};
    mr::TextPlace next = from;  // where the next chunk starts
    Rng rng = start;
    for (uint64_t i = 0; i < n; ++i) walk.Step(rng, next);
    // A corpus that goes on, and one that ends in the chunk or just after.
    const uint64_t end = from.pos + 1 + pick.Uniform(next.pos - from.pos + 2);
    for (const uint64_t bytes : {uint64_t{UINT64_MAX}, end}) {
      // The chunk drawn in place from its first draw.
      std::vector<char> want(next.pos + 8, '?');
      mr::TextPlace want_at = from;
      rng = start;
      const bool more =
          drawer.DrawInPlace(rng, n, want.data(), bytes, want_at);
      // The chunk's bytes end where the next chunk's start, or at the end
      // of the corpus.
      const uint64_t last = more ? next.pos : bytes;
      // The chunk learns its start after `stop` deferred draws: at once,
      // part-way, or with 0 to kWholeStoreDraws draws left.
      std::vector<uint64_t> stops = {0, 1, n / 2};
      for (uint64_t left = 0; left <= kWhole && left <= n; ++left) {
        stops.push_back(n - left);
      }
      for (const uint64_t stop : stops) {
        const std::string what =
            "n " + std::to_string(n) + ", placed after " +
            std::to_string(stop) + " draws, from state " +
            std::to_string(from.state) + " of " +
            std::to_string(drawer.quota()) + ", corpus of " +
            std::to_string(bytes) + " bytes";
        std::vector<Entry> entries(n + 1);
        mr::DeferredChunk chunk = drawer.Defer();
        Rng r = start;
        drawer.DrawDeferred(r, stop, entries.data(), chunk);
        std::vector<char> got(next.pos + 8, '?');
        mr::TextPlace at = from;
        const Placed placed =
            drawer.Place(r, n, entries.data(), chunk, got.data(), bytes, at);
        if (stop != 0 && n - stop < kWhole) {
          // Every draw is kept and nothing is written yet; the chain then
          // places the chunk, and Write writes it.
          ASSERT_EQ(placed, Placed::kDeferred) << what;
          ASSERT_EQ(chunk.drawn, n) << what;
          ASSERT_TRUE(std::all_of(got.begin(), got.end(),
                                  [](char b) { return b == '?'; }))
              << what;
          ++deferred;
          at = from;
          ASSERT_EQ(drawer.Walk(chunk, entries.data(), bytes, at), more)
              << what;
          if (more) {
            EXPECT_EQ(at, next) << what;
          }
          at = from;
          EXPECT_EQ(drawer.Write(chunk, entries.data(), got.data(), bytes,
                                 last, at),
                    more)
              << what;
        } else {
          ASSERT_EQ(placed, more ? Placed::kWritten : Placed::kEnded) << what;
        }
        ended += more ? 0 : 1;
        if (more) {
          EXPECT_EQ(at, next) << what;
        } else {
          EXPECT_EQ(at.words, want_at.words) << what;
          EXPECT_EQ(at.lines, want_at.lines) << what;
        }
        // The same bytes, and no store past the chunk's last byte.
        EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin())) << what;
        EXPECT_TRUE(std::all_of(got.begin() + last, got.end(),
                                [](char b) { return b == '?'; }))
            << what;
      }
    }
  }
}

TEST(GeneratorDigestTest, TextChunkPlacedAfterDeferredDraws) {
  // A deferred chunk that learns its start with fewer than kWholeStoreDraws
  // draws left must still draw them, deferred; one that learns it earlier
  // writes what it kept and draws the rest in place. Each matches the
  // chunk drawn in place from its first draw.
  Rng pick(2028);
  int deferred = 0;
  int ended = 0;
  for (uint64_t words_per_line = 0; words_per_line <= 20; ++words_per_line) {
    for (const double theta : {0.3, 0.8, 0.99}) {
      mr::TextConfig c;
      c.words_per_line = words_per_line;
      c.zipf_theta = theta;
      c.vocabulary = 2 + pick.Uniform(30'000);
      CheckPlaceAfterEveryStop<uint16_t>(c, pick, deferred, ended);
    }
  }
  mr::TextConfig c;
  c.words_per_line = 70;
  CheckPlaceAfterEveryStop<uint16_t>(c, pick, deferred, ended);
  c.words_per_line = 12;
  c.vocabulary = 100'000;
  CheckPlaceAfterEveryStop<uint32_t>(c, pick, deferred, ended);
  EXPECT_GT(deferred, 1'000);
  EXPECT_GT(ended, 1'000);
}

TEST(GeneratorDigestTest, Tpch) {
  struct Case {
    double scale_factor;
    uint64_t seed, digest;
  };
  for (const Case& c : {Case{6.0, 2022, 0xe14155ac3af05c43ULL},
                        Case{6.0, 2023, 0x3f9612e42ade2b22ULL},
                        Case{0.05, 2022, 0x5c3aaeafa14096b1ULL},
                        Case{0.31, 2024, 0xb709352558b905a4ULL}}) {
    db::TpchConfig cfg;
    cfg.scale_factor = c.scale_factor;
    cfg.seed = c.seed;
    ddc::MemorySystem ms(LocalConfig(), sim::CostParams::Default(),
                         db::EstimateTpchBytes(cfg) * 2);
    db::GenerateTpch(&ms, cfg);
    EXPECT_EQ(StagedDigest(ms), c.digest)
        << c.scale_factor << " seed " << c.seed;
  }
}

// --- Dataset hand-off -------------------------------------------------------

/// One small locked case per generator. `stage` generates it into `ms` and
/// checks what the generator returned besides the bytes.
struct Staging {
  const char* name;
  uint64_t capacity;
  uint64_t digest;
  std::function<void(ddc::MemorySystem&)> stage;
};

std::vector<Staging> SmallStagings() {
  graph::GraphConfig gc;
  gc.vertices = 500;
  gc.avg_degree = 4;
  mr::TextConfig tc;
  tc.bytes = 64 << 10;
  db::TpchConfig dc;
  dc.scale_factor = 0.05;
  return {
      {"graph", graph::EstimateGraphBytes(gc) + 3 * 4096,
       0x9ce16ea7df40f5f5ULL,
       [gc](ddc::MemorySystem& ms) {
         const graph::Graph g = graph::GenerateGraph(&ms, gc);
         EXPECT_EQ(g.edges, 499u * 4);
       }},
      {"text", tc.bytes + 4096, 0xd20f7f4781b71793ULL,
       [tc](ddc::MemorySystem& ms) {
         const mr::TextCorpus corpus = mr::GenerateText(&ms, tc);
         EXPECT_EQ(corpus.words, 14'857u);
         EXPECT_EQ(corpus.lines, 872u);
       }},
      {"tpch", db::EstimateTpchBytes(dc) * 2, 0x5c3aaeafa14096b1ULL,
       [dc](ddc::MemorySystem& ms) {
         const auto database = db::GenerateTpch(&ms, dc);
         EXPECT_EQ(database->lineitem.rows, dc.LineitemRows());
       }},
  };
}

TEST(GeneratorDigestTest, SecondDeploymentAdoptsTheFirstsDataset) {
  constexpr uint64_t kExtra = 3 * 4096;
  for (const Staging& s : SmallStagings()) {
    {
      // This one may adopt what an earlier case left; either way it hands
      // its dataset on when it dies. What it allocates past the dataset
      // goes with it, and stores there, raw or simulated, keep the tag.
      ddc::MemorySystem ms(LocalConfig(), sim::CostParams::Default(),
                           s.capacity + kExtra);
      s.stage(ms);
      EXPECT_EQ(StagedDigest(ms), s.digest) << s.name;
      const ddc::VAddr extra = ms.space().Alloc(kExtra, "extra");
      std::memset(ms.space().HostPtr(extra, kExtra), 0xab, kExtra);
      auto ctx = ms.CreateContext(ddc::Pool::kCompute);
      ctx->Fill<uint8_t>(extra, 0xcd, kExtra);
    }
    ddc::MemorySystem ms(LocalConfig(), sim::CostParams::Default(),
                         s.capacity + kExtra);
    s.stage(ms);
    EXPECT_GT(ms.space().adopted_bytes(), 0u) << s.name;
    EXPECT_EQ(ms.space().adopted_bytes(), ms.space().used_bytes()) << s.name;
    EXPECT_EQ(StagedDigest(ms), s.digest) << s.name;
    // Regions past the adopted dataset are zero-filled as before.
    const ddc::VAddr extra = ms.space().Alloc(kExtra, "extra");
    const auto* b =
        static_cast<const unsigned char*>(ms.space().HostPtr(extra, kExtra));
    EXPECT_EQ(std::count(b, b + kExtra, 0), static_cast<long>(kExtra))
        << s.name;
  }
}

/// Stores through the simulator into the staged dataset at `addr`: each
/// writer complements the first byte it writes, so the dataset changes.
struct Writer {
  const char* name;
  std::function<void(ddc::ExecutionContext&, ddc::VAddr addr)> write;
};

std::vector<Writer> DatasetWriters() {
  using ddc::ExecutionContext;
  using ddc::VAddr;
  return {
      {"Store",
       [](ExecutionContext& ctx, VAddr addr) {
         ctx.Store<uint8_t>(addr, ~ctx.Load<uint8_t>(addr));
       }},
      {"StoreSpan",
       [](ExecutionContext& ctx, VAddr addr) {
         uint8_t b[8];
         ctx.LoadSpan<uint8_t>(addr, b, 8);
         for (uint8_t& x : b) x = ~x;
         ctx.StoreSpan<uint8_t>(addr, b, 8);
       }},
      {"Fill",
       [](ExecutionContext& ctx, VAddr addr) {
         ctx.Fill<uint8_t>(addr, ~ctx.Load<uint8_t>(addr), 8);
       }},
      {"Cursor::Store",
       [](ExecutionContext& ctx, VAddr addr) {
         ddc::Cursor cur(ctx);
         cur.Store<uint8_t>(addr, ~cur.Load<uint8_t>(addr));
       }},
      // Two reads of one page fill the context TLB, so the store meets a
      // pinned translation of the page.
      {"Store after two reads",
       [](ExecutionContext& ctx, VAddr addr) {
         ctx.Load<uint8_t>(addr + 1);
         ctx.Load<uint8_t>(addr + 2);
         ctx.Store<uint8_t>(addr, ~ctx.Load<uint8_t>(addr));
       }},
  };
}

TEST(GeneratorDigestTest, TamperedDatasetIsGeneratedAgain) {
  struct Placement {
    const char* name;
    ddc::Platform platform;
    ddc::Pool pool;
  };
  for (const Placement& at :
       {Placement{"Local compute", ddc::Platform::kLocal,
                  ddc::Pool::kCompute},
        Placement{"BaseDDC compute", ddc::Platform::kBaseDdc,
                  ddc::Pool::kCompute},
        Placement{"memory pool", ddc::Platform::kBaseDdc,
                  ddc::Pool::kMemory}}) {
    ddc::DdcConfig config;
    config.platform = at.platform;
    for (const Writer& w : DatasetWriters()) {
      for (const Staging& s : SmallStagings()) {
        const std::string what =
            std::string(s.name) + ", " + w.name + ", " + at.name;
        {
          // This one adopts what the previous case drew, then writes into
          // it.
          ddc::MemorySystem ms(config, sim::CostParams::Default(),
                               s.capacity);
          s.stage(ms);
          const uint64_t staged = ms.space().used_bytes();
          auto ctx = ms.CreateContext(at.pool);
          w.write(*ctx, staged / 2);
          ASSERT_NE(PrefixDigest(ms, staged), s.digest) << what;
        }
        ddc::MemorySystem ms(config, sim::CostParams::Default(),
                             s.capacity);
        s.stage(ms);
        EXPECT_EQ(ms.space().adopted_bytes(), 0u) << what;
        EXPECT_EQ(StagedDigest(ms), s.digest) << what;
      }
    }
  }
}

TEST(GeneratorDigestDeathTest, RawHostWriteIntoStagedDatasetFaults) {
  for (const Staging& s : SmallStagings()) {
    ddc::MemorySystem ms(LocalConfig(), sim::CostParams::Default(),
                         s.capacity);
    s.stage(ms);
    EXPECT_DEATH(std::memset(ms.space().HostPtr(0, 8), 0, 8), "") << s.name;
  }
}

TEST(GeneratorDigestTest, OtherPageSizeDoesNotAdopt) {
  sim::CostParams large = sim::CostParams::Default();
  large.page_size = 2 * large.page_size;
  for (const Staging& s : SmallStagings()) {
    // The same capacity at both page sizes, so only the page size differs.
    const uint64_t capacity =
        (s.capacity + large.page_size - 1) / large.page_size * large.page_size;
    {
      ddc::MemorySystem ms(LocalConfig(), sim::CostParams::Default(),
                           capacity);
      s.stage(ms);
    }
    ddc::MemorySystem ms(LocalConfig(), large, capacity);
    s.stage(ms);
    EXPECT_EQ(ms.space().adopted_bytes(), 0u) << s.name;
  }
}

}  // namespace
}  // namespace teleport
