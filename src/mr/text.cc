#include "mr/text.h"

#include <bit>
#include <cstring>
#include <vector>

#include "common/rng.h"

namespace teleport::mr {

namespace {

ddc::DatasetKey TextKey(const TextConfig& c) {
  static_assert(sizeof(TextConfig) == 5 * sizeof(uint64_t),
                "a TextConfig field is missing from TextKey");
  return {"text",
          {c.bytes, c.vocabulary, std::bit_cast<uint64_t>(c.zipf_theta),
           c.words_per_line, c.seed}};
}

/// Draws the corpus into `out` (config.bytes long) and counts its words
/// and lines into `corpus`.
void DrawText(const TextConfig& config, char* out, TextCorpus& corpus) {
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
    DrawText(config,
             static_cast<char*>(ms->space().HostPtr(corpus.addr, config.bytes)),
             corpus);
    ms->space().TagDataset({corpus.words, corpus.lines});
  }
  ms->SeedData();
  return corpus;
}

}  // namespace teleport::mr
