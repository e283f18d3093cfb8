#ifndef TELEPORT_MR_TEXT_CHUNKS_H_
#define TELEPORT_MR_TEXT_CHUNKS_H_

// The text generator's draws, split into chunks that host threads draw
// without knowing the state the corpus is in at their first draw
// (DESIGN.md §5). GenerateText is the one user; the tests reach the pieces
// through this header.

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "mr/text.h"

namespace teleport::mr {

/// Where the sequential draw stands before a draw: the next byte to write,
/// the words and line breaks written so far, and the line automaton's
/// state, the words left to draw before the line-break coin (0: the next
/// draw is that coin).
struct TextPlace {
  uint64_t pos = 0;
  uint64_t words = 0;
  uint64_t lines = 0;
  uint64_t state = 0;
  bool operator==(const TextPlace&) const = default;
};

/// A chunk that does not know its start state looks whether the chain has
/// placed it every this many draws.
inline constexpr uint64_t kTextPollDraws = 1024;

/// What a chunk drawn without its start state keeps, beside its entries.
/// Until the paths from every start state have met, it keeps one entry per
/// draw: the rank the draw would give a word, and the coin it would give a
/// line break. After that it follows the one merged path and keeps one
/// entry per word: its rank, and whether the coin after it landed.
struct DeferredChunk {
  /// Draws made so far.
  uint64_t drawn = 0;
  /// Entries [0, window) hold one draw each.
  uint64_t window = 0;
  /// While the paths have not met: bit b is set when some start state's
  /// path draws its next coin b draws on.
  uint64_t live = 0;
  bool met = false;
  /// Entries [window, window + words) hold the merged path's words.
  uint64_t words = 0;
  /// The merged path after the window: bytes (pos), words and line breaks
  /// written, and its state.
  TextPlace tail;
};

/// The corpus's vocabulary, Zipf sampler and line automaton. A draw is a
/// word (one Zipf sample) in states above 0 and the line-break coin in
/// state 0. After a word the state drops by one; a coin that lands starts a
/// line (state quota()) and one that does not leaves state 1. A word writes
/// its letters, then a space if the state stays above 0; otherwise the coin
/// writes the separator, '\n' when it lands. So every draw writes bytes of
/// its own, and the bytes a chunk writes follow each other.
///
/// Entry holds a rank below its top bit, which flags a coin; GenerateText
/// uses uint16_t when the vocabulary fits and uint32_t otherwise.
template <typename Entry>
class TextDrawer {
 public:
  static constexpr Entry kFlag = Entry{1} << (8 * sizeof(Entry) - 1);

  explicit TextDrawer(const TextConfig& config);

  /// Words a line holds before its first coin: words_per_line, at least 1
  /// (at 0 and 1 every word is followed by a coin that always lands).
  uint64_t quota() const { return quota_; }

  /// Draws expected to fill `bytes` bytes, with a margin.
  uint64_t EstimateDraws(uint64_t bytes) const;

  /// A word followed by this many draws of its chunk ends at least 8 bytes
  /// before the chunk's last byte: every draw writes a byte, a word two or
  /// more. So its 8-byte store stays within the chunk.
  static constexpr uint64_t kWholeStoreDraws = 6;

  /// Draws the `n` values left in a chunk from `rng` and writes them from
  /// `at` into `out`, as the sequential loop does, except that the last
  /// kWholeStoreDraws draws store only their words' own letters. Returns
  /// false, with the tail padded and the words and lines before it counted
  /// in `at`, when the corpus ends at a word: one whose letters and
  /// separator would reach byte `bytes`.
  bool DrawInPlace(Rng& rng, uint64_t n, char* out, uint64_t bytes,
                   TextPlace& at) const {
    const uint64_t whole = n > kWholeStoreDraws ? n - kWholeStoreDraws : 0;
    return Draw(rng, whole, out, bytes, bytes, at) &&
           Draw(rng, n - whole, out, bytes, 0, at);
  }

  /// Starts a chunk whose start state is not known.
  DeferredChunk Defer() const;

  /// Continues `chunk` up to its draw `upto`, keeping its entries in
  /// `entries`, which holds one per draw of the chunk.
  void DrawDeferred(Rng& rng, uint64_t upto, Entry* entries,
                    DeferredChunk& chunk) const;

  /// Moves `at`, the place before the chunk's first draw, past the chunk's
  /// draws without writing; it walks only the window. Returns false if the
  /// corpus ends in the chunk, leaving `at` unspecified.
  bool Walk(const DeferredChunk& chunk, const Entry* entries, uint64_t bytes,
            TextPlace& at) const;

  /// Writes the chunk's draws from `at` as DrawInPlace would have, with a
  /// word's 8-byte store kept below `limit`. Returns false as DrawInPlace
  /// does.
  bool Write(const DeferredChunk& chunk, const Entry* entries, char* out,
             uint64_t bytes, uint64_t limit, TextPlace& at) const;

  /// What Place did with a chunk.
  enum class Placed {
    kWritten,   // wrote every draw; `at` is where the next chunk starts
    kEnded,     // wrote up to the end of the corpus, as DrawInPlace does
    kDeferred,  // drew the rest deferred; Write writes them all later
  };

  /// Finishes a chunk of `n` draws whose start `at` is known, after
  /// `chunk.drawn` of them were drawn deferred into `entries`: writes those
  /// and draws the rest in place. With fewer than kWholeStoreDraws draws
  /// left after a kept one, a kept word's 8-byte store could reach the next
  /// chunk's bytes, so it draws the rest deferred instead.
  Placed Place(Rng& rng, uint64_t n, Entry* entries, DeferredChunk& chunk,
               char* out, uint64_t bytes, TextPlace& at) const {
    if (chunk.drawn != 0 && n - chunk.drawn < kWholeStoreDraws) {
      DrawDeferred(rng, n, entries, chunk);
      return Placed::kDeferred;
    }
    const uint64_t rest = n - chunk.drawn;
    return Write(chunk, entries, out, bytes, bytes, at) &&
                   DrawInPlace(rng, rest, out, bytes, at)
               ? Placed::kWritten
               : Placed::kEnded;
  }

 private:
  /// What the writing loops read, copied into each loop with the Rng and
  /// the place: a store through `out` may alias anything a loop reaches
  /// through a pointer or reference, and the compiler would reload it after
  /// every byte written (this doubled the in-place loop's time).
  struct Writer {
    ZipfGenerator zipf;
    const char* spelled;
    const uint8_t* length;
    uint64_t stride;
    uint64_t quota;
    double coin;

    /// Writes word `id` and, unless a coin decides it, its separator at
    /// at.pos; the word's bytes are one 8-byte store when its slot allows
    /// and the store ends below `limit`. Pads the tail with spaces and
    /// returns false if the word and its separator would reach byte
    /// `bytes`.
    bool PutWord(uint64_t id, char* out, uint64_t bytes, uint64_t limit,
                 TextPlace& at) const {
      const uint64_t len = length[id];
      if (at.pos + len + 1 >= bytes) {
        // Pad the tail with spaces (tokenizers skip them).
        std::memset(out + at.pos, ' ', bytes - at.pos);
        return false;
      }
      const char* word = &spelled[id * stride];
      if (stride == kSlot && at.pos + kSlot <= limit) {
        std::memcpy(out + at.pos, word, kSlot);
      } else {
        std::memcpy(out + at.pos, word, len);
      }
      at.pos += len;
      ++at.words;
      if (--at.state != 0) out[at.pos++] = ' ';
      return true;
    }
    void PutCoin(bool land, char* out, TextPlace& at) const {
      out[at.pos++] = land ? '\n' : ' ';
      at.lines += land ? 1 : 0;
      at.state = land ? quota : 1;
    }
  };
  Writer writer() const {
    return {zipf_, spelled_.data(), length_.data(), stride_, quota_, coin_};
  }

  /// DrawInPlace's loop, with its words' 8-byte stores kept below `limit`.
  bool Draw(Rng& rng, uint64_t n, char* out, uint64_t bytes, uint64_t limit,
            TextPlace& at) const {
    const Writer w = writer();
    Rng r = rng;
    TextPlace here = at;
    bool more = true;
    for (uint64_t j = 0; more && j < n; ++j) {
      if (here.state == 0) {
        w.PutCoin(r.NextDouble() < w.coin, out, here);
      } else {
        more = w.PutWord(w.zipf.Sample(r), out, bytes, limit, here);
      }
    }
    rng = r;
    at = here;
    return more;
  }

  /// A word slot is at least this long, so a word is one 8-byte store.
  static constexpr uint64_t kSlot = 8;

  ZipfGenerator zipf_;
  uint64_t quota_;
  /// The line-break coin lands when a draw's uniform is below it.
  double coin_;
  /// Word i is 'w' and the base-26 digits of i, least significant first,
  /// at spelled_[i * stride_]; it is length_[i] bytes long.
  uint64_t stride_ = 2;
  std::vector<char> spelled_;
  std::vector<uint8_t> length_;
};

template <typename Entry>
TextDrawer<Entry>::TextDrawer(const TextConfig& config)
    : zipf_(config.vocabulary, config.zipf_theta),
      quota_(config.words_per_line == 0 ? 1 : config.words_per_line),
      coin_(2.0 / static_cast<double>(config.words_per_line)) {
  TELEPORT_CHECK(config.vocabulary <= kFlag)
      << "vocabulary " << config.vocabulary << " above " << kFlag;
  // Spell the vocabulary once into a table of fixed-stride slots. A slot is
  // at least 8 bytes, so a word is emitted with one 8-byte store: the bytes
  // past its end are overwritten by the separator and the next word, or by
  // the tail padding.
  for (uint64_t n = config.vocabulary - 1; n >= 26; n /= 26) ++stride_;
  if (stride_ < kSlot) stride_ = kSlot;
  spelled_.resize(config.vocabulary * stride_);
  length_.resize(config.vocabulary);
  for (uint64_t id = 0; id < config.vocabulary; ++id) {
    char* w = &spelled_[id * stride_];
    uint8_t len = 0;
    w[len++] = 'w';
    uint64_t rest = id;
    do {
      w[len++] = static_cast<char>('a' + rest % 26);
      rest /= 26;
    } while (rest > 0);
    length_[id] = len;
  }
}

template <typename Entry>
uint64_t TextDrawer<Entry>::EstimateDraws(uint64_t bytes) const {
  // A rank of 26^k or more spells at least k + 2 letters. Sample(u) grows
  // with u, so bisection finds the u at which it reaches 26^k.
  double letters = 2.0;
  for (uint64_t rank = 26; rank < zipf_.n(); rank *= 26) {
    double lo = 0.0;
    double hi = 1.0;
    for (int i = 0; i < 40; ++i) {
      const double mid = 0.5 * (lo + hi);
      (zipf_.Sample(mid) >= rank ? hi : lo) = mid;
    }
    letters += 1.0 - hi;
  }
  // A line draws quota() - 1 words, then coins, each after one more word,
  // until one lands.
  const double coins = coin_ >= 1.0 ? 1.0 : 1.0 / coin_;
  const double words = static_cast<double>(quota_) - 1.0 + coins;
  const double draws_per_byte = (1.0 + coins / words) / (letters + 1.0);
  // The margin covers the spread of a corpus of a few thousand draws or
  // more; a corpus that needs more draws gets a second round.
  return static_cast<uint64_t>(static_cast<double>(bytes) * draws_per_byte *
                               (1.0 + 1.0 / 256)) +
         8;
}

template <typename Entry>
DeferredChunk TextDrawer<Entry>::Defer() const {
  DeferredChunk chunk;
  // States 0 to quota(). More than 64 do not fit the mask; a chunk with
  // more keeps one entry per draw throughout.
  chunk.live = quota_ < 64 ? (uint64_t{2} << quota_) - 1 : 0;
  return chunk;
}

template <typename Entry>
void TextDrawer<Entry>::DrawDeferred(Rng& rng, uint64_t upto, Entry* entries,
                                     DeferredChunk& chunk) const {
  // Local copies, as in Draw: stores through `chunk` may alias `rng`.
  const Writer w = writer();
  Rng r = rng;
  DeferredChunk d = chunk;
  // The window: every draw is kept as a word and as a coin, until the
  // paths meet in a state above 0, so that the merged path starts with a
  // word. A path's coin moves it to state quota() or 1, so paths meet only
  // on coins.
  for (; !d.met && d.drawn < upto; ++d.drawn) {
    const double u = r.NextDouble();
    const bool land = u < w.coin;
    entries[d.window++] =
        static_cast<Entry>(w.zipf.Sample(u) | (land ? kFlag : 0));
    if (d.live == 0) continue;
    const bool coin = (d.live & 1) != 0;
    d.live >>= 1;
    if (coin) d.live |= uint64_t{1} << (land ? w.quota : 1);
    if (std::has_single_bit(d.live) && d.live != 1) {
      d.met = true;
      d.tail.state = static_cast<uint64_t>(std::countr_zero(d.live));
    }
  }
  Entry* word = entries + d.window + d.words;
  TextPlace& tail = d.tail;
  for (; d.drawn < upto; ++d.drawn) {
    if (tail.state == 0) {
      const bool land = r.NextDouble() < w.coin;
      word[-1] |= land ? kFlag : 0;
      tail.lines += land ? 1 : 0;
      tail.state = land ? w.quota : 1;
      ++tail.pos;
    } else {
      const uint64_t id = w.zipf.Sample(r);
      *word++ = static_cast<Entry>(id);
      ++tail.words;
      tail.pos += w.length[id] + (--tail.state != 0 ? 1 : 0);
    }
  }
  d.words = static_cast<uint64_t>(word - (entries + d.window));
  rng = r;
  chunk = d;
}

template <typename Entry>
bool TextDrawer<Entry>::Walk(const DeferredChunk& chunk, const Entry* entries,
                             uint64_t bytes, TextPlace& at) const {
  for (uint64_t i = 0; i < chunk.window; ++i) {
    if (at.state == 0) {
      const bool land = (entries[i] & kFlag) != 0;
      ++at.pos;
      at.lines += land ? 1 : 0;
      at.state = land ? quota_ : 1;
      continue;
    }
    const uint64_t len = length_[entries[i] & ~kFlag];
    if (at.pos + len + 1 >= bytes) return false;
    at.pos += len + (--at.state != 0 ? 1 : 0);
    ++at.words;
  }
  if (chunk.words == 0) return true;
  // The merged path's last word reaches a byte further than its bytes when
  // its coin is the next chunk's first draw. Words only grow the reach, so
  // the corpus ends in the chunk if and only if the last word's does.
  const TextPlace& tail = chunk.tail;
  if (at.pos + tail.pos + (tail.state == 0 ? 1 : 0) >= bytes) return false;
  at.pos += tail.pos;
  at.words += tail.words;
  at.lines += tail.lines;
  at.state = tail.state;
  return true;
}

template <typename Entry>
bool TextDrawer<Entry>::Write(const DeferredChunk& chunk, const Entry* entries,
                              char* out, uint64_t bytes, uint64_t limit,
                              TextPlace& at) const {
  const Writer w = writer();
  TextPlace here = at;
  bool more = true;
  for (uint64_t i = 0; more && i < chunk.window; ++i) {
    if (here.state == 0) {
      w.PutCoin((entries[i] & kFlag) != 0, out, here);
    } else {
      more = w.PutWord(entries[i] & ~kFlag, out, bytes, limit, here);
    }
  }
  const Entry* e = entries + chunk.window;
  const Entry* end = e + chunk.words;
  const TextPlace& tail = chunk.tail;
  if (more && e != end && w.stride == kSlot &&
      here.pos + tail.pos + (tail.state == 0 ? 1 : 0) < bytes) {
    // No word reaches the end of the corpus (see Walk), so only the stores
    // are checked. Each word is followed by one separator, '\n' when its
    // coin landed, except a last one whose coin is not drawn yet.
    uint64_t pos = here.pos;
    for (--end; e != end; ++e) {
      const uint64_t id = *e & ~kFlag;
      if (pos + kSlot <= limit) {
        std::memcpy(out + pos, w.spelled + id * kSlot, kSlot);
      } else {
        std::memcpy(out + pos, w.spelled + id * kSlot, w.length[id]);
      }
      pos += w.length[id];
      out[pos++] = (*e & kFlag) != 0 ? '\n' : ' ';
    }
    const uint64_t id = *e & ~kFlag;
    std::memcpy(out + pos, w.spelled + id * kSlot, w.length[id]);
    pos += w.length[id];
    if (tail.state != 0) out[pos++] = (*e & kFlag) != 0 ? '\n' : ' ';
    at = {pos, here.words + tail.words, here.lines + tail.lines, tail.state};
    return true;
  }
  // The merged path's coins follow the words that leave it in state 0,
  // except a last one that is not drawn yet.
  uint64_t coins = chunk.drawn - chunk.window - chunk.words;
  for (; more && e != end; ++e) {
    more = w.PutWord(*e & ~kFlag, out, bytes, limit, here);
    if (more && here.state == 0 && coins > 0) {
      w.PutCoin((*e & kFlag) != 0, out, here);
      --coins;
    }
  }
  at = here;
  return more;
}

}  // namespace teleport::mr

#endif  // TELEPORT_MR_TEXT_CHUNKS_H_
