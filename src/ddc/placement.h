#ifndef TELEPORT_DDC_PLACEMENT_H_
#define TELEPORT_DDC_PLACEMENT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "ddc/journal.h"
#include "ddc/types.h"

namespace teleport::ddc {

/// Intrusive-by-index LRU list over page ids. List surgery is inline: it
/// sits on the hit path of every charged access (directly or via the
/// pinned fast path).
class LruList {
 public:
  static constexpr uint32_t kNil = 0xffffffffu;

  /// Grows the list to cover pages [0, n). MemorySystem::EnsurePageTables
  /// sizes every list with the page table, so no other member grows it.
  void EnsureSize(size_t n);
  bool Contains(PageId p) const {
    TELEPORT_DCHECK(p < in_list_.size()) << "page " << p << " beyond the table";
    return in_list_[p] != 0;
  }
  void PushFront(PageId p) {
    TELEPORT_DCHECK(!Contains(p));
    prev_[p] = kNil;
    next_[p] = head_;
    if (head_ != kNil) prev_[head_] = static_cast<uint32_t>(p);
    head_ = static_cast<uint32_t>(p);
    if (tail_ == kNil) tail_ = static_cast<uint32_t>(p);
    in_list_[p] = 1;
  }
  void Remove(PageId p) {
    TELEPORT_DCHECK(Contains(p));
    const uint32_t pr = prev_[p];
    const uint32_t nx = next_[p];
    if (pr != kNil) next_[pr] = nx; else head_ = nx;
    if (nx != kNil) prev_[nx] = pr; else tail_ = pr;
    prev_[p] = next_[p] = kNil;
    in_list_[p] = 0;
  }
  /// Makes `p` the most recently used element. The front element stays
  /// put: unlinking and relinking it would rebuild the same list. Only
  /// that check is inline; the relink, like the resizing in EnsureSize,
  /// lives in placement.cc so the pinned hit path stays small enough for
  /// the compiler to inline whole.
  void MoveToFront(PageId p) {
    if (head_ != p) Relink(p);
  }
  /// Least-recently-used element; kNil if empty.
  PageId Back() const { return tail_; }
  /// Empties the list in O(capacity) (crash-restart wipes a whole shard).
  void Clear();

 private:
  void Relink(PageId p);

  std::vector<uint32_t> prev_, next_;
  /// Membership bitmap. uint8_t, not vector<bool>: Contains() is on the
  /// access hot path and the proxy-reference bit arithmetic costs more
  /// than the 8x space.
  std::vector<uint8_t> in_list_;
  uint32_t head_ = kNil, tail_ = kNil;
};

/// One compute node's page cache (§2): which pages its local DRAM holds,
/// how many fit, and the replacement policy that picks the next victim.
/// Every client of a rack has its own, and it is the only record of which
/// pages that client holds. The page table (permissions, dirty bits) stays
/// with MemorySystem, so a change to replacement edits nothing else.
class ComputeCache {
 public:
  ComputeCache(const DdcConfig& config, uint64_t page_size)
      : capacity_(
            std::max<uint64_t>(1, config.compute_cache_bytes / page_size)),
        policy_(config.cache_policy) {}

  void EnsureSize(size_t pages) {
    lru_.EnsureSize(pages);
    if (ref_.size() < pages) ref_.resize(pages, 0);
  }
  uint64_t used() const { return used_; }
  uint64_t capacity() const { return capacity_; }
  bool Full() const { return used_ >= capacity_; }
  bool Contains(PageId p) const { return lru_.Contains(p); }
  /// Whether `p`'s CLOCK reference bit is set (only ever on a member page).
  bool Referenced(PageId p) const { return ref_[p] != 0; }

  /// Caches `p` as the most recent page, with a clear CLOCK reference bit
  /// however it arrived. The caller makes room first (Victim) when Full().
  void Insert(PageId p) {
    TELEPORT_DCHECK(p < ref_.size());
    lru_.PushFront(p);
    ref_[p] = 0;
    ++used_;
  }
  /// Uncaches `p`. Its reference bit goes with it, so a bit is only ever
  /// set on a member page.
  void Remove(PageId p) {
    lru_.Remove(p);
    ref_[p] = 0;
    --used_;
  }
  /// Hit bookkeeping: LRU promotes the page, FIFO keeps insertion order,
  /// CLOCK sets its reference bit. Inline: the pinned fast path calls it
  /// once per charged run, and LRU, the default, is laid out first.
  void OnHit(PageId p) {
    if (policy_ == CachePolicy::kLru) [[likely]] {
      lru_.MoveToFront(p);
    } else if (policy_ == CachePolicy::kClock) {
      ref_[p] = 1;
    }
  }
  /// The page to evict next: the oldest, except that CLOCK gives a
  /// referenced page a second chance (clears its bit and re-queues it at
  /// the front) before moving on.
  PageId Victim() {
    PageId victim = lru_.Back();
    if (policy_ == CachePolicy::kClock) {
      while (victim != LruList::kNil && ref_[victim] != 0) {
        ref_[victim] = 0;
        lru_.MoveToFront(victim);
        victim = lru_.Back();
      }
    }
    TELEPORT_DCHECK(victim != LruList::kNil) << "compute cache empty but full";
    return victim;
  }

 private:
  LruList lru_;
  std::vector<uint8_t> ref_;  ///< CLOCK reference bit, by page
  uint64_t used_ = 0;
  uint64_t capacity_;
  CachePolicy policy_;
};

/// One memory-pool shard (§3): a contiguous slice of the page table (see
/// MemorySystem::ShardOf) with its own DRAM capacity and LRU replacement,
/// redo journal, exactly-once dedup table and lease epoch. Its LRU list is
/// the only record of which pages of the slice are in pool DRAM. The
/// journal and the dedup table model the battery-backed region that
/// survives a crash-restart, so Wipe leaves them (and the epoch) alone.
class PoolShard {
 public:
  PoolShard(const DdcConfig& config, uint64_t page_size)
      : capacity_(std::max<uint64_t>(
            1, config.memory_pool_bytes /
                   static_cast<uint64_t>(std::max(1, config.memory_shards)) /
                   page_size)) {}

  void EnsureSize(size_t pages) { lru_.EnsureSize(pages); }
  uint64_t used() const { return used_; }
  uint64_t capacity() const { return capacity_; }
  bool Full() const { return used_ >= capacity_; }
  bool Contains(PageId p) const { return lru_.Contains(p); }

  /// Makes `p` resident as the most recent page. When the shard is full
  /// the LRU victim leaves first and is handed to `evict(victim)`, which
  /// writes it back and updates its page state. Returns whether `p` was
  /// already resident; then nothing moves, and promoting it is the
  /// caller's choice (Touch).
  template <typename Evict>
  bool Admit(PageId p, Evict&& evict) {
    if (lru_.Contains(p)) return true;
    if (Full()) {
      const PageId victim = lru_.Back();
      TELEPORT_DCHECK(victim != LruList::kNil) << "memory pool empty but full";
      lru_.Remove(victim);
      --used_;
      evict(victim);
    }
    lru_.PushFront(p);
    ++used_;
    return false;
  }
  /// Promotes a resident page to most recently used.
  void Touch(PageId p) { lru_.MoveToFront(p); }
  /// Drops every resident page (crash-restart).
  void Wipe() {
    lru_.Clear();
    used_ = 0;
  }

  Journal& journal() { return journal_; }
  const Journal& journal() const { return journal_; }
  /// Lease epoch: starts at 1 and advances once per applied crash-restart
  /// window of this shard only.
  uint64_t epoch() const { return epoch_; }
  int restarts_applied() const { return restarts_applied_; }
  /// Catches up with `completed` crash-restart windows of this shard:
  /// returns how many are new, each of which opens a fresh lease epoch.
  int AbsorbRestarts(int completed) {
    if (completed <= restarts_applied_) return 0;
    const int fresh = completed - restarts_applied_;
    restarts_applied_ = completed;
    epoch_ += static_cast<uint64_t>(fresh);
    return fresh;
  }
  /// Records idempotency token `token` as executed; returns whether it
  /// already was (a duplicate delivery).
  bool MarkExecuted(uint64_t token) {
    if (token >= executed_tokens_.size()) {
      executed_tokens_.resize(token + 1, 0);
    }
    const bool duplicate = executed_tokens_[token] != 0;
    executed_tokens_[token] = 1;
    return duplicate;
  }

 private:
  LruList lru_;
  uint64_t used_ = 0;
  uint64_t capacity_;
  int restarts_applied_ = 0;
  uint64_t epoch_ = 1;
  Journal journal_;
  std::vector<uint8_t> executed_tokens_;
};

}  // namespace teleport::ddc

#endif  // TELEPORT_DDC_PLACEMENT_H_
