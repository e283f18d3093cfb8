#include "ddc/address_space.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <utility>

#include "common/rng.h"

namespace teleport::ddc {

struct AddressSpace::Backing {
  explicit Backing(uint64_t bytes)
      : mem(new std::byte[bytes]), capacity(bytes) {}

  std::unique_ptr<std::byte[]> mem;  // uninitialized until Alloc fills it
  uint64_t capacity;
  // The tag, set by TagDataset(): the dataset at [0, staged_bytes).
  bool tagged = false;
  DatasetKey key;
  std::vector<uint64_t> counts;
  uint64_t page_size = 0;
  uint64_t staged_bytes = 0;
  uint64_t hash = 0;
};

struct AddressSpace::Spare {
  std::mutex mu;
  std::unique_ptr<Backing> backing;  // guarded by mu
};

AddressSpace::Spare& AddressSpace::spare() {
  // Never destroyed: a space that dies during static destruction can still
  // hand off, and what the spare holds at exit stays reachable.
  static Spare* const instance = new Spare;
  return *instance;
}

namespace {

/// A 64-bit hash of `n` bytes, close to memory speed: four independent
/// lanes, each folding in every fourth 8-byte word by an xor, an odd
/// multiply and an xorshift. Each step is a bijection of its lane, so a
/// change confined to one word always changes the hash.
uint64_t HashBytes(const std::byte* p, uint64_t n) {
  constexpr uint64_t kMul = 0x9fb21c651e98df25ULL;
  uint64_t lane[4] = {1, 2, 3, 4};
  uint64_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (int k = 0; k < 4; ++k) {
      uint64_t w = 0;
      std::memcpy(&w, p + i + 8 * k, 8);
      lane[k] = (lane[k] ^ w) * kMul;
      lane[k] ^= lane[k] >> 32;
    }
  }
  for (; i < n; ++i) {
    lane[0] = (lane[0] ^ static_cast<uint64_t>(p[i])) * kMul;
    lane[0] ^= lane[0] >> 32;
  }
  uint64_t h = n;
  for (const uint64_t l : lane) h = Mix64(h ^ l);
  return h;
}

}  // namespace

std::string_view PlatformToString(Platform p) {
  switch (p) {
    case Platform::kLocal:
      return "Local";
    case Platform::kLinuxSsd:
      return "LinuxSSD";
    case Platform::kBaseDdc:
      return "BaseDDC";
  }
  return "Unknown";
}

std::string_view CachePolicyToString(CachePolicy p) {
  switch (p) {
    case CachePolicy::kLru:
      return "LRU";
    case CachePolicy::kFifo:
      return "FIFO";
    case CachePolicy::kClock:
      return "CLOCK";
  }
  return "Unknown";
}

AddressSpace::AddressSpace(uint64_t capacity_bytes, uint64_t page_size)
    : capacity_bytes_((capacity_bytes + page_size - 1) / page_size * page_size),
      page_size_(page_size) {
  TELEPORT_CHECK(page_size_ > 0 && (page_size_ & (page_size_ - 1)) == 0)
      << "page size must be a power of two";
}

AddressSpace::~AddressSpace() {
  if (backing_ == nullptr || !backing_->tagged) return;
  // Keep the newest dataset: it is the likeliest to be asked for next. The
  // older spare is freed after the lock is released.
  std::unique_ptr<Backing> older;
  std::lock_guard<std::mutex> lock(spare().mu);
  older = std::exchange(spare().backing, std::move(backing_));
}

VAddr AddressSpace::Alloc(uint64_t bytes, std::string name) {
  TELEPORT_CHECK(bytes > 0);
  const uint64_t rounded = (bytes + page_size_ - 1) / page_size_ * page_size_;
  TELEPORT_CHECK(used_bytes_ + rounded <= capacity_bytes_)
      << "address space exhausted allocating '" << name << "' (" << bytes
      << " bytes; used " << used_bytes_ << " of " << capacity_bytes_ << ")";
  // Reserve the full capacity at once, so that growth never reallocates:
  // host pointers handed out by HostPtr() stay valid for the lifetime of
  // the space.
  if (backing_ == nullptr) {
    backing_ = std::make_unique<Backing>(capacity_bytes_);
    mem_ = backing_->mem.get();
  }
  const VAddr start = used_bytes_;
  used_bytes_ += rounded;
  // A generator repeating its Alloc calls over an adopted dataset ends
  // exactly where the dataset does.
  TELEPORT_CHECK(start >= adopted_bytes_ || used_bytes_ <= adopted_bytes_)
      << "region '" << name << "' straddles the end of the adopted dataset";
  const uint64_t fill_from = std::max(start, adopted_bytes_);
  if (used_bytes_ > fill_from) {
    std::memset(mem_ + fill_from, 0, used_bytes_ - fill_from);
  }
  regions_.push_back(Region{std::move(name), start, rounded});
  return start;
}

bool AddressSpace::AdoptDataset(const DatasetKey& key,
                                std::vector<uint64_t>* counts) {
  if (used_bytes_ != 0 || backing_ != nullptr) return false;
  std::unique_ptr<Backing> taken;
  {
    std::lock_guard<std::mutex> lock(spare().mu);
    taken = std::move(spare().backing);
  }
  if (taken == nullptr || taken->key != key ||
      taken->page_size != page_size_ || taken->capacity < capacity_bytes_ ||
      HashBytes(taken->mem.get(), taken->staged_bytes) != taken->hash) {
    staging_ = key;
    return false;  // a spare that does not match is freed here
  }
  if (counts != nullptr) *counts = taken->counts;
  adopted_bytes_ = taken->staged_bytes;
  backing_ = std::move(taken);
  mem_ = backing_->mem.get();
  return true;
}

void AddressSpace::TagDataset(std::vector<uint64_t> counts) {
  if (!staging_ || backing_ == nullptr) return;
  Backing& b = *backing_;
  b.tagged = true;
  b.key = std::move(*staging_);
  staging_.reset();
  b.counts = std::move(counts);
  b.page_size = page_size_;
  b.staged_bytes = used_bytes_;
  b.hash = HashBytes(mem_, used_bytes_);
}

}  // namespace teleport::ddc
