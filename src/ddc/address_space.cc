#include "ddc/address_space.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <utility>

namespace teleport::ddc {

namespace {

uint64_t HostPageSize() {
  static const uint64_t size = static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
  return size;
}

/// The first host page boundary at or after `p`.
std::byte* HostPageAlign(std::byte* p) {
  const uint64_t page = HostPageSize();
  return p + (page - reinterpret_cast<uintptr_t>(p) % page) % page;
}

}  // namespace

struct AddressSpace::Backing {
  // One host page more than the capacity, so that the space can start on a
  // host page: protection works on whole pages. An aligned allocation asks
  // the heap for a further page of padding, so a freed backing no longer
  // fits the next one of the same capacity; with perfbench's malloc
  // settings (freed memory stays in the process) that doubled fig13's peak
  // RSS.
  explicit Backing(uint64_t bytes)
      : block(new std::byte[bytes + HostPageSize()]),
        mem(HostPageAlign(block.get())),
        capacity(bytes) {}
  /// Unprotects a tagged backing before it is freed: the allocator writes
  /// into the memory it frees.
  ~Backing() {
    if (tagged) Unprotect();
  }
  Backing(const Backing&) = delete;
  Backing& operator=(const Backing&) = delete;

  void Unprotect() {
    TELEPORT_CHECK(mprotect(mem, staged_bytes, PROT_READ | PROT_WRITE) == 0)
        << "cannot unprotect a staged dataset";
  }

  std::unique_ptr<std::byte[]> block;
  std::byte* mem;  // host-page aligned, uninitialized until allocated
  uint64_t capacity;
  // The tag, set by TagDataset(): the dataset at [0, staged_bytes), whose
  // host pages are read-only exactly while the tag is set.
  bool tagged = false;
  DatasetKey key;
  std::vector<uint64_t> counts;
  uint64_t page_size = 0;
  uint64_t staged_bytes = 0;
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
  const VAddr start = Place(bytes, std::move(name));
  Fill(start, used_bytes_, 0);
  return start;
}

VAddr AddressSpace::AllocForOverwrite(uint64_t bytes, std::string name) {
  const VAddr start = Place(bytes, std::move(name));
#ifndef NDEBUG
  Fill(start, start + bytes, kPoison);
#endif
  Fill(start + bytes, used_bytes_, 0);
  return start;
}

VAddr AddressSpace::Place(uint64_t bytes, std::string name) {
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
    mem_ = backing_->mem;
  }
  const VAddr start = used_bytes_;
  used_bytes_ += rounded;
  // A generator repeating its allocations over an adopted dataset ends
  // exactly where the dataset does.
  TELEPORT_CHECK(start >= adopted_bytes_ || used_bytes_ <= adopted_bytes_)
      << "region '" << name << "' straddles the end of the adopted dataset";
  regions_.push_back(Region{std::move(name), start, rounded});
  return start;
}

void AddressSpace::Fill(VAddr from, VAddr to, unsigned char value) {
  from = std::max(from, adopted_bytes_);
  if (to > from) std::memset(mem_ + from, value, to - from);
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
      taken->page_size != page_size_ || taken->capacity < capacity_bytes_) {
    staging_ = key;
    return false;  // a spare that does not match is freed here
  }
  if (counts != nullptr) *counts = taken->counts;
  adopted_bytes_ = protected_bytes_ = taken->staged_bytes;
  backing_ = std::move(taken);
  mem_ = backing_->mem;
  return true;
}

void AddressSpace::TagDataset(std::vector<uint64_t> counts) {
  std::optional<DatasetKey> key = std::exchange(staging_, std::nullopt);
  // Only whole host pages can be protected, and a dataset is never handed
  // on writable.
  if (!key || backing_ == nullptr || page_size_ % HostPageSize() != 0 ||
      mprotect(mem_, used_bytes_, PROT_READ) != 0) {
    return;
  }
  Backing& b = *backing_;
  b.tagged = true;
  b.key = std::move(*key);
  b.counts = std::move(counts);
  b.page_size = page_size_;
  b.staged_bytes = protected_bytes_ = used_bytes_;
}

void AddressSpace::DropTag() {
  backing_->Unprotect();
  backing_->tagged = false;
  protected_bytes_ = 0;
}

}  // namespace teleport::ddc
