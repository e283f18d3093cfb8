#ifndef TELEPORT_DDC_ADDRESS_SPACE_H_
#define TELEPORT_DDC_ADDRESS_SPACE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "ddc/types.h"

namespace teleport::ddc {

/// A named allocation inside the simulated address space.
struct Region {
  std::string name;
  VAddr start = 0;
  uint64_t bytes = 0;
};

/// Names a generated dataset: its generator and every field of the
/// generator's configuration, bit for bit. At one page size, equal keys
/// stage equal bytes through equal Alloc calls.
struct DatasetKey {
  std::string generator;
  std::vector<uint64_t> fields;

  bool operator==(const DatasetKey&) const = default;
};

/// The simulated process address space.
///
/// Data is stored in real host memory so workloads compute real answers; the
/// virtual addresses handed out here are offsets into that backing buffer,
/// chopped into pages for the DDC simulation. Allocation is a page-aligned
/// bump allocator: data-intensive systems in the paper allocate large flat
/// regions (columns, graph state, shuffle buffers), so freeing individual
/// allocations is unnecessary; the whole space is discarded with the
/// MemorySystem at the end of a run.
///
/// Each byte is initialized once. Alloc() zero-fills a region;
/// AllocForOverwrite() leaves that to an owner that writes the whole region
/// before reading it: the generators' staged columns, corpus and graph
/// edges, and the B+-tree's node arena, whose nodes are scrubbed when taken.
///
/// Dataset hand-off (DESIGN.md §5): a space whose first bytes a generator
/// staged and tagged does not free its backing when it dies. The backing
/// becomes the process's one spare, and the next generator asked for the
/// same dataset adopts it instead of drawing the data again. The host pages
/// of a tagged dataset are read-only: a simulated store into it (see
/// NoteWrite) drops the tag, and a raw host write into it faults.
class AddressSpace {
 public:
  /// Creates a space able to hold up to `capacity_bytes` of allocations.
  /// Host memory for the whole capacity is reserved by the first
  /// allocation, so host pointers stay valid for the life of the space; a
  /// host page becomes resident when its bytes are first written.
  explicit AddressSpace(uint64_t capacity_bytes, uint64_t page_size);
  /// Hands a tagged backing on as the spare; frees an untagged one.
  ~AddressSpace();

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  /// Allocates `bytes` (rounded up to whole pages); aborts if the capacity
  /// is exhausted (simulated machines are sized by the caller). The region
  /// is zero-filled, except where it lies in an adopted dataset.
  VAddr Alloc(uint64_t bytes, std::string name);

  /// Allocates like Alloc() a region whose owner writes each of its first
  /// `bytes` before anything reads them (DESIGN.md §5): only the rest of
  /// its last page is zero-filled. Builds without NDEBUG fill the first
  /// `bytes` with kPoison, so a read before the owner's write changes a
  /// result. An adopted dataset keeps its bytes either way.
  VAddr AllocForOverwrite(uint64_t bytes, std::string name);

  /// What AllocForOverwrite() leaves in a region's body without NDEBUG.
  static constexpr unsigned char kPoison = 0xa5;

  /// Asks this space, still empty, to adopt the spare backing. It does if
  /// the spare holds the dataset `key` staged at this page size and is
  /// large enough for this space; its bytes are not read. The generator
  /// then repeats its Alloc calls, which keep the adopted bytes, and skips
  /// its draws; `counts` receives what it returned besides the bytes. A
  /// spare that does not match is freed before the generator allocates.
  /// Returns false on a non-empty space.
  bool AdoptDataset(const DatasetKey& key, std::vector<uint64_t>* counts);

  /// Tags everything allocated so far as the dataset the generator asked
  /// AdoptDataset() for, together with `counts`, and makes its host pages
  /// read-only. Does nothing unless that call found the space empty, and
  /// leaves the space untagged when its page size is not a multiple of the
  /// host's or the protection fails.
  void TagDataset(std::vector<uint64_t> counts);

  /// Called before a simulated store that starts at `addr`: a store into
  /// the tagged dataset makes it writable again and drops the tag, so the
  /// backing is freed, not handed on, when the space dies.
  void NoteWrite(VAddr addr) {
    if (WriteProtected(addr)) DropTag();
  }

  /// Whether `addr` lies in the write-protected dataset.
  bool WriteProtected(VAddr addr) const { return addr < protected_bytes_; }

  /// Bytes at the start of the space adopted from an earlier one (0 if
  /// none).
  uint64_t adopted_bytes() const { return adopted_bytes_; }

  /// Translates a virtual address to a host pointer. The range
  /// [addr, addr+len) must be inside an allocated region. A write through
  /// the pointer into a staged dataset faults: store through an
  /// ExecutionContext instead.
  void* HostPtr(VAddr addr, uint64_t len) {
    TELEPORT_DCHECK(addr + len <= used_bytes_);
    (void)len;
    return mem_ + addr;
  }
  const void* HostPtr(VAddr addr, uint64_t len) const {
    TELEPORT_DCHECK(addr + len <= used_bytes_);
    (void)len;
    return mem_ + addr;
  }

  uint64_t page_size() const { return page_size_; }
  uint64_t used_bytes() const { return used_bytes_; }
  uint64_t capacity_bytes() const { return capacity_bytes_; }

  /// Number of pages currently allocated (the size of the full page table).
  uint64_t num_pages() const { return used_bytes_ / page_size_; }

  PageId PageOf(VAddr addr) const { return addr / page_size_; }

  const std::vector<Region>& regions() const { return regions_; }

 private:
  /// Host memory of a space, and the tag of the dataset at its start.
  struct Backing;
  /// The process's one spare backing, and the lock it changes hands under:
  /// legs on different host threads create and destroy spaces
  /// concurrently.
  struct Spare;
  static Spare& spare();

  /// Makes the tagged dataset writable and untags it.
  void DropTag();

  /// Appends a region of `bytes` rounded up to whole pages; returns its
  /// start.
  VAddr Place(uint64_t bytes, std::string name);
  /// Sets every byte of [from, to) outside the adopted dataset to `value`.
  void Fill(VAddr from, VAddr to, unsigned char value);

  uint64_t capacity_bytes_;
  uint64_t page_size_;
  uint64_t used_bytes_ = 0;
  uint64_t adopted_bytes_ = 0;
  uint64_t protected_bytes_ = 0;  // the tagged dataset's length, else 0
  std::unique_ptr<Backing> backing_;  // allocated by the first Alloc
  std::byte* mem_ = nullptr;          // backing_'s host memory
  /// The dataset a generator is staging from address 0, until tagged.
  std::optional<DatasetKey> staging_;
  std::vector<Region> regions_;
};

}  // namespace teleport::ddc

#endif  // TELEPORT_DDC_ADDRESS_SPACE_H_
