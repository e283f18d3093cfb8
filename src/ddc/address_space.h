#ifndef TELEPORT_DDC_ADDRESS_SPACE_H_
#define TELEPORT_DDC_ADDRESS_SPACE_H_

#include <cstddef>
#include <cstdint>
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

/// The simulated process address space.
///
/// Data is stored in real host memory so workloads compute real answers; the
/// virtual addresses handed out here are offsets into that backing buffer,
/// chopped into pages for the DDC simulation. Allocation is a page-aligned
/// bump allocator: data-intensive systems in the paper allocate large flat
/// regions (columns, graph state, shuffle buffers), so freeing individual
/// allocations is unnecessary; the whole space is discarded with the
/// MemorySystem at the end of a run.
class AddressSpace {
 public:
  /// Creates a space able to hold up to `capacity_bytes` of allocations.
  /// Host memory for the whole capacity is reserved here, so host pointers
  /// stay valid for the life of the space; Alloc() zero-fills each region,
  /// which is when its host pages become resident.
  explicit AddressSpace(uint64_t capacity_bytes, uint64_t page_size);

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  /// Allocates `bytes` (rounded up to whole pages); aborts if the capacity
  /// is exhausted (simulated machines are sized by the caller).
  VAddr Alloc(uint64_t bytes, std::string name);

  /// Translates a virtual address to a host pointer. The range
  /// [addr, addr+len) must be inside an allocated region.
  void* HostPtr(VAddr addr, uint64_t len) {
    TELEPORT_DCHECK(addr + len <= used_bytes_);
    (void)len;
    return mem_.data() + addr;
  }
  const void* HostPtr(VAddr addr, uint64_t len) const {
    TELEPORT_DCHECK(addr + len <= used_bytes_);
    (void)len;
    return mem_.data() + addr;
  }

  uint64_t page_size() const { return page_size_; }
  uint64_t used_bytes() const { return used_bytes_; }
  uint64_t capacity_bytes() const { return capacity_bytes_; }

  /// Number of pages currently allocated (the size of the full page table).
  uint64_t num_pages() const { return used_bytes_ / page_size_; }

  PageId PageOf(VAddr addr) const { return addr / page_size_; }

  const std::vector<Region>& regions() const { return regions_; }

 private:
  uint64_t capacity_bytes_;
  uint64_t page_size_;
  uint64_t used_bytes_ = 0;
  std::vector<std::byte> mem_;
  std::vector<Region> regions_;
};

}  // namespace teleport::ddc

#endif  // TELEPORT_DDC_ADDRESS_SPACE_H_
