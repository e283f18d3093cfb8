#include "ddc/placement.h"

#include <algorithm>

namespace teleport::ddc {

void LruList::EnsureSize(size_t n) {
  if (prev_.size() < n) {
    prev_.resize(n, kNil);
    next_.resize(n, kNil);
    in_list_.resize(n, 0);
  }
}

void LruList::Relink(PageId p) {
  Remove(p);
  PushFront(p);
}

void LruList::Clear() {
  std::fill(prev_.begin(), prev_.end(), kNil);
  std::fill(next_.begin(), next_.end(), kNil);
  std::fill(in_list_.begin(), in_list_.end(), uint8_t{0});
  head_ = tail_ = kNil;
}

}  // namespace teleport::ddc
