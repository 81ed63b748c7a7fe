#include "src/mem/address_space.h"

#include <sys/mman.h>

#include <algorithm>

#include "src/base/panic.h"

namespace mem {

GlobalAddressSpace::GlobalAddressSpace(size_t reserve_bytes) {
  const size_t regions = reserve_bytes / kRegionSize;
  AMBER_CHECK(regions >= 1) << "arena smaller than one region";
  reserved_ = regions * kRegionSize;
  void* raw = mmap(nullptr, reserved_, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE,
                   -1, 0);
  AMBER_CHECK(raw != MAP_FAILED) << "arena reservation failed (" << reserved_ << " bytes)";
  base_ = static_cast<uint8_t*>(raw);
  owners_.assign(regions, kNoNode);
}

GlobalAddressSpace::~GlobalAddressSpace() {
  if (base_ != nullptr) {
    munmap(base_, reserved_);
  }
}

bool GlobalAddressSpace::Contains(const void* p) const {
  const auto* b = static_cast<const uint8_t*>(p);
  return b >= base_ && b < base_ + reserved_;
}

int64_t GlobalAddressSpace::RegionIndexOf(const void* p) const {
  AMBER_DCHECK(Contains(p));
  return static_cast<int64_t>((static_cast<const uint8_t*>(p) - base_) / kRegionSize);
}

void* GlobalAddressSpace::RegionBase(int64_t index) const {
  AMBER_DCHECK(index >= 0 && static_cast<size_t>(index) < owners_.size());
  return base_ + static_cast<size_t>(index) * kRegionSize;
}

NodeId GlobalAddressSpace::HomeOf(const void* p) const {
  if (!Contains(p)) {
    return kNoNode;
  }
  return owners_[static_cast<size_t>(RegionIndexOf(p))];
}

void GlobalAddressSpace::CommitRegions(int64_t first, std::span<const NodeId> owners) {
  AMBER_CHECK(first >= 0 && static_cast<size_t>(first) + owners.size() <= owners_.size());
  const size_t base = static_cast<size_t>(first);
  for (size_t i = 0; i < owners.size(); ++i) {
    AMBER_CHECK(owners_[base + i] == kNoNode) << "region already assigned";
  }
  AMBER_CHECK(mprotect(RegionBase(first), owners.size() * kRegionSize, PROT_READ | PROT_WRITE) ==
              0);
  std::copy(owners.begin(), owners.end(), owners_.begin() + static_cast<ptrdiff_t>(base));
  committed_ += owners.size();
}

}  // namespace mem
