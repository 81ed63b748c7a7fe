// The global virtual address space (§3.1).
//
// Amber arranges every node's address space identically so that virtual
// addresses mean the same thing everywhere: "the segment of virtual memory
// occupied by an object on one node is reserved for that object on all other
// nodes". Our single-process simulation is the limiting case of that design —
// one mmap'd arena, partitioned into 1 MiB regions. Each region is owned by
// (assigned to) exactly one node, whose allocator draws object segments from
// it; the region→owner map is what lets any node compute an object's *home
// node* from its bare address (§3.3).
//
// Most of the arena is reserved but uncommitted at startup; regions are
// committed when the AddressSpaceServer hands them out, mirroring the paper's
// lazy extension of each node's pool.

#ifndef AMBER_SRC_MEM_ADDRESS_SPACE_H_
#define AMBER_SRC_MEM_ADDRESS_SPACE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/sim/fiber.h"  // for NodeId

namespace mem {

using sim::NodeId;
using sim::kNoNode;

inline constexpr size_t kRegionSize = size_t{1} << 20;  // 1 MiB, per the paper

class GlobalAddressSpace {
 public:
  // Reserves (PROT_NONE) `reserve_bytes` of address space, rounded down to a
  // whole number of regions. Nothing is committed yet.
  explicit GlobalAddressSpace(size_t reserve_bytes = size_t{4} << 30);
  ~GlobalAddressSpace();

  GlobalAddressSpace(const GlobalAddressSpace&) = delete;
  GlobalAddressSpace& operator=(const GlobalAddressSpace&) = delete;

  size_t total_regions() const { return owners_.size(); }

  // True if p lies inside the arena (committed or not).
  bool Contains(const void* p) const;

  // Region index containing p; p must be inside the arena.
  int64_t RegionIndexOf(const void* p) const;

  void* RegionBase(int64_t index) const;

  // Owner of the region containing p (kNoNode if the region is unassigned).
  NodeId HomeOf(const void* p) const;

  NodeId RegionOwner(int64_t index) const { return owners_[static_cast<size_t>(index)]; }

  // Commits a region (read/write) and records its owner. Called only by the
  // AddressSpaceServer.
  void CommitRegion(int64_t index, NodeId owner) { CommitRegions(index, {&owner, 1}); }

  // Commits the contiguous regions first .. first + owners.size() - 1 with
  // one mprotect and records owners[i] as region first + i's owner.
  void CommitRegions(int64_t first, std::span<const NodeId> owners);

  size_t committed_regions() const { return committed_; }

 private:
  uint8_t* base_ = nullptr;
  size_t reserved_ = 0;
  std::vector<NodeId> owners_;  // kNoNode until committed
  size_t committed_ = 0;
};

}  // namespace mem

#endif  // AMBER_SRC_MEM_ADDRESS_SPACE_H_
