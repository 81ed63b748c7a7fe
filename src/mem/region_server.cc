#include "src/mem/region_server.h"

#include <vector>

#include "src/base/panic.h"

namespace mem {

RegionServer::RegionServer(GlobalAddressSpace* space, int nodes, int initial_regions_per_node,
                           NodeId server_node)
    : space_(space), server_node_(server_node) {
  AMBER_CHECK(nodes >= 1);
  AMBER_CHECK(initial_regions_per_node >= 1);
  AMBER_CHECK(static_cast<size_t>(nodes) * initial_regions_per_node <= space->total_regions())
      << "arena too small for initial region grants";
  // Node n's pool is regions [n * k, (n + 1) * k): one contiguous block,
  // committed at once.
  std::vector<NodeId> owners;
  owners.reserve(static_cast<size_t>(nodes) * initial_regions_per_node);
  for (NodeId n = 0; n < nodes; ++n) {
    owners.insert(owners.end(), static_cast<size_t>(initial_regions_per_node), n);
  }
  space_->CommitRegions(0, owners);
  next_region_ = static_cast<int64_t>(owners.size());
}

int64_t RegionServer::AcquireRegion(NodeId node) {
  AMBER_CHECK(static_cast<size_t>(next_region_) < space_->total_regions())
      << "global address space exhausted";
  const int64_t index = next_region_++;
  space_->CommitRegion(index, node);
  return index;
}

}  // namespace mem
