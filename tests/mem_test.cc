// Tests for the global address space, region server, and segment allocator —
// including property tests on the paper's §3.1/§3.2 invariants.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>

#include "src/base/rng.h"
#include "src/mem/address_space.h"
#include "src/mem/region_server.h"
#include "src/mem/segment_alloc.h"

namespace mem {
namespace {

TEST(AddressSpaceTest, RegionGeometry) {
  GlobalAddressSpace gas(size_t{64} << 20);  // 64 MiB = 64 regions
  EXPECT_EQ(gas.total_regions(), 64u);
  EXPECT_EQ(gas.committed_regions(), 0u);
  gas.CommitRegion(0, 3);
  gas.CommitRegion(5, 1);
  auto* r0 = static_cast<uint8_t*>(gas.RegionBase(0));
  auto* r5 = static_cast<uint8_t*>(gas.RegionBase(5));
  EXPECT_EQ(r5 - r0, static_cast<ptrdiff_t>(5 * kRegionSize));
  EXPECT_TRUE(gas.Contains(r0));
  EXPECT_EQ(gas.RegionIndexOf(r0 + 100), 0);
  EXPECT_EQ(gas.RegionIndexOf(r5 + kRegionSize - 1), 5);
}

TEST(AddressSpaceTest, HomeNodeFromAddress) {
  GlobalAddressSpace gas(size_t{16} << 20);
  gas.CommitRegion(0, 2);
  auto* p = static_cast<uint8_t*>(gas.RegionBase(0)) + 4096;
  EXPECT_EQ(gas.HomeOf(p), 2);
  // Unassigned region: no home yet.
  EXPECT_EQ(gas.HomeOf(static_cast<uint8_t*>(gas.RegionBase(3))), sim::kNoNode);
  // Outside the arena entirely.
  int local;
  EXPECT_EQ(gas.HomeOf(&local), sim::kNoNode);
}

TEST(AddressSpaceTest, CommittedRegionIsZeroFilled) {
  // §3.2: "unwritten pages of virtual memory are zero-filled" — the
  // uninitialized-descriptor trick depends on it.
  GlobalAddressSpace gas(size_t{4} << 20);
  gas.CommitRegion(1, 0);
  auto* p = static_cast<uint8_t*>(gas.RegionBase(1));
  for (size_t i = 0; i < kRegionSize; i += 4093) {
    EXPECT_EQ(p[i], 0);
  }
}

TEST(RegionServerTest, InitialGrantsRoundRobin) {
  GlobalAddressSpace gas(size_t{64} << 20);
  RegionServer server(&gas, /*nodes=*/4, /*initial_regions_per_node=*/2);
  EXPECT_EQ(server.regions_granted(), 8);
  EXPECT_EQ(gas.RegionOwner(0), 0);
  EXPECT_EQ(gas.RegionOwner(1), 0);
  EXPECT_EQ(gas.RegionOwner(2), 1);
  EXPECT_EQ(gas.RegionOwner(7), 3);
  // The initial block is committed as one range: its first and last bytes
  // are writable, and the region after it is neither committed nor owned.
  static_cast<volatile uint8_t*>(gas.RegionBase(0))[0] = 1;
  static_cast<volatile uint8_t*>(gas.RegionBase(7))[kRegionSize - 1] = 1;
  EXPECT_EQ(gas.committed_regions(), 8u);
  EXPECT_EQ(gas.RegionOwner(8), kNoNode);
}

TEST(RegionServerTest, AcquireExtendsAPool) {
  GlobalAddressSpace gas(size_t{64} << 20);
  RegionServer server(&gas, 2, 1);
  const int64_t r = server.AcquireRegion(1);
  EXPECT_EQ(r, 2);
  EXPECT_EQ(gas.RegionOwner(r), 1);
  EXPECT_EQ(gas.HomeOf(gas.RegionBase(r)), 1);
}

class SegmentAllocTest : public ::testing::Test {
 protected:
  SegmentAllocTest() : gas_(size_t{64} << 20), server_(&gas_, 1, 1), alloc_(&gas_, 0) {
    alloc_.AddRegion(0);
  }

  void Grow() { alloc_.AddRegion(server_.AcquireRegion(0)); }

  GlobalAddressSpace gas_;
  RegionServer server_;
  SegmentAllocator alloc_;
};

TEST_F(SegmentAllocTest, AllocateAlignedWritable) {
  void* p = alloc_.Allocate(100);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 16, 0u);
  std::memset(p, 0x5a, 100);
  EXPECT_EQ(alloc_.SizeOf(p), 112u);  // rounded to 16
  EXPECT_TRUE(alloc_.IsLiveSegment(p));
}

TEST_F(SegmentAllocTest, FreeAndExactReuse) {
  void* a = alloc_.Allocate(256);
  alloc_.Free(a);
  EXPECT_FALSE(alloc_.IsLiveSegment(a));
  void* b = alloc_.Allocate(256);
  EXPECT_EQ(a, b) << "exact-size free block should be reused whole";
}

TEST_F(SegmentAllocTest, FreedBlocksNeverSplit) {
  // A freed 1 KiB block must NOT satisfy a smaller request (that would split
  // it); the smaller request carves fresh space instead.
  void* big = alloc_.Allocate(1024);
  void* next = alloc_.Allocate(16);  // marks where the bump pointer is
  alloc_.Free(big);
  void* small = alloc_.Allocate(64);
  EXPECT_NE(small, big);
  EXPECT_GT(small, next);
  // And the original block is still reusable whole at its own size.
  void* again = alloc_.Allocate(1024);
  EXPECT_EQ(again, big);
}

TEST_F(SegmentAllocTest, ExhaustionReturnsNullThenRegionGrowthRecovers) {
  std::vector<void*> blocks;
  const size_t chunk = 64 * 1024;
  void* p;
  while ((p = alloc_.Allocate(chunk)) != nullptr) {
    blocks.push_back(p);
  }
  EXPECT_GT(blocks.size(), 10u);  // ~15 × 64 KiB + headers per 1 MiB region
  Grow();
  p = alloc_.Allocate(chunk);
  EXPECT_NE(p, nullptr);
  alloc_.CheckIntegrity();
}

TEST_F(SegmentAllocTest, DoubleFreePanics) {
  void* p = alloc_.Allocate(32);
  alloc_.Free(p);
  EXPECT_DEATH(alloc_.Free(p), "double free");
}

TEST_F(SegmentAllocTest, FreeForeignPointerPanics) {
  alignas(16) char local[64];
  EXPECT_DEATH(alloc_.Free(local + 16), "non-segment");
}

TEST_F(SegmentAllocTest, WalkVisitsAllBlocksInOrder) {
  void* a = alloc_.Allocate(32);
  void* b = alloc_.Allocate(48);
  void* c = alloc_.Allocate(64);
  alloc_.Free(b);
  std::vector<std::pair<void*, bool>> seen;
  alloc_.WalkBlocks([&](const SegmentAllocator::BlockInfo& info) {
    seen.emplace_back(info.base, info.live);
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], std::make_pair(a, true));
  EXPECT_EQ(seen[1], std::make_pair(b, false));
  EXPECT_EQ(seen[2], std::make_pair(c, true));
}

// Property test: a randomized allocate/free workload preserves (a) no two
// live blocks overlap, (b) freed blocks are reused whole at exact size,
// (c) allocator accounting matches a shadow model.
TEST_F(SegmentAllocTest, PropertyRandomizedWorkloadKeepsInvariants) {
  amber::Rng rng(0xA3BE12);
  std::map<void*, size_t> live;  // shadow model
  for (int step = 0; step < 5000; ++step) {
    const bool do_alloc = live.empty() || rng.NextDouble() < 0.6;
    if (do_alloc) {
      const size_t size = static_cast<size_t>(rng.Range(1, 2048));
      void* p = alloc_.Allocate(size);
      if (p == nullptr) {
        Grow();
        p = alloc_.Allocate(size);
        ASSERT_NE(p, nullptr);
      }
      // Overlap check against the shadow model.
      const auto base = reinterpret_cast<uintptr_t>(p);
      const size_t rounded = (size + 15) & ~size_t{15};
      for (const auto& [q, qsize] : live) {
        const auto qbase = reinterpret_cast<uintptr_t>(q);
        EXPECT_TRUE(base + rounded <= qbase || qbase + qsize <= base)
            << "overlapping live segments";
      }
      // Write a pattern to catch cross-block scribbles later.
      std::memset(p, static_cast<int>(base & 0xff), rounded);
      live[p] = rounded;
    } else {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.Below(live.size())));
      // Verify the pattern survived.
      const auto base = reinterpret_cast<uintptr_t>(it->first);
      const auto* bytes = static_cast<uint8_t*>(it->first);
      EXPECT_EQ(bytes[0], static_cast<uint8_t>(base & 0xff));
      EXPECT_EQ(bytes[it->second - 1], static_cast<uint8_t>(base & 0xff));
      alloc_.Free(it->first);
      live.erase(it);
    }
    if (step % 512 == 0) {
      alloc_.CheckIntegrity();
    }
  }
  alloc_.CheckIntegrity();
  EXPECT_EQ(alloc_.live_segments(), static_cast<int64_t>(live.size()));
}

}  // namespace
}  // namespace mem
