// Differential tests of amber::AddressMap (src/base/address_map.h) against
// std::unordered_map: seeded random operation mixes across several growths,
// a cluster of colliding keys that wraps past the end of the table and is
// then erased from the middle, and integer thread-id keys churning through a
// bounded window of live ids.

#include "src/base/address_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/base/rng.h"

namespace amber {
namespace {

using Reference = std::unordered_map<const void*, uint64_t>;

// Keys 16 bytes apart, like small objects in one arena region.
const void* Key(uint64_t i) {
  return reinterpret_cast<const void*>(uintptr_t{0x7f0000000000} + 16 * i);
}

// Same size as the reference, every reference entry found with its value,
// and ForEach visits every live key exactly once.
void ExpectMatches(const AddressMap<uint64_t>& map, const Reference& ref) {
  ASSERT_EQ(map.size(), ref.size());
  for (const auto& [key, value] : ref) {
    const uint64_t* found = map.Find(key);
    ASSERT_NE(found, nullptr) << "missing key " << key;
    EXPECT_EQ(*found, value);
  }
  std::unordered_map<const void*, int> visits;
  map.ForEach([&](const void* key, const uint64_t& value) {
    ++visits[key];
    const auto it = ref.find(key);
    ASSERT_NE(it, ref.end()) << "ForEach visited erased key " << key;
    EXPECT_EQ(value, it->second);
  });
  EXPECT_EQ(visits.size(), ref.size());
  for (const auto& [key, n] : visits) {
    EXPECT_EQ(n, 1) << "ForEach visited " << key << " " << n << " times";
  }
}

TEST(AddressMapTest, EmptyMapAllocatesNothing) {
  AddressMap<uint64_t> map;
  EXPECT_EQ(map.capacity(), 0u);
  EXPECT_EQ(map.Find(Key(1)), nullptr);
  EXPECT_FALSE(map.Erase(Key(1)));
  int visits = 0;
  map.ForEach([&](const void*, const uint64_t&) { ++visits; });
  EXPECT_EQ(visits, 0);
  EXPECT_EQ(map.capacity(), 0u);
  map[Key(1)] = 7;
  EXPECT_GT(map.capacity(), 0u);
  EXPECT_EQ(*map.Find(Key(1)), 7u);
  // Null marks an empty slot; it is never found and never erased.
  EXPECT_EQ(map.Find(nullptr), nullptr);
  EXPECT_FALSE(map.Erase(nullptr));
  EXPECT_EQ(map.size(), 1u);
}

TEST(AddressMapTest, OperatorBracketValueInitializesAndOverwrites) {
  AddressMap<uint64_t> map;
  EXPECT_EQ(map[Key(3)], 0u);
  map[Key(3)] = 5;
  map[Key(3)] += 1;
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(*map.Find(Key(3)), 6u);
  EXPECT_TRUE(map.Erase(Key(3)));
  EXPECT_FALSE(map.Erase(Key(3)));
  EXPECT_EQ(map[Key(3)], 0u);  // a re-inserted key starts fresh
}

TEST(AddressMapTest, RandomOperationsMatchUnorderedMap) {
  struct Phase {
    int ops;
    int insert_pct;  // insert or overwrite
    int erase_pct;   // the rest are finds
  };
  // Fill past several growths, churn at a steady size, drain most of the
  // map (capacity never shrinks, so clusters thin out), then refill.
  const Phase phases[] = {{30000, 70, 10}, {30000, 40, 40}, {25000, 10, 70}, {30000, 65, 15}};
  constexpr uint64_t kKeySpace = 6000;
  Rng rng(20261016);
  AddressMap<uint64_t> map;
  Reference ref;
  size_t capacity = map.capacity();
  int growths = 0;
  int total_ops = 0;
  for (const Phase& phase : phases) {
    for (int i = 0; i < phase.ops; ++i, ++total_ops) {
      const void* key = Key(rng.Below(kKeySpace));
      const auto pct = static_cast<int>(rng.Below(100));
      if (pct < phase.insert_pct) {
        const uint64_t value = rng.Next();
        map[key] = value;
        ref[key] = value;
      } else if (pct < phase.insert_pct + phase.erase_pct) {
        ASSERT_EQ(map.Erase(key), ref.erase(key) == 1) << "op " << total_ops;
      } else {
        const uint64_t* found = map.Find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(found != nullptr, it != ref.end()) << "op " << total_ops;
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second);
        }
      }
      if (map.capacity() != capacity) {
        ++growths;
        capacity = map.capacity();
      }
      ASSERT_EQ(map.size(), ref.size()) << "op " << total_ops;
    }
    ExpectMatches(map, ref);
  }
  EXPECT_GE(total_ops, 100000);
  EXPECT_GE(growths, 4);
}

TEST(AddressMapTest, ClusterWrappingPastTheEndSurvivesMiddleErases) {
  for (const size_t target_capacity : {size_t{16}, size_t{64}, size_t{1024}}) {
    SCOPED_TRACE(target_capacity);
    // Grow to the target, then empty the map: capacity never shrinks.
    AddressMap<uint64_t> map;
    for (uint64_t i = 0; map.capacity() < target_capacity; ++i) {
      map[Key(i)] = i;
    }
    for (uint64_t i = 0; map.size() > 0; ++i) {
      map.Erase(Key(i));
    }
    ASSERT_EQ(map.capacity(), target_capacity);

    // Half a table of keys whose probes all start in the last two slots: one
    // cluster that runs off the end and continues from slot 0.
    std::vector<const void*> cluster;
    for (uint64_t i = 0; cluster.size() < target_capacity / 2; ++i) {
      if (map.HomeOf(Key(i)) >= target_capacity - 2) {
        cluster.push_back(Key(i));
      }
    }
    Reference ref;
    for (size_t i = 0; i < cluster.size(); ++i) {
      map[cluster[i]] = i;
      ref[cluster[i]] = i;
    }
    ASSERT_EQ(map.capacity(), target_capacity);  // no growth: the cluster stays
    ExpectMatches(map, ref);

    // Erase keys from inside the cluster (never its first); every survivor
    // must stay reachable and the erased key must read as absent.
    Rng rng(target_capacity);
    while (cluster.size() > 1) {
      const size_t middle = 1 + rng.Below(cluster.size() - 1);
      const void* key = cluster[middle];
      cluster.erase(cluster.begin() + static_cast<std::ptrdiff_t>(middle));
      ASSERT_TRUE(map.Erase(key));
      ref.erase(key);
      EXPECT_EQ(map.Find(key), nullptr);
      ExpectMatches(map, ref);
    }
    ASSERT_TRUE(map.Erase(cluster[0]));
    EXPECT_EQ(map.size(), 0u);
  }
}

// Thread ids as keys, the way rtrace keys its live traced threads: ids are
// sequential and never zero, and only a window of them is alive at once.
// The table is sized by that window, not by how many ids went by.
TEST(AddressMapTest, IntegerIdKeysStayBoundedByTheLiveWindow) {
  constexpr uint64_t kLive = 24;
  constexpr uint64_t kIds = 20000;
  AddressMap<uint64_t, uint64_t> map;
  std::unordered_map<uint64_t, uint64_t> ref;
  for (uint64_t id = 1; id <= kIds; ++id) {
    map[id] = 3 * id;
    ref[id] = 3 * id;
    if (id > kLive) {
      ASSERT_TRUE(map.Erase(id - kLive)) << "id " << id - kLive;
      ref.erase(id - kLive);
      ASSERT_EQ(map.Find(id - kLive), nullptr);
    }
    ASSERT_EQ(map.size(), ref.size());
  }
  for (const auto& [id, value] : ref) {
    const uint64_t* found = map.Find(id);
    ASSERT_NE(found, nullptr) << "missing id " << id;
    EXPECT_EQ(*found, value);
  }
  // kLive + 1 entries at three quarters' load fit in 64 slots.
  EXPECT_LE(map.capacity(), 64u);
  // Zero marks an empty slot; it is never found and never erased.
  EXPECT_EQ(map.Find(0), nullptr);
  EXPECT_FALSE(map.Erase(0));
}

}  // namespace
}  // namespace amber
