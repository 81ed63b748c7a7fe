// Direct unit tests for the per-node descriptor tables and object headers
// (the §3.2/§3.3 state machines), independent of the full runtime.

#include "src/kernel/descriptor_table.h"

#include <gtest/gtest.h>

#include "src/kernel/object_header.h"

namespace amber {
namespace {

TEST(DescriptorTableTest, AbsentReadsAsUninitialized) {
  DescriptorTable table(0);
  int dummy;
  const Descriptor d = table.Lookup(&dummy);
  EXPECT_EQ(d.state, Residency::kUninitialized);
  EXPECT_EQ(d.forward, kNoNode);
  EXPECT_EQ(table.entries(), 0u);
}

TEST(DescriptorTableTest, ResidentRoundTrip) {
  DescriptorTable table(2);
  int obj;
  table.SetResident(&obj);
  EXPECT_EQ(table.Lookup(&obj).state, Residency::kResident);
  EXPECT_EQ(table.entries(), 1u);
}

TEST(DescriptorTableTest, ForwardOverwritesResident) {
  DescriptorTable table(0);
  int obj;
  table.SetResident(&obj);
  table.SetForward(&obj, 3);
  const Descriptor d = table.Lookup(&obj);
  EXPECT_EQ(d.state, Residency::kRemoteHint);
  EXPECT_EQ(d.forward, 3);
}

TEST(DescriptorTableTest, ForwardToSelfRejected) {
#ifdef NDEBUG
  GTEST_SKIP() << "AMBER_DCHECK compiles away in NDEBUG builds";
#else
  DescriptorTable table(1);
  int obj;
  EXPECT_DEATH(table.SetForward(&obj, 1), "forwarding to self");
#endif
}

TEST(DescriptorTableTest, ReplicaState) {
  DescriptorTable table(0);
  int obj;
  table.SetReplica(&obj);
  EXPECT_EQ(table.Lookup(&obj).state, Residency::kReplica);
}

TEST(DescriptorTableTest, EraseReturnsToUninitialized) {
  DescriptorTable table(0);
  int obj;
  table.SetResident(&obj);
  table.Erase(&obj);
  EXPECT_EQ(table.Lookup(&obj).state, Residency::kUninitialized);
  EXPECT_EQ(table.entries(), 0u);
}

TEST(DescriptorTableTest, LookupCounterTracksChecks) {
  // Every Lookup is counted by the active self-profiler (the count bench_scale
  // and perfbench publish); the setters are not lookups.
  telemetry::SelfProfiler prof(telemetry::SelfProfiler::Config{});
  prof.Enable();
  DescriptorTable table(0);
  int obj;
  table.SetResident(&obj);
  const int64_t before = prof.count(telemetry::Count::kDescriptorLookups);
  for (int i = 0; i < 10; ++i) {
    table.Lookup(&obj);
  }
  table.SetForward(&obj, 1);
  EXPECT_EQ(prof.count(telemetry::Count::kDescriptorLookups), before + 10);
}

TEST(DescriptorTableTest, ManyObjectsIndependent) {
  DescriptorTable table(0);
  int objs[100];
  for (int i = 0; i < 100; ++i) {
    if (i % 3 == 0) {
      table.SetResident(&objs[i]);
    } else if (i % 3 == 1) {
      table.SetForward(&objs[i], (i % 7) + 1);
    } else {
      table.SetReplica(&objs[i]);
    }
  }
  for (int i = 0; i < 100; ++i) {
    const Descriptor d = table.Lookup(&objs[i]);
    if (i % 3 == 0) {
      EXPECT_EQ(d.state, Residency::kResident);
    } else if (i % 3 == 1) {
      EXPECT_EQ(d.state, Residency::kRemoteHint);
      EXPECT_EQ(d.forward, (i % 7) + 1);
    } else {
      EXPECT_EQ(d.state, Residency::kReplica);
    }
  }
  EXPECT_EQ(table.entries(), 100u);
}

TEST(DescriptorTableTest, ForEachVisitsAllEntries) {
  DescriptorTable table(0);
  int a;
  int b;
  table.SetResident(&a);
  table.SetForward(&b, 2);
  int visited = 0;
  table.ForEach([&](const void* obj, const Descriptor& d) {
    ++visited;
    if (obj == &a) {
      EXPECT_EQ(d.state, Residency::kResident);
    } else {
      EXPECT_EQ(obj, &b);
      EXPECT_EQ(d.forward, 2);
    }
  });
  EXPECT_EQ(visited, 2);
}

TEST(ObjectHeaderTest, FlagPredicates) {
  ObjectHeader h;
  EXPECT_FALSE(h.IsImmutable());
  EXPECT_FALSE(h.IsMember());
  EXPECT_FALSE(h.IsStackLocal());
  EXPECT_FALSE(h.IsThread());
  h.flags = kObjImmutable | kObjThread;
  EXPECT_TRUE(h.IsImmutable());
  EXPECT_TRUE(h.IsThread());
  EXPECT_FALSE(h.IsMember());
}

}  // namespace
}  // namespace amber
