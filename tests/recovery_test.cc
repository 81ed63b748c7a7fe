// Tests for crash recovery and planned shutdown: immutable objects re-bind
// to a surviving replica (deterministic lowest-live-node election), mutable
// objects opted in with amber::SetRecoverable restore their last buddy
// checkpoint (the documented staleness contract: work since the checkpoint
// is lost), lost threads surface through TryJoin instead of hanging, and
// DrainNode evacuates a node's residents — attach groups intact.

#include <gtest/gtest.h>

#include <vector>

#include "src/core/amber.h"
#include "src/fault/fault.h"
#include "src/metrics/metrics.h"

namespace amber {
namespace {

Runtime::Config TestConfig(int nodes = 4, int procs = 2) {
  Runtime::Config c;
  c.nodes = nodes;
  c.procs_per_node = procs;
  c.arena_bytes = size_t{256} << 20;
  c.initial_regions_per_node = 4;
  return c;
}

class Counter : public Object {
 public:
  int Add(int d) {
    Work(kMicrosecond * 20);
    value_ += d;
    return value_;
  }
  int Get() const { return value_; }
  int Spin() {
    Work(Millis(30));
    return 1;
  }

 private:
  int value_ = 0;
};

// Records recovery and drain events published on the observer bus.
struct RecoveryLog : RuntimeObserver {
  struct Recovered {
    const void* obj;
    NodeId from;
    NodeId to;
    bool from_checkpoint;
  };
  struct Drained {
    NodeId node;
    int moved;
  };
  std::vector<Recovered> recovered;
  std::vector<Drained> drained;

  void OnObjectRecovered(Time /*when*/, const void* obj, NodeId from, NodeId to,
                         bool from_checkpoint) override {
    recovered.push_back({obj, from, to, from_checkpoint});
  }
  void OnNodeDrained(Time /*when*/, NodeId node, int objects_moved) override {
    drained.push_back({node, objects_moved});
  }
};

fault::FaultPlan CrashPlan(NodeId node, Time crash_at, Time restart_at = -1) {
  fault::FaultPlan plan;
  fault::NodeEvent ev;
  ev.node = node;
  ev.crash_at = crash_at;
  ev.restart_at = restart_at;
  plan.node_events.push_back(ev);
  return plan;
}

TEST(RecoveryTest, ImmutableHomeCrashRebindsToLowestLiveReplica) {
  Runtime rt(TestConfig());
  fault::Injector injector(CrashPlan(/*node=*/3, /*crash_at=*/Millis(35)));
  metrics::Registry metrics;
  RecoveryLog log;
  rt.SetMetrics(&metrics);
  rt.AddObserver(&log);
  rt.SetFaultInjector(&injector);
  rt.SetFailureHandler([](const FailureEvent&) { return FailureAction::kRecover; });
  rt.Run([&] {
    // A root-level Call leaves this thread at the callee's node (its thread
    // object travels with it), so keep an anchor on node 0 to hop home
    // before the crash lands — the crash must not take the driver with it.
    auto anchor = New<Counter>();
    auto c = NewOn<Counter>(3);            // homed on the node about to die
    c.Call(&Counter::Add, 7);              // driver is now on node 3
    MakeImmutable(c);
    ASSERT_EQ(MoveTo(c, 1), Status::kOk);  // replica on a survivor
    anchor.Call(&Counter::Get);            // driver back on node 0
    Work(Millis(100));                     // crash lands, suspicion matures
    // The home is dead; invocation transparently re-binds to the surviving
    // replica — the lowest live holder becomes the new home.
    EXPECT_EQ(c.Call(&Counter::Get), 7);
    EXPECT_EQ(Locate(c), 1);
    rt.ValidateLocationInvariants();
  });
  ASSERT_EQ(log.recovered.size(), 1u);
  EXPECT_EQ(log.recovered[0].from, 3);
  EXPECT_EQ(log.recovered[0].to, 1);
  EXPECT_FALSE(log.recovered[0].from_checkpoint);
  EXPECT_EQ(metrics.CounterTotal("recovery.rebinds"), 1);
  EXPECT_EQ(metrics.CounterTotal("recovery.restores"), 0);
}

TEST(RecoveryTest, CheckpointRestoreHonorsStalenessContract) {
  Runtime rt(TestConfig());
  fault::Injector injector(CrashPlan(/*node=*/2, /*crash_at=*/Millis(45)));
  metrics::Registry metrics;
  RecoveryLog log;
  rt.SetMetrics(&metrics);
  rt.AddObserver(&log);
  rt.SetFaultInjector(&injector);
  rt.SetFailureHandler([](const FailureEvent&) { return FailureAction::kRecover; });
  rt.Run([&] {
    auto anchor = New<Counter>();          // the driver's way home (node 0)
    auto c = New<Counter>();
    SetRecoverable(c);
    ASSERT_EQ(MoveTo(c, 2), Status::kOk);  // successful move re-checkpoints
    c.Call(&Counter::Add, 5);              // driver is now on node 2
    ASSERT_TRUE(Checkpoint(c));  // value 5 committed to the buddy
    c.Call(&Counter::Add, 3);    // applied in memory, never checkpointed
    anchor.Call(&Counter::Get);  // driver back on node 0, clear of the blast
    Work(Millis(110));           // node 2 dies; suspicion matures
    // The staleness contract: recovery restores the *last checkpoint* — the
    // un-checkpointed +3 is lost and the application re-runs from 5.
    EXPECT_EQ(c.Call(&Counter::Get), 5);
    EXPECT_EQ(Locate(c), 0);  // restored on the buddy (lowest live != 2)
    EXPECT_EQ(c.Call(&Counter::Add, 2), 7);  // usable after recovery
    rt.ValidateLocationInvariants();
  });
  ASSERT_EQ(log.recovered.size(), 1u);
  EXPECT_EQ(log.recovered[0].from, 2);
  EXPECT_EQ(log.recovered[0].to, 0);
  EXPECT_TRUE(log.recovered[0].from_checkpoint);
  EXPECT_EQ(metrics.CounterTotal("recovery.restores"), 1);
  // SetRecoverable, the move, and the explicit call each took a checkpoint.
  EXPECT_GE(metrics.CounterTotal("recovery.checkpoints"), 3);
}

// A node that restarts learns where the objects recovered away from it went:
// a hint for a mutable object, a replica for an immutable one, each naming
// the latest owner even when the object was recovered twice while the node
// was down. A thread on the restarted node then reaches each in one hop.
TEST(RecoveryTest, RestartedNodeNamesTheOwnersOfObjectsRecoveredAway) {
  Runtime rt(TestConfig());
  fault::FaultPlan plan = CrashPlan(/*node=*/3, /*crash_at=*/Millis(35),
                                    /*restart_at=*/Millis(400));
  fault::NodeEvent second;
  second.node = 1;
  second.crash_at = Millis(200);
  plan.node_events.push_back(second);
  fault::Injector injector(plan);
  RecoveryLog log;
  rt.AddObserver(&log);
  rt.SetFaultInjector(&injector);
  rt.SetFailureHandler([](const FailureEvent&) { return FailureAction::kRecover; });
  rt.Run([&] {
    auto anchor0 = New<Counter>();  // ways for main to reach nodes 0, 2, 3
    auto anchor2 = NewOn<Counter>(2);
    auto anchor3 = NewOn<Counter>(3);
    auto m = NewOn<Counter>(3);
    SetRecoverable(m);
    m.Call(&Counter::Add, 5);  // main is now on node 3
    ASSERT_TRUE(Checkpoint(m));
    auto imm = New<Counter>();  // homed on node 3
    imm.Call(&Counter::Add, 9);
    MakeImmutable(imm);
    ASSERT_EQ(MoveTo(imm, 1), Status::kOk);  // the only replica
    anchor0.Call(&Counter::Get);               // main back on node 0
    Work(Millis(100));                         // node 3 dies; suspicion matures

    // Both objects are recovered away from node 3: m onto its buddy (node 0),
    // imm onto the replica at node 1; reading imm leaves a replica on node 0.
    EXPECT_EQ(m.Call(&Counter::Get), 5);
    EXPECT_EQ(imm.Call(&Counter::Get), 9);
    EXPECT_EQ(rt.OwnerOf(m.object()), 0);
    EXPECT_EQ(rt.OwnerOf(imm.object()), 1);

    // Node 1 dies too. A read from node 2, which knows imm only by its home
    // (down node 3), recovers imm a second time: onto node 0's replica.
    Work(Millis(220));
    anchor2.Call(&Counter::Get);  // main on node 2
    EXPECT_EQ(imm.Call(&Counter::Get), 9);
    EXPECT_EQ(rt.OwnerOf(imm.object()), 0);

    Work(Millis(200));  // node 3 restarts at 400 ms
    const Descriptor dm = rt.table(3).Lookup(m.unchecked());
    EXPECT_EQ(dm.state, Residency::kRemoteHint);
    EXPECT_EQ(dm.forward, 0);
    const Descriptor di = rt.table(3).Lookup(imm.unchecked());
    EXPECT_EQ(di.state, Residency::kReplica);
    EXPECT_EQ(di.forward, 0);

    anchor3.Call(&Counter::Get);  // main on node 3
    ASSERT_EQ(Here(), 3);
    const int64_t hops = rt.forward_hops();
    int64_t migrations = rt.thread_migrations();
    EXPECT_EQ(m.Call(&Counter::Get), 5);
    EXPECT_EQ(rt.thread_migrations(), migrations + 1);  // straight to node 0
    anchor3.Call(&Counter::Get);
    migrations = rt.thread_migrations();
    EXPECT_EQ(imm.Call(&Counter::Get), 9);
    EXPECT_EQ(rt.thread_migrations(), migrations);  // read on the local replica
    EXPECT_EQ(rt.forward_hops(), hops);
    rt.ValidateLocationInvariants();
  });
  ASSERT_EQ(log.recovered.size(), 3u);
  EXPECT_EQ(log.recovered[0].from, 3);
  EXPECT_EQ(log.recovered[1].from, 3);
  EXPECT_EQ(log.recovered[2].from, 1);
  EXPECT_EQ(log.recovered[2].to, 0);
}

TEST(RecoveryTest, LostThreadSurfacesThroughTryJoinAndFinishesAfterRestart) {
  Runtime rt(TestConfig());
  fault::Injector injector(CrashPlan(/*node=*/2, /*crash_at=*/Millis(10),
                                     /*restart_at=*/Millis(60)));
  rt.SetFaultInjector(&injector);
  rt.SetFailureHandler([](const FailureEvent&) { return FailureAction::kRetry; });
  rt.Run([&] {
    auto c = New<Counter>();
    ASSERT_EQ(MoveTo(c, 2), Status::kOk);
    auto w = StartThread(c, &Counter::Spin);  // freezes mid-Work at the crash
    Work(Millis(5));
    bool saw_lost = false;
    while (!w.TryJoin()) {  // false once node 2's lease expires
      saw_lost = true;
      EXPECT_TRUE(w.object()->lost());
      Work(Millis(5));
    }
    EXPECT_TRUE(saw_lost);
    EXPECT_EQ(w.result(), 1);  // the thread finished after the restart
    EXPECT_GT(Now(), Millis(60));
  });
}

TEST(RecoveryTest, DrainNodeEvacuatesResidentsAndAttachGroups) {
  Runtime rt(TestConfig());  // fault-free: drain is a planned operation
  RecoveryLog log;
  rt.AddObserver(&log);
  rt.Run([&] {
    auto m = New<Counter>();
    ASSERT_EQ(MoveTo(m, 1), Status::kOk);
    m.Call(&Counter::Add, 4);
    auto parent = New<Counter>();
    ASSERT_EQ(MoveTo(parent, 1), Status::kOk);
    auto child = New<Counter>();
    Attach(child, parent);
    auto imm = New<Counter>();
    imm.Call(&Counter::Add, 9);
    ASSERT_EQ(MoveTo(imm, 1), Status::kOk);
    MakeImmutable(imm);

    const int moved = DrainNode(1);
    EXPECT_GE(moved, 3);  // m, the attach group, imm

    EXPECT_NE(Locate(m), 1);
    EXPECT_NE(Locate(parent), 1);
    EXPECT_NE(Locate(imm), 1);
    EXPECT_EQ(Locate(child), Locate(parent));  // the group moved as a unit
    EXPECT_EQ(m.Call(&Counter::Get), 4);
    EXPECT_EQ(imm.Call(&Counter::Get), 9);
    rt.ValidateLocationInvariants();

    ASSERT_EQ(log.drained.size(), 1u);
    EXPECT_EQ(log.drained[0].node, 1);
    EXPECT_EQ(log.drained[0].moved, moved);
  });
}

TEST(RecoveryTest, DrainNodeSendsRootsRoundRobinInCreationOrder) {
  Runtime rt(TestConfig());  // 4 nodes: draining node 1 evacuates to 0, 2, 3
  rt.Run([&] {
    std::vector<Ref<Counter>> roots;
    for (int i = 0; i < 7; ++i) {
      roots.push_back(New<Counter>());
    }
    // The last root reuses the first one's segment: lowest address, newest
    // object. Creation order, not address order, decides where it goes.
    void* reused = roots[0].unchecked();
    Delete(roots[0]);
    roots.erase(roots.begin());
    roots.push_back(New<Counter>());
    ASSERT_EQ(static_cast<void*>(roots.back().unchecked()), reused);
    for (size_t i = 0; i < roots.size(); ++i) {
      ASSERT_EQ(MoveTo(roots[i], 1), Status::kOk);
      roots[i].Call(&Counter::Add, static_cast<int>(i));
    }

    EXPECT_EQ(DrainNode(1), static_cast<int>(roots.size()));

    const NodeId targets[] = {0, 2, 3};
    for (size_t i = 0; i < roots.size(); ++i) {
      EXPECT_EQ(Locate(roots[i]), targets[i % 3]) << "root " << i;
      EXPECT_EQ(roots[i].Call(&Counter::Get), static_cast<int>(i));
    }
    rt.ValidateLocationInvariants();
  });
}

// Creates objects and threads from the node it lives on, so their segments
// and stacks come from that node's heap.
class Site : public Object {
 public:
  Ref<Counter> Make() { return New<Counter>(); }
  int Idle() { return 1; }
  int StartAndJoin() { return StartThread(Ref<Site>(this), &Site::Idle).Join(); }
  ThreadRef<int64_t> StartWaiter(Ref<Barrier> b) {
    return StartThread(Ref<Site>(this), &Site::Wait, b);
  }
  int64_t Wait(Ref<Barrier> b) { return b.Call(&Barrier::Wait); }
};

// Node 1's heap holds every kind of block a drain must tell apart: roots,
// an attached child, an immutable primary, a deleted object's free block,
// thread objects, a joined thread's freed stack and a blocked thread's live
// stack. Only the six roots move.
TEST(RecoveryTest, DrainNodeFindsRootsAmongEveryKindOfHeapBlock) {
  Runtime rt(TestConfig());
  rt.Run([&] {
    auto site = NewOn<Site>(1);
    auto a = site.Call(&Site::Make);
    auto b = site.Call(&Site::Make);
    auto parent = site.Call(&Site::Make);
    auto child = site.Call(&Site::Make);
    Attach(child, parent);
    auto imm = site.Call(&Site::Make);
    imm.Call(&Counter::Add, 7);
    MakeImmutable(imm);
    Delete(site.Call(&Site::Make));
    ASSERT_EQ(site.Call(&Site::StartAndJoin), 1);
    auto barrier = New<Barrier>(2);
    ASSERT_EQ(rt.OwnerOf(barrier.object()), 1);  // root-frame calls leave this thread on node 1
    auto waiter = site.Call(&Site::StartWaiter, barrier);
    Work(Millis(1));  // the waiter blocks at the barrier
    b.Call(&Counter::Add, 2);
    const NodeId home = rt.address_space().HomeOf(a.unchecked());
    ASSERT_EQ(home, 1);

    EXPECT_EQ(DrainNode(1), 6);  // site, a, b, parent, imm, barrier
    for (Object* o : {site.object(), a.object(), b.object(), parent.object(), imm.object(),
                      barrier.object()}) {
      EXPECT_NE(rt.OwnerOf(o), 1);
    }
    EXPECT_EQ(Locate(child), Locate(parent));
    EXPECT_EQ(b.Call(&Counter::Get), 2);
    EXPECT_EQ(imm.Call(&Counter::Get), 7);
    rt.ValidateLocationInvariants();
    barrier.Call(&Barrier::Wait);
    waiter.Join();
    rt.ValidateLocationInvariants();
  });
}

}  // namespace
}  // namespace amber
