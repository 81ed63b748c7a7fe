// Tests for the Amber core: objects, references, invocation with thread
// migration, mobility primitives, and threads.

#include "src/core/amber.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace amber {
namespace {

using amber::Millis;

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
    value_ += d;
    return value_;
  }
  int Get() const { return value_; }
  NodeId WhereAmI() { return Here(); }

 private:
  int value_ = 0;
};

TEST(ObjectTest, NewCreatesResidentLocalObject) {
  Runtime rt(TestConfig());
  rt.Run([&] {
    auto c = New<Counter>();
    ASSERT_TRUE(c);
    EXPECT_EQ(rt.OwnerOf(c.object()), 0);
    EXPECT_EQ(Locate(c), 0);
    EXPECT_TRUE(rt.address_space().Contains(c.unchecked()));
    rt.ValidateLocationInvariants();
  });
}

TEST(ObjectTest, LocalCallExecutesAndCharges) {
  Runtime rt(TestConfig(1, 1));
  Time before = 0;
  Time after = 0;
  rt.Run([&] {
    auto c = New<Counter>();
    before = Now();
    EXPECT_EQ(c.Call(&Counter::Add, 5), 5);
    EXPECT_EQ(c.Call(&Counter::Add, 3), 8);
    after = Now();
  });
  // Two local invocations: ≥ 2 × (invoke + return) of CPU.
  const auto& cost = rt.cost();
  EXPECT_GE(after - before, 2 * (cost.local_invoke + cost.local_return));
  EXPECT_EQ(rt.thread_migrations(), 0);
}

TEST(ObjectTest, ConstMethodCall) {
  Runtime rt(TestConfig(1, 1));
  rt.Run([&] {
    auto c = New<Counter>();
    c.Call(&Counter::Add, 7);
    EXPECT_EQ(c.Call(&Counter::Get), 7);
  });
}

TEST(MobilityTest, MoveToChangesLocation) {
  Runtime rt(TestConfig());
  rt.Run([&] {
    auto c = New<Counter>();
    MoveTo(c, 2);
    EXPECT_EQ(Locate(c), 2);
    EXPECT_EQ(rt.OwnerOf(c.object()), 2);
    EXPECT_EQ(rt.objects_moved(), 1);
    rt.ValidateLocationInvariants();
  });
}

TEST(MobilityTest, MoveIsSynchronousAndCostsTime) {
  Runtime rt(TestConfig());
  Duration move_cost = 0;
  rt.Run([&] {
    auto c = New<Counter>();
    const Time t0 = Now();
    MoveTo(c, 3);
    move_cost = Now() - t0;
  });
  // A move includes setup, marshalling, a bulk wire transfer, and install:
  // it must take on the order of milliseconds under default costs.
  EXPECT_GT(move_cost, Millis(1));
}

TEST(MobilityTest, RemoteCallMigratesThreadAndReturns) {
  Runtime rt(TestConfig());
  rt.Run([&] {
    auto home_obj = New<Counter>();  // node 0: anchors this thread
    (void)home_obj;
    auto c = New<Counter>();
    MoveTo(c, 2);
    // Invoke from within an operation on home_obj so the return check
    // brings us back to node 0.
    class Driver : public Object {
     public:
      NodeId Drive(Ref<Counter> c) {
        EXPECT_EQ(Here(), 0);
        const NodeId remote = c.Call(&Counter::WhereAmI);
        EXPECT_EQ(remote, 2);  // executed at the object
        EXPECT_EQ(Here(), 0);  // returned to the enclosing frame's node
        return remote;
      }
    };
    auto d = New<Driver>();
    EXPECT_EQ(d.Call(&Driver::Drive, c), 2);
    EXPECT_GE(rt.thread_migrations(), 2);  // there and back
  });
}

TEST(MobilityTest, RootFrameCallLeavesThreadAtCallee) {
  // A remote call made from the thread's root frame does NOT migrate back:
  // the root frame is the thread object, which travels with the thread
  // (§3.4's Join tradeoff).
  Runtime rt(TestConfig());
  rt.Run([&] {
    auto c = New<Counter>();
    MoveTo(c, 1);
    EXPECT_EQ(Here(), 0);
    c.Call(&Counter::Add, 1);
    EXPECT_EQ(Here(), 1);
  });
}

TEST(MobilityTest, ForwardingChainFollowedAndCompacted) {
  Runtime rt(TestConfig(6, 1));
  rt.Run([&] {
    auto anchor = New<Counter>();
    (void)anchor;
    auto c = New<Counter>();
    // Build a chain: 0 -> 1 -> 2 -> 3 -> 4 by repeated moves.
    for (NodeId n = 1; n <= 4; ++n) {
      MoveTo(c, n);
    }
    rt.ValidateLocationInvariants();
    // Node 0's hint is stale (points at 1); the protocol must chase through
    // the chain and then compact it.
    class Driver : public Object {
     public:
      int Drive(Ref<Counter> c) { return c.Call(&Counter::Add, 1); }
    };
    auto d = New<Driver>();
    const int64_t hops_before = rt.forward_hops();
    d.Call(&Driver::Drive, c);
    EXPECT_GT(rt.forward_hops(), hops_before);  // chased at least one hop
    // After compaction the hint at node 0 points straight at node 4.
    EXPECT_EQ(rt.table(0).Lookup(c.unchecked()).state, Residency::kRemoteHint);
    EXPECT_EQ(rt.table(0).Lookup(c.unchecked()).forward, 4);
    const int64_t hops_after = rt.forward_hops();
    d.Call(&Driver::Drive, c);
    EXPECT_EQ(rt.forward_hops(), hops_after);  // second call: direct hop only
    rt.ValidateLocationInvariants();
  });
}

TEST(MobilityTest, HomeNodeResolvesUninitializedDescriptor) {
  Runtime rt(TestConfig(4, 1));
  rt.Run([&] {
    auto c = New<Counter>();  // home = node 0
    MoveTo(c, 2);
    // A thread that starts on node 3 has an uninitialized descriptor for c;
    // it must route via c's home node (0), then follow 0's hint to 2.
    class Prober : public Object {
     public:
      NodeId Probe(Ref<Counter> c) { return c.Call(&Counter::WhereAmI); }
    };
    auto p = New<Prober>();
    MoveTo(p, 3);
    EXPECT_EQ(rt.table(3).Lookup(c.unchecked()).state, Residency::kUninitialized);
    EXPECT_EQ(p.Call(&Prober::Probe, c), 2);
    rt.ValidateLocationInvariants();
  });
}

// Residency is the header's `owner` alone, so a hint that lands in the
// owner's own table (a compaction racing a move back, say) is shadowed, not
// obeyed: the chase stops at the owner instead of bouncing between nodes
// until the hop bound panics with "forwarding chain did not terminate".
TEST(MobilityTest, HintAtTheOwnerCannotStrandTheObject) {
  Runtime rt(TestConfig(4, 1));
  rt.Run([&] {
    auto c = NewOn<Counter>(1);
    rt.table(1).SetForward(c.unchecked(), 2);
    EXPECT_EQ(c.Call(&Counter::WhereAmI), 1);
    EXPECT_EQ(rt.OwnerOf(c.object()), 1);
    rt.ValidateLocationInvariants();
  });
}

TEST(MobilityTest, MoveToSameNodeIsNoOp) {
  Runtime rt(TestConfig());
  rt.Run([&] {
    auto c = New<Counter>();
    MoveTo(c, 0);
    EXPECT_EQ(rt.objects_moved(), 0);
    EXPECT_EQ(Locate(c), 0);
  });
}

class Pair : public Object {
 public:
  int Sum() { return a_.Get() + b_.Get(); }
  Counter& a() { return a_; }
  Counter& b() { return b_; }

 private:
  Counter a_;  // member objects: co-resident, move with the Pair (§3.6)
  Counter b_;
};

TEST(ObjectTest, MemberObjectsShareResidency) {
  Runtime rt(TestConfig());
  rt.Run([&] {
    auto p = New<Pair>();
    EXPECT_TRUE(p.unchecked()->a().amber_header().IsMember());
    EXPECT_EQ(p.unchecked()->a().AmberPrimary(), p.object());
    MoveTo(p, 2);
    // Invoking the member migrates to the container's node.
    Ref<Counter> a(&p.unchecked()->a());
    class Driver : public Object {
     public:
      NodeId Drive(Ref<Counter> a) { return a.Call(&Counter::WhereAmI); }
    };
    auto d = New<Driver>();
    EXPECT_EQ(d.Call(&Driver::Drive, a), 2);
    rt.ValidateLocationInvariants();
  });
}

TEST(MobilityTest, AttachedObjectsMoveTogether) {
  Runtime rt(TestConfig());
  rt.Run([&] {
    auto a = New<Counter>();
    auto b = New<Counter>();
    auto c = New<Counter>();
    Attach(b, a);
    Attach(c, b);  // chain: c -> b -> a
    MoveTo(a, 3);
    EXPECT_EQ(Locate(a), 3);
    EXPECT_EQ(Locate(b), 3);
    EXPECT_EQ(Locate(c), 3);
    rt.ValidateLocationInvariants();
    // Unattach frees b (and its subtree) to move independently.
    Unattach(b);
    MoveTo(b, 1);
    EXPECT_EQ(Locate(a), 3);
    EXPECT_EQ(Locate(b), 1);
    EXPECT_EQ(Locate(c), 1);  // c still attached to b
    rt.ValidateLocationInvariants();
  });
}

TEST(MobilityTest, AttachBringsChildToParent) {
  Runtime rt(TestConfig());
  rt.Run([&] {
    auto parent = New<Counter>();
    auto child = New<Counter>();
    MoveTo(parent, 2);
    EXPECT_EQ(Locate(child), 0);
    Attach(child, parent);
    EXPECT_EQ(Locate(child), 2);  // co-location established at attach time
    rt.ValidateLocationInvariants();
  });
}

TEST(MobilityTest, MovingAttachedChildIsAnError) {
  Runtime rt(TestConfig());
  EXPECT_DEATH(rt.Run([&] {
    auto a = New<Counter>();
    auto b = New<Counter>();
    Attach(b, a);
    MoveTo(b, 1);
  }),
               "unattach");
}

TEST(MobilityTest, AttachmentCycleRejected) {
  Runtime rt(TestConfig());
  EXPECT_DEATH(rt.Run([&] {
    auto a = New<Counter>();
    auto b = New<Counter>();
    Attach(b, a);
    Attach(a, b);
  }),
               "cycle");
}

TEST(ImmutableTest, MoveToCopiesInsteadOfMoving) {
  Runtime rt(TestConfig());
  rt.Run([&] {
    auto c = New<Counter>();
    c.Call(&Counter::Add, 42);
    MakeImmutable(c);
    MoveTo(c, 2);
    // Original still resident at 0; node 2 holds a replica.
    EXPECT_EQ(rt.OwnerOf(c.object()), 0);
    EXPECT_EQ(rt.table(2).Lookup(c.unchecked()).state, Residency::kReplica);
    EXPECT_EQ(rt.replicas_installed(), 1);
    EXPECT_EQ(rt.objects_moved(), 0);
    rt.ValidateLocationInvariants();
  });
}

// A forwarding hint names where an object's bytes were, it does not hold
// them: MoveTo on an immutable object installs a replica at a destination
// that knows the object only by a hint (§2.3).
TEST(ImmutableTest, MoveToReplicatesOverAForwardingHint) {
  Runtime rt(TestConfig());
  rt.Run([&] {
    auto c = New<Counter>();
    c.Call(&Counter::Add, 42);
    MoveTo(c, 2);
    MoveTo(c, 1);  // node 2 keeps a hint to node 1
    ASSERT_EQ(rt.table(2).Lookup(c.unchecked()).state, Residency::kRemoteHint);
    MakeImmutable(c);
    const int64_t installed = rt.replicas_installed();
    EXPECT_EQ(MoveTo(c, 2), Status::kOk);
    EXPECT_EQ(rt.replicas_installed(), installed + 1);
    EXPECT_EQ(rt.table(2).Lookup(c.unchecked()).state, Residency::kReplica);
    EXPECT_EQ(rt.OwnerOf(c.object()), 1);
    rt.ValidateLocationInvariants();
  });
}

// A caller that knows an immutable object only by a hint has no bytes to
// send: the holder ships the copy, and the new replica's hint names it.
TEST(ImmutableTest, MoveToCopiesFromTheHolderNotAHintedCaller) {
  struct Copies : RuntimeObserver {
    int64_t min_bytes = std::numeric_limits<int64_t>::max();
    std::vector<NodeId> sources;  // senders of object-sized frames to node 2
    void OnMessage(Time, Time, NodeId src, NodeId dst, int64_t bytes) override {
      if (dst == 2 && bytes >= min_bytes) {
        sources.push_back(src);
      }
    }
  };
  Runtime rt(TestConfig());
  Copies copies;
  rt.AddObserver(&copies);
  rt.Run([&] {
    auto c = New<Counter>();
    c.Call(&Counter::Add, 42);
    MoveTo(c, 1);  // node 0, where this thread stays, keeps a hint to node 1
    MakeImmutable(c);
    ASSERT_EQ(Here(), 0);
    copies.min_bytes = static_cast<int64_t>(c.object()->amber_header().size);
    EXPECT_EQ(MoveTo(c, 2), Status::kOk);
    EXPECT_EQ(copies.sources, std::vector<NodeId>{1});
    const Descriptor d = rt.table(2).Lookup(c.unchecked());
    EXPECT_EQ(d.state, Residency::kReplica);
    EXPECT_EQ(d.forward, 1);
    rt.ValidateLocationInvariants();
  });
}

TEST(ImmutableTest, RemoteReadReplicatesInsteadOfMigrating) {
  Runtime rt(TestConfig());
  rt.Run([&] {
    auto c = New<Counter>();
    c.Call(&Counter::Add, 9);
    MakeImmutable(c);
    class Reader : public Object {
     public:
      int Read(Ref<Counter> c) {
        const NodeId before = Here();
        const int v = c.Call(&Counter::Get);
        EXPECT_EQ(Here(), before) << "reading an immutable must not migrate";
        return v;
      }
    };
    auto r = New<Reader>();
    MoveTo(r, 3);
    const int64_t migrations = rt.thread_migrations();
    EXPECT_EQ(r.Call(&Reader::Read, c), 9);
    // The main thread migrated to node 3's Reader (one hop; no hop back —
    // this call is from the root frame), but the Counter invocation itself
    // replicated instead of migrating.
    EXPECT_EQ(rt.replicas_installed(), 1);
    EXPECT_EQ(rt.thread_migrations(), migrations + 1);
    EXPECT_EQ(Here(), 3);
    // Second read: replica already installed, no new replica, no migration.
    r.Call(&Reader::Read, c);
    EXPECT_EQ(rt.replicas_installed(), 1);
    rt.ValidateLocationInvariants();
  });
}

// Deleting an immutable object deletes its replicas too: a mutable object
// that reuses the segment must not run from a node's stale copy.
TEST(ImmutableTest, DeleteDropsReplicasOnEveryNode) {
  class Caller : public Object {
   public:
    NodeId Ask(Ref<Counter> c) { return c.Call(&Counter::WhereAmI); }
  };
  Runtime rt(TestConfig());
  rt.Run([&] {
    auto c = New<Counter>();
    MakeImmutable(c);
    ASSERT_EQ(MoveTo(c, 2), Status::kOk);  // node 2 holds a replica
    void* addr = c.unchecked();
    Delete(c);
    auto d = New<Counter>();  // mutable, on node 0, in the freed segment
    ASSERT_EQ(static_cast<void*>(d.unchecked()), addr);
    auto caller = NewOn<Caller>(2);
    EXPECT_EQ(caller.Call(&Caller::Ask, d), 0);
    EXPECT_EQ(rt.OwnerOf(d.object()), 0);
    rt.ValidateLocationInvariants();
  });
}

TEST(ObjectTest, DeleteReclaimsSegmentForReuse) {
  Runtime rt(TestConfig(1, 1));
  rt.Run([&] {
    auto a = New<Counter>();
    void* addr = a.unchecked();
    Delete(a);
    auto b = New<Counter>();  // same size: reuses the freed block whole
    EXPECT_EQ(static_cast<void*>(b.unchecked()), addr);
  });
}

TEST(ObjectTest, DeleteRemoteObjectMigratesThere) {
  Runtime rt(TestConfig());
  rt.Run([&] {
    auto c = New<Counter>();
    MoveTo(c, 2);
    Delete(c);  // thread chases to node 2, deletes, root frame stays there
    EXPECT_EQ(rt.allocator(0).live_segments(),
              rt.allocator(0).live_segments());  // no crash; accounting sane
  });
}

TEST(ThreadTest, StartAndJoinReturnsResult) {
  Runtime rt(TestConfig());
  rt.Run([&] {
    auto c = New<Counter>();
    auto t = StartThread(c, &Counter::Add, 11);
    EXPECT_EQ(t.Join(), 11);
    EXPECT_TRUE(t.object()->finished());
  });
}

TEST(ThreadTest, ThreadMigratesToRemoteTarget) {
  Runtime rt(TestConfig());
  rt.Run([&] {
    auto c = New<Counter>();
    MoveTo(c, 3);
    auto t = StartThread(c, &Counter::WhereAmI);
    EXPECT_EQ(t.Join(), 3);
    // The thread died at node 3; joining chased it there.
    EXPECT_EQ(Here(), 3);
  });
}

TEST(ThreadTest, ManyThreadsConcurrentCounter) {
  Runtime rt(TestConfig(1, 4));
  rt.Run([&] {
    auto c = New<Counter>();
    std::vector<ThreadRef<int>> threads;
    for (int i = 0; i < 16; ++i) {
      threads.push_back(StartThread(c, &Counter::Add, 1));
    }
    for (auto& t : threads) {
      t.Join();
    }
    EXPECT_EQ(c.Call(&Counter::Get), 16);
  });
}

TEST(ThreadTest, ParallelSpeedupAcrossProcessors) {
  // 4 threads × 10 ms of Work on a 4-CPU node finishes in ~10 ms, not 40.
  class Worker : public Object {
   public:
    int Burn() {
      Work(Millis(10));
      return 1;
    }
  };
  Runtime rt(TestConfig(1, 4));
  Time elapsed = 0;
  rt.Run([&] {
    auto w = New<Worker>();
    const Time t0 = Now();
    std::vector<ThreadRef<int>> ts;
    for (int i = 0; i < 4; ++i) {
      ts.push_back(StartThread(w, &Worker::Burn));
    }
    for (auto& t : ts) {
      t.Join();
    }
    elapsed = Now() - t0;
  });
  EXPECT_LT(elapsed, Millis(20));
  EXPECT_GE(elapsed, Millis(10));
}

TEST(ThreadTest, VoidResultJoin) {
  class Sink : public Object {
   public:
    void Poke() { ++pokes_; }
    int pokes() const { return pokes_; }

   private:
    int pokes_ = 0;
  };
  Runtime rt(TestConfig(1, 1));
  rt.Run([&] {
    auto s = New<Sink>();
    auto t = StartThread(s, &Sink::Poke);
    t.Join();
    EXPECT_EQ(s.Call(&Sink::pokes), 1);
  });
}

TEST(ThreadTest, ArgumentsTravelByValue) {
  class Echo : public Object {
   public:
    std::vector<double> Round(std::vector<double> v) {
      for (double& x : v) {
        x *= 2;
      }
      return v;
    }
  };
  Runtime rt(TestConfig());
  rt.Run([&] {
    auto e = New<Echo>();
    MoveTo(e, 1);
    std::vector<double> row(122, 1.5);
    auto t = StartThread(e, &Echo::Round, row);
    auto out = t.Join();
    ASSERT_EQ(out.size(), 122u);
    EXPECT_EQ(out[0], 3.0);
  });
}

TEST(BoundThreadTest, RunningThreadFollowsMovingObject) {
  // A thread executing a long operation on an object that gets moved must
  // end up at the object's new node (lazily, at its next check), and the
  // object's state must stay consistent.
  class Grinder : public Object {
   public:
    NodeId Grind() {
      for (int i = 0; i < 20; ++i) {
        Work(Millis(2));
        // Touch our own state through an ordered point each chunk.
        ++chunks_;
      }
      return Here();
    }
    int chunks() const { return chunks_; }

   private:
    int chunks_ = 0;
  };
  Runtime rt(TestConfig(4, 2));
  rt.Run([&] {
    auto g = New<Grinder>();
    auto t = StartThread(g, &Grinder::Grind);
    Work(Millis(5));  // let the grinder get going
    MoveTo(g, 2);
    EXPECT_EQ(t.Join(), 2) << "bound thread should finish at the object's new node";
    EXPECT_EQ(g.Call(&Grinder::chunks), 20);
    rt.ValidateLocationInvariants();
  });
}

TEST(SchedulerTest, PriorityPolicyOrdersThreads) {
  class Logger : public Object {
   public:
    void Log(int id) { order_.push_back(id); }
    std::vector<int> order_;
  };
  Runtime rt(TestConfig(1, 1));
  rt.Run([&] {
    SetScheduler(0, std::make_unique<sim::PriorityRunQueue>());
    auto log = New<Logger>();
    std::vector<ThreadRef<void>> ts;
    // Main holds the only CPU while spawning, so all three queue up; the
    // priority policy must then run them highest-first.
    for (int i = 0; i < 3; ++i) {
      ts.push_back(StartThreadNamed("t" + std::to_string(i), /*priority=*/i, log, &Logger::Log,
                                    i));
    }
    for (auto& t : ts) {
      t.Join();
    }
    EXPECT_EQ(log.unchecked()->order_, (std::vector<int>{2, 1, 0}));
  });
}

TEST(RuntimeTest, DeterministicEndToEnd) {
  auto run_once = [] {
    Runtime rt(TestConfig(4, 2));
    std::vector<std::pair<NodeId, Time>> trace;
    const Time end = rt.Run([&] {
      auto c = New<Counter>();
      std::vector<ThreadRef<int>> ts;
      for (int i = 0; i < 6; ++i) {
        ts.push_back(StartThread(c, &Counter::Add, i));
      }
      for (auto& t : ts) {
        t.Join();
        trace.emplace_back(Here(), Now());
      }
      MoveTo(c, 3);
      c.Call(&Counter::Get);
      trace.emplace_back(Here(), Now());
    });
    trace.emplace_back(-1, end);
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(RuntimeTest, RegionExhaustionGrowsThroughServer) {
  Runtime::Config config = TestConfig(2, 1);
  config.initial_regions_per_node = 1;
  Runtime rt(config);
  rt.Run([&] {
    // Fill node 1's single initial region (1 MiB) with 64 KiB objects; the
    // allocator must extend through the (remote) address-space server.
    class Blob : public Object {
      char data_[64 * 1024];
    };
    class Factory : public Object {
     public:
      int Make(int n) {
        for (int i = 0; i < n; ++i) {
          New<Blob>();
        }
        return n;
      }
    };
    auto f = New<Factory>();
    MoveTo(f, 1);
    f.Call(&Factory::Make, 40);  // ~2.6 MiB of blobs
    EXPECT_GT(rt.allocator(1).regions_owned(), 1u);
  });
}

}  // namespace
}  // namespace amber
