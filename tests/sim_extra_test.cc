// Additional simulator-layer tests: spin primitives, deadlock detection,
// scheduler replacement with queued fibers, travel edge cases, event-queue
// introspection, and cost-model arithmetic.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "src/base/time.h"
#include "src/sim/cost_model.h"
#include "src/sim/kernel.h"
#include "src/sim/stack_pool.h"

namespace sim {
namespace {

using amber::Micros;
using amber::Millis;
using amber::Time;

class Harness {
 public:
  Harness(int nodes, int procs, CostModel cost = CostModel{}) : pool_(64 * 1024) {
    Kernel::Config config;
    config.nodes = nodes;
    config.procs_per_node = procs;
    config.cost = cost;
    kernel_ = std::make_unique<Kernel>(config);
  }
  Fiber* Go(NodeId node, std::function<void()> fn, std::string name = "") {
    void* stack = pool_.Allocate();
    return kernel_->Spawn(node, stack, pool_.stack_size(), std::move(fn), std::move(name));
  }
  Kernel& k() { return *kernel_; }

 private:
  StackPool pool_;
  std::unique_ptr<Kernel> kernel_;
};

CostModel FreeCpu() {
  CostModel c;
  c.context_switch = 0;
  c.preempt_ipi = 0;
  return c;
}

TEST(SpinTest, SpinWaitHoldsProcessorUntilResumed) {
  Harness h(1, 2, FreeCpu());
  Fiber* spinner = nullptr;
  Time resumed_at = -1;
  Time third_ran_at = -1;
  spinner = h.Go(0, [&] {
    h.k().Sync();
    h.k().SpinWait();
    resumed_at = h.k().Now();
  });
  h.Go(0, [&] {
    h.k().Charge(Millis(3));
    h.k().Sync();
    h.k().SpinResume(spinner, h.k().Now());
  });
  h.Go(0, [&] { third_ran_at = h.k().Now(); });  // must wait for a CPU
  h.k().Run();
  EXPECT_EQ(resumed_at, Millis(3));
  // The third fiber could not start while the spinner held its processor.
  EXPECT_GE(third_ran_at, Millis(3));
}

TEST(SpinTest, SpinResumeAdvancesVirtualTime) {
  Harness h(1, 2, FreeCpu());
  Fiber* spinner = nullptr;
  Time woke = -1;
  spinner = h.Go(0, [&] {
    h.k().Charge(Millis(1));
    h.k().Sync();
    h.k().SpinWait();
    woke = h.k().Now();
  });
  h.Go(0, [&] {
    h.k().Charge(Millis(5));
    h.k().Sync();
    h.k().SpinResume(spinner, h.k().Now() + Micros(2));
  });
  h.k().Run();
  EXPECT_EQ(woke, Millis(5) + Micros(2));
}

TEST(DeadlockTest, LiveFibersReportedWhenQueueDrains) {
  Harness h(1, 1, FreeCpu());
  h.Go(0, [&] {
    h.k().Sync();
    h.k().Block();  // nobody will wake us
    ADD_FAILURE() << "blocked fiber should never resume";
  });
  h.k().Run();
  EXPECT_EQ(h.k().live_fibers(), 1);
}

TEST(DeadlockTest, CleanRunHasNoLiveFibers) {
  Harness h(2, 2, FreeCpu());
  for (int i = 0; i < 6; ++i) {
    h.Go(i % 2, [&] { h.k().Charge(Millis(1)); });
  }
  h.k().Run();
  EXPECT_EQ(h.k().live_fibers(), 0);
}

TEST(SchedulerTest, ReplacementTransfersQueuedFibers) {
  Harness h(1, 1, FreeCpu());
  std::vector<int> order;
  h.Go(0, [&] {
    // Queue three children behind us (single CPU), then swap in a LIFO
    // policy: they must all still run, in reversed order.
    for (int i = 0; i < 3; ++i) {
      h.Go(0, [&order, i] { order.push_back(i); });
    }
    h.k().Sync();  // let the spawn events enqueue them
    h.k().SetRunQueue(0, std::make_unique<LifoRunQueue>());
  });
  h.k().Run();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0}));
}

TEST(RunQueueTest, RemoveExtractsSpecificFiber) {
  FifoRunQueue q;
  Fiber a;
  Fiber b;
  Fiber c;
  q.Enqueue(&a);
  q.Enqueue(&b);
  q.Enqueue(&c);
  EXPECT_TRUE(q.Remove(&b));
  EXPECT_FALSE(q.Remove(&b));
  EXPECT_EQ(q.Dequeue(), &a);
  EXPECT_EQ(q.Dequeue(), &c);
  EXPECT_EQ(q.Dequeue(), nullptr);
}

TEST(RunQueueTest, FeedbackDemotesRepeatOffenders) {
  FeedbackRunQueue q(3);
  Fiber hog;
  Fiber fresh;
  // The hog cycles through the queue three times (three full quanta).
  q.Enqueue(&hog);
  EXPECT_EQ(q.Dequeue(), &hog);
  q.Enqueue(&hog);  // demoted to level 1
  q.Enqueue(&fresh);  // level 0
  EXPECT_EQ(q.Dequeue(), &fresh) << "fresh arrival overtakes the demoted hog";
  EXPECT_EQ(q.Dequeue(), &hog);
  q.Enqueue(&hog);   // level 2 (floor)
  q.Enqueue(&fresh); // level 1 now (second sighting)
  EXPECT_EQ(q.Dequeue(), &fresh);
  EXPECT_EQ(q.Dequeue(), &hog);
  q.Boost(&hog);
  q.Enqueue(&hog);  // boosted: re-enqueued at level... demoted from 0 to 1
  q.Enqueue(&fresh);
  EXPECT_EQ(q.Dequeue(), &hog) << "boost resets the hog's level";
}

TEST(RunQueueTest, FeedbackLevelDiesWithTheFiber) {
  FeedbackRunQueue q(3);
  auto hog = std::make_unique<Fiber>();
  const auto hog_address = reinterpret_cast<uintptr_t>(hog.get());
  for (int i = 0; i < 3; ++i) {  // three quanta: demoted to the bottom level
    q.Enqueue(hog.get());
    ASSERT_EQ(q.Dequeue(), hog.get());
  }
  hog.reset();
  auto reborn = std::make_unique<Fiber>();
  if (reinterpret_cast<uintptr_t>(reborn.get()) != hog_address) {
    GTEST_SKIP() << "the allocator did not hand the dead fiber's address back";
  }
  Fiber fresh;
  q.Enqueue(reborn.get());
  q.Enqueue(&fresh);
  EXPECT_EQ(q.Dequeue(), reborn.get()) << "a new fiber inherited a dead fiber's demotion";
  EXPECT_EQ(q.Dequeue(), &fresh);
}

TEST(RunQueueTest, FeedbackKeepsInteractiveLatencyLow) {
  // End-to-end: 2 CPU hogs + periodic short tasks on one CPU. Under the
  // feedback policy the short tasks (always at level 0) run ahead of the
  // demoted hogs.
  CostModel cost = FreeCpu();
  cost.quantum = Millis(1);
  Harness h(1, 1, cost);
  h.k().SetRunQueue(0, std::make_unique<FeedbackRunQueue>());
  std::vector<Time> latencies;
  for (int i = 0; i < 2; ++i) {
    h.Go(0, [&] { h.k().Charge(Millis(30)); }, "hog");
  }
  h.Go(0, [&] {
    for (int i = 0; i < 5; ++i) {
      // Sleep, then time how long a 100 µs task waits for the CPU.
      h.k().Sync();
      const Time want = h.k().Now() + Millis(5);
      h.k().Wake(h.k().current(), want);
      h.k().Block();
      const Time started = h.k().Now();
      h.k().Charge(Micros(100));
      latencies.push_back(started - want);
    }
  }, "interactive");
  h.k().Run();
  for (Time lat : latencies) {
    EXPECT_LE(lat, Millis(2)) << "interactive task waited behind the hogs";
  }
}

TEST(RunQueueTest, PriorityTiesAreFifo) {
  PriorityRunQueue q;
  Fiber a;
  Fiber b;
  a.priority = 5;
  b.priority = 5;
  q.Enqueue(&a);
  q.Enqueue(&b);
  EXPECT_EQ(q.Dequeue(), &a);
  EXPECT_EQ(q.Dequeue(), &b);
}

TEST(TravelTest, BackAndForthManyTimes) {
  Harness h(2, 1, FreeCpu());
  int arrivals = 0;
  h.Go(0, [&] {
    for (int i = 0; i < 20; ++i) {
      h.k().Sync();
      h.k().TravelTo(1 - h.k().current()->node, h.k().Now() + Micros(100));
      ++arrivals;
    }
  });
  h.k().Run();
  EXPECT_EQ(arrivals, 20);
}

TEST(TravelTest, TwoTravelersInterleave) {
  Harness h(3, 1, FreeCpu());
  std::vector<std::pair<int, NodeId>> log;
  for (int id = 0; id < 2; ++id) {
    h.Go(id, [&, id] {
      for (int i = 0; i < 3; ++i) {
        h.k().Charge(Micros(50));
        h.k().Sync();
        h.k().TravelTo(2, h.k().Now() + Micros(200));
        log.emplace_back(id, h.k().current()->node);
        h.k().Sync();
        h.k().TravelTo(id, h.k().Now() + Micros(200));
      }
    });
  }
  h.k().Run();
  EXPECT_EQ(log.size(), 6u);
  for (const auto& [id, node] : log) {
    EXPECT_EQ(node, 2);
  }
}

TEST(EventQueueTest, NextTimePeeksEarliest) {
  EventQueue q;
  q.Post(50, [] {});
  q.Post(10, [] {});
  EXPECT_EQ(q.NextTime(), 10);
  EXPECT_EQ(q.Size(), 2u);
  q.RunOne();
  EXPECT_EQ(q.NextTime(), 50);
}

TEST(CostModelTest, WireTimeArithmetic) {
  CostModel c;
  c.bandwidth_bits_per_sec = 10e6;
  c.media_access = Micros(100);
  // 1250 bytes at 10 Mbit/s = exactly 1 ms on the wire + media access.
  EXPECT_EQ(c.WireTime(1250), Millis(1) + Micros(100));
  EXPECT_EQ(c.WireTime(0), Micros(100));
}

TEST(CostModelTest, MarshalCostScalesPerByte) {
  CostModel c;
  c.marshal_base = Micros(100);
  c.marshal_ns_per_byte = 50.0;
  EXPECT_EQ(c.MarshalCost(0), Micros(100));
  EXPECT_EQ(c.MarshalCost(1000), Micros(100) + Micros(50));
}

TEST(CostModelTest, FragmentCount) {
  CostModel c;
  c.mtu_bytes = 1500;
  EXPECT_EQ(c.Fragments(0), 1);
  EXPECT_EQ(c.Fragments(1), 1);
  EXPECT_EQ(c.Fragments(1500), 1);
  EXPECT_EQ(c.Fragments(1501), 2);
  EXPECT_EQ(c.Fragments(4500), 3);
}

TEST(BusyAccountingTest, SpinnersCountAsBusy) {
  Harness h(1, 1, FreeCpu());
  Fiber* spinner = nullptr;
  spinner = h.Go(0, [&] {
    h.k().Sync();
    h.k().SpinWait();
  });
  h.k().Post(Millis(4), [&] { h.k().SpinResume(spinner, Millis(4)); });
  h.k().Run();
  // The processor spun for the whole 4 ms: all of it is busy time.
  EXPECT_GE(h.k().NodeBusyTime(0), Millis(4));
}

}  // namespace
}  // namespace sim
