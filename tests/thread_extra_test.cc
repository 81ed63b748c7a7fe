// Additional thread-layer tests: nested invocation chains, threads
// spawning threads, cross-node joins, stack reuse, stress, and the host
// memory a finished thread gives back. Every global operator new and delete
// in this binary is counted, so the last is checked directly.

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "src/core/amber.h"

namespace {
int64_t g_live_allocations = 0;  // operator new calls not yet deleted

void* CountedAlloc(std::size_t n, std::size_t align) {
  ++g_live_allocations;
  n = n == 0 ? 1 : n;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void CountedFree(void* p) {
  if (p != nullptr) {
    --g_live_allocations;
    std::free(p);
  }
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n, alignof(std::max_align_t)); }
void* operator new(std::size_t n, std::align_val_t align) {
  return CountedAlloc(n, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { CountedFree(p); }

namespace amber {
namespace {

Runtime::Config TestConfig(int nodes = 4, int procs = 2) {
  Runtime::Config c;
  c.nodes = nodes;
  c.procs_per_node = procs;
  c.arena_bytes = size_t{512} << 20;
  return c;
}

class Hop : public Object {
 public:
  void SetNext(Ref<Hop> next) { next_ = next; }
  // Recursive invocation chain across nodes; returns the number of nodes
  // visited. Exercises deep frame stacks with migration at every level.
  int Chain(int depth) {
    visits_ += 1;
    if (depth == 0 || !next_) {
      return 1;
    }
    return 1 + next_.Call(&Hop::Chain, depth - 1);
  }
  NodeId WhereAmI() { return Here(); }
  int visits() const { return visits_; }

 private:
  Ref<Hop> next_;
  int visits_ = 0;
};

TEST(ThreadExtraTest, DeepCrossNodeInvocationChain) {
  Runtime rt(TestConfig(4, 2));
  rt.Run([&] {
    // Ring of hops over the 4 nodes; a 12-deep chain crosses nodes 12 times
    // and unwinds back through every frame.
    std::vector<Ref<Hop>> hops;
    for (int i = 0; i < 4; ++i) {
      hops.push_back(NewOn<Hop>(i % rt.nodes()));
    }
    for (int i = 0; i < 4; ++i) {
      hops[static_cast<size_t>(i)].Call(&Hop::SetNext,
                                        hops[static_cast<size_t>((i + 1) % 4)]);
    }
    class Driver : public Object {
     public:
      int Drive(Ref<Hop> head) {
        const NodeId before = Here();
        const int n = head.Call(&Hop::Chain, 11);
        EXPECT_EQ(Here(), before) << "must unwind back to the driver's node";
        return n;
      }
    };
    auto d = New<Driver>();
    EXPECT_EQ(d.Call(&Driver::Drive, hops[0]), 12);
    EXPECT_GE(rt.thread_migrations(), 12);
    rt.ValidateLocationInvariants();
  });
}

class Spawner : public Object {
 public:
  // Threads spawning threads, fan-out tree of depth `depth`.
  int64_t Fan(int depth, int width) {
    if (depth == 0) {
      Work(kMicrosecond * 200);
      return 1;
    }
    std::vector<ThreadRef<int64_t>> kids;
    for (int w = 0; w < width; ++w) {
      kids.push_back(StartThread(Ref<Spawner>(this), &Spawner::Fan, depth - 1, width));
    }
    int64_t total = 1;
    for (auto& k : kids) {
      total += k.Join();
    }
    return total;
  }
};

TEST(ThreadExtraTest, ThreadsSpawningThreads) {
  Runtime rt(TestConfig(2, 4));
  rt.Run([&] {
    auto s = New<Spawner>();
    auto t = StartThread(s, &Spawner::Fan, 3, 3);
    // 1 + 3 + 9 + 27 = 40 nodes in the spawn tree.
    EXPECT_EQ(t.Join(), 40);
  });
}

TEST(ThreadExtraTest, JoinFromAnotherNodeChasesThread) {
  Runtime rt(TestConfig(3, 2));
  rt.Run([&] {
    auto target = NewOn<Hop>(2);
    auto t = StartThread(target, &Hop::WhereAmI);
    // Move ourselves to node 1 (root-frame call leaves us there), then
    // join: the joiner must chase the thread object to node 2.
    auto anchor = NewOn<Hop>(1);
    anchor.Call(&Hop::WhereAmI);
    EXPECT_EQ(Here(), 1);
    EXPECT_EQ(t.Join(), 2);
    EXPECT_EQ(Here(), 2) << "join is an invocation on the thread object";
  });
}

TEST(ThreadExtraTest, StacksAreReusedAfterJoin) {
  Runtime rt(TestConfig(1, 2));
  rt.Run([&] {
    auto s = New<Hop>();
    const int64_t live_before = rt.allocator(0).live_segments();
    for (int round = 0; round < 20; ++round) {
      auto t = StartThread(s, &Hop::WhereAmI);
      t.Join();
    }
    // Thread objects persist until teardown, but stacks are freed at join
    // and reused: live segments grow by at most one object per round, not
    // one object + one 64 KiB stack.
    const int64_t growth = rt.allocator(0).live_segments() - live_before;
    EXPECT_LE(growth, 21);
    EXPECT_LE(rt.allocator(0).regions_owned(), 10u) << "stack leak";
  });
}

TEST(ThreadExtraTest, TwoHundredThreadsStress) {
  Runtime rt(TestConfig(4, 4));
  rt.Run([&] {
    class Sink : public Object {
     public:
      void Count() {
        MonitorGuard g(lock_);
        ++count_;
      }
      int count() const { return count_; }

     private:
      Lock lock_;
      int count_ = 0;
    };
    auto sink = NewOn<Sink>(2);
    std::vector<ThreadRef<void>> ts;
    for (int i = 0; i < 200; ++i) {
      ts.push_back(StartThread(sink, &Sink::Count));
    }
    for (auto& t : ts) {
      t.Join();
    }
    EXPECT_EQ(sink.Call(&Sink::count), 200);
    rt.ValidateLocationInvariants();
  });
}

class Summer : public Object {
 public:
  void Add(std::vector<double> values) {
    for (double v : values) {
      total_ += v;
    }
  }
  double total() const { return total_; }

 private:
  double total_ = 0.0;
};

// Host allocations still live, before teardown, after `threads` threads ran
// and were joined. Each thread's body holds a vector argument in a capture
// past std::function's small buffer, and makes one remote call.
int64_t LiveAllocationsAfterThreads(int threads) {
  Runtime rt(TestConfig(2, 2));
  int64_t live = 0;
  rt.Run([&] {
    auto summer = NewOn<Summer>(1);
    const std::vector<double> values(16, 1.0);
    std::vector<ThreadRef<void>> ts;
    ts.reserve(static_cast<size_t>(threads));
    const int64_t before = g_live_allocations;
    for (int i = 0; i < threads; ++i) {
      ts.push_back(StartThread(summer, &Summer::Add, values));
    }
    for (auto& t : ts) {
      t.Join();
    }
    EXPECT_EQ(summer.Call(&Summer::total), 16.0 * threads);
    live = g_live_allocations - before;
  });
  return live;
}

TEST(ThreadExtraTest, FinishedThreadsReleaseTheirHostState) {
  // The runtime's own tables grow by whole blocks, alike at N and 2N; a
  // finished thread that kept its body, frames or join waiters would leave
  // allocations that grow with N.
  constexpr int kThreads = 24;
  EXPECT_EQ(LiveAllocationsAfterThreads(2 * kThreads), LiveAllocationsAfterThreads(kThreads));
}

TEST(ThreadExtraTest, ResultTypesRoundTrip) {
  Runtime rt(TestConfig(2, 2));
  rt.Run([&] {
    class Typed : public Object {
     public:
      double Pi() { return 3.25; }
      std::string Name() { return "amber"; }
      std::vector<int> Seq(int n) {
        std::vector<int> v;
        for (int i = 0; i < n; ++i) {
          v.push_back(i * i);
        }
        return v;
      }
    };
    auto obj = NewOn<Typed>(1);
    EXPECT_EQ(StartThread(obj, &Typed::Pi).Join(), 3.25);
    EXPECT_EQ(StartThread(obj, &Typed::Name).Join(), "amber");
    EXPECT_EQ(StartThread(obj, &Typed::Seq, 4).Join(), (std::vector<int>{0, 1, 4, 9}));
  });
}

}  // namespace
}  // namespace amber
