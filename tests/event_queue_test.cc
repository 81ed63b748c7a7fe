// Event-queue storage: tasks with small captures run from slab slots without
// touching the heap, larger and move-only captures run and die exactly once,
// the slab may grow under a running task, and resume keys keep their place
// in (time, posting) order. Every global operator new in this binary is
// counted, so "allocates nothing" is checked directly.

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/fiber.h"

namespace {
int64_t g_allocations = 0;

void* CountedAlloc(std::size_t n, std::size_t align) {
  ++g_allocations;
  n = n == 0 ? 1 : n;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n, alignof(std::max_align_t)); }
void* operator new(std::size_t n, std::align_val_t align) {
  return CountedAlloc(n, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace sim {
namespace {

// A callable of exactly kBytes (16 or more): a counter pointer plus padding.
template <size_t kBytes>
struct Sized {
  int64_t* runs;
  std::array<unsigned char, kBytes - sizeof(int64_t*)> pad{};
  void operator()() const { ++*runs; }
};
static_assert(sizeof(Sized<24>) == 24 && sizeof(Sized<40>) == 40 && sizeof(Sized<48>) == 48);

// Counts its runs and the instances alive, across copies and moves.
struct Tracker {
  int runs = 0;
  int live = 0;
};
template <size_t kPadBytes>
class Tracked {
 public:
  explicit Tracked(Tracker* t) : t_(t) { ++t_->live; }
  Tracked(const Tracked& o) : t_(o.t_) { ++t_->live; }
  Tracked(Tracked&& o) noexcept : t_(o.t_) { ++t_->live; }
  ~Tracked() { --t_->live; }
  void operator()() { ++t_->runs; }

 private:
  Tracker* t_;
  std::array<unsigned char, kPadBytes> pad_{};
};
// Move-only: owns its tracker registration through a unique_ptr.
struct MoveOnly {
  struct Release {
    void operator()(Tracker* t) const { --t->live; }
  };
  std::unique_ptr<Tracker, Release> t;
  explicit MoveOnly(Tracker* tracker) : t(tracker) { ++tracker->live; }
  void operator()() { ++t->runs; }
};

constexpr int kDepth = 512;  // the scale workload's lockstep population

// Allocations made by `rounds` Post + RunOne steps at kDepth pending events,
// measured after the same number of warm-up steps.
template <typename MakeTask>
int64_t SteadyStateAllocations(MakeTask make_task, int rounds) {
  EventQueue q;
  Time t = 0;
  for (int i = 0; i < kDepth; ++i) {
    q.Post(++t, make_task());
  }
  for (int i = 0; i < rounds; ++i) {
    q.Post(++t, make_task());
    q.RunOne();
  }
  const int64_t before = g_allocations;
  for (int i = 0; i < rounds; ++i) {
    q.Post(++t, make_task());
    q.RunOne();
  }
  return g_allocations - before;
}

TEST(EventQueueStorageTest, CapturesUpTo48BytesAllocateNothingOnceWarm) {
  int64_t runs = 0;
  EXPECT_EQ(SteadyStateAllocations([&runs] { return [&runs] { ++runs; }; }, 4096), 0);
  EXPECT_EQ(SteadyStateAllocations([&runs] { return Sized<24>{&runs}; }, 4096), 0);
  EXPECT_EQ(SteadyStateAllocations([&runs] { return Sized<40>{&runs}; }, 4096), 0);
  EXPECT_EQ(SteadyStateAllocations([&runs] { return Sized<48>{&runs}; }, 4096), 0);
  EXPECT_EQ(runs, 4 * (2 * 4096));  // the kDepth initial events never ran
}

TEST(EventQueueStorageTest, ResumeKeysAllocateNothingOnceWarm) {
  EventQueue q;
  int resumed = 0;
  q.SetResumeHandler([](void* ctx, Fiber*) { ++*static_cast<int*>(ctx); }, &resumed);
  Fiber f;
  Time t = 0;
  for (int i = 0; i < kDepth; ++i) {
    q.PostResume(++t, &f);
  }
  q.PostResume(++t, &f);
  q.RunOne();
  const int64_t before = g_allocations;
  for (int i = 0; i < 4096; ++i) {
    q.PostResume(++t, &f);
    q.RunOne();
  }
  EXPECT_EQ(g_allocations - before, 0);
  EXPECT_EQ(resumed, 4097);
}

TEST(EventQueueStorageTest, LargeCaptureCostsOneAllocationAndRunsOnce) {
  EventQueue q;
  Tracker tracker;
  int64_t runs = 0;
  q.Post(0, Sized<24>{&runs});  // warm one chunk of slots
  q.RunOne();
  const int64_t before = g_allocations;
  q.Post(1, Tracked<128>(&tracker));
  EXPECT_EQ(g_allocations - before, 1);
  EXPECT_EQ(tracker.live, 1);
  EXPECT_TRUE(q.RunOne());
  EXPECT_EQ(tracker.runs, 1);
  EXPECT_EQ(tracker.live, 0);
  EXPECT_FALSE(q.RunOne());
}

TEST(EventQueueStorageTest, MoveOnlyCaptureRunsOnceAndDiesOnce) {
  EventQueue q;
  Tracker inline_tracker;
  Tracker boxed_tracker;
  q.Post(1, MoveOnly(&inline_tracker));
  q.Post(2, [m = MoveOnly(&boxed_tracker), pad = std::array<char, 96>{}]() mutable {
    m();
    (void)pad;
  });
  EXPECT_EQ(inline_tracker.live, 1);
  EXPECT_EQ(boxed_tracker.live, 1);
  while (q.RunOne()) {
  }
  EXPECT_EQ(inline_tracker.runs, 1);
  EXPECT_EQ(inline_tracker.live, 0);
  EXPECT_EQ(boxed_tracker.runs, 1);
  EXPECT_EQ(boxed_tracker.live, 0);
}

TEST(EventQueueStorageTest, PendingTasksDieWithTheQueue) {
  Tracker small;
  Tracker large;
  Tracker move_only;
  {
    EventQueue q;
    q.SetResumeHandler([](void*, Fiber*) {}, nullptr);
    Fiber f;
    for (int i = 0; i < 300; ++i) {  // more than one chunk of slots
      q.Post(i, Tracked<16>(&small));
      q.Post(i, Tracked<200>(&large));
      q.Post(i, MoveOnly(&move_only));
      q.PostResume(i, &f);
    }
    q.RunOne();  // one small task runs; the rest stay pending
    EXPECT_EQ(small.live, 299);
    EXPECT_EQ(large.live, 300);
    EXPECT_EQ(move_only.live, 300);
  }
  EXPECT_EQ(small.runs, 1);
  EXPECT_EQ(large.runs + move_only.runs, 0);
  EXPECT_EQ(small.live, 0);
  EXPECT_EQ(large.live, 0);
  EXPECT_EQ(move_only.live, 0);
}

TEST(EventQueueStorageTest, TaskMayGrowTheSlabWhileItRuns) {
  EventQueue q;
  int64_t runs = 0;
  bool capture_intact = false;
  std::array<uint64_t, 5> pattern{};
  for (size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = 0x9E3779B97F4A7C15ULL * (i + 1);
  }
  // 8 + 8 + 40 = 56 bytes: stored in the slot itself.
  q.Post(0, [&q, &runs, &capture_intact, pattern] {
    for (int i = 0; i < 2000; ++i) {  // several new chunks of slots
      q.Post(1 + i, Sized<48>{&runs});
    }
    capture_intact = true;
    for (size_t i = 0; i < pattern.size(); ++i) {
      capture_intact = capture_intact && pattern[i] == 0x9E3779B97F4A7C15ULL * (i + 1);
    }
  });
  while (q.RunOne()) {
  }
  EXPECT_TRUE(capture_intact);
  EXPECT_EQ(runs, 2000);
  EXPECT_EQ(q.events_run(), 2001u);
}

TEST(EventQueueStorageTest, ResumesAndTasksShareOneOrder) {
  EventQueue q;
  std::vector<int> order;
  Fiber a;
  Fiber b;
  Fiber c;
  a.id = 100;
  b.id = 200;
  c.id = 300;
  q.SetResumeHandler(
      [](void* ctx, Fiber* f) {
        static_cast<std::vector<int>*>(ctx)->push_back(static_cast<int>(f->id));
      },
      &order);
  q.Post(5, [&order] { order.push_back(1); });
  q.PostResume(5, &a);
  q.Post(3, [&order] { order.push_back(0); });
  q.PostResume(5, &b);
  q.Post(5, [&order] { order.push_back(2); });
  q.RunOne();  // t=3
  q.RunOne();  // t=5, posted first
  // a's resume is next, ahead of the one posted now.
  EXPECT_EQ(q.PostResumeAndTakeNext(5, &c), &a);
  EXPECT_EQ(q.now(), 5);
  EXPECT_EQ(q.events_run(), 3u);
  while (q.RunOne()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 200, 2, 300}));
  EXPECT_EQ(q.events_run(), 6u);

  // A resume that would run next is taken without entering the heap, but
  // still counts as an event.
  EXPECT_EQ(q.PostResumeAndTakeNext(7, &a), &a);
  EXPECT_EQ(q.now(), 7);
  EXPECT_EQ(q.events_run(), 7u);
  EXPECT_TRUE(q.Empty());

  // A task ahead of the new resume keeps the resume pending.
  q.Post(9, [&order] { order.push_back(3); });
  EXPECT_EQ(q.PostResumeAndTakeNext(9, &b), nullptr);
  EXPECT_EQ(q.Size(), 2u);
  while (q.RunOne()) {
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 200, 2, 300, 3, 200}));
  EXPECT_EQ(q.events_run(), 9u);
}

// Differential check against an ordered set of (when, seq): random Post,
// PostResume, PostResumeAndTakeNext and RunOne at times drawn from a narrow
// window (so many events tie), while the depth sweeps between 0 and ~2,000
// (so every partly filled last sibling group occurs). Every event that runs
// or is handed off must be the reference's earliest.
TEST(EventQueueOrderTest, MatchesAnOrderedSetOfWhenAndSeq) {
  using Ref = std::pair<Time, uint64_t>;
  EventQueue q;
  std::set<Ref> pending;
  std::map<Ref, Fiber*> resumes;  // pending resume keys and their targets
  std::vector<std::unique_ptr<Fiber>> fibers;
  std::vector<Fiber*> idle;
  std::vector<Ref> ran;  // what actually ran, in order
  q.SetResumeHandler(
      [](void* ctx, Fiber* f) {
        static_cast<std::vector<Ref>*>(ctx)->push_back({f->vtime, f->id});
      },
      &ran);
  uint64_t seq = 0;  // mirrors the queue's own posting counter
  uint64_t events = 0;
  std::mt19937_64 rng(20261018);
  auto draw = [&rng](uint64_t n) { return rng() % n; };
  // A resume target that remembers its key; one Fiber per pending resume.
  auto target = [&fibers, &idle](Time when, uint64_t s) {
    if (idle.empty()) {
      fibers.push_back(std::make_unique<Fiber>());
      idle.push_back(fibers.back().get());
    }
    Fiber* f = idle.back();
    idle.pop_back();
    f->vtime = when;
    f->id = s;
    return f;
  };
  auto retire = [&idle, &resumes](const Ref& key) {
    const auto it = resumes.find(key);
    if (it != resumes.end()) {
      idle.push_back(it->second);
      resumes.erase(it);
    }
  };
  int handoff_resume_top = 0;
  int handoff_task_top = 0;
  int handoff_direct = 0;
  const std::vector<size_t> depths = {0, 1, 5, 2, 17, 0, 2000, 3, 700, 1999, 0, 64, 1365, 0};
  for (size_t depth : depths) {
    for (int step = 0; step < 6000 || pending.size() != depth; ++step) {
      const bool grow = pending.size() < depth ? draw(8) != 0 : draw(8) == 0;
      const Time when = q.now() + static_cast<Time>(draw(4));
      if (grow || pending.empty()) {
        if (draw(2) == 0) {
          const Ref key{when, seq++};
          q.Post(when, [&ran, key] { ran.push_back(key); });
          pending.insert(key);
        } else {
          const Ref key{when, seq++};
          Fiber* f = target(when, key.second);
          q.PostResume(when, f);
          pending.insert(key);
          resumes.emplace(key, f);
        }
        ASSERT_EQ(q.Size(), pending.size());
        continue;
      }
      if (draw(2) == 0) {
        const Ref expect = *pending.begin();
        pending.erase(pending.begin());
        ASSERT_TRUE(q.RunOne());
        ++events;
        ASSERT_EQ(ran.back(), expect);
        ASSERT_EQ(q.now(), expect.first);
        retire(expect);
      } else {
        const Ref key{when, seq++};
        Fiber* f = target(when, key.second);
        pending.insert(key);
        resumes.emplace(key, f);
        const Ref top = *pending.begin();
        const bool resume_top = resumes.count(top) != 0;
        if (top == key) {
          ++handoff_direct;
        } else if (resume_top) {
          ++handoff_resume_top;
        } else {
          ++handoff_task_top;
        }
        Fiber* got = q.PostResumeAndTakeNext(when, f);
        if (resume_top) {
          ASSERT_NE(got, nullptr);
          ASSERT_EQ((Ref{got->vtime, got->id}), top);
          ASSERT_EQ(q.now(), top.first);
          pending.erase(pending.begin());
          ++events;
          retire(top);
        } else {
          ASSERT_EQ(got, nullptr);
        }
      }
      ASSERT_EQ(q.Size(), pending.size());
      ASSERT_EQ(q.events_run(), events);
    }
  }
  EXPECT_TRUE(q.Empty());
  EXPECT_GT(handoff_resume_top, 1000);
  EXPECT_GT(handoff_task_top, 1000);
  EXPECT_GT(handoff_direct, 100);
}

}  // namespace
}  // namespace sim
