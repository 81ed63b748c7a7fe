// Tests for the RuntimeObserver event bus: exact scheduler/invocation event
// sequences on a deterministic 2-node scenario, span nesting, block/unblock
// pairing, zero virtual-time impact of attaching an observer, and multi-
// observer fan-out (identical delivery order; mid-run detach of one observer
// does not perturb the others).

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/amber.h"

namespace amber {
namespace {

class Thing : public Object {
 public:
  int Poke() {
    Work(kMicrosecond * 10);
    return ++pokes_;
  }

 private:
  int pokes_ = 0;
};

Runtime::Config TestConfig() {
  Runtime::Config c;
  c.nodes = 2;
  c.procs_per_node = 1;
  c.arena_bytes = size_t{128} << 20;
  return c;
}

// Records every event as a compact line: "kind thread @node". Thread names
// are resolved through the id -> name table built from OnThreadCreate —
// events themselves carry only the integer ThreadId.
class Recorder : public RuntimeObserver {
 public:
  struct Rec {
    std::string kind;
    std::string thread;
    NodeId node = 0;
    Time when = 0;
  };

  void OnThreadCreate(Time when, NodeId node, ThreadId thread, const std::string& name,
                      ThreadId /*parent*/) override {
    names_[thread] = name;
    Add("create", thread, node, when);
  }
  void OnThreadDispatch(Time when, NodeId node, ThreadId thread,
                        Duration /*queue_wait*/) override {
    Add("dispatch", thread, node, when);
  }
  void OnThreadBlock(Time when, NodeId node, ThreadId thread) override {
    Add("block", thread, node, when);
  }
  void OnThreadUnblock(Time when, NodeId node, ThreadId thread, ThreadId /*waker*/,
                       Time /*wake_time*/) override {
    Add("unblock", thread, node, when);
  }
  void OnThreadPreempt(Time when, NodeId node, ThreadId thread) override {
    Add("preempt", thread, node, when);
  }
  void OnThreadExit(Time when, NodeId node, ThreadId thread) override {
    Add("exit", thread, node, when);
  }
  void OnInvokeEnter(Time when, NodeId node, ThreadId thread, const void* /*obj*/,
                     const std::string& /*object*/, bool remote, NodeId /*origin*/,
                     Duration /*entry_overhead*/) override {
    Add(remote ? "enter-remote" : "enter", thread, node, when);
  }
  void OnInvokeExit(Time when, NodeId node, ThreadId thread, Duration /*span*/, bool remote,
                    Duration /*exit_overhead*/) override {
    Add(remote ? "exit-remote-invoke" : "exit-invoke", thread, node, when);
  }

  const std::vector<Rec>& recs() const { return recs_; }

  // The kind@node sequence for one thread, space-separated.
  std::string SequenceFor(const std::string& thread) const {
    std::ostringstream out;
    for (const Rec& r : recs_) {
      if (r.thread == thread) {
        out << (out.tellp() > 0 ? " " : "") << r.kind << "@" << r.node;
      }
    }
    return out.str();
  }

  // Full dump of everything recorded, for whole-run comparisons.
  std::string Dump() const {
    std::ostringstream out;
    for (const Rec& r : recs_) {
      out << r.kind << " " << r.thread << " " << r.node << " " << r.when << "\n";
    }
    return out.str();
  }

 private:
  void Add(std::string kind, ThreadId thread, NodeId node, Time when) {
    const auto it = names_.find(thread);
    std::string name = it != names_.end() ? it->second : "t" + std::to_string(thread);
    recs_.push_back(Rec{std::move(kind), std::move(name), node, when});
  }

  std::map<ThreadId, std::string> names_;
  std::vector<Rec> recs_;
};

void RunScenario(Runtime& rt) {
  rt.Run([&] {
    auto thing = NewOn<Thing>(1);
    auto t = StartThreadNamed("worker", 0, thing, &Thing::Poke);
    t.Join();
  });
}

TEST(ObserverTest, ExactWorkerEventSequence) {
  Runtime rt(TestConfig());
  Recorder rec;
  rt.AddObserver(&rec);
  RunScenario(rt);
  // The worker is created on node 0, dispatched, migrates to the Thing on
  // node 1 (block at departure, unblock at arrival), is dispatched there,
  // runs the invocation, and exits on node 1.
  EXPECT_EQ(rec.SequenceFor("worker"),
            "create@0 dispatch@0 block@0 unblock@1 dispatch@1 enter-remote@1 "
            "exit-remote-invoke@1 exit@1");
}

TEST(ObserverTest, SequencesAreDeterministic) {
  auto once = [] {
    Runtime rt(TestConfig());
    Recorder rec;
    rt.AddObserver(&rec);
    RunScenario(rt);
    return rec.Dump();
  };
  EXPECT_EQ(once(), once());
}

// Scheduler events obey the thread lifecycle state machine, and invocation
// spans nest properly.
TEST(ObserverTest, LifecyclePairingAndSpanNesting) {
  Runtime rt(TestConfig());
  Recorder rec;
  rt.AddObserver(&rec);
  rt.Run([&] {
    auto a = NewOn<Thing>(1);
    auto b = New<Thing>();
    auto t1 = StartThreadNamed("w1", 0, a, &Thing::Poke);
    auto t2 = StartThreadNamed("w2", 0, b, &Thing::Poke);
    t1.Join();
    t2.Join();
    a.Call(&Thing::Poke);
  });

  enum class State { kReady, kRunning, kBlocked, kExited };
  std::map<std::string, State> state;
  std::map<std::string, int> depth;
  for (const auto& r : rec.recs()) {
    if (r.kind == "create") {
      EXPECT_FALSE(state.count(r.thread)) << r.thread << " created twice";
      state[r.thread] = State::kReady;
    } else if (r.kind == "dispatch") {
      ASSERT_TRUE(state.count(r.thread)) << r.thread;
      EXPECT_EQ(static_cast<int>(state[r.thread]), static_cast<int>(State::kReady))
          << "dispatch of non-ready thread " << r.thread;
      state[r.thread] = State::kRunning;
    } else if (r.kind == "block") {
      EXPECT_EQ(static_cast<int>(state[r.thread]), static_cast<int>(State::kRunning))
          << "block of non-running thread " << r.thread;
      state[r.thread] = State::kBlocked;
    } else if (r.kind == "unblock") {
      EXPECT_EQ(static_cast<int>(state[r.thread]), static_cast<int>(State::kBlocked))
          << "unblock of non-blocked thread " << r.thread;
      state[r.thread] = State::kReady;
    } else if (r.kind == "preempt") {
      EXPECT_EQ(static_cast<int>(state[r.thread]), static_cast<int>(State::kRunning));
      state[r.thread] = State::kReady;
    } else if (r.kind == "exit") {
      EXPECT_EQ(static_cast<int>(state[r.thread]), static_cast<int>(State::kRunning));
      state[r.thread] = State::kExited;
    } else if (r.kind == "enter" || r.kind == "enter-remote") {
      ++depth[r.thread];
      EXPECT_GE(depth[r.thread], 1);
    } else {  // invoke exit
      --depth[r.thread];
      EXPECT_GE(depth[r.thread], 0) << "unbalanced invoke span on " << r.thread;
    }
  }
  // Worker threads ran to completion with balanced spans.
  EXPECT_EQ(static_cast<int>(state["w1"]), static_cast<int>(State::kExited));
  EXPECT_EQ(static_cast<int>(state["w2"]), static_cast<int>(State::kExited));
  for (const auto& [thread, d] : depth) {
    EXPECT_EQ(d, 0) << "unclosed invoke span on " << thread;
  }
  // Every block was eventually paired with an unblock (no thread left
  // blocked at the end of the run).
  for (const auto& [thread, s] : state) {
    EXPECT_NE(static_cast<int>(s), static_cast<int>(State::kBlocked))
        << thread << " ended blocked";
  }
}

TEST(ObserverTest, ObserverDoesNotChangeVirtualTime) {
  auto run = [](RuntimeObserver* obs) {
    Runtime rt(TestConfig());
    if (obs != nullptr) {
      rt.AddObserver(obs);
    }
    Time end = 0;
    rt.Run([&] {
      auto thing = NewOn<Thing>(1);
      auto t = StartThreadNamed("worker", 0, thing, &Thing::Poke);
      t.Join();
      end = Now();
    });
    return end;
  };
  Recorder rec;
  const Time with = run(&rec);
  const Time without = run(nullptr);
  EXPECT_GT(rec.recs().size(), 0u);
  EXPECT_EQ(with, without);
}

// --- Multi-observer fan-out ---------------------------------------------------

// Every attached observer receives every event, in the same deterministic
// order (attachment order decides only who is called first for a given
// event, not which events are seen).
TEST(ObserverTest, FanOutDeliversIdenticalSequences) {
  Runtime rt(TestConfig());
  Recorder a;
  Recorder b;
  rt.AddObserver(&a);
  rt.AddObserver(&b);
  RunScenario(rt);
  EXPECT_GT(a.recs().size(), 0u);
  EXPECT_EQ(a.Dump(), b.Dump());
}

// Fan-out does not perturb virtual time either: two observers cost the same
// zero virtual time as none.
TEST(ObserverTest, FanOutDoesNotChangeVirtualTime) {
  auto run = [](int observers) {
    Runtime rt(TestConfig());
    Recorder a;
    Recorder b;
    if (observers > 0) {
      rt.AddObserver(&a);
    }
    if (observers > 1) {
      rt.AddObserver(&b);
    }
    Time end = 0;
    rt.Run([&] {
      auto thing = NewOn<Thing>(1);
      auto t = StartThreadNamed("worker", 0, thing, &Thing::Poke);
      t.Join();
      end = Now();
    });
    return end;
  };
  EXPECT_EQ(run(0), run(1));
  EXPECT_EQ(run(1), run(2));
}

// Detaching one observer mid-run stops its event flow but leaves the other
// observers' streams — and the run itself — untouched.
TEST(ObserverTest, MidRunDetachDoesNotPerturbSurvivor) {
  // Reference: a full run recorded by a single observer.
  Recorder solo;
  {
    Runtime rt(TestConfig());
    rt.AddObserver(&solo);
    rt.Run([&] {
      auto thing = NewOn<Thing>(1);
      auto t1 = StartThreadNamed("w1", 0, thing, &Thing::Poke);
      t1.Join();
      auto t2 = StartThreadNamed("w2", 0, thing, &Thing::Poke);
      t2.Join();
    });
  }

  // Same scenario with a second observer that is detached halfway through.
  Recorder survivor;
  Recorder detached;
  {
    Runtime rt(TestConfig());
    rt.AddObserver(&survivor);
    rt.AddObserver(&detached);
    rt.Run([&] {
      auto thing = NewOn<Thing>(1);
      auto t1 = StartThreadNamed("w1", 0, thing, &Thing::Poke);
      t1.Join();
      rt.RemoveObserver(&detached);
      auto t2 = StartThreadNamed("w2", 0, thing, &Thing::Poke);
      t2.Join();
    });
  }

  EXPECT_EQ(survivor.Dump(), solo.Dump());
  // The detached observer saw a strict prefix of the survivor's stream.
  EXPECT_LT(detached.recs().size(), survivor.recs().size());
  EXPECT_GT(detached.recs().size(), 0u);
  const std::string full = survivor.Dump();
  const std::string prefix = detached.Dump();
  EXPECT_EQ(full.compare(0, prefix.size(), prefix), 0)
      << "detached observer's stream is not a prefix of the survivor's";
}

}  // namespace
}  // namespace amber
