// Tests for the execution tracer: what it records from the RuntimeObserver
// hooks, and the bytes its two renderers write.

#include "src/trace/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/amber.h"
#include "src/fault/fault.h"

namespace trace {
namespace {

using namespace amber;

class Thing : public Object {
 public:
  int Poke() { return ++pokes_; }

 private:
  int pokes_ = 0;
};

Runtime::Config TestConfig() {
  Runtime::Config c;
  c.nodes = 3;
  c.procs_per_node = 2;
  c.arena_bytes = size_t{128} << 20;
  return c;
}

using fdr::EventType;
using fdr::Record;

int CountType(const Tracer& tracer, EventType type) {
  int n = 0;
  tracer.ForEachRecord([&](const Record& r) { n += r.type == type ? 1 : 0; });
  return n;
}

// The four types whose recording order is globally nondecreasing in
// virtual time.
bool IsDistribution(EventType type) {
  return type == EventType::kThreadMigrate || type == EventType::kObjectMove ||
         type == EventType::kReplicaInstall || type == EventType::kMessage;
}

TEST(TraceTest, CapturesMoveMigrationAndMessages) {
  Runtime rt(TestConfig());
  Tracer tracer;
  rt.AddObserver(&tracer);
  rt.Run([&] {
    auto thing = New<Thing>();
    MoveTo(thing, 2);                      // one object move
    auto t = StartThread(thing, &Thing::Poke);  // thread migrates 0 -> 2
    t.Join();
  });
  EXPECT_EQ(CountType(tracer, EventType::kObjectMove), 1);
  EXPECT_GE(CountType(tracer, EventType::kThreadMigrate), 2);  // worker + joiner
  EXPECT_GE(CountType(tracer, EventType::kMessage), 3);
  // Distribution events are in nondecreasing virtual-time order. (Scheduler
  // and invocation events are recorded in delivery order and may run a
  // context switch ahead of the event clock; renderers sort by timestamp.)
  Time prev = 0;
  tracer.ForEachRecord([&](const Record& r) {
    if (!IsDistribution(r.type)) {
      return;
    }
    EXPECT_GE(r.when, prev);
    prev = r.when;
  });
}

TEST(TraceTest, CapturesReplicaInstalls) {
  Runtime rt(TestConfig());
  Tracer tracer;
  rt.AddObserver(&tracer);
  rt.Run([&] {
    auto thing = New<Thing>();
    MakeImmutable(thing);
    MoveTo(thing, 1);  // replicate
  });
  EXPECT_EQ(CountType(tracer, EventType::kReplicaInstall), 1);
}

TEST(TraceTest, ChromeTraceIsWellFormedJson) {
  Runtime rt(TestConfig());
  Tracer tracer;
  rt.AddObserver(&tracer);
  rt.Run([&] {
    auto thing = New<Thing>();
    MoveTo(thing, 1);
  });
  std::ostringstream out;
  tracer.WriteChromeTrace(out);
  const std::string json = out.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("object-move"), std::string::npos);
  // Balanced braces (crude well-formedness check).
  int depth = 0;
  for (char c : json) {
    depth += c == '{' ? 1 : (c == '}' ? -1 : 0);
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(TraceTest, TextTimelineListsEvents) {
  Runtime rt(TestConfig());
  Tracer tracer;
  rt.AddObserver(&tracer);
  rt.Run([&] {
    auto thing = New<Thing>();
    MoveTo(thing, 2);
  });
  std::ostringstream out;
  tracer.WriteText(out);
  EXPECT_NE(out.str().find("object-move"), std::string::npos);
  EXPECT_NE(out.str().find("0 -> 2"), std::string::npos);
}

TEST(TraceTest, DeterministicTraces) {
  auto once = [] {
    Runtime rt(TestConfig());
    Tracer tracer;
    rt.AddObserver(&tracer);
    rt.Run([&] {
      auto thing = New<Thing>();
      MoveTo(thing, 1);
      auto t = StartThread(thing, &Thing::Poke);
      t.Join();
    });
    std::ostringstream out;
    tracer.WriteText(out);
    return out.str();
  };
  EXPECT_EQ(once(), once());
}

TEST(TraceTest, DetachStopsRecording) {
  Runtime rt(TestConfig());
  Tracer tracer;
  rt.AddObserver(&tracer);
  rt.RemoveObserver(&tracer);
  rt.Run([&] {
    auto thing = New<Thing>();
    MoveTo(thing, 1);
  });
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.recorded(), 0);
}

// --- Rendered bytes ------------------------------------------------------------

// RenderGoldenRun's event count and the hashes of its two outputs. A changed
// byte in either output changes its hash; re-record them only for a
// deliberate change to a trace format or to the protocol steps the run takes.
constexpr size_t kGoldenEvents = 485;
constexpr uint64_t kGoldenText = 0xa0c7d04161494443ULL;
constexpr uint64_t kGoldenChrome = 0x014b017b44e5d94cULL;

// FNV-1a over a rendered output's bytes.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash = (hash ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
  }
  return hash;
}

// A lock and a condition that three threads contend on. Hold keeps the
// lock past the 10 ms quantum, so the holder is preempted and Put blocks.
class Box : public Object {
 public:
  void Take() {
    lock_.Acquire();
    while (!ready_) {
      ready_cond_.Wait(lock_);
    }
    lock_.Release();
  }
  void Hold() {
    lock_.Acquire();
    Work(Millis(12));
    lock_.Release();
  }
  void Put() {
    lock_.Acquire();
    ready_ = true;
    ready_cond_.Signal();
    lock_.Release();
  }
  void Spin() { Work(Millis(25)); }
  void Probe(NodeId dst) {
    Runtime::Current().transport().Roundtrip(dst, 64, []() -> int64_t { return 32; });
  }

 private:
  Lock lock_;
  Condition ready_cond_;
  bool ready_ = false;
};

struct Rendered {
  std::string text;
  std::string chrome;
  size_t size;
};

// One small run that draws every kind the renderers know: moves, thread
// travel, a replica, contention, preemption, rpcs, and a fault plan with
// drop, dup and delay rules, a node that crashes and restarts, and a node
// that never comes back (its roundtrip times out).
Rendered RenderGoldenRun() {
  Runtime::Config config;
  config.nodes = 4;
  config.procs_per_node = 1;
  config.arena_bytes = size_t{128} << 20;
  Runtime rt(config);
  fault::FaultPlan plan;
  plan.seed = 3;
  fault::LinkRule rule;
  rule.drop = 0.1;
  rule.duplicate = 0.05;
  rule.delay = 0.1;
  rule.delay_min = Micros(50);
  rule.delay_max = Micros(500);
  plan.links.push_back(rule);
  plan.node_events.push_back(fault::NodeEvent{2, Millis(40), Millis(60)});
  plan.node_events.push_back(fault::NodeEvent{3, Millis(1)});
  fault::Injector injector(plan);
  rt.SetFaultInjector(&injector);
  rt.SetFailureHandler([](const FailureEvent&) { return FailureAction::kRetry; });
  Tracer tracer;
  rt.AddObserver(&tracer);
  rt.Run([&] {
    auto box = NewOn<Box>(0);
    auto probe = StartThreadNamed("probe", 0, box, &Box::Probe, NodeId{3});
    rt.transport().Roundtrip(1, 64, []() -> int64_t { return 32; });
    auto thing = NewOn<Thing>(0);
    MoveTo(thing, 1);
    StartThread(thing, &Thing::Poke).Join();
    auto frozen = NewOn<Thing>(0);
    MakeImmutable(frozen);
    MoveTo(frozen, 2);
    auto take = StartThreadNamed("take", 0, box, &Box::Take);
    auto hold = StartThreadNamed("hold", 0, box, &Box::Hold);
    auto put = StartThreadNamed("put", 0, box, &Box::Put);
    auto spin = StartThreadNamed("spin", 0, box, &Box::Spin);
    take.Join();
    hold.Join();
    put.Join();
    spin.Join();
    probe.Join();
    Work(Millis(70));
  });
  Rendered r;
  std::ostringstream text;
  tracer.WriteText(text);
  r.text = text.str();
  std::ostringstream chrome;
  tracer.WriteChromeTrace(chrome);
  r.chrome = chrome.str();
  r.size = tracer.size();
  return r;
}

TEST(TraceGoldenTest, EveryKindRendersTheRecordedBytes) {
  const Rendered r = RenderGoldenRun();
  for (const char* kind :
       {"thread-migrate", "object-move", "replica-install", "message", "thread-create",
        "thread-dispatch", "thread-block", "thread-unblock", "thread-preempt", "thread-exit",
        "invoke-enter", "invoke-exit", "lock-blocked", "lock-acquired", "lock-released",
        "condition-wake", "rpc-request", "rpc-response", "message-drop", "message-dup",
        "message-delay", "node-crash", "node-restart", "rpc-retry", "rpc-timeout"}) {
    EXPECT_NE(r.text.find(std::string(" ") + kind + " "), std::string::npos) << kind;
  }
  EXPECT_EQ(r.size, kGoldenEvents);
  EXPECT_EQ(Fnv1a(r.text), kGoldenText) << std::hex << Fnv1a(r.text);
  EXPECT_EQ(Fnv1a(r.chrome), kGoldenChrome) << std::hex << Fnv1a(r.chrome);
}

class Apple : public Object {
 public:
  int Bite() { return ++bites_; }

 private:
  int bites_ = 0;
};

class Pear : public Object {
 public:
  int Bite() { return ++bites_; }

 private:
  int bites_ = 0;
};

// A Pear allocated where a deleted Apple lived: each invocation is drawn
// with its own type, not the first type ever seen at that address.
TEST(TraceTest, ReusedAddressNamesEachCallsType) {
  static_assert(sizeof(Apple) == sizeof(Pear));
  Runtime rt(TestConfig());
  Tracer tracer;
  rt.AddObserver(&tracer);
  bool reused = false;
  rt.Run([&] {
    auto apple = New<Apple>();
    apple.Call(&Apple::Bite);
    const Object* address = apple.object();
    Delete(apple);
    auto pear = New<Pear>();
    reused = pear.object() == address;
    pear.Call(&Pear::Bite);
  });
  if (!reused) {
    GTEST_SKIP() << "the allocator did not hand the Apple's address to the Pear";
  }
  std::ostringstream out;
  tracer.WriteText(out);
  std::istringstream lines(out.str());
  std::vector<std::string> fruit;
  for (std::string line; std::getline(lines, line);) {
    if (line.find("invoke-enter") == std::string::npos) {
      continue;
    }
    if (line.find("Apple") != std::string::npos) {
      fruit.push_back("Apple");
    } else if (line.find("Pear") != std::string::npos) {
      fruit.push_back("Pear");
    }
  }
  ASSERT_FALSE(fruit.empty()) << out.str();
  EXPECT_EQ(fruit.front(), "Apple") << out.str();
  EXPECT_EQ(fruit.back(), "Pear") << out.str();
}

}  // namespace
}  // namespace trace
