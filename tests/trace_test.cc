// Tests for the execution tracer and the RuntimeObserver hooks.

#include "src/trace/trace.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/core/amber.h"

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

int CountKind(const Tracer& tracer, EventKind kind) {
  int n = 0;
  for (const Event& e : tracer.events()) {
    n += e.kind == kind ? 1 : 0;
  }
  return n;
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
  EXPECT_EQ(CountKind(tracer, EventKind::kObjectMove), 1);
  EXPECT_GE(CountKind(tracer, EventKind::kThreadMigrate), 2);  // worker + joiner
  EXPECT_GE(CountKind(tracer, EventKind::kMessage), 3);
  // Distribution events are in nondecreasing virtual-time order. (Scheduler
  // and invocation events are recorded in delivery order and may run a
  // context switch ahead of the event clock; renderers sort by timestamp.)
  Time prev = 0;
  for (const Event& e : tracer.events()) {
    if (!IsDistributionEvent(e.kind)) {
      continue;
    }
    EXPECT_GE(e.when, prev);
    prev = e.when;
  }
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
  EXPECT_EQ(CountKind(tracer, EventKind::kReplicaInstall), 1);
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
}

}  // namespace
}  // namespace trace
