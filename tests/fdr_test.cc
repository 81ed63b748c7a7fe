// Tests for the flight data recorder (src/fdr): ring wraparound
// accounting, deterministic dumps, the panic-triggered black box (a real
// death test — the dump is written by the dying child process and then
// analyzed by the parent), and the observer-only contract (recorder
// attached vs. detached changes no virtual time).

#include "src/fdr/fdr.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/apps/fdr/fdr_report.h"
#include "src/core/amber.h"
#include "src/core/sync.h"
#include "src/fault/fault.h"
#include "src/rpc/transport.h"
#include "src/metrics/metrics.h"

namespace amber {
namespace {

Runtime::Config TestConfig(int nodes = 3, int procs = 2) {
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

 private:
  int value_ = 0;
};

// The crash scenario's local object: a lock that the dying thread holds
// (and a victim waits on) at the moment of death, plus a thread stuck on a
// cross-partition move (its reliable roundtrip is in flight at death).
class Holder : public Object {
 public:
  void HoldAndDie() {
    lock_.Acquire();
    Work(Millis(80));  // long enough for the partition to produce suspicion
    AMBER_CHECK(false) << "injected black-box crash";
  }
  void BlockOnLock() {
    Work(Millis(1));  // lose the race for the lock deterministically
    lock_.Acquire();
    lock_.Release();
  }
  void MoveBack(Ref<Counter> remote) {
    Work(Millis(31));  // start after the partition cuts node 2 off
    MoveTo(remote, 0);  // control roundtrip to the unreachable owner
  }

 private:
  Lock lock_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

fdrtool::Json ParseDump(const std::string& text) {
  fdrtool::Json dump;
  std::string error;
  EXPECT_TRUE(fdrtool::ParseJson(text, &dump, &error)) << error;
  return dump;
}

// --- Ring buffer -------------------------------------------------------------

TEST(FdrRingTest, WraparoundCountsDropsAndKeepsLatestWindow) {
  fdr::Recorder rec({.name = "wrap", .ring_capacity = 4});
  for (int i = 0; i < 10; ++i) {
    rec.OnThreadCreate(/*when=*/i * 100, /*node=*/0, /*thread=*/static_cast<ThreadId>(i + 1),
                       "t" + std::to_string(i), /*parent=*/0);
  }
  EXPECT_EQ(rec.recorded(), 10);
  EXPECT_EQ(rec.dropped(), 6);

  std::ostringstream out;
  rec.WriteDump(out, "explicit", "");  // no live runtime: event-only dump
  const fdrtool::Json dump = ParseDump(out.str());
  const fdrtool::Json* events = dump.Get("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->arr.size(), 4u) << "ring must retain exactly capacity records";
  // The retained window is the *last* K appends, merged in order.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events->arr[i].Int("seq"), static_cast<int64_t>(6 + i));
    EXPECT_EQ(events->arr[i].Int("thread"), static_cast<int64_t>(7 + i));
  }
  EXPECT_EQ(dump.Int("recorded"), 10);
  EXPECT_EQ(dump.Int("dropped"), 6);
}

TEST(FdrRingTest, PublishMetricsEmitsDeltas) {
  fdr::Recorder rec({.name = "m", .ring_capacity = 2});
  for (int i = 0; i < 5; ++i) {
    rec.OnThreadExit(i, 0, 1);
  }
  metrics::Registry registry;
  rec.PublishMetrics(&registry);
  EXPECT_EQ(registry.CounterTotal("fdr.recorded"), 5);
  EXPECT_EQ(registry.CounterTotal("fdr.dropped"), 3);
  rec.OnThreadExit(5, 0, 1);
  rec.PublishMetrics(&registry);  // second publication adds only the delta
  EXPECT_EQ(registry.CounterTotal("fdr.recorded"), 6);
  EXPECT_EQ(registry.CounterTotal("fdr.dropped"), 4);
}

// --- Determinism -------------------------------------------------------------

// One deterministic mini-chaos run: lossy links, cross-node calls, lock
// contention. Returns (virtual end time, full dump text).
std::pair<Time, std::string> RunChaos(bool attach_recorder) {
  Runtime rt(TestConfig());
  fault::FaultPlan plan;
  plan.seed = 7;
  fault::LinkRule rule;
  rule.drop = 0.05;
  rule.delay = 0.05;
  rule.delay_min = Micros(50);
  rule.delay_max = Micros(500);
  plan.links.push_back(rule);
  fault::Injector injector(plan);
  rt.SetFaultInjector(&injector);
  rt.SetFailureHandler([](const FailureEvent&) { return FailureAction::kRetry; });
  fdr::Recorder rec({.name = "det", .ring_capacity = 512});
  if (attach_recorder) {
    rec.AttachTo(rt);
  }
  const Time end = rt.Run([] {
    auto c = New<Counter>();
    MoveTo(c, 1);
    auto t = StartThread(c, &Counter::Add, 5);
    for (int i = 0; i < 3; ++i) {
      c.Call(&Counter::Add, 1);
      Work(Millis(5));
    }
    t.Join();
  });
  std::string dump;
  if (attach_recorder) {
    std::ostringstream out;
    rec.WriteDump(out, "explicit", "");
    dump = out.str();
  }
  return {end, dump};
}

TEST(FdrDumpTest, ByteIdenticalAcrossSameSeedRuns) {
  const auto [end1, dump1] = RunChaos(true);
  const auto [end2, dump2] = RunChaos(true);
  EXPECT_EQ(end1, end2);
  ASSERT_FALSE(dump1.empty());
  EXPECT_EQ(dump1, dump2) << "same plan + seed must dump byte-identical black boxes";
}

TEST(FdrDumpTest, RecorderIsObserverOnly) {
  const auto [end_on, dump] = RunChaos(true);
  const auto [end_off, none] = RunChaos(false);
  EXPECT_EQ(end_on, end_off) << "attaching the recorder must not change virtual time";
  EXPECT_TRUE(none.empty());
}

// A reliable thread travel has no request event: the recorder first hears of
// it at its first retransmission, and the migration event that follows the
// landing retires it. A dump taken after the run lists no travel in flight.
TEST(FdrDumpTest, LandedTravelsLeaveNothingInFlight) {
  Runtime rt(TestConfig(4, 2));
  fault::FaultPlan plan;
  plan.seed = 7;
  fault::LinkRule rule;
  rule.drop = 0.15;
  plan.links.push_back(rule);
  fault::Injector injector(plan);
  rt.SetFaultInjector(&injector);
  rt.SetFailureHandler([](const FailureEvent&) { return FailureAction::kRetry; });
  fdr::Recorder rec({.name = "travels"});
  rec.AttachTo(rt);
  rt.Run([] {
    auto c = New<Counter>();
    for (int i = 0; i < 40; ++i) {
      c.Call(&Counter::Add, 1);  // follows c: a thread travel
      MoveTo(c, i % 4);          // a typed failure under loss is fine too
    }
  });
  EXPECT_GT(rt.transport().retries(), 0);
  std::ostringstream out;
  rec.WriteDump(out, "explicit", "");
  const fdrtool::Json dump = ParseDump(out.str());
  const fdrtool::Json* rpcs = dump.Get("rpcs_in_flight");
  ASSERT_NE(rpcs, nullptr);
  EXPECT_TRUE(rpcs->arr.empty()) << rpcs->arr.size() << " rpcs still in flight";
}

TEST(FdrDumpTest, ExplicitDumpViaRuntime) {
  Runtime rt(TestConfig(2, 2));
  fdr::Recorder rec({.name = "explicit"});
  rec.AttachTo(rt);
  rt.Run([] {
    auto c = New<Counter>();
    MoveTo(c, 1);
    c.Call(&Counter::Add, 1);
  });
  const std::string path = rt.DumpBlackBox("FDR_explicit_test.json");
  ASSERT_EQ(path, "FDR_explicit_test.json");
  const fdrtool::Json dump = ParseDump(ReadFile(path));
  EXPECT_EQ(dump.Str("reason"), "explicit");
  EXPECT_GT(dump.Int("recorded"), 0);
  // Runtime was alive at dump time: the kernel fiber snapshot is present.
  const fdrtool::Json* fibers = dump.Get("fibers");
  ASSERT_NE(fibers, nullptr);
  EXPECT_FALSE(fibers->arr.empty());
  // The moved Counter's descriptor chain names node 1 as home.
  const fdrtool::Json* objects = dump.Get("objects");
  ASSERT_NE(objects, nullptr);
  bool found_resident = false;
  for (const fdrtool::Json& o : objects->arr) {
    const fdrtool::Json* chain = o.Get("chain");
    if (chain != nullptr && chain->arr.size() == 2 && chain->arr[1].str == "res") {
      found_resident = true;
    }
  }
  EXPECT_TRUE(found_resident) << "expected an object resident on node 1 in " << ReadFile(path);
  std::remove(path.c_str());
}

// --- The black box itself ----------------------------------------------------

// Runs the fatal chaos scenario: partition 0<->2 breeds mutual suspicion, a
// thread dies on a failed AMBER_CHECK while holding a lock another thread
// waits on, and a third thread's move-control roundtrip to the partitioned
// owner is still in flight (a long first-attempt timeout keeps it pending
// past the moment of death). Never returns.
void RunFatalScenario() {
  // Four processors per node: the rpc-waiter thread must dispatch without
  // queue delay so its move lands after the partition (30ms) but before
  // node 0 suspects node 2 (~50ms); otherwise the control roundtrip is
  // short-circuited by suspicion and never appears in flight.
  Runtime rt(TestConfig(3, 4));
  fault::FaultPlan plan;
  fault::Partition part;
  part.a = 0;
  part.b = 2;
  part.from = Millis(30);
  plan.partitions.push_back(part);
  fault::Injector injector(plan);
  rt.SetFaultInjector(&injector);
  rpc::RetryPolicy slow_retry;
  slow_retry.timeout = Millis(500);
  slow_retry.timeout_cap = Millis(500);
  rt.transport().SetRetryPolicy(slow_retry);
  fdr::Recorder rec({.name = "blackbox"});
  rec.AttachTo(rt);
  rt.Run([] {
    auto remote = New<Counter>();
    MoveTo(remote, 2);  // home the counter on node 2 before the partition
    auto h = New<Holder>();
    StartThreadNamed("holder-dies", 0, h, &Holder::HoldAndDie);
    StartThreadNamed("lock-victim", 0, h, &Holder::BlockOnLock);
    StartThreadNamed("rpc-waiter", 0, h, &Holder::MoveBack, remote);
    Work(Millis(200));
  });
}

TEST(FdrDeathTest, PanicWritesBlackBoxNamingCulprits) {
  std::remove("FDR_blackbox.json");
  // The child prints the panic, flushes the dump, announces its path, and
  // aborts; the file lands in the shared cwd for the parent to dissect.
  EXPECT_DEATH(RunFatalScenario(), "black box: FDR_blackbox\\.json");

  const std::string text = ReadFile("FDR_blackbox.json");
  ASSERT_FALSE(text.empty()) << "dying child must leave FDR_blackbox.json behind";
  const fdrtool::Json dump = ParseDump(text);
  EXPECT_EQ(dump.Str("reason"), "panic");
  EXPECT_NE(dump.Str("detail").find("injected black-box crash"), std::string::npos);

  // The dying thread is identified by id and name: still running, and
  // holding the contended lock.
  const int64_t dying = dump.Int("dying_thread");
  ASSERT_NE(dying, 0);
  const fdrtool::Json* threads = dump.Get("threads");
  ASSERT_NE(threads, nullptr);
  const fdrtool::Json* dt = nullptr;
  for (const fdrtool::Json& t : threads->arr) {
    if (t.Int("thread") == dying) {
      dt = &t;
    }
  }
  ASSERT_NE(dt, nullptr);
  EXPECT_EQ(dt->Str("name"), "holder-dies");
  EXPECT_EQ(dt->Str("status"), "running");
  const fdrtool::Json* held = dt->Get("held_locks");
  ASSERT_NE(held, nullptr);
  ASSERT_EQ(held->arr.size(), 1u) << "the dying thread held the lock";
  const int64_t lock_id = static_cast<int64_t>(held->arr[0].num);

  // The victim is recorded blocked on exactly that lock.
  const fdrtool::Json* locks = dump.Get("locks");
  ASSERT_NE(locks, nullptr);
  bool victim_waits = false;
  for (const fdrtool::Json& l : locks->arr) {
    if (l.Int("lock") == lock_id && l.Int("holder") == dying) {
      victim_waits = !l.Get("waiters")->arr.empty();
    }
  }
  EXPECT_TRUE(victim_waits) << "lock table must show the blocked victim";

  // The move-control roundtrip to partitioned node 2 is in flight.
  const fdrtool::Json* rpcs = dump.Get("rpcs_in_flight");
  ASSERT_NE(rpcs, nullptr);
  bool move_rpc = false;
  for (const fdrtool::Json& r : rpcs->arr) {
    if (r.Int("src") == 0 && r.Int("dst") == 2) {
      move_rpc = true;
    }
  }
  EXPECT_TRUE(move_rpc) << "expected the move-control roundtrip in rpcs_in_flight";

  // The partition produced mutual suspicion between nodes 0 and 2.
  const fdrtool::Json* suspicion = dump.Get("suspicion");
  ASSERT_NE(suspicion, nullptr);
  bool zero_suspects_two = false;
  for (const fdrtool::Json& v : suspicion->arr) {
    if (v.Int("viewer") == 0) {
      for (const fdrtool::Json& s : v.Get("suspects")->arr) {
        if (static_cast<int64_t>(s.num) == 2) {
          zero_suspects_two = true;
        }
      }
    }
  }
  EXPECT_TRUE(zero_suspects_two) << "node 0 should suspect partitioned node 2";

  // The analyzer report names all of it.
  std::ostringstream report;
  fdrtool::RenderReport(dump, report);
  const std::string r = report.str();
  EXPECT_NE(r.find("holder-dies"), std::string::npos);
  EXPECT_NE(r.find("holding lock"), std::string::npos);
  EXPECT_NE(r.find("waiting:"), std::string::npos) << "lock section must list the victim:\n" << r;
  EXPECT_NE(r.find("RPCs in flight"), std::string::npos);
  EXPECT_NE(r.find("suspects"), std::string::npos);
  EXPECT_NE(r.find("discrepancy"), std::string::npos)
      << "suspected-but-alive node 2 must be flagged:\n" << r;
  // Deliberately left on disk: CI's flight-recorder smoke renders this dump
  // with the amber-fdr CLI, and the artifact step archives it on failure.
}

TEST(FdrDeathTest, PanicDumpIsDeterministic) {
  // Two same-seed fatal children must leave byte-identical black boxes.
  std::remove("FDR_blackbox.json");
  EXPECT_DEATH(RunFatalScenario(), "black box: FDR_blackbox\\.json");
  const std::string first = ReadFile("FDR_blackbox.json");
  std::remove("FDR_blackbox.json");
  EXPECT_DEATH(RunFatalScenario(), "black box: FDR_blackbox\\.json");
  const std::string second = ReadFile("FDR_blackbox.json");
  std::remove("FDR_blackbox.json");
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace amber
