// The metrics registry records the runtime's families as an ordinary
// observer on the event bus, so it sees each event at its place in attach
// order. That place must not change any dump: one fault-injected workload
// runs twice, with Runtime::SetMetrics called before every other observer
// and then after all of them, and every document must match byte for byte.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/amber.h"
#include "src/fault/fault.h"
#include "src/fdr/fdr.h"
#include "src/metrics/metrics.h"
#include "src/prof/profiler.h"
#include "src/rtrace/rtrace.h"
#include "src/tseries/tseries.h"

namespace amber {
namespace {

class Counter : public Object {
 public:
  int Add(int d) {
    Work(Micros(20));
    value_ += d;
    return value_;
  }
  int Get() { return value_; }

 private:
  int value_ = 0;
};

class Reader : public Object {
 public:
  int Read(Ref<Counter> counter) { return counter.Call(&Counter::Get); }
};

// Two threads meet here once.
class Rendezvous : public Object {
 public:
  void Meet() { meeting_.Wait(); }

 private:
  Barrier meeting_{2};
};

// Putters hold the lock long enough for the other to queue on it; takers
// wait on the condition until an item is there.
class Mailbox : public Object {
 public:
  void Put() {
    MonitorGuard g(lock_);
    Work(Millis(3));  // longer than a thread_create: the next putter queues
    ++items_;
    filled_.Signal();
  }
  void Take() {
    lock_.Acquire();
    while (items_ == 0) {
      filled_.Wait(lock_);
    }
    --items_;
    lock_.Release();
  }

 private:
  Lock lock_;
  Condition filled_;
  int items_ = 0;
};

// Loss, duplication and delay on every link, and node 3 down from 25 ms to
// 500 ms: long enough for the other nodes to suspect it, and past the point
// where the workload reaches for its two objects there.
fault::FaultPlan Plan() {
  fault::FaultPlan plan;
  plan.seed = 11;
  fault::LinkRule rule;
  rule.drop = 0.1;
  rule.duplicate = 0.2;
  rule.delay = 0.1;
  rule.delay_min = Micros(50);
  rule.delay_max = Micros(400);
  plan.links.push_back(rule);
  fault::NodeEvent crash;
  crash.node = 3;
  crash.crash_at = Millis(25);
  crash.restart_at = Millis(500);
  plan.node_events.push_back(crash);
  return plan;
}

// The runtime families the workload must record: every one has a sample or
// a nonzero count.
constexpr const char* kFamilies[] = {
    "sched.threads.created", "sched.runqueue.wait", "rpc.roundtrip.latency", "rpc.retries",
    "fault.drops", "fault.dups", "fault.delays", "fault.delay", "fault.node.crashes",
    "fault.node.restarts", "net.link.messages", "net.link.bytes", "sync.lock.blocked",
    "sync.lock.wait", "sync.lock.hold", "lock.wait_ns", "lock.hold_ns", "sync.condition.wakeups",
    "drain.objects", "amber.migration.latency", "amber.forward.chain", "amber.move.latency",
    "amber.replica.fetches", "recovery.checkpoints", "recovery.latency", "fault.unreachable",
    "member.suspicions", "sync.barrier.waits"};

struct Dumps {
  std::string registry;
  std::map<std::string, int64_t> recorded;  // kFamilies: count or samples
  std::string prof;
  std::string fdr;
  std::string rtrace;
  std::string tseries;
  int64_t dups_published = 0;  // the registry's rpc.dup_suppressed
  int64_t dups_counted = 0;    // the transport's own count
  int64_t retries = 0;
};

Dumps RunWorkload(bool metrics_first) {
  metrics::Registry registry;
  rtrace::Tracer tracer({.name = "bus"});
  tseries::Collector::Config collector_config;
  collector_config.name = "bus";
  collector_config.window_ns = Millis(2);
  tseries::Collector collector(collector_config);
  fdr::Recorder recorder({.name = "bus"});
  prof::Profiler profiler;
  fault::Injector injector(Plan());
  Runtime::Config config;
  config.nodes = 4;
  config.procs_per_node = 2;
  config.arena_bytes = size_t{128} << 20;
  Runtime rt(config);
  collector.SetRegistry(&registry);
  collector.WatchCounter("app.rounds");
  if (metrics_first) {
    rt.SetMetrics(&registry);
  }
  tracer.AttachTo(rt);
  collector.AttachTo(rt);
  recorder.AttachTo(rt);
  rt.AddObserver(&profiler);
  if (!metrics_first) {
    rt.SetMetrics(&registry);
  }
  rt.SetFaultInjector(&injector);
  // Retry everything but the recoverable object, which is restored from its
  // checkpoint.
  const void* recoverable = nullptr;
  rt.SetFailureHandler([&recoverable](const FailureEvent& e) {
    return e.object == recoverable ? FailureAction::kRecover : FailureAction::kRetry;
  });
  const Time end = rt.Run([&] {
    // Two objects on node 3 before it crashes; one is checkpointed on a buddy.
    auto saved = NewOn<Counter>(3);
    SetRecoverable(saved);
    recoverable = saved.object();
    auto stranded = NewOn<Counter>(3);
    auto rendezvous = New<Rendezvous>();
    auto met = StartThread(rendezvous, &Rendezvous::Meet);
    rendezvous.Call(&Rendezvous::Meet);
    met.Join();
    auto setting = New<Counter>();
    MakeImmutable(setting);
    NewOn<Reader>(2).Call(&Reader::Read, setting);  // a replica fetch on node 2
    auto box = NewOn<Mailbox>(1);
    auto counter = New<Counter>();
    auto resident = NewOn<Counter>(2);  // something for DrainNode to move
    std::vector<ThreadRef<void>> threads;
    for (int i = 0; i < 2; ++i) {
      tracer.OpenRequest("take");
      threads.push_back(StartThread(box, &Mailbox::Take));
      tracer.OpenRequest("put");
      threads.push_back(StartThread(box, &Mailbox::Put));
    }
    for (auto& t : threads) {
      t.Join();
    }
    for (int i = 0; i < 12; ++i) {
      counter.Call(&Counter::Add, 1);
      MoveTo(counter, i % 3);  // a typed failure under loss is fine too
      Locate(counter);
      registry.GetCounter("app.rounds").Add();
      Work(Millis(1));
    }
    saved.Call(&Counter::Add, 1);     // node 3 is down: restored on its buddy
    stranded.Call(&Counter::Add, 1);  // chases into node 3 until it restarts
    DrainNode(2);
    resident.Call(&Counter::Add, 1);
  });
  collector.Finish(end);

  Dumps run;
  std::ostringstream out;
  registry.WriteJson(out);
  run.registry = out.str();
  out.str("");
  prof::ProfileReport report = profiler.Finalize();
  report.name = "bus";
  report.WriteJson(out);
  run.prof = out.str();
  out.str("");
  recorder.WriteDump(out, "explicit", "");
  run.fdr = out.str();
  out.str("");
  tracer.WriteJson(out);
  run.rtrace = out.str();
  out.str("");
  collector.WriteJson(out);
  run.tseries = out.str();
  run.dups_published = registry.CounterTotal("rpc.dup_suppressed");
  run.dups_counted = rt.transport().duplicates_suppressed();
  run.retries = rt.transport().retries();
  for (const char* family : kFamilies) {
    int64_t& n = run.recorded[family];
    n = registry.CounterTotal(family);
    if (const metrics::Registry::HistogramFamily* h = registry.FindHistograms(family)) {
      for (const auto& [label, histogram] : *h) {
        n += histogram.count();
      }
    }
  }
  return run;
}

TEST(BusOrderTest, RegistryPlaceOnTheBusChangesNoDump) {
  const Dumps first = RunWorkload(/*metrics_first=*/true);
  const Dumps last = RunWorkload(/*metrics_first=*/false);
  EXPECT_EQ(first.registry, last.registry);
  EXPECT_EQ(first.prof, last.prof);
  EXPECT_EQ(first.fdr, last.fdr);
  EXPECT_EQ(first.rtrace, last.rtrace);
  EXPECT_EQ(first.tseries, last.tseries);

  // The plan exercised every path the registry's observer records.
  EXPECT_GT(first.retries, 0);
  EXPECT_GT(first.dups_counted, 0);
  EXPECT_EQ(first.dups_published, first.dups_counted);
  for (const char* family : kFamilies) {
    EXPECT_GT(first.recorded.at(family), 0) << family;
  }
}

}  // namespace
}  // namespace amber
