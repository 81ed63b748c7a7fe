// Tests for src/telemetry: the host-side self-profiler must never perturb
// the simulation (virtual end time and every observer-derived document are
// byte-identical whether telemetry is off, on, or absent), its TELEMETRY
// JSON must be deterministic once wall-clock fields are scrubbed, and the
// sample-ring / tally mechanics must hold up under wraparound.

#include "src/telemetry/telemetry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "src/apps/fdr/fdr_report.h"
#include "src/core/amber.h"
#include "src/fdr/fdr.h"
#include "src/metrics/metrics.h"
#include "src/prof/profiler.h"

namespace telemetry {
namespace {

using namespace amber;

class Pokee : public Object {
 public:
  int Poke() {
    Work(kMicrosecond * 50);
    return ++pokes_;
  }

 private:
  int pokes_ = 0;
};

class Monitored : public Object {
 public:
  void Bump() {
    lock_.Acquire();
    Work(kMillisecond * 2);
    ++value_;
    lock_.Release();
  }

 private:
  Lock lock_;
  int value_ = 0;
};

struct ScenarioOutputs {
  Time end = 0;
  std::string metrics_json;
  std::string prof_json;
  std::string fdr_json;
};

// The metrics_test scenario (remote invocations, a contended lock, an object
// move) with every observer attached, optionally self-profiled. Returns all
// three observer-derived documents for byte comparison.
ScenarioOutputs RunScenario(SelfProfiler* prof) {
  Runtime::Config c;
  c.nodes = 2;
  c.procs_per_node = 2;
  c.arena_bytes = size_t{128} << 20;
  Runtime rt(c);
  metrics::Registry reg;
  prof::Profiler profiler;
  fdr::Recorder rec({.name = "telemetry_test"});
  rt.SetMetrics(&reg);
  rt.AddObserver(&profiler);
  rec.AttachTo(rt);
  if (prof != nullptr) {
    prof->Enable();
  }
  ScenarioOutputs out;
  rt.Run([&] {
    auto shared = NewOn<Monitored>(1);
    auto t1 = StartThread(shared, &Monitored::Bump);
    auto t2 = StartThread(shared, &Monitored::Bump);
    t1.Join();
    t2.Join();
    auto thing = New<Pokee>();
    MoveTo(thing, 1 - Here());
    thing.Call(&Pokee::Poke);
    out.end = Now();
  });
  if (prof != nullptr) {
    prof->Disable();
  }
  std::ostringstream m;
  reg.WriteJson(m);
  out.metrics_json = m.str();
  prof::ProfileReport report = profiler.Finalize();
  report.name = "telemetry_test";
  std::ostringstream p;
  report.WriteJson(p);
  out.prof_json = p.str();
  std::ostringstream f;
  rec.WriteDump(f, "explicit", "");
  out.fdr_json = f.str();
  return out;
}

SelfProfiler::Config SmallRingConfig() {
  SelfProfiler::Config cfg;
  cfg.name = "telemetry_test";
  cfg.sample_every_events = 16;  // small enough that the scenario samples
  cfg.ring_capacity = 64;
  return cfg;
}

TEST(TelemetryTest, EnabledProfilerDoesNotPerturbSimulation) {
  const ScenarioOutputs plain = RunScenario(nullptr);
  SelfProfiler prof(SmallRingConfig());
  const ScenarioOutputs profiled = RunScenario(&prof);
  // Same virtual end time and byte-identical metrics / PROF / FDR documents:
  // telemetry reads the host clock only and never touches virtual time.
  EXPECT_EQ(plain.end, profiled.end);
  EXPECT_EQ(plain.metrics_json, profiled.metrics_json);
  EXPECT_EQ(plain.prof_json, profiled.prof_json);
  EXPECT_EQ(plain.fdr_json, profiled.fdr_json);
  // And the profiler did observe the run.
  EXPECT_GT(prof.count(Count::kEvents), 0);
}

TEST(TelemetryTest, ScrubbedJsonIsByteIdenticalAcrossRuns) {
  SelfProfiler a(SmallRingConfig());
  RunScenario(&a);
  SelfProfiler b(SmallRingConfig());
  RunScenario(&b);
  std::ostringstream ja;
  a.WriteJson(ja, /*scrub_wall=*/true);
  std::ostringstream jb;
  b.WriteJson(jb, /*scrub_wall=*/true);
  EXPECT_EQ(ja.str(), jb.str());
  // The scrubbed document still carries the deterministic structure:
  // virtual-time-keyed samples, counts, buckets, node attribution.
  const std::string& doc = ja.str();
  for (const char* key :
       {"\"telemetry\"", "\"schema\"", "\"counts\"", "\"buckets\"", "\"event_loop\"",
        "\"fiber_run\"", "\"observer_fanout\"", "\"net_delivery\"", "\"node_dispatches\"",
        "\"samples\"", "\"virtual_time_ns\"", "\"queue_depth\"", "\"totals\""}) {
    EXPECT_NE(doc.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_GT(a.samples_taken(), 0) << "scenario too small to sample";
}

TEST(TelemetryTest, CountsAndBucketsObserveTheRun) {
  SelfProfiler prof(SmallRingConfig());
  RunScenario(&prof);
  EXPECT_GT(prof.count(Count::kEvents), 0);
  EXPECT_GT(prof.count(Count::kDispatches), 0);
  EXPECT_GT(prof.count(Count::kDescriptorLookups), 0);
  EXPECT_GT(prof.count(Count::kAllocations), 0);
  EXPECT_GT(prof.count(Count::kAllocBytes), prof.count(Count::kAllocations));
  // Every event-loop iteration lands in the umbrella bucket.
  EXPECT_EQ(prof.bucket_calls(Bucket::kEventLoop), prof.count(Count::kEvents));
  EXPECT_GT(prof.bucket_calls(Bucket::kFiberRun), 0);
  // Observers were attached, so the fan-out bucket saw traffic.
  EXPECT_GT(prof.bucket_calls(Bucket::kObserverFanout), 0);
  // Dispatch attribution covers both nodes and sums to the dispatch count.
  int64_t total = 0;
  for (int64_t d : prof.node_dispatches()) {
    total += d;
  }
  EXPECT_EQ(prof.node_dispatches().size(), 2u);
  EXPECT_EQ(total, prof.count(Count::kDispatches));
  EXPECT_GT(prof.EnabledWallNs(), 0);
  EXPECT_GT(prof.EventsPerSec(), 0.0);
}

// An immutable object, and a reader that invokes it from the reader's node.
class Constant : public Object {
 public:
  int Get() const { return 7; }
};

class Reader : public Object {
 public:
  int Read(Ref<Constant> c) { return c.Call(&Constant::Get); }
};

// Every residency check (§3.5) counts as one descriptor lookup, whether the
// object's header or a table answers it. The program covers each kind of
// check: local calls, a remote call, a call after a MoveTo, an immutable
// object read through a replica, and a Join that chases a thread that
// migrated. The constant was recorded when every check still probed a
// table, so a check that skips counting (or counts twice) fails here.
TEST(TelemetryTest, ResidencyChecksCountAsDescriptorLookups) {
  Runtime::Config c;
  c.nodes = 2;
  c.procs_per_node = 1;
  c.arena_bytes = size_t{64} << 20;
  Runtime rt(c);
  SelfProfiler prof(SmallRingConfig());
  prof.Enable();
  rt.Run([&] {
    auto local = New<Pokee>();
    auto far = New<Pokee>();
    for (int i = 0; i < 3; ++i) {
      local.Call(&Pokee::Poke);
    }
    auto remote = NewOn<Pokee>(1);
    remote.Call(&Pokee::Poke);
    MoveTo(local, 1);
    local.Call(&Pokee::Poke);
    auto constant = New<Constant>();
    MakeImmutable(constant);
    auto reader = NewOn<Reader>(1);
    EXPECT_EQ(reader.Call(&Reader::Read, constant), 7);
    // Main stays on node 1 after its calls there. The worker starts beside
    // it and migrates to node 0, so the Join chases its thread object.
    ASSERT_EQ(Here(), 1);
    auto worker = StartThread(far, &Pokee::Poke);
    EXPECT_EQ(worker.Join(), 1);
    EXPECT_EQ(Here(), 0);
  });
  prof.Disable();
  EXPECT_EQ(prof.count(Count::kDescriptorLookups), 30);
}

TEST(TelemetryTest, SampleRingWrapsKeepingNewestChronologically) {
  SelfProfiler::Config cfg;
  cfg.sample_every_events = 1;
  cfg.ring_capacity = 4;
  SelfProfiler prof(cfg);
  prof.Enable();
  for (int i = 1; i <= 10; ++i) {
    prof.OnEventLoopIteration(/*virtual_now_ns=*/i * 100, /*queue_depth=*/i);
  }
  prof.Disable();
  EXPECT_EQ(prof.samples_taken(), 10);
  const auto samples = prof.SamplesChronological();
  ASSERT_EQ(samples.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(samples[i].virtual_time_ns, (7 + i) * 100);
    EXPECT_EQ(samples[i].events, 7 + i);
    EXPECT_EQ(samples[i].queue_depth, 7 + i);
  }
}

// The heap figure is read on the first sample and every kHeapSampleEvery-th
// after it; every sample in between carries the last reading, so each one
// has a heap figure for amber-top and perfbench's mem.heap_peak_mb.
TEST(TelemetryTest, EverySampleCarriesTheHeapFigure) {
  SelfProfiler::Config cfg;
  cfg.sample_every_events = 1;
  cfg.ring_capacity = 4096;
  SelfProfiler prof(cfg);
  prof.Enable();
  const int events = 3 * SelfProfiler::kHeapSampleEvery + 5;
  for (int i = 1; i <= events; ++i) {
    prof.OnEventLoopIteration(/*virtual_now_ns=*/i * 10, /*queue_depth=*/0);
  }
  prof.Disable();
  const auto samples = prof.SamplesChronological();
  ASSERT_EQ(samples.size(), static_cast<size_t>(events));
#if defined(__GLIBC__) && defined(__GLIBC_PREREQ) && __GLIBC_PREREQ(2, 33)
  const bool have_mallinfo2 = true;
#else
  const bool have_mallinfo2 = false;
#endif
  for (size_t i = 0; i < samples.size(); ++i) {
    const int64_t heap = samples[i].heap_bytes;
    if (have_mallinfo2) {
      EXPECT_GE(heap, 0) << "sample " << i;  // 0 under ASan, whose allocator glibc does not see
    } else {
      EXPECT_EQ(heap, -1) << "sample " << i;
    }
    const size_t read_at = i - i % static_cast<size_t>(SelfProfiler::kHeapSampleEvery);
    EXPECT_EQ(heap, samples[read_at].heap_bytes) << "sample " << i;
  }
}

TEST(TelemetryTest, FlushToWritesParseableJsonAtomically) {
  SelfProfiler::Config cfg;
  cfg.sample_every_events = 1;
  cfg.ring_capacity = 8;
  SelfProfiler prof(cfg);
  prof.Enable();
  for (int i = 1; i <= 5; ++i) {
    prof.OnEventLoopIteration(/*virtual_now_ns=*/i * 10, /*queue_depth=*/0);
  }
  prof.Disable();
  const std::string path = "TELEMETRY_unittest.json";
  ASSERT_TRUE(prof.FlushTo(path));
  fdrtool::Json doc;
  std::string error;
  ASSERT_EQ(fdrtool::LoadJson(path, &doc, &error), fdrtool::LoadStatus::kOk) << error;
  EXPECT_EQ(doc.Str("telemetry"), "amber");
  ASSERT_NE(doc.Get("counts"), nullptr);
  EXPECT_EQ(doc.Get("counts")->Int("events"), 5);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST(TelemetryTest, DisabledHotPathsAreInertAndSafe) {
  ASSERT_EQ(SelfProfiler::active(), nullptr);
  CountIfActive(Count::kDescriptorLookups);  // no-op, must not crash
  { ScopedWallTimer timer(Bucket::kNetDelivery); }
  // Enable/Disable pairs nest sanely and the destructor detaches.
  {
    SelfProfiler prof(SelfProfiler::Config{});
    prof.Enable();
    EXPECT_EQ(SelfProfiler::active(), &prof);
  }
  EXPECT_EQ(SelfProfiler::active(), nullptr);
}

}  // namespace
}  // namespace telemetry
