// Tests for request-scoped tracing: the context wire frame, sampled
// end-to-end propagation through threads / invocations / the RPC wire,
// exact virtual-time attribution closure, exemplar integration, the flight
// recorder's span column, byte-inertness when sampling is off, eviction and
// the reuse of evicted records (a recorded dump of an eviction-heavy faulted
// run), and that a sampled request allocates nothing once the tracer is
// warm. Every global operator new in this binary is counted, so the last is
// checked directly.

#include "src/rtrace/rtrace.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <sstream>
#include <string>

#include "src/core/amber.h"
#include "src/fault/fault.h"
#include "src/fdr/fdr.h"
#include "src/metrics/metrics.h"
#include "src/rpc/wire.h"

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

namespace rtrace {
namespace {

using namespace amber;

Runtime::Config TestConfig() {
  Runtime::Config config;
  config.nodes = 2;
  config.procs_per_node = 2;
  config.arena_bytes = size_t{128} << 20;
  return config;
}

class Worker final : public Object {
 public:
  int Spin(int units) {
    Work(Micros(50) * (units + 1));
    return units * 2;
  }
};

// --- Wire format ---------------------------------------------------------------

TEST(TraceContextWireTest, V1RoundTripIsExactlyTheFixedPrefix) {
  TraceContext tx;
  tx.trace_id = 0x1122334455667788ull;
  tx.span_id = 42;
  tx.flags = kContextFlagSampled;

  const rpc::TraceFrame frame = EncodeContext(tx);
  EXPECT_EQ(frame.size, kContextV1Bytes);
  // The layout a WireBuffer writes for [u8 version][u64 trace][u64 span][u8 flags].
  rpc::WireBuffer w;
  w.PutU8(1);
  w.PutU64(tx.trace_id);
  w.PutU64(tx.span_id);
  w.PutU8(kContextFlagSampled);
  EXPECT_EQ(std::vector<uint8_t>(frame.bytes.begin(), frame.bytes.begin() + frame.size),
            w.bytes());
  const TraceContext rx = DecodeContext(frame);
  EXPECT_EQ(rx.version, 1);
  EXPECT_EQ(rx.trace_id, 0x1122334455667788ull);
  EXPECT_EQ(rx.span_id, 42u);
  EXPECT_TRUE(rx.sampled());
}

// --- End-to-end tracing --------------------------------------------------------

TEST(RtraceTest, SamplesOneInNAndPropagatesAcrossTheWire) {
  Tracer tracer({.name = "t", .sample_every = 2});
  Runtime rt(TestConfig());
  tracer.AttachTo(rt);
  rt.Run([&] {
    auto w = NewOn<Worker>(1);
    for (int i = 0; i < 6; ++i) {
      const uint64_t id = tracer.OpenRequest("req");
      EXPECT_EQ(id != 0, i % 2 == 0);  // deterministic 1-in-2, open order
      auto t = StartThread(w, &Worker::Spin, i);
      EXPECT_EQ(t.Join(), i * 2);
    }
  });
  EXPECT_EQ(tracer.requests_seen(), 6);
  EXPECT_EQ(tracer.requests_sampled(), 3);
  // The request threads invoked a remote object: their travel to node 1
  // carried context frames that arrived and validated.
  EXPECT_GT(tracer.contexts_propagated(), 0);
  EXPECT_EQ(tracer.contexts_invalid(), 0);

  int done = 0;
  int64_t total_hops = 0;
  for (const auto& [id, t] : tracer.traces()) {
    EXPECT_TRUE(t.done);
    EXPECT_EQ(t.name, "req");
    EXPECT_GT(t.latency(), 0);
    total_hops += t.hops;
    ASSERT_FALSE(t.spans.empty());
    EXPECT_EQ(t.spans[0].kind, SpanKind::kRequest);
    bool has_invoke = false;
    for (const Span& s : t.spans) {
      if (s.kind == SpanKind::kInvoke) {
        has_invoke = true;
        EXPECT_GE(s.end, s.start);
      }
    }
    EXPECT_TRUE(has_invoke);
    ++done;
  }
  EXPECT_EQ(done, 3);
  // At least the requests that crossed nodes announced their context on
  // arrival (a request whose thread happened to be created co-located with
  // the worker never touches the wire — that's fine).
  EXPECT_GT(total_hops, 0);
}

TEST(RtraceTest, AttributionSumsToLatencyExactly) {
  Tracer tracer({.name = "t"});
  Runtime rt(TestConfig());
  tracer.AttachTo(rt);
  rt.Run([&] {
    auto w = NewOn<Worker>(1);
    for (int i = 0; i < 4; ++i) {
      tracer.OpenRequest("req");
      auto t = StartThread(w, &Worker::Spin, i);
      t.Join();
    }
  });
  ASSERT_EQ(tracer.requests_sampled(), 4);
  for (const auto& [id, t] : tracer.traces()) {
    ASSERT_TRUE(t.done);
    Duration sum = 0;
    for (const Duration ns : t.attribution) {
      sum += ns;
    }
    // Exact closure: every nanosecond of the root thread's lifetime lands
    // in exactly one category.
    EXPECT_EQ(sum, t.latency()) << "trace " << id;
    EXPECT_GT(t.attribution[kCompute], 0) << "trace " << id;
  }
}

TEST(RtraceTest, ExemplarNamesAReconstructibleTrace) {
  Tracer tracer({.name = "t"});
  metrics::Registry registry;
  {
    Runtime rt(TestConfig());
    rt.SetMetrics(&registry);
    tracer.AttachTo(rt);
    rt.Run([&] {
      auto w = NewOn<Worker>(1);
      for (int i = 0; i < 3; ++i) {
        tracer.OpenRequest("req");
        const Time arrival = Now();
        auto t = StartThread(w, &Worker::Spin, i);
        t.Join();
        registry.GetHistogram("req.latency")
            .Record(static_cast<double>(Now() - arrival), tracer.CurrentTraceId());
      }
    });
  }
  // The driver itself is untraced: CurrentTraceId() returned 0, so no
  // exemplars were retained from it...
  EXPECT_TRUE(registry.GetHistogram("req.latency").exemplars().empty());

  // ...but a request thread recording its own latency leaves one, and the
  // trace it names is retrievable and complete.
  Tracer tracer2({.name = "t2"});
  metrics::Registry registry2;
  {
    Runtime rt2(TestConfig());
    rt2.SetMetrics(&registry2);
    tracer2.AttachTo(rt2);
    rt2.Run([&] {
      auto w = NewOn<Worker>(1);
      tracer2.OpenRequest("req");
      auto t = StartThread(w, &Worker::Spin, 7);
      t.Join();
      // Join chased the request thread; the trace is complete now. Use its
      // id (the only sampled one) as the exemplar.
      ASSERT_EQ(tracer2.traces().size(), 1u);
      const uint64_t id = tracer2.traces().begin()->first;
      registry2.GetHistogram("req.latency").Record(1000.0, id);
    });
  }
  const metrics::Exemplar ex = registry2.GetHistogram("req.latency").ExemplarNear(1000.0);
  ASSERT_NE(ex.trace_id, 0u);
  const Trace* t = tracer2.FindTrace(ex.trace_id);
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(t->done);
}

TEST(RtraceTest, WriteJsonIsDeterministicAndComplete) {
  auto run = [] {
    Tracer tracer({.name = "dump"});
    Runtime rt(TestConfig());
    tracer.AttachTo(rt);
    rt.Run([&] {
      auto w = NewOn<Worker>(1);
      for (int i = 0; i < 3; ++i) {
        tracer.OpenRequest("req");
        auto t = StartThread(w, &Worker::Spin, i);
        t.Join();
      }
    });
    std::ostringstream out;
    tracer.WriteJson(out);
    return out.str();
  };
  const std::string a = run();
  EXPECT_EQ(a, run());  // same seed, byte-identical dump
  EXPECT_NE(a.find("\"rtrace\": \"dump\""), std::string::npos);
  EXPECT_NE(a.find("\"attribution\""), std::string::npos);
  EXPECT_NE(a.find("\"kind\": \"invoke\""), std::string::npos);
  EXPECT_EQ(a.find("\"end_ns\": 0,"), std::string::npos);  // no dangling open spans
}

TEST(RtraceTest, FlightRecorderRecordsSpanIds) {
  Tracer tracer({.name = "t"});
  fdr::Recorder recorder({.name = "rtrace_test"});
  recorder.SetSpanSource(
      [&tracer](ThreadId thread) { return tracer.CurrentSpanOf(thread); });
  Runtime rt(TestConfig());
  tracer.AttachTo(rt);
  recorder.AttachTo(rt);
  rt.Run([&] {
    auto w = NewOn<Worker>(1);
    tracer.OpenRequest("req");
    auto t = StartThread(w, &Worker::Spin, 2);
    t.Join();
  });
  std::ostringstream out;
  recorder.WriteDump(out, "test", "span column");
  EXPECT_NE(out.str().find("\"span\":"), std::string::npos);
}

TEST(RtraceTest, DisabledSamplingIsByteInert) {
  // Identical workload three ways: untraced, tracer attached with sampling
  // off, tracer attached with sampling on. The first two must be
  // byte-identical in every output (the metrics document embeds per-link
  // byte counts, so any extra wire byte would show). Sampling on is
  // *allowed* to shift virtual time: piggybacked context frames are real
  // payload bytes, charged like any other.
  auto run = [](Tracer* tracer) {
    metrics::Registry registry;
    Runtime rt(TestConfig());
    rt.SetMetrics(&registry);
    if (tracer != nullptr) {
      tracer->AttachTo(rt);
    }
    Time end = 0;
    rt.Run([&] {
      auto w = NewOn<Worker>(1);
      for (int i = 0; i < 4; ++i) {
        if (tracer != nullptr) {
          tracer->OpenRequest("req");
        }
        auto t = StartThread(w, &Worker::Spin, i);
        t.Join();
      }
      end = Now();
    });
    std::ostringstream json;
    registry.WriteJson(json);
    return std::make_pair(end, json.str());
  };

  const auto untraced = run(nullptr);
  Tracer off({.name = "off", .sample_every = 0});
  const auto sampling_off = run(&off);
  EXPECT_EQ(untraced.first, sampling_off.first);
  EXPECT_EQ(untraced.second, sampling_off.second);
  EXPECT_EQ(off.requests_seen(), 4);
  EXPECT_EQ(off.requests_sampled(), 0);
  EXPECT_TRUE(off.traces().empty());

  Tracer on({.name = "on", .sample_every = 1});
  const auto sampling_on = run(&on);
  EXPECT_EQ(on.requests_sampled(), 4);
  EXPECT_GT(on.contexts_propagated(), 0);
}

TEST(RtraceTest, EvictionKeepsTheNewestTraces) {
  // Far past capacity: every completion after the second evicts one trace.
  constexpr int kRequests = 500;
  Tracer tracer({.name = "t", .max_traces = 2});
  Runtime rt(TestConfig());
  tracer.AttachTo(rt);
  rt.Run([&] {
    auto w = NewOn<Worker>(1);
    for (int i = 0; i < kRequests; ++i) {
      tracer.OpenRequest("req");
      auto t = StartThread(w, &Worker::Spin, i % 5);
      t.Join();
    }
  });
  EXPECT_EQ(tracer.requests_sampled(), kRequests);
  EXPECT_EQ(tracer.traces_evicted(), kRequests - 2);
  EXPECT_EQ(tracer.traces().size(), 2u);
  // The survivors are the most recently completed ones, still whole.
  for (const auto& [id, t] : tracer.traces()) {
    EXPECT_TRUE(t.done);
    EXPECT_GE(id, uint64_t{kRequests - 1});
    Duration attributed = 0;
    for (const Duration ns : t.attribution) {
      attributed += ns;
    }
    EXPECT_EQ(attributed, t.latency());
  }
}

TEST(RtraceTest, EvictionFollowsCompletionOrder) {
  // The first-opened request runs longest and completes last, so it is the
  // one trace a capacity of 1 keeps.
  Tracer tracer({.name = "t", .max_traces = 1});
  Runtime rt(TestConfig());
  tracer.AttachTo(rt);
  rt.Run([&] {
    auto w = NewOn<Worker>(1);
    std::vector<ThreadRef<int>> requests;
    for (int units : {200, 100, 0}) {
      tracer.OpenRequest("req");
      requests.push_back(StartThread(w, &Worker::Spin, units));
    }
    for (auto& t : requests) {
      t.Join();
    }
  });
  EXPECT_EQ(tracer.traces_evicted(), 2);
  ASSERT_EQ(tracer.traces().size(), 1u);
  EXPECT_EQ(tracer.traces().begin()->first, 1u);
}

// --- Evicted records are reused ------------------------------------------------

class Pinger final : public Object {
 public:
  int Ping(int i) {
    Work(Micros(30));
    return i;
  }
};

ThreadRef<void> g_orphan;
Time g_orphan_done = 0;

// Serve starts a child and returns without joining it, so the child
// outlives its request: it keeps calling a remote Pinger 40 times.
class Spawner final : public Object {
 public:
  void Serve(Ref<Pinger> target) {
    Work(Micros(50));
    g_orphan = StartThread(Ref<Spawner>(this), &Spawner::Chase, target);
  }
  void Chase(Ref<Pinger> target) {
    for (int i = 0; i < 40; ++i) {
      Work(Micros(100));
      target.Call(&Pinger::Ping, i);
    }
    g_orphan_done = Now();
  }
};

TEST(RtraceTest, OrphanChildRecordsNothingAfterEviction) {
  // Capacity 1: each later completion evicts the previous trace, and the
  // next request opened reuses its record. The orphan still names trace 1
  // and must record nothing once trace 1 is gone, not into the record's
  // next trace.
  Tracer tracer({.name = "t", .max_traces = 1});
  Runtime rt(TestConfig());
  tracer.AttachTo(rt);
  Time last_request_done = 0;
  rt.Run([&] {
    auto pinger = NewOn<Pinger>(1);
    auto spawner = NewOn<Spawner>(0);
    auto w = NewOn<Worker>(1);
    tracer.OpenRequest("orphaning");
    StartThread(spawner, &Spawner::Serve, pinger).Join();
    for (int i = 0; i < 8; ++i) {
      tracer.OpenRequest("req");
      StartThread(w, &Worker::Spin, i % 3).Join();
    }
    last_request_done = Now();
    g_orphan.Join();
  });
  // The orphan was still calling after the last request completed, so it
  // outlived every eviction.
  EXPECT_GT(g_orphan_done, last_request_done);
  EXPECT_EQ(tracer.requests_sampled(), 9);
  EXPECT_EQ(tracer.traces_evicted(), 8);
  ASSERT_EQ(tracer.traces().size(), 1u);
  for (const auto& [id, t] : tracer.traces()) {
    EXPECT_EQ(t.name, "req");
    for (const Span& s : t.spans) {
      EXPECT_EQ(s.thread, t.root_thread) << "trace " << id << " holds a span of thread " << s.thread;
    }
  }
  g_orphan = ThreadRef<void>();
}

// Holds its lock long enough for a second request to queue on it.
class Desk final : public Object {
 public:
  void Hold() {
    lock_.Acquire();
    Work(Millis(30));
    lock_.Release();
  }

 private:
  Lock lock_;
};

class Prober final : public Object {
 public:
  void Probe(NodeId dst) {
    Runtime::Current().transport().Roundtrip(dst, 64, []() -> int64_t { return 32; });
  }
};

// Fan starts a child that calls a Worker (on the node that crashes) and
// joins it.
class Fanner final : public Object {
 public:
  int Fan(Ref<Worker> far, int units) {
    return StartThread(far, &Worker::Spin, units).Join();
  }
};

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h = (h ^ c) * 1099511628211ULL;
  }
  return h;
}

// Recorded from the run below with a tracer that allocated every record
// afresh, so a reused record that keeps a byte of its previous trace shows
// here.
constexpr int64_t kGoldenEvicted = 22;
constexpr uint64_t kGoldenJson = 0x42f5766ca860f88fULL;

TEST(RtraceGoldenTest, EvictionHeavyRunDumpsTheRecordedBytes) {
  // Waves of five requests (two lock holders, a migration, an rpc
  // roundtrip, a child thread calling into a node that crashes) under a
  // lossy fault plan, retaining only three traces.
  Runtime::Config config;
  config.nodes = 4;
  config.procs_per_node = 1;
  config.arena_bytes = size_t{128} << 20;
  Runtime rt(config);
  fault::FaultPlan plan;
  plan.seed = 5;
  fault::LinkRule rule;
  rule.drop = 0.15;
  rule.duplicate = 0.05;
  rule.delay = 0.1;
  rule.delay_min = Micros(50);
  rule.delay_max = Micros(400);
  plan.links.push_back(rule);
  plan.node_events.push_back(fault::NodeEvent{2, Millis(352), Millis(1600)});
  fault::Injector injector(plan);
  rt.SetFaultInjector(&injector);
  rt.SetFailureHandler([](const FailureEvent&) { return FailureAction::kRetry; });
  Tracer tracer({.name = "golden", .max_traces = 3});
  tracer.AttachTo(rt);
  rt.Run([&] {
    auto desk = NewOn<Desk>(0);
    auto prober = NewOn<Prober>(0);
    auto fanner = NewOn<Fanner>(0);
    auto near = NewOn<Worker>(1);
    auto far = NewOn<Worker>(2);
    for (int wave = 0; wave < 5; ++wave) {
      tracer.OpenRequest("hold");
      auto h1 = StartThread(desk, &Desk::Hold);
      tracer.OpenRequest("hold");
      auto h2 = StartThread(desk, &Desk::Hold);
      tracer.OpenRequest("spin");
      auto spin = StartThread(near, &Worker::Spin, wave);
      tracer.OpenRequest("probe");
      auto probe = StartThread(prober, &Prober::Probe, NodeId{1 + wave % 3});
      tracer.OpenRequest("fan");
      auto fan = StartThread(fanner, &Fanner::Fan, far, wave);
      h1.Join();
      h2.Join();
      spin.Join();
      probe.Join();
      fan.Join();
      Work(Millis(1));
    }
  });
  std::ostringstream out;
  tracer.WriteJson(out);
  const std::string json = out.str();
  for (const char* kind : {"lock_wait", "rpc", "migration", "backoff", "invoke"}) {
    EXPECT_NE(json.find(std::string("\"kind\": \"") + kind + "\""), std::string::npos) << kind;
  }
  EXPECT_GT(rt.transport().retries(), 0);
  EXPECT_EQ(tracer.requests_sampled(), 25);
  EXPECT_EQ(tracer.traces().size(), 3u);
  EXPECT_EQ(tracer.traces_evicted(), kGoldenEvicted);
  EXPECT_EQ(Fnv1a(json), kGoldenJson) << std::hex << Fnv1a(json);
}

// --- Steady state allocates nothing ----------------------------------------------

// Serve makes one rpc roundtrip, then runs a child thread that calls a
// remote Worker: the context table, the span stacks, the rpc table, the
// wire frames and the trace records all see use.
class Front final : public Object {
 public:
  int Serve(Ref<Worker> w, int units) {
    Runtime::Current().transport().Roundtrip(1, 64, []() -> int64_t { return 32; });
    return StartThread(w, &Worker::Spin, units).Join();
  }
};

// Global operator new calls made by `requests` sequential requests.
int64_t RequestLoopAllocations(uint64_t sample_every, int requests) {
  Tracer tracer({.name = "alloc", .sample_every = sample_every, .max_traces = 4});
  Runtime rt(TestConfig());
  tracer.AttachTo(rt);
  int64_t allocations = 0;
  rt.Run([&] {
    auto w = NewOn<Worker>(1);
    auto front = NewOn<Front>(0);
    const int64_t before = g_allocations;
    for (int i = 0; i < requests; ++i) {
      tracer.OpenRequest("req");
      StartThread(front, &Front::Serve, w, i % 3).Join();
    }
    allocations = g_allocations - before;
  });
  EXPECT_EQ(tracer.requests_sampled(), sample_every == 0 ? 0 : requests);
  return allocations;
}

TEST(RtraceTest, SampledRequestsAllocateNothingOnceWarm) {
  // The runtime allocates per request too, alike with sampling on and off,
  // so the tracer's share is the difference. Warm-up (the first records,
  // contexts, table slots and interned labels) is the same at N and 2N;
  // anything a sampled request allocates after it would grow with N.
  constexpr int kRequests = 40;
  const int64_t extra_n =
      RequestLoopAllocations(1, kRequests) - RequestLoopAllocations(0, kRequests);
  const int64_t extra_2n =
      RequestLoopAllocations(1, 2 * kRequests) - RequestLoopAllocations(0, 2 * kRequests);
  EXPECT_GT(extra_n, 0);  // warm-up
  EXPECT_EQ(extra_2n, extra_n);
}

}  // namespace
}  // namespace rtrace
