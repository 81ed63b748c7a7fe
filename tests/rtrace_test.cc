// Tests for request-scoped tracing: the context wire frame, sampled
// end-to-end propagation through threads / invocations / the RPC wire,
// exact virtual-time attribution closure, exemplar integration, the flight
// recorder's span column, and byte-inertness when sampling is off.

#include "src/rtrace/rtrace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/core/amber.h"
#include "src/fdr/fdr.h"
#include "src/metrics/metrics.h"

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

  const std::vector<uint8_t> frame = EncodeContext(tx);
  EXPECT_EQ(frame.size(), kContextV1Bytes);
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
    for (const auto& [cat, ns] : t.attribution) {
      sum += ns;
    }
    // Exact closure: every nanosecond of the root thread's lifetime lands
    // in exactly one category.
    EXPECT_EQ(sum, t.latency()) << "trace " << id;
    EXPECT_GT(t.attribution.at("compute"), 0) << "trace " << id;
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
    for (const auto& [cat, ns] : t.attribution) {
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

}  // namespace
}  // namespace rtrace
