// Tests for the metrics registry: percentile math, registry lookups,
// runtime core metrics, JSON determinism, and the registry-backed cluster
// report sections.

#include "src/metrics/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "src/core/amber.h"
#include "src/core/cluster_report.h"

namespace metrics {
namespace {

using namespace amber;

TEST(HistogramTest, PercentileMath) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.Record(i);  // 1..100
  }
  EXPECT_EQ(h.count(), 100);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_NEAR(h.Percentile(50), 50.0, 1.0);
  EXPECT_NEAR(h.Percentile(90), 90.0, 1.0);
  EXPECT_NEAR(h.Percentile(99), 99.0, 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 100.0);
}

TEST(HistogramTest, SummaryExtractsTailPercentiles) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.Record(i);  // 1..1000: enough samples for p999 to resolve the tail
  }
  const PercentileSummary s = h.Summary();
  EXPECT_DOUBLE_EQ(s.p50, h.Percentile(50));
  EXPECT_DOUBLE_EQ(s.p90, h.Percentile(90));
  EXPECT_DOUBLE_EQ(s.p99, h.Percentile(99));
  EXPECT_DOUBLE_EQ(s.p999, h.Percentile(99.9));
  EXPECT_NEAR(s.p50, 500.0, 1.0);
  EXPECT_NEAR(s.p99, 990.0, 1.0);
  EXPECT_NEAR(s.p999, 999.0, 1.0);
  EXPECT_LE(s.p99, s.p999);
  EXPECT_LE(s.p999, h.max());
}

TEST(HistogramTest, SummaryAppearsInJson) {
  Registry reg;
  reg.GetHistogram("h").Record(1.0);
  std::ostringstream out;
  reg.WriteJson(out);
  EXPECT_NE(out.str().find("\"p999\""), std::string::npos);
}

TEST(HistogramTest, EmptyHistogramIsSafe) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 0.0);
  const PercentileSummary s = h.Summary();
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.p999, 0.0);
}

// The bucket of v as the map-backed histogram keyed it: floor(log2(v)) for
// v >= 1, 0 below — computed here by comparing against powers of two.
int ReferenceBucket(double v) {
  if (!(v >= 1.0)) {
    return 0;
  }
  int b = 0;
  while (std::ldexp(1.0, b + 1) <= v) {
    ++b;
  }
  return b;
}

TEST(HistogramTest, SnapshotAndDiffMatchMapBuckets) {
  // Bucket 0 (zero, fractions, negatives), both sides of 2^k edges, and the
  // top of the range (2^62 and up).
  const std::vector<double> first = {0.0,    0.5,    -3.0,    1.0,     1.999,   2.0,
                                     3.0,    4.0,    1023.9,  1024.0,  1025.0,  4e9,
                                     0.25,   std::ldexp(1.0, 31) - 1, std::ldexp(1.0, 31)};
  const std::vector<double> second = {0.0, 7.0, 8.0, 1024.0, std::ldexp(1.0, 62),
                                      std::ldexp(1.0, 62) * 1.5, std::ldexp(1.0, 63), 1.8e19};
  Histogram h;
  std::map<int, int64_t> ref;
  auto record = [&](const std::vector<double>& values) {
    for (double v : values) {
      h.Record(v);
      ++ref[ReferenceBucket(v)];
    }
  };

  record(first);
  const HistogramSnapshot prev = h.Snapshot();
  const std::map<int, int64_t> ref_prev = ref;
  EXPECT_EQ(prev.buckets, ref_prev);
  EXPECT_EQ(prev.count, static_cast<int64_t>(first.size()));
  EXPECT_EQ(prev.buckets.at(0), 6);  // 0, 0.5, -3, 1, 1.999, 0.25

  record(second);
  const HistogramSnapshot cur = h.Snapshot();
  EXPECT_EQ(cur.buckets, ref);
  EXPECT_EQ(cur.buckets.at(62), 2);
  EXPECT_EQ(cur.buckets.at(63), 2);

  // Diff equals the summary of the map-computed bucket deltas.
  std::map<int, int64_t> deltas;
  for (const auto& [bucket, count] : ref) {
    const auto it = ref_prev.find(bucket);
    const int64_t d = count - (it != ref_prev.end() ? it->second : 0);
    if (d > 0) {
      deltas[bucket] = d;
    }
  }
  const IntervalSummary got = Histogram::Diff(prev, cur);
  const IntervalSummary want = Histogram::SummaryFromBuckets(deltas, cur.sum - prev.sum);
  EXPECT_EQ(got.count, static_cast<int64_t>(second.size()));
  EXPECT_EQ(got.count, want.count);
  EXPECT_DOUBLE_EQ(got.sum, want.sum);
  EXPECT_DOUBLE_EQ(got.p50, want.p50);
  EXPECT_DOUBLE_EQ(got.p99, want.p99);
  EXPECT_DOUBLE_EQ(got.p999, want.p999);
  // The top buckets interpolate inside [2^62, 2^64) like any other.
  EXPECT_GE(got.p99, std::ldexp(1.0, 63));
  EXPECT_LE(got.p999, std::ldexp(1.0, 64));

  // An empty interval diffs to zero; Diff against itself is empty.
  EXPECT_EQ(Histogram::Diff(cur, cur).count, 0);
  EXPECT_EQ(Histogram::Diff(HistogramSnapshot{}, Histogram().Snapshot()).count, 0);
}

TEST(RegistryTest, LabelsAndLookup) {
  Registry reg;
  reg.GetCounter("a").Add(3);
  reg.GetCounter("a", 2).Add(4);
  reg.GetCounter("b", "x->y").Add(5);
  reg.GetGauge("g", 1).Set(2.5);
  reg.GetHistogram("h", 0).Record(7.0);

  EXPECT_EQ(reg.CounterTotal("a"), 7);
  EXPECT_EQ(reg.CounterTotal("b"), 5);
  EXPECT_EQ(reg.CounterTotal("missing"), 0);
  ASSERT_NE(reg.FindCounters("a"), nullptr);
  EXPECT_EQ(reg.FindCounters("a")->at("node2").value(), 4);
  EXPECT_EQ(reg.FindCounters("missing"), nullptr);
  EXPECT_DOUBLE_EQ(reg.FindGauges("g")->at("node1").value(), 2.5);
  EXPECT_EQ(reg.FindHistograms("h")->at("node0").count(), 1);
  EXPECT_EQ(Registry::NodeLabel(3), "node3");
  EXPECT_EQ(Registry::LinkLabel(1, 2), "1->2");
}

Runtime::Config TestConfig() {
  Runtime::Config c;
  c.nodes = 2;
  c.procs_per_node = 2;
  c.arena_bytes = size_t{128} << 20;
  return c;
}

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

// A deterministic 2-node scenario: remote invocations, a contended lock,
// an object move. Returns the registry's JSON document.
std::string RunScenario(Registry* reg) {
  Runtime rt(TestConfig());
  rt.SetMetrics(reg);
  rt.Run([&] {
    auto shared = NewOn<Monitored>(1);
    // Both workers start on node 0 and migrate to the monitor on node 1.
    auto t1 = StartThread(shared, &Monitored::Bump);
    auto t2 = StartThread(shared, &Monitored::Bump);
    t1.Join();
    t2.Join();
    auto thing = New<Pokee>();
    MoveTo(thing, 1 - Here());  // wherever we are, the object goes elsewhere
    thing.Call(&Pokee::Poke);   // so this invoke is remote and migrates us
  });
  std::ostringstream out;
  reg->WriteJson(out);
  return out.str();
}

TEST(RegistryTest, RuntimeCoreMetrics) {
  Registry reg;
  const std::string json = RunScenario(&reg);

  // Distribution totals published at end of Run().
  EXPECT_GE(reg.CounterTotal("amber.objects.created"), 2);
  EXPECT_GE(reg.CounterTotal("amber.objects.moved"), 1);
  EXPECT_GE(reg.CounterTotal("amber.threads.migrated"), 2);
  EXPECT_GT(reg.CounterTotal("net.messages"), 0);
  EXPECT_GT(reg.CounterTotal("net.link.messages"), 0);

  // Remote invocation latency recorded per destination node.
  const auto* remote = reg.FindHistograms("amber.invoke.latency.remote");
  ASSERT_NE(remote, nullptr);
  int64_t remote_count = 0;
  for (const auto& [label, h] : *remote) {
    remote_count += h.count();
  }
  EXPECT_GE(remote_count, 1);

  // The two Bump threads contend on the member lock.
  EXPECT_GE(reg.CounterTotal("sync.lock.blocked"), 1);
  const auto* holds = reg.FindHistograms("sync.lock.hold");
  ASSERT_NE(holds, nullptr);
  EXPECT_GE(holds->at("total").count(), 2);
  // Each hold spans at least the 2ms critical section.
  EXPECT_GE(holds->at("total").min(), 2.0 * kMillisecond);

  // Per-lock wait/hold distributions, labelled "lock<id>" (dense ids in
  // first-contention order) — the placement advisor's raw material.
  const auto* lock_waits = reg.FindHistograms("lock.wait_ns");
  ASSERT_NE(lock_waits, nullptr);
  ASSERT_FALSE(lock_waits->empty());
  const auto* lock_holds = reg.FindHistograms("lock.hold_ns");
  ASSERT_NE(lock_holds, nullptr);
  int64_t lock_wait_count = 0;
  double max_wait = 0.0;
  for (const auto& [label, h] : *lock_waits) {
    EXPECT_EQ(label.rfind("lock", 0), 0u) << "unexpected label " << label;
    lock_wait_count += h.count();
    max_wait = std::max(max_wait, h.max());
  }
  EXPECT_GE(lock_wait_count, 1);   // at least one contended acquisition
  EXPECT_GT(max_wait, 0.0);        // which actually waited
  // The contended lock's hold series is labelled identically, so the two
  // families join on the lock id.
  for (const auto& [label, h] : *lock_waits) {
    EXPECT_TRUE(lock_holds->count(label))
        << "lock.wait_ns label " << label << " has no lock.hold_ns series";
    EXPECT_GE(lock_holds->at(label).min(), 2.0 * kMillisecond);
  }

  // Scheduler metrics.
  EXPECT_GT(reg.CounterTotal("sched.threads.created"), 0);
  const auto* waits = reg.FindHistograms("sched.runqueue.wait");
  ASSERT_NE(waits, nullptr);

  // The run is machine-summarized.
  EXPECT_GT(reg.FindGauges("run.virtual_time")->at("total").value(), 0.0);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(RegistryTest, JsonByteIdenticalAcrossRuns) {
  Registry a;
  Registry b;
  EXPECT_EQ(RunScenario(&a), RunScenario(&b));
}

TEST(RegistryTest, PerLinkNetworkHistograms) {
  // Traffic between node 0 and node 1 must show up as per-link histograms
  // labelled "src->dst" — the flight-recorder report cross-references these
  // labels when attributing cross-node traffic.
  // Anchor the caller in an object frame on node 0: a root-frame remote call
  // would finish on node 1 and never generate the 1->0 return leg.
  class LinkDriver : public Object {
   public:
    int Drive() {
      auto thing = New<Pokee>();
      MoveTo(thing, 1);
      return thing.Call(&Pokee::Poke);  // travel 0->1, return 1->0
    }
  };
  Registry reg;
  Runtime rt(TestConfig());
  rt.SetMetrics(&reg);
  rt.Run([] {
    auto driver = New<LinkDriver>();
    driver.Call(&LinkDriver::Drive);
  });

  const auto* bytes = reg.FindHistograms("net.link_bytes");
  ASSERT_NE(bytes, nullptr);
  const auto* depth = reg.FindHistograms("net.link_queue_depth");
  ASSERT_NE(depth, nullptr);
  for (const std::string& link : {std::string("0->1"), std::string("1->0")}) {
    auto b = bytes->find(link);
    ASSERT_NE(b, bytes->end()) << "missing net.link_bytes{" << link << "}";
    EXPECT_GT(b->second.count(), 0);
    EXPECT_GT(b->second.sum(), 0.0);
    auto d = depth->find(link);
    ASSERT_NE(d, depth->end()) << "missing net.link_queue_depth{" << link << "}";
    // Depth is sampled per channel acquisition (per fragment), bytes once
    // per message — fragmented bulk transfers make depth the larger count.
    EXPECT_GE(d->second.count(), b->second.count()) << "on " << link;
  }
  // No traffic flowed between a node and itself: only real links appear.
  EXPECT_EQ(bytes->count("0->0"), 0u);
  EXPECT_EQ(bytes->count("1->1"), 0u);
}

TEST(RegistryTest, ClusterReportUsesRegistry) {
  Registry reg;
  Runtime rt(TestConfig());
  rt.SetMetrics(&reg);
  Time elapsed = 0;
  rt.Run([&] {
    auto shared = NewOn<Monitored>(1);
    auto t1 = StartThread(shared, &Monitored::Bump);
    auto t2 = StartThread(shared, &Monitored::Bump);
    t1.Join();
    t2.Join();
    elapsed = Now();
  });
  const std::string report = ClusterReport(rt, elapsed);
  EXPECT_NE(report.find("lock contention:"), std::string::npos);
  EXPECT_NE(report.find("blocked per lock:"), std::string::npos);
  EXPECT_NE(report.find("hold:"), std::string::npos);
}

TEST(RegistryTest, ClusterReportCountsOnlyItsOwnRunsMigrations) {
  // One lock-free invocation from node 0 of an object on node 1: one thread
  // migration each way.
  auto report = [](Registry* reg) {
    Runtime rt(TestConfig());
    if (reg != nullptr) {
      rt.SetMetrics(reg);
    }
    const Time end = rt.Run([] {
      auto thing = NewOn<Pokee>(1);
      thing.Call(&Pokee::Poke);
    });
    return ClusterReport(rt, end);
  };
  // Registry counters accumulate across the runtimes that share it; the
  // report of the second run must still count that run's migrations only.
  Registry shared;
  report(&shared);
  const std::string second = report(&shared);
  EXPECT_EQ(second, report(nullptr));
  EXPECT_NE(second.find("     0     0     1\n"), std::string::npos) << second;
}

TEST(RegistryTest, NoMetricsMeansNoChangeInVirtualTime) {
  auto run = [](Registry* reg) {
    Runtime rt(TestConfig());
    if (reg != nullptr) {
      rt.SetMetrics(reg);
    }
    Time end = 0;
    rt.Run([&] {
      auto thing = New<Pokee>();
      MoveTo(thing, 1);
      thing.Call(&Pokee::Poke);
      end = Now();
    });
    return end;
  };
  Registry reg;
  EXPECT_EQ(run(nullptr), run(&reg));
}

// --- Exemplars -----------------------------------------------------------------

TEST(HistogramTest, ExemplarsTrackBucketsAndResolveNearestValue) {
  Histogram h;
  h.Record(100.0);  // plain Record: no exemplar retained
  EXPECT_TRUE(h.exemplars().empty());
  h.Record(100.0, 0);  // trace id 0 = unsampled: still no exemplar
  EXPECT_TRUE(h.exemplars().empty());

  h.Record(90.0, 7);
  h.Record(5000.0, 9);
  h.Record(100.0, 8);  // same bucket as 90.0: most recent observation wins
  ASSERT_EQ(h.exemplars().size(), 2u);
  EXPECT_EQ(h.ExemplarNear(95.0).trace_id, 8u);
  EXPECT_EQ(h.ExemplarNear(4000.0).trace_id, 9u);
  EXPECT_DOUBLE_EQ(h.ExemplarNear(4000.0).value, 5000.0);
  EXPECT_EQ(Histogram().ExemplarNear(1.0).trace_id, 0u);  // empty: zero exemplar
}

TEST(HistogramTest, ExemplarsRenderInJsonOnlyWhenPresent) {
  Registry reg;
  reg.GetHistogram("lat").Record(100.0);
  std::ostringstream without;
  reg.WriteJson(without);
  EXPECT_EQ(without.str().find("exemplars"), std::string::npos);

  reg.GetHistogram("lat").Record(5000.0, 9);
  std::ostringstream with;
  reg.WriteJson(with);
  EXPECT_NE(with.str().find("\"exemplars\""), std::string::npos);
  EXPECT_NE(with.str().find("\"trace_id\": 9"), std::string::npos);
}

// --- Label cardinality guard ---------------------------------------------------

TEST(RegistryTest, LabelCapDropsNewLabelsButKeepsExistingOnes) {
  Registry reg;
  reg.SetLabelCap(4);
  for (int i = 0; i < 10; ++i) {
    reg.GetCounter("fam", "l" + std::to_string(i)).Add(1);
  }
  EXPECT_EQ(reg.dropped_labels(), 6);
  ASSERT_NE(reg.FindCounters("fam"), nullptr);
  EXPECT_EQ(reg.FindCounters("fam")->size(), 4u);
  EXPECT_EQ(reg.CounterTotal("metrics.dropped_labels"), 6);

  // Labels admitted before the family filled keep resolving (and don't
  // count as drops); only brand-new labels fall into the sink.
  reg.GetCounter("fam", "l0").Add(1);
  EXPECT_EQ(reg.dropped_labels(), 6);
  EXPECT_EQ(reg.FindCounters("fam")->at("l0").value(), 2);

  // The sink absorbs writes but is never rendered.
  std::ostringstream out;
  reg.WriteJson(out);
  EXPECT_EQ(out.str().find("l7"), std::string::npos);
  EXPECT_NE(out.str().find("\"metrics.dropped_labels\""), std::string::npos);
}

// FNV-1a of a rendered document, for pinning it in a test.
uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h = (h ^ c) * 1099511628211ull;
  }
  return h;
}

TEST(RegistryTest, LabelCapCountsEveryDroppedLookupOfRuntimeFamilies) {
  // 4 nodes and 4 contended locks against a cap of 2: the runtime's
  // per-node, per-link and per-lock families all overflow, so events keep
  // landing on dropped labels. Each such lookup must count as one drop — a
  // resolved handle must never be the sink — and the document must stay
  // what name-by-name lookups on every event produced: the pinned values
  // were recorded from that implementation.
  Registry reg;
  reg.SetLabelCap(2);
  Runtime::Config config = TestConfig();
  config.nodes = 4;
  Runtime rt(config);
  rt.SetMetrics(&reg);
  rt.Run([] {
    std::vector<Ref<Monitored>> monitors;
    for (int n = 0; n < 4; ++n) {
      monitors.push_back(NewOn<Monitored>(n));
    }
    std::vector<ThreadRef<void>> threads;
    for (int i = 0; i < 8; ++i) {
      threads.push_back(StartThread(monitors[i % 4], &Monitored::Bump));
    }
    for (auto& t : threads) {
      t.Join();
    }
  });
  std::ostringstream out;
  reg.WriteJson(out);
  const std::string json = out.str();

  for (const char* family : {"sched.runqueue.wait", "net.link_bytes", "lock.hold_ns"}) {
    ASSERT_NE(reg.FindHistograms(family), nullptr) << family;
    EXPECT_EQ(reg.FindHistograms(family)->size(), 2u) << family;
  }
  EXPECT_EQ(reg.dropped_labels(), 102);
  EXPECT_EQ(reg.CounterTotal("metrics.dropped_labels"), reg.dropped_labels());
  EXPECT_EQ(json.size(), 4649u);
  EXPECT_EQ(Fnv1a(json), 1629373234064977203ull);
}

TEST(RegistryTest, LabelCapAppliesPerFamilyAndPerKind) {
  Registry reg;
  reg.SetLabelCap(2);
  reg.GetGauge("g", "a").Set(1);
  reg.GetGauge("g", "b").Set(2);
  reg.GetGauge("g", "c").Set(3);  // dropped
  reg.GetHistogram("h", "a").Record(1);
  reg.GetHistogram("h", "b").Record(2);
  reg.GetHistogram("h", "c").Record(3);  // dropped
  reg.GetGauge("g2", "a").Set(1);        // fresh family: admitted
  EXPECT_EQ(reg.dropped_labels(), 2);
  EXPECT_EQ(reg.FindGauges("g")->size(), 2u);
  EXPECT_EQ(reg.FindHistograms("h")->size(), 2u);
  EXPECT_EQ(reg.FindGauges("g2")->size(), 1u);
}

}  // namespace
}  // namespace metrics
