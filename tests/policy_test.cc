// Tests for the online adaptive placement policy (src/policy): the closed
// loop must recover what the offline advisor predicts on the hotspot
// workload, stay quiet on workloads where migration cannot help (ping-pong
// adversary, balanced SOR), defer to the failure machinery under a fault
// plan, and — the load-bearing contract — leave a run byte-identical when
// disabled.

#include "src/policy/policy.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/apps/sor/sor.h"
#include "src/core/amber.h"
#include "src/fault/fault.h"
#include "src/metrics/metrics.h"
#include "src/prof/profiler.h"
#include "src/trace/trace.h"

namespace amber {
namespace {

Runtime::Config TestConfig(int nodes = 4, int procs = 2) {
  Runtime::Config c;
  c.nodes = nodes;
  c.procs_per_node = procs;
  c.arena_bytes = size_t{256} << 20;
  c.initial_regions_per_node = 4;
  return c;
}

class Counter : public Object {
 public:
  int Bump() {
    Work(kMicrosecond * 50);
    return ++value_;
  }

 private:
  int value_ = 0;
};

class Driver : public Object {
 public:
  int Run(Ref<Counter> c, int rounds, Duration gap) {
    for (int i = 0; i < rounds; ++i) {
      c.Call(&Counter::Bump);
      Work(gap);
    }
    return rounds;
  }
};

// The bench_hotspot workload: a counter born on node 0 (a few local warmup
// calls defend it) that a driver on node 2 then hammers.
Time RunHotspot(policy::PlacementPolicy* policy, prof::Profiler* profiler) {
  Runtime rt(TestConfig());
  if (profiler != nullptr) {
    rt.AddObserver(profiler);
  }
  if (policy != nullptr) {
    policy->AttachTo(rt);
  }
  return rt.Run([] {
    auto counter = New<Counter>();
    auto driver = NewOn<Driver>(2);
    for (int i = 0; i < 4; ++i) {
      counter.Call(&Counter::Bump);
    }
    auto t = StartThread(driver, &Driver::Run, counter, 64, kMicrosecond * 20);
    t.Join();
  });
}

TEST(PolicyHotspotTest, OnlinePolicyRecoversTheAdvisorEstimate) {
  // Off-run under the profiler: static placement, advisor estimate.
  prof::Profiler profiler;
  policy::PlacementPolicy observer;  // default config: disabled
  const Time off_end = RunHotspot(&observer, &profiler);
  const prof::ProfileReport report = profiler.Finalize();
  Time advisor_saving = 0;
  for (const prof::Advice& a : report.advice) {
    if (a.kind == "move") {
      advisor_saving = a.est_saving_ns;  // ranked best-first
      break;
    }
  }
  ASSERT_GT(advisor_saving, 0) << "the advisor no longer flags the hotspot";
  EXPECT_EQ(observer.pulls_granted(), 0);  // disabled: observation only

  // On-run: the policy must pull the counter to its callers...
  policy::PolicyConfig pc;
  pc.enabled = true;
  policy::PlacementPolicy policy(pc);
  const Time on_end = RunHotspot(&policy, nullptr);

  // ...exactly O(1) times (hysteresis: no oscillation)...
  EXPECT_GE(policy.pulls_granted(), 1);
  EXPECT_LE(policy.pulls_granted(), 4);
  EXPECT_EQ(policy.pulls_failed(), 0);

  // ...and recover at least 80% of the predicted win.
  const Time win = off_end - on_end;
  EXPECT_GE(static_cast<double>(win), 0.8 * static_cast<double>(advisor_saving))
      << "online win " << win << " ns vs advisor estimate " << advisor_saving << " ns";
}

TEST(PolicyHotspotTest, EnabledRunsAreSeedDeterministic) {
  auto capture = [] {
    Runtime rt(TestConfig());
    metrics::Registry metrics;
    trace::Tracer tracer;
    rt.SetMetrics(&metrics);
    rt.AddObserver(&tracer);
    policy::PolicyConfig pc;
    pc.enabled = true;
    policy::PlacementPolicy policy(pc);
    policy.AttachTo(rt);
    const Time end = rt.Run([] {
      auto counter = New<Counter>();
      auto driver = NewOn<Driver>(2);
      for (int i = 0; i < 4; ++i) {
        counter.Call(&Counter::Bump);
      }
      auto t = StartThread(driver, &Driver::Run, counter, 64, kMicrosecond * 20);
      t.Join();
    });
    std::ostringstream out;
    out << end << '\x1e';
    metrics.WriteJson(out);
    out << '\x1e';
    tracer.WriteText(out);
    return out.str();
  };
  const std::string run1 = capture();
  const std::string run2 = capture();
  EXPECT_EQ(run1, run2) << "policy decisions must be a pure function of the seed";
}

TEST(PolicyOscillationTest, PingPongWorkloadMigratesO1Times) {
  // The adversarial workload for any reactive placer: one hot object called
  // alternately from two nodes. A naive policy chases the last caller and
  // ping-pongs the object forever; hysteresis (dominance ratio + cooldown +
  // residency) must hold total migrations to O(1) — independent of the
  // round count.
  policy::PolicyConfig pc;
  pc.enabled = true;
  policy::PlacementPolicy policy(pc);
  Runtime rt(TestConfig());
  policy.AttachTo(rt);
  rt.Run([] {
    auto counter = New<Counter>();
    auto a = NewOn<Driver>(1);
    auto b = NewOn<Driver>(2);
    // Slightly different gaps so the two call streams interleave rather
    // than phase-lock.
    auto ta = StartThread(a, &Driver::Run, counter, 100, kMicrosecond * 30);
    auto tb = StartThread(b, &Driver::Run, counter, 100, kMicrosecond * 37);
    ta.Join();
    tb.Join();
  });
  EXPECT_LE(policy.pulls_granted(), 3)
      << "ping-pong: the policy oscillated (" << policy.pulls_granted() << " migrations)";
}

TEST(PolicyChaosTest, StaysStableUnderLossyPlanAndPiggybacksOnHeartbeats) {
  auto capture = [](int64_t* migrations, int64_t* summaries) {
    fault::FaultPlan plan;
    plan.seed = 42;
    fault::LinkRule rule;  // the standard lossy plan
    rule.drop = 0.05;
    rule.duplicate = 0.02;
    rule.delay = 0.05;
    rule.delay_min = Micros(100);
    rule.delay_max = Millis(1);
    plan.links.push_back(rule);

    Runtime rt(TestConfig());
    fault::Injector injector(plan);
    metrics::Registry metrics;
    trace::Tracer tracer;
    rt.SetMetrics(&metrics);
    rt.AddObserver(&tracer);
    rt.SetFaultInjector(&injector);  // creates the membership service...
    rt.SetFailureHandler([](const FailureEvent&) { return FailureAction::kRetry; });
    policy::PolicyConfig pc;
    pc.enabled = true;
    policy::PlacementPolicy policy(pc);
    policy.AttachTo(rt);  // ...so the summary piggybacks on its heartbeats
    const Time end = rt.Run([] {
      auto counter = New<Counter>();
      auto driver = NewOn<Driver>(2);
      for (int i = 0; i < 4; ++i) {
        counter.Call(&Counter::Bump);
      }
      auto t = StartThread(driver, &Driver::Run, counter, 32, kMicrosecond * 40);
      t.Join();
      Work(Millis(10));  // a few more lease windows of heartbeat traffic
    });
    if (migrations != nullptr) {
      *migrations = policy.pulls_granted();
    }
    if (summaries != nullptr) {
      *summaries = policy.summaries_received();
    }
    std::ostringstream out;
    out << end << '\x1e';
    metrics.WriteJson(out);
    out << '\x1e';
    tracer.WriteText(out);
    return out.str();
  };

  int64_t migrations = 0;
  int64_t summaries = 0;
  const std::string run1 = capture(&migrations, &summaries);
  EXPECT_GT(summaries, 0) << "no summaries arrived — the heartbeat piggyback is dead";
  EXPECT_LE(migrations, 4) << "lossy links must not destabilize placement";
  const std::string run2 = capture(nullptr, nullptr);
  EXPECT_EQ(run1, run2);  // same seed, same failure+placement history
}

TEST(PolicyDisabledTest, AttachedButDisabledPolicyIsByteInert) {
  auto workload = [] {
    auto counter = New<Counter>();
    auto driver = NewOn<Driver>(2);
    for (int i = 0; i < 4; ++i) {
      counter.Call(&Counter::Bump);
    }
    auto t = StartThread(driver, &Driver::Run, counter, 32, kMicrosecond * 20);
    t.Join();
  };
  auto capture = [&](policy::PlacementPolicy* policy) {
    Runtime rt(TestConfig());
    trace::Tracer tracer;
    rt.AddObserver(&tracer);
    if (policy != nullptr) {
      policy->AttachTo(rt);
    }
    const Time end = rt.Run(workload);
    std::ostringstream out;
    out << end << '\x1e';
    tracer.WriteText(out);
    return out.str();
  };

  const std::string bare = capture(nullptr);
  policy::PlacementPolicy disabled;  // default config: enabled = false
  const std::string watched = capture(&disabled);
  // The whole observe-only contract: virtual end time and the full event
  // trace are byte-identical with the disabled policy attached.
  EXPECT_EQ(bare, watched);
  EXPECT_EQ(disabled.pulls_granted(), 0);
  EXPECT_EQ(disabled.summaries_sent(), 0);  // no gossip either

  // ...yet observation ran: heat accumulated and exports (satellite 1).
  metrics::Registry registry;
  disabled.PublishMetrics(&registry);
  const auto* heat = registry.FindHistograms("policy.heat");
  ASSERT_NE(heat, nullptr);
  EXPECT_FALSE(heat->empty());
  std::ostringstream table;
  disabled.WriteHeatSummary(table);
  EXPECT_NE(table.str().find("home=node"), std::string::npos);
}

TEST(PolicySorTest, BalancedSmallGridDoesNotRegress) {
  // Red/Black SOR spreads its sections one-per-node: there is no placement
  // win to find, so the policy's job is to do no harm — bounded migrations
  // and no virtual-time regression.
  sor::Params params;
  params.rows = 62;
  params.cols = 210;
  params.sections = 4;
  params.max_iterations = 10;
  params.tolerance = 0.0;

  Time off_end = 0;
  {
    Runtime rt(TestConfig(4, 2));
    off_end = sor::RunAmber(rt, params).solve_time;
  }

  policy::PolicyConfig pc;
  pc.enabled = true;
  policy::PlacementPolicy policy(pc);
  Runtime rt(TestConfig(4, 2));
  policy.AttachTo(rt);
  const Time on_end = sor::RunAmber(rt, params).solve_time;

  EXPECT_LE(policy.pulls_granted(), 4)
      << "a balanced grid gave the policy nothing to move, yet it moved things";
  // The summary datagrams share the modelled network, so allow a sliver of
  // contention — but a real regression fails.
  EXPECT_LE(on_end, off_end + off_end / 50)
      << "policy-on solve " << on_end << " ns vs policy-off " << off_end << " ns";
}

}  // namespace
}  // namespace amber
