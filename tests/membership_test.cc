// Tests for the heartbeat/lease membership service: failure detection
// WITHOUT consulting the injector oracle. The oracle appears here only as
// ground truth to grade the protocol — a node unreachable from t0 must be
// suspected within t0 + lease + 2 heartbeat periods, the standard 5% loss
// plan must produce zero false suspicions at the default lease, and a
// restarted node must be trusted again once its heartbeats are heard.

#include "src/fault/membership.h"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "src/core/amber.h"
#include "src/fault/fault.h"
#include "src/metrics/metrics.h"

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

// Records every suspicion / trust transition the runtime publishes.
struct MembershipLog : RuntimeObserver {
  struct Event {
    Time when;
    NodeId by;
    NodeId node;
  };
  std::vector<Event> suspected;
  std::vector<Event> trusted;

  void OnNodeSuspected(Time when, NodeId by, NodeId node) override {
    suspected.push_back({when, by, node});
  }
  void OnNodeTrusted(Time when, NodeId by, NodeId node) override {
    trusted.push_back({when, by, node});
  }
};

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

TEST(MembershipTest, PartitionedNodeIsSuspectedWithinBound) {
  Runtime rt(TestConfig());
  fault::FaultPlan plan;
  fault::Partition part;
  part.a = 0;
  part.b = 3;
  part.from = Millis(30);  // 0 and 3 stop hearing each other at 30 ms
  plan.partitions.push_back(part);
  fault::Injector injector(plan);
  MembershipLog log;
  rt.AddObserver(&log);
  rt.SetFaultInjector(&injector);
  rt.Run([] { Work(Millis(100)); });

  const fault::Membership* m = rt.membership();
  ASSERT_NE(m, nullptr);
  EXPECT_GT(m->heartbeats_sent(), 0);
  const Duration bound = m->lease() + 2 * m->config().heartbeat_period;

  // Exactly the partitioned pair suspect each other — per-viewer opinions,
  // not a global verdict — and each within the detection bound.
  ASSERT_EQ(log.suspected.size(), 2u);
  for (const auto& e : log.suspected) {
    EXPECT_TRUE((e.by == 0 && e.node == 3) || (e.by == 3 && e.node == 0))
        << "node " << e.by << " wrongly suspected node " << e.node;
    EXPECT_GT(e.when, part.from);
    EXPECT_LE(e.when, part.from + bound);
    // Ground truth: the pair really cannot talk (not a false suspicion).
    EXPECT_FALSE(injector.Reachable(e.by, e.node, e.when));
  }
  EXPECT_TRUE(log.trusted.empty());  // the partition never heals
}

TEST(MembershipTest, FlakyLinksProduceNoFalseSuspicions) {
  Runtime rt(TestConfig());
  fault::FaultPlan plan;
  plan.seed = 42;
  fault::LinkRule rule;  // the standard lossy plan: 5% drop on every link
  rule.drop = 0.05;
  rule.duplicate = 0.02;
  rule.delay = 0.05;
  rule.delay_min = Micros(100);
  rule.delay_max = Millis(1);
  plan.links.push_back(rule);
  fault::Injector injector(plan);
  metrics::Registry metrics;
  MembershipLog log;
  rt.SetMetrics(&metrics);
  rt.AddObserver(&log);
  rt.SetFaultInjector(&injector);
  rt.SetFailureHandler([](const FailureEvent&) { return FailureAction::kRetry; });
  rt.Run([] {
    auto c = New<Counter>();
    MoveTo(c, 1);
    for (int i = 0; i < 4; ++i) {
      c.Call(&Counter::Add, 1);
      Work(Millis(20));  // long enough for many full lease windows
    }
  });

  EXPECT_GT(injector.drops(), 0) << "the plan was supposed to be lossy";
  EXPECT_TRUE(log.suspected.empty())
      << "a 5% loss plan must not expire the default lease (4 missed beats)";
  EXPECT_EQ(metrics.CounterTotal("member.suspicions"), 0);
  EXPECT_EQ(metrics.CounterTotal("member.false_suspicions"), 0);
}

TEST(MembershipTest, CrashDetectedWithinBoundAndTrustedAfterRestart) {
  Runtime rt(TestConfig());
  fault::FaultPlan plan;
  fault::NodeEvent ev;
  ev.node = 2;
  ev.crash_at = Millis(20);
  ev.restart_at = Millis(60);
  plan.node_events.push_back(ev);
  fault::Injector injector(plan);
  metrics::Registry metrics;
  MembershipLog log;
  rt.SetMetrics(&metrics);
  rt.AddObserver(&log);
  rt.SetFaultInjector(&injector);
  rt.Run([] { Work(Millis(120)); });

  const fault::Membership* m = rt.membership();
  ASSERT_NE(m, nullptr);
  const Duration bound = m->lease() + 2 * m->config().heartbeat_period;

  // All three survivors notice the silence within the bound...
  ASSERT_EQ(log.suspected.size(), 3u);
  for (const auto& e : log.suspected) {
    EXPECT_EQ(e.node, 2);
    EXPECT_GT(e.when, ev.crash_at);
    EXPECT_LE(e.when, ev.crash_at + bound);
  }
  // ...and trust the node again once its post-restart heartbeats arrive.
  ASSERT_EQ(log.trusted.size(), 3u);
  for (const auto& e : log.trusted) {
    EXPECT_EQ(e.node, 2);
    EXPECT_GT(e.when, ev.restart_at);
  }

  // The metrics grade the detector against the oracle: three true
  // suspicions with recorded latency, zero false ones.
  EXPECT_EQ(metrics.CounterTotal("member.suspicions"), 3);
  EXPECT_EQ(metrics.CounterTotal("member.false_suspicions"), 0);
  const auto* lat = metrics.FindHistograms("member.detect_latency");
  ASSERT_NE(lat, nullptr);
  int64_t samples = 0;
  for (const auto& [label, h] : *lat) {
    samples += h.count();
    EXPECT_LE(h.max(), static_cast<double>(bound));
  }
  EXPECT_EQ(samples, 3);
}

// The registry grades every suspicion against the injector. A partition
// makes genuine suspicions, with no crash to time a detection latency from.
TEST(MembershipTest, PartitionSuspicionsAreGradedGenuine) {
  Runtime rt(TestConfig(4, 1));
  fault::FaultPlan plan;
  fault::Partition part;
  part.a = 1;
  part.b = 2;
  part.from = Millis(10);
  plan.partitions.push_back(part);
  fault::Injector injector(plan);
  metrics::Registry metrics;
  rt.SetMetrics(&metrics);
  rt.SetFaultInjector(&injector);
  rt.Run([] { Work(Millis(80)); });
  EXPECT_EQ(metrics.CounterTotal("member.suspicions"), 2);
  EXPECT_EQ(metrics.CounterTotal("member.false_suspicions"), 0);
  EXPECT_EQ(metrics.FindHistograms("member.detect_latency"), nullptr);
}

// Every frame from node 2 arrives 30-40 ms late, past the 20 ms lease, while
// every node stays up and reachable: each of the other three suspects node 2
// falsely.
TEST(MembershipTest, LateHeartbeatsAreGradedFalseSuspicions) {
  Runtime rt(TestConfig(4, 1));
  fault::FaultPlan plan;
  fault::LinkRule rule;
  rule.src = 2;
  rule.delay = 1.0;
  rule.delay_min = Millis(30);
  rule.delay_max = Millis(40);
  plan.links.push_back(rule);
  fault::Injector injector(plan);
  metrics::Registry metrics;
  rt.SetMetrics(&metrics);
  rt.SetFaultInjector(&injector);
  rt.Run([] { Work(Millis(120)); });
  EXPECT_EQ(metrics.CounterTotal("member.suspicions"), 0);
  EXPECT_EQ(metrics.CounterTotal("member.false_suspicions"), 3);
  EXPECT_EQ(metrics.FindHistograms("member.detect_latency"), nullptr);
}

TEST(MembershipTest, SuspicionStateIsPerViewer) {
  Runtime rt(TestConfig());
  fault::FaultPlan plan;
  fault::Partition part;
  part.a = 1;
  part.b = 2;
  part.from = Millis(10);
  plan.partitions.push_back(part);
  fault::Injector injector(plan);
  rt.SetFaultInjector(&injector);
  rt.Run([&] {
    Work(Millis(80));
    fault::Membership* m = rt.membership();
    ASSERT_NE(m, nullptr);
    EXPECT_TRUE(m->Suspects(1, 2));
    EXPECT_TRUE(m->Suspects(2, 1));
    EXPECT_FALSE(m->Suspects(0, 1));  // third parties still hear both sides
    EXPECT_FALSE(m->Suspects(0, 2));
    EXPECT_FALSE(m->Suspects(3, 2));
    EXPECT_FALSE(m->Suspects(1, 1));  // a node never suspects itself
  });
}

}  // namespace
}  // namespace amber
