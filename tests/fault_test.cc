// Tests for the fault-injection subsystem wired into the full runtime:
// seeded determinism (same plan + seed → byte-identical metrics and traces),
// the empty-plan inertness contract, crash/restart survival, and the typed
// Status surface for moves aimed at dead or partitioned nodes.

#include "src/fault/fault.h"

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/amber.h"
#include "src/fault/membership.h"
#include "src/metrics/metrics.h"
#include "src/rpc/wire.h"
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
  int Add(int d) {
    Work(kMicrosecond * 20);
    value_ += d;
    return value_;
  }
  int Get() const { return value_; }

 private:
  int value_ = 0;
};

// A chatty workload: objects spread across nodes, cross-node calls and moves
// — enough RPC traffic that a lossy plan reliably perturbs it.
void ChattyWorkload(int rounds = 6) {
  auto a = New<Counter>();
  auto b = New<Counter>();
  MoveTo(a, 1);
  MoveTo(b, 2);
  for (int i = 0; i < rounds; ++i) {
    a.Call(&Counter::Add, 1);
    b.Call(&Counter::Add, 1);
    MoveTo(a, (i % 2 == 0) ? 3 : 1);
  }
  EXPECT_EQ(a.Call(&Counter::Get), rounds);
  EXPECT_EQ(b.Call(&Counter::Get), rounds);
}

fault::FaultPlan LossyPlan(uint64_t seed) {
  fault::FaultPlan plan;
  plan.seed = seed;
  fault::LinkRule rule;
  rule.drop = 0.15;
  rule.duplicate = 0.05;
  rule.delay = 0.10;
  rule.delay_min = Micros(50);
  rule.delay_max = Micros(500);
  plan.links.push_back(rule);
  return plan;
}

// Runs the chatty workload under `plan` and returns "metrics-json \x1e
// trace-text" for byte-comparison.
std::string RunAndCapture(const fault::FaultPlan& plan) {
  Runtime rt(TestConfig());
  fault::Injector injector(plan);
  metrics::Registry metrics;
  trace::Tracer tracer;
  rt.SetMetrics(&metrics);
  rt.AddObserver(&tracer);
  rt.SetFaultInjector(&injector);
  rt.SetFailureHandler([](const FailureEvent&) { return FailureAction::kRetry; });
  rt.Run([] { ChattyWorkload(); });
  std::ostringstream out;
  metrics.WriteJson(out);
  out << '\x1e';
  tracer.WriteText(out);
  return out.str();
}

TEST(FaultDeterminismTest, SameSeedSameBytesDifferentSeedDiffers) {
  const std::string run1 = RunAndCapture(LossyPlan(7));
  const std::string run2 = RunAndCapture(LossyPlan(7));
  EXPECT_EQ(run1, run2);  // byte-identical metrics + trace

  const std::string other = RunAndCapture(LossyPlan(8));
  EXPECT_NE(run1, other);  // a different seed is a different failure history
}

TEST(FaultDeterminismTest, LossyRunActuallyDropsAndRetries) {
  Runtime rt(TestConfig());
  fault::Injector injector(LossyPlan(7));
  rt.SetFaultInjector(&injector);
  rt.SetFailureHandler([](const FailureEvent&) { return FailureAction::kRetry; });
  rt.Run([] { ChattyWorkload(); });
  EXPECT_GT(injector.drops(), 0);
  EXPECT_GT(rt.transport().retries(), 0);
}

TEST(FaultInertnessTest, EmptyPlanChangesNothing) {
  Time bare_end = 0;
  int64_t bare_messages = 0;
  {
    Runtime rt(TestConfig());
    bare_end = rt.Run([] { ChattyWorkload(); });
    bare_messages = rt.network().messages();
  }
  Runtime rt(TestConfig());
  fault::Injector injector{fault::FaultPlan{}};
  EXPECT_FALSE(injector.active());
  rt.SetFaultInjector(&injector);
  const Time end = rt.Run([] { ChattyWorkload(); });
  EXPECT_EQ(end, bare_end);
  EXPECT_EQ(rt.network().messages(), bare_messages);
  EXPECT_FALSE(rt.transport().reliability_enabled());
  EXPECT_EQ(injector.drops(), 0);
}

// Node 2 crashes at 10 ms, after the object has settled there, and restarts
// at 60 ms.
fault::FaultPlan Node2Outage() {
  fault::FaultPlan plan;
  fault::NodeEvent ev;
  ev.node = 2;
  ev.crash_at = Millis(10);
  ev.restart_at = Millis(60);
  plan.node_events.push_back(ev);
  return plan;
}

// Keeps the retransmission budget well under Node2Outage's 50 ms, so the
// failure handler (not silent transport retries) carries the thread across
// the downtime.
void UseShortRetries(Runtime& rt) {
  rpc::RetryPolicy policy;
  policy.timeout = Millis(2);
  policy.timeout_cap = Millis(8);
  policy.max_attempts = 3;
  rt.transport().SetRetryPolicy(policy);
}

TEST(FaultCrashTest, CrashAndRestartSurviveWithRetryHandler) {
  Runtime rt(TestConfig());
  fault::Injector injector(Node2Outage());
  rt.SetFaultInjector(&injector);
  UseShortRetries(rt);
  int failures_seen = 0;
  rt.SetFailureHandler([&](const FailureEvent& e) {
    ++failures_seen;
    EXPECT_EQ(e.node, 2);
    return FailureAction::kRetry;
  });
  int final_value = 0;
  rt.Run([&] {
    auto c = New<Counter>();
    ASSERT_EQ(MoveTo(c, 2), Status::kOk);  // parked on the node about to die
    Work(Millis(12));  // let the crash land
    for (int i = 0; i < 3; ++i) {
      final_value = c.Call(&Counter::Add, 1);  // blocks across the outage
    }
  });
  EXPECT_EQ(final_value, 3);
  EXPECT_EQ(injector.crashes(), 1);
  EXPECT_EQ(injector.restarts(), 1);
  EXPECT_GT(failures_seen, 0)
      << "drops=" << injector.drops() << " retries=" << rt.transport().retries()
      << " timeouts=" << rt.transport().timeouts() << " end=" << rt.now();
}

// fault.unreachable names the object by its creation number, which stays
// right when a new object reuses a deleted one's segment.
TEST(FaultCrashTest, UnreachableLabelNamesTheObjectByCreationNumber) {
  Runtime rt(TestConfig());
  fault::Injector injector(Node2Outage());
  metrics::Registry metrics;
  rt.SetMetrics(&metrics);
  rt.SetFaultInjector(&injector);
  UseShortRetries(rt);
  rt.SetFailureHandler([](const FailureEvent&) { return FailureAction::kRetry; });
  rt.Run([&] {
    auto gone = New<Counter>();  // object 2; the main thread is object 1
    void* addr = gone.unchecked();
    Delete(gone);
    auto c = New<Counter>();  // object 3, in object 2's segment
    ASSERT_EQ(static_cast<void*>(c.unchecked()), addr);
    ASSERT_EQ(MoveTo(c, 2), Status::kOk);
    Work(Millis(12));  // node 2 crashes
    EXPECT_EQ(c.Call(&Counter::Add, 1), 1);
  });
  const int64_t unreachable = metrics.CounterTotal("fault.unreachable");
  EXPECT_GT(unreachable, 0);
  EXPECT_EQ(metrics.GetCounter("fault.unreachable", "obj3@node2").value(), unreachable);
}

TEST(FaultStatusTest, MoveToDeadNodeReturnsUnreachable) {
  Runtime rt(TestConfig());
  fault::FaultPlan plan;
  fault::NodeEvent ev;
  ev.node = 3;
  ev.crash_at = 0;  // dead from the start, never restarts
  plan.node_events.push_back(ev);
  fault::Injector injector(plan);
  rt.SetFaultInjector(&injector);
  rt.Run([&] {
    auto c = New<Counter>();
    EXPECT_EQ(MoveTo(c, 3), Status::kUnreachable);
    // The object stayed consistent at its source and remains usable.
    EXPECT_EQ(Locate(c), 0);
    EXPECT_EQ(c.Call(&Counter::Add, 5), 5);
    EXPECT_EQ(MoveTo(c, 1), Status::kOk);
    EXPECT_EQ(Locate(c), 1);
    rt.ValidateLocationInvariants();
  });
  EXPECT_FALSE(injector.NodeUp(3));
}

TEST(FaultStatusTest, MoveAcrossPermanentPartitionFailsTyped) {
  Runtime rt(TestConfig());
  fault::FaultPlan plan;
  fault::Partition part;
  part.a = 0;
  part.b = 3;  // 0 and 3 can never talk
  plan.partitions.push_back(part);
  fault::Injector injector(plan);
  rpc::RetryPolicy policy;
  policy.timeout = Millis(2);
  policy.timeout_cap = Millis(8);
  policy.max_attempts = 3;
  rt.SetFaultInjector(&injector);
  rt.transport().SetRetryPolicy(policy);
  rt.Run([&] {
    auto c = New<Counter>();
    EXPECT_FALSE(injector.Reachable(0, 3, Now()));
    EXPECT_TRUE(injector.Reachable(0, 1, Now()));
    EXPECT_NE(MoveTo(c, 3), Status::kOk);
    EXPECT_EQ(Locate(c), 0);
    // Unaffected links still work.
    EXPECT_EQ(MoveTo(c, 1), Status::kOk);
    rt.ValidateLocationInvariants();
  });
}

// --- A lost bulk transfer decides the result ---------------------------------
//
// Each case crashes node 3 at t=0 for good and aims a MoveTo at it before the
// heartbeat lease expires, so the destination is not yet suspected and the
// lost bulk copy, not the suspicion check, produces the status.

// Big enough that its bulk transfer is told apart from every control frame
// and heartbeat by size alone.
class Blob : public Object {
 public:
  int Get() const { return cells_[0]; }

 private:
  std::array<int, 512> cells_{};
};

// Calls MoveTo from the node it lives on.
class Mover : public Object {
 public:
  int MoveAway(Ref<Blob> target, NodeId dst) { return static_cast<int>(MoveTo(target, dst)); }
};

// Records the failure backoffs and the dropped frames, which show the branch
// a lost transfer took.
class LossProbe : public RuntimeObserver {
 public:
  void OnFailureBackoff(Time when, NodeId node, ThreadId thread, Duration backoff) override {
    backoffs.push_back(backoff);
  }
  void OnMessageDropped(Time when, NodeId src, NodeId dst, int64_t bytes,
                        const char* reason) override {
    drops.emplace_back(src, dst, bytes);
  }
  bool Dropped(NodeId src, NodeId dst, int64_t bytes) const {
    for (const auto& d : drops) {
      if (d == std::make_tuple(src, dst, bytes)) {
        return true;
      }
    }
    return false;
  }

  std::vector<Duration> backoffs;
  std::vector<std::tuple<NodeId, NodeId, int64_t>> drops;
};

fault::FaultPlan NodeThreeDeadFromStart() {
  fault::FaultPlan plan;
  fault::NodeEvent ev;
  ev.node = 3;
  ev.crash_at = 0;  // never restarts
  plan.node_events.push_back(ev);
  return plan;
}

TEST(FaultStatusTest, ReplicateFromLocalHolderToDeadNodeIsUnreachable) {
  Runtime rt(TestConfig());
  fault::Injector injector(NodeThreeDeadFromStart());
  rt.SetFaultInjector(&injector);
  LossProbe probe;
  rt.AddObserver(&probe);
  rt.Run([&] {
    auto c = New<Blob>();
    MakeImmutable(c);
    const int64_t bytes = static_cast<int64_t>(c.object()->amber_header().size);
    const int64_t roundtrips = rt.transport().roundtrips();
    ASSERT_FALSE(rt.membership()->Suspects(0, 3));
    EXPECT_EQ(MoveTo(c, 3), Status::kUnreachable);
    // This node sent the copy itself: no roundtrip, the copy was lost, and
    // the caller rode out one ack timeout.
    EXPECT_EQ(rt.transport().roundtrips(), roundtrips);
    EXPECT_TRUE(probe.Dropped(0, 3, bytes));
    EXPECT_EQ(probe.backoffs, std::vector<Duration>{rt.transport().retry_policy().timeout});
    EXPECT_EQ(rt.table(3).Lookup(c.object()).state, Residency::kUninitialized);
    EXPECT_EQ(c.Call(&Blob::Get), 0);
    rt.ValidateLocationInvariants();
  });
}

TEST(FaultStatusTest, ReplicateFromRemoteHolderToDeadNodeIsUnreachable) {
  Runtime rt(TestConfig());
  fault::Injector injector(NodeThreeDeadFromStart());
  rt.SetFaultInjector(&injector);
  LossProbe probe;
  rt.AddObserver(&probe);
  rt.Run([&] {
    auto c = New<Blob>();
    MakeImmutable(c);
    auto mover = NewOn<Mover>(2);  // node 2 never sees c
    const int64_t bytes = static_cast<int64_t>(c.object()->amber_header().size);
    const int64_t roundtrips = rt.transport().roundtrips();
    ASSERT_EQ(rt.table(2).Lookup(c.object()).state, Residency::kUninitialized);
    ASSERT_FALSE(rt.membership()->Suspects(2, 3));
    EXPECT_EQ(static_cast<Status>(mover.Call(&Mover::MoveAway, c, 3)), Status::kUnreachable);
    // Node 2 asked the holder (node 0) over a roundtrip, and the holder's
    // copy was lost; no ack timeout blocked the caller.
    EXPECT_GT(rt.transport().roundtrips(), roundtrips);
    EXPECT_TRUE(probe.Dropped(0, 3, bytes));
    EXPECT_TRUE(probe.backoffs.empty());
    EXPECT_EQ(rt.table(3).Lookup(c.object()).state, Residency::kUninitialized);
    EXPECT_EQ(c.Call(&Blob::Get), 0);
    rt.ValidateLocationInvariants();
  });
}

TEST(FaultStatusTest, RemoteMoveToDeadNodeLeavesObjectAtOwner) {
  Runtime rt(TestConfig());
  fault::Injector injector(NodeThreeDeadFromStart());
  rt.SetFaultInjector(&injector);
  LossProbe probe;
  rt.AddObserver(&probe);
  rt.Run([&] {
    auto c = NewOn<Blob>(1);
    const int64_t bytes = rt.ClosureBytes(c.object());
    ASSERT_FALSE(rt.membership()->Suspects(0, 3));
    EXPECT_NE(MoveTo(c, 3), Status::kOk);
    // The owner shipped the closure and lost it, then flipped it back.
    EXPECT_TRUE(probe.Dropped(1, 3, bytes));
    EXPECT_EQ(rt.OwnerOf(c.object()), 1);
    EXPECT_EQ(Locate(c), 1);
    rt.ValidateLocationInvariants();
    EXPECT_EQ(MoveTo(c, 2), Status::kOk);
    EXPECT_EQ(Locate(c), 2);
    rt.ValidateLocationInvariants();
  });
}

TEST(FaultInjectorTest, BulkTransfersConsumeNoDuplicateDrawOrCount) {
  fault::FaultPlan plan;
  fault::LinkRule rule;
  rule.duplicate = 1.0;  // every datagram frame duplicates
  plan.links.push_back(rule);
  fault::Injector injector(plan);
  // The bulk protocol suppresses duplicates below the delivery callback, so
  // the injector must neither flag the transfer nor count a duplicate.
  const net::FaultDecision bulk_fd = injector.OnTransmit(0, 1, 4096, 0, /*bulk=*/true);
  EXPECT_EQ(bulk_fd.action, net::FaultAction::kDeliver);
  EXPECT_EQ(injector.duplicates(), 0);
  const net::FaultDecision frame_fd = injector.OnTransmit(0, 1, 100, 0, /*bulk=*/false);
  EXPECT_EQ(frame_fd.action, net::FaultAction::kDuplicate);
  EXPECT_EQ(injector.duplicates(), 1);
}

TEST(FaultInjectorTest, InactiveInjectorStillRejectsDoubleAttach) {
  fault::Injector injector{fault::FaultPlan{}};
  ASSERT_FALSE(injector.active());
  // An empty plan makes Attach a no-op before touching its arguments, so
  // null hooks are safe here — only the double-attach guard is under test.
  injector.Attach(nullptr, nullptr, nullptr);
  EXPECT_DEATH(injector.Attach(nullptr, nullptr, nullptr), "attached twice");
}

// Delivers everything until it has seen the owner's bulk transfer to the
// move destination, then (while armed) kills every owner->requester frame —
// exactly the move-ack replies of an already-committed remote move.
class MoveAckKiller : public net::FaultFilter {
 public:
  net::FaultDecision OnTransmit(sim::NodeId src, sim::NodeId dst, int64_t /*bytes*/,
                                Time /*depart*/, bool bulk) override {
    if (bulk && src == 1 && dst == 2) {
      saw_transfer_ = true;
    }
    if (armed_ && saw_transfer_ && src == 1 && dst == 0) {
      return net::FaultDecision{net::FaultAction::kDrop, 0};
    }
    return net::FaultDecision{};
  }

  void Disarm() { armed_ = false; }

 private:
  bool armed_ = true;
  bool saw_transfer_ = false;
};

TEST(FaultStatusTest, CommittedMoveWithAllAcksLostStillReportsOk) {
  Runtime rt(TestConfig());
  MoveAckKiller filter;
  rt.network().SetFaultFilter(&filter);
  rt.transport().EnableReliability(true);
  rpc::RetryPolicy policy;
  policy.timeout = Millis(2);
  policy.timeout_cap = Millis(4);
  policy.max_attempts = 3;
  rt.transport().SetRetryPolicy(policy);
  rt.Run([&] {
    auto c = New<Counter>();
    ASSERT_EQ(MoveTo(c, 1), Status::kOk);  // object now owned by node 1
    // Move 1 -> 2 requested from node 0: the owner commits the move and
    // ships the object, but every reply copy back to the requester is lost,
    // so the control roundtrip times out. The move happened — it must be
    // reported kOk, not kUnreachable (a lost ack, not a lost move).
    EXPECT_EQ(MoveTo(c, 2), Status::kOk);
    filter.Disarm();
    EXPECT_EQ(Locate(c), 2);
    EXPECT_EQ(c.Call(&Counter::Add, 4), 4);
    rt.ValidateLocationInvariants();
  });
  EXPECT_EQ(rt.transport().timeouts(), 1);
}

TEST(FaultStatusTest, ForwardingChainThroughDeadNodeIsRepaired) {
  Runtime rt(TestConfig());
  fault::FaultPlan plan;
  fault::NodeEvent ev;
  ev.node = 1;  // will die holding a stale forwarding hop
  ev.crash_at = Millis(30);
  plan.node_events.push_back(ev);
  fault::Injector injector(plan);
  rt.SetFaultInjector(&injector);
  rt.SetFailureHandler([](const FailureEvent&) { return FailureAction::kRetry; });
  rt.Run([&] {
    auto c = New<Counter>();
    // Build a forwarding chain 0 -> 1 -> 2: node 0's descriptor still points
    // at node 1 after the second hop.
    ASSERT_EQ(MoveTo(c, 1), Status::kOk);
    ASSERT_EQ(MoveTo(c, 2), Status::kOk);
    Work(Millis(40));  // node 1 (the chain's middle hop) dies
    // Chasing through the dead hop must re-route via the broadcast-locate
    // repair path and still find the object on node 2.
    EXPECT_EQ(c.Call(&Counter::Add, 9), 9);
    EXPECT_EQ(Locate(c), 2);
  });
  EXPECT_EQ(injector.crashes(), 1);
}

// --- Heartbeat wire compatibility ---------------------------------------------
//
// The membership heartbeat payload is versioned so the load-summary gossip
// (src/policy) could be added without a flag day: a v1 decoder reads only
// the fixed prefix and must not choke on a longer v2 frame, a v2 decoder
// must accept a bare v1 frame, and unknown trailing bytes from any future
// version are ignored.

TEST(HeartbeatWireTest, V2RoundTripsAndV1FrameStillDecodes) {
  fault::Membership::Heartbeat hb;
  hb.seq = 41;
  hb.sender = 3;
  hb.has_summary = true;
  hb.summary.runnable = 5;
  hb.summary.busy = 2;
  hb.summary.hot_objects = 7;
  hb.summary.recent_migrations = 1;

  const std::vector<uint8_t> frame = fault::Membership::EncodeHeartbeat(hb);
  const fault::Membership::Heartbeat rx = fault::Membership::DecodeHeartbeat(frame);
  EXPECT_EQ(rx.version, 2);
  EXPECT_EQ(rx.seq, 41u);
  EXPECT_EQ(rx.sender, 3);
  ASSERT_TRUE(rx.has_summary);
  EXPECT_EQ(rx.summary.runnable, 5);
  EXPECT_EQ(rx.summary.busy, 2);
  EXPECT_EQ(rx.summary.hot_objects, 7);
  EXPECT_EQ(rx.summary.recent_migrations, 1);

  // A plain v1 frame (no summary) decodes with has_summary=false.
  fault::Membership::Heartbeat old;
  old.seq = 9;
  old.sender = 1;
  const fault::Membership::Heartbeat rx1 =
      fault::Membership::DecodeHeartbeat(fault::Membership::EncodeHeartbeat(old));
  EXPECT_EQ(rx1.version, 1);
  EXPECT_EQ(rx1.seq, 9u);
  EXPECT_EQ(rx1.sender, 1);
  EXPECT_FALSE(rx1.has_summary);
}

TEST(HeartbeatWireTest, V1StyleReaderAcceptsV2Frame) {
  fault::Membership::Heartbeat hb;
  hb.seq = 123;
  hb.sender = 2;
  hb.has_summary = true;
  hb.summary.runnable = 4;

  // What a pre-summary decoder does: read the fixed prefix, stop. The
  // trailing summary bytes must simply be left unread, not corrupt the base
  // fields or trip the underrun guards.
  rpc::WireBuffer r(fault::Membership::EncodeHeartbeat(hb));
  EXPECT_GE(r.GetU8(), 1);  // version: newer than it knows, prefix unchanged
  EXPECT_EQ(r.GetU64(), 123u);
  EXPECT_EQ(r.GetU32(), 2u);
  EXPECT_EQ(r.remaining(), static_cast<size_t>(fault::Membership::kSummaryWireBytes));
}

TEST(HeartbeatWireTest, FutureVersionTrailingBytesAreIgnored) {
  // A hypothetical v3 frame: v2 payload plus unknown trailing extension
  // bytes. Today's decoder must read the base + summary and ignore the rest.
  fault::Membership::Heartbeat hb;
  hb.seq = 77;
  hb.sender = 0;
  hb.has_summary = true;
  hb.summary.hot_objects = 3;
  std::vector<uint8_t> frame = fault::Membership::EncodeHeartbeat(hb);
  frame[0] = 3;  // claim a future version
  frame.insert(frame.end(), {0xde, 0xad, 0xbe, 0xef, 0x01});

  const fault::Membership::Heartbeat rx = fault::Membership::DecodeHeartbeat(frame);
  EXPECT_EQ(rx.version, 3);
  EXPECT_EQ(rx.seq, 77u);
  EXPECT_EQ(rx.sender, 0);
  ASSERT_TRUE(rx.has_summary);
  EXPECT_EQ(rx.summary.hot_objects, 3);

  // And a future frame whose extra bytes are too short to hold a summary
  // still yields the base fields.
  fault::Membership::Heartbeat bare;
  bare.seq = 6;
  bare.sender = 1;
  std::vector<uint8_t> short_frame = fault::Membership::EncodeHeartbeat(bare);
  short_frame[0] = 3;
  short_frame.push_back(0x42);  // 1 trailing byte < kSummaryWireBytes
  const fault::Membership::Heartbeat rx2 = fault::Membership::DecodeHeartbeat(short_frame);
  EXPECT_EQ(rx2.seq, 6u);
  EXPECT_FALSE(rx2.has_summary);
}

}  // namespace
}  // namespace amber
