// Tests for the shared-bus network model and the RPC transport.

#include "src/net/network.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "src/rpc/transport.h"
#include "src/rpc/wire.h"
#include "src/sim/stack_pool.h"

namespace net {
namespace {

using amber::Micros;
using amber::Millis;
using amber::Time;
using sim::CostModel;
using sim::Kernel;

CostModel SimpleNet() {
  CostModel c;
  // Zero the CPU-side knobs so wire math is exact in tests.
  c.context_switch = 0;
  c.rpc_send_software = 0;
  c.rpc_recv_software = 0;
  c.marshal_base = 0;
  c.marshal_ns_per_byte = 0;
  c.media_access = Micros(100);
  c.propagation = Micros(10);
  c.bandwidth_bits_per_sec = 10e6;  // 1250 bytes = 1 ms wire time
  c.per_fragment_overhead = 0;
  c.mtu_bytes = 1500;
  return c;
}

class NetHarness {
 public:
  explicit NetHarness(CostModel cost = SimpleNet(), int nodes = 4) : pool_(64 * 1024) {
    Kernel::Config config;
    config.nodes = nodes;
    config.procs_per_node = 1;
    config.cost = cost;
    kernel_ = std::make_unique<Kernel>(config);
    net_ = std::make_unique<Network>(kernel_.get());
    transport_ = std::make_unique<rpc::Transport>(kernel_.get(), net_.get());
  }

  sim::Fiber* Go(sim::NodeId node, std::function<void()> fn) {
    void* stack = pool_.Allocate();
    return kernel_->Spawn(node, stack, pool_.stack_size(), std::move(fn));
  }

  Kernel& k() { return *kernel_; }
  Network& net() { return *net_; }
  rpc::Transport& rpc() { return *transport_; }

 private:
  sim::StackPool pool_;
  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<Network> net_;
  std::unique_ptr<rpc::Transport> transport_;
};

TEST(NetworkTest, SingleMessageTiming) {
  NetHarness h;
  // 1250 bytes at 10 Mbit/s = 1 ms; +100 µs media access +10 µs propagation.
  const Time arrival = h.net().Send(0, 1, 1250, /*depart=*/0);
  EXPECT_EQ(arrival, Millis(1) + Micros(110));
  EXPECT_EQ(h.net().messages(), 1);
  EXPECT_EQ(h.net().bytes_sent(), 1250);
}

TEST(NetworkTest, SharedBusSerializesConcurrentSenders) {
  NetHarness h;
  // Two identical frames departing at t=0: the second queues behind the
  // first on the medium.
  const Time a1 = h.net().Send(0, 1, 1250, 0);
  const Time a2 = h.net().Send(2, 3, 1250, 0);
  EXPECT_EQ(a2 - a1, Millis(1) + Micros(100));  // one full bus occupancy later
}

TEST(NetworkTest, BusIdleGapNotCharged) {
  NetHarness h;
  h.net().Send(0, 1, 1250, 0);
  // Departs long after the bus is free again: no queueing delay.
  const Time a = h.net().Send(0, 1, 1250, Millis(10));
  EXPECT_EQ(a, Millis(10) + Millis(1) + Micros(110));
}

TEST(NetworkTest, DeliveryCallbackRunsAtArrival) {
  NetHarness h;
  Time delivered_at = -1;
  h.net().Send(0, 1, 0, 0, [&] { delivered_at = h.k().Now(); });
  h.k().Run();
  EXPECT_EQ(delivered_at, Micros(110));
}

TEST(NetworkTest, BulkTransferFragments) {
  NetHarness h;
  // 4500 bytes = 3 MTU fragments.
  h.net().SendBulkTracked(0, 1, 4500, 0);
  EXPECT_EQ(h.net().fragments(), 3);
  EXPECT_EQ(h.net().bytes_sent(), 4500);
  // Wire time: 3 × (100 µs + 1500·8/10e6 s = 1.2 ms) = 3.9 ms of occupancy.
  EXPECT_EQ(h.net().busy_time(), 3 * (Micros(100) + Micros(1200)));
}

TEST(NetworkTest, BulkFasterThanEquivalentDatagramsWithOverhead) {
  CostModel cost = SimpleNet();
  cost.rpc_recv_software = Micros(500);
  cost.per_fragment_overhead = Micros(50);
  NetHarness h(cost);
  const Time bulk = h.net().SendBulkTracked(0, 1, 4500, 0).arrival;
  h.net().ResetStats();
  // Same payload as three separate datagrams, each paying the full receive
  // software path.
  Time dgram = 0;
  for (int i = 0; i < 3; ++i) {
    dgram = h.net().Send(0, 1, 1500, dgram);
  }
  EXPECT_LT(bulk, dgram);
}

TEST(NetworkTest, LoopbackBypassesMedium) {
  CostModel cost = SimpleNet();
  cost.rpc_recv_software = Micros(50);
  NetHarness h(cost);
  // src == dst: no media access, no wire time, no propagation — only the
  // receive software path. The shared bus stays free for other senders.
  const Time arrival = h.net().Send(2, 2, 1250, /*depart=*/0);
  EXPECT_EQ(arrival, Micros(50));
  EXPECT_EQ(h.net().busy_time(), 0);
  // A cross-node frame departing at the same instant pays no queueing.
  const Time cross = h.net().Send(0, 1, 1250, 0);
  EXPECT_EQ(cross, Millis(1) + Micros(110) + Micros(50));
}

TEST(NetworkTest, LoopbackStillCountsTrafficAndDelivers) {
  NetHarness h;
  Time delivered_at = -1;
  h.net().Send(3, 3, 700, Millis(1), [&] { delivered_at = h.k().Now(); });
  h.k().Run();
  EXPECT_EQ(delivered_at, Millis(1));  // recv software is 0 in SimpleNet
  EXPECT_EQ(h.net().messages(), 1);
  EXPECT_EQ(h.net().bytes_sent(), 700);
}

class DropEverything : public FaultFilter {
 public:
  FaultDecision OnTransmit(sim::NodeId, sim::NodeId, int64_t, Time, bool) override {
    ++consulted;
    return FaultDecision{FaultAction::kDrop, 0};
  }
  int consulted = 0;
};

TEST(NetworkTest, LoopbackNeverConsultsFaultFilter) {
  NetHarness h;
  DropEverything filter;
  h.net().SetFaultFilter(&filter);
  bool delivered = false;
  const TxResult tx = h.net().SendTracked(1, 1, 64, 0, [&] { delivered = true; });
  h.k().Run();
  EXPECT_TRUE(tx.delivered);
  EXPECT_TRUE(delivered);
  EXPECT_EQ(filter.consulted, 0);
  // A cross-node frame is dropped and the filter sees it.
  const TxResult lost = h.net().SendTracked(0, 1, 64, 0);
  EXPECT_FALSE(lost.delivered);
  EXPECT_EQ(filter.consulted, 1);
}

TEST(TransportTest, TravelMovesFiberWithPayloadCharges) {
  CostModel cost = SimpleNet();
  cost.marshal_base = Micros(100);
  cost.marshal_ns_per_byte = 100.0;  // 1000 bytes → 100 µs
  cost.rpc_send_software = Micros(300);
  cost.rpc_recv_software = Micros(200);
  NetHarness h(cost);
  Time arrived_at = -1;
  sim::NodeId arrived_on = -1;
  h.Go(0, [&] {
    h.rpc().Travel(1, 1000);
    arrived_at = h.k().Now();
    arrived_on = h.k().current()->node;
  });
  h.k().Run();
  EXPECT_EQ(arrived_on, 1);
  // marshal 100+100 µs + send sw 300 µs = depart 500 µs; wire 100+800 µs;
  // prop 10 µs; recv sw 200 µs → 1610 µs; plus dispatch on node 1 (free).
  EXPECT_EQ(arrived_at, Micros(1610));
}

TEST(TransportTest, RoundtripBlocksUntilReply) {
  CostModel cost = SimpleNet();
  NetHarness h(cost);
  Time done_at = -1;
  bool service_ran = false;
  h.Go(0, [&] {
    h.rpc().Roundtrip(2, 100, [&] {
      service_ran = true;
      return int64_t{100};
    });
    done_at = h.k().Now();
  });
  h.k().Run();
  EXPECT_TRUE(service_ran);
  // Two 100-byte frames: 2 × (100 µs media + 80 µs wire + 10 µs prop).
  EXPECT_EQ(done_at, 2 * (Micros(100) + Micros(80) + Micros(10)));
}

TEST(TransportTest, SenderCpuOccupiesProcessor) {
  CostModel cost = SimpleNet();
  cost.rpc_send_software = Millis(2);
  NetHarness h(cost);
  Time other_start = -1;
  h.Go(0, [&] { h.rpc().SendBulkTracked(1, 0); });
  h.Go(0, [&] { other_start = h.k().Now(); });
  h.k().Run();
  // The second fiber waits for the sender's 2 ms software path (1 CPU/node).
  EXPECT_EQ(other_start, Millis(2));
}

TEST(WireTest, RoundTripsScalars) {
  rpc::WireBuffer w;
  w.PutU8(7);
  w.PutU32(0xdeadbeef);
  w.PutU64(1ULL << 60);
  w.PutI64(-42);
  w.PutDouble(3.25);
  w.PutString("amber");
  EXPECT_EQ(w.GetU8(), 7);
  EXPECT_EQ(w.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(w.GetU64(), 1ULL << 60);
  EXPECT_EQ(w.GetI64(), -42);
  EXPECT_EQ(w.GetDouble(), 3.25);
  EXPECT_EQ(w.GetString(), "amber");
  EXPECT_EQ(w.remaining(), 0u);
}

TEST(WireTest, RoundTripsBytesAndPointers) {
  rpc::WireBuffer w;
  int x = 5;
  w.PutPointer(&x);
  const uint8_t blob[4] = {1, 2, 3, 4};
  w.PutBytes(blob, sizeof(blob));
  EXPECT_EQ(w.GetPointer(), &x);
  auto b = w.GetBytes();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[3], 4);
}

TEST(WireTest, ChecksumDetectsCorruption) {
  rpc::WireBuffer a;
  a.PutString("payload");
  rpc::WireBuffer b;
  b.PutString("paxload");
  EXPECT_NE(a.Checksum(), b.Checksum());
  rpc::WireBuffer c;
  c.PutString("payload");
  EXPECT_EQ(a.Checksum(), c.Checksum());
}

TEST(WireTest, WireSizeAccounting) {
  EXPECT_EQ(rpc::WireSizeOf(int32_t{1}), 4);
  EXPECT_EQ(rpc::WireSizeOf(3.0), 8);
  std::vector<double> row(122);
  EXPECT_EQ(rpc::WireSizeOf(row), 8 + 122 * 8);
  std::string s = "hello";
  EXPECT_EQ(rpc::WireSizeOf(s), 8 + 5);
  EXPECT_EQ(rpc::WireSizeOfAll(int32_t{1}, 3.0, row), 4 + 8 + 8 + 976);
  EXPECT_EQ(rpc::WireSizeOfAll(), 0);
}

TEST(WireTest, TruncatedScalarPanicsInsteadOfReadingPastEnd) {
  std::vector<uint8_t> three_bytes = {1, 2, 3};
  rpc::WireBuffer w(std::move(three_bytes));
  EXPECT_EQ(w.GetU8(), 1);
  EXPECT_DEATH(w.GetU32(), "wire underrun");
}

TEST(WireTest, TruncatedByteBlockPanics) {
  rpc::WireBuffer full;
  full.PutBytes("abcdefgh", 8);
  std::vector<uint8_t> cut(full.bytes().begin(), full.bytes().end() - 3);
  rpc::WireBuffer w(std::move(cut));
  EXPECT_DEATH(w.GetBytes(), "wire decode truncated");
}

TEST(WireTest, CorruptedLengthPrefixDoesNotWrap) {
  // A length prefix of ~2^64 must not wrap cursor+len past the bounds check.
  rpc::WireBuffer evil;
  evil.PutU64(std::numeric_limits<uint64_t>::max() - 2);
  rpc::WireBuffer w(evil.bytes());
  EXPECT_DEATH(w.GetBytes(), "wire decode truncated");
}

TEST(WireTest, RecordRoundTripAndTruncationGuard) {
  struct Header {
    uint32_t seq;
    uint16_t kind;
    uint16_t flags;
  };
  rpc::WireBuffer w;
  w.PutRecord(Header{7, 2, 0xff});
  const auto h = w.GetRecord<Header>();
  EXPECT_EQ(h.seq, 7u);
  EXPECT_EQ(h.kind, 2);
  EXPECT_EQ(h.flags, 0xff);
  EXPECT_EQ(w.remaining(), 0u);
  EXPECT_DEATH(w.GetRecord<Header>(), "wire underrun");
}

}  // namespace
}  // namespace net
