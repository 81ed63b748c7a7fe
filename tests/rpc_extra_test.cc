// Additional RPC/transport tests: bulk-from-fiber, concurrent senders on
// the shared bus vs switched links, roundtrip service values, wire-buffer
// edge cases, and a randomized wire round-trip property test.

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/net/network.h"
#include "src/rpc/transport.h"
#include "src/rpc/wire.h"
#include "src/sim/stack_pool.h"

namespace rpc {
namespace {

using amber::Micros;
using amber::Millis;
using amber::Time;
using sim::CostModel;

CostModel SimpleNet() {
  CostModel c;
  c.context_switch = 0;
  c.rpc_send_software = 0;
  c.rpc_recv_software = 0;
  c.marshal_base = 0;
  c.marshal_ns_per_byte = 0;
  c.media_access = Micros(100);
  c.propagation = Micros(10);
  c.bandwidth_bits_per_sec = 10e6;
  c.per_fragment_overhead = 0;
  return c;
}

class Harness {
 public:
  explicit Harness(net::Topology topology, CostModel cost = SimpleNet())
      : pool_(64 * 1024) {
    sim::Kernel::Config config;
    config.nodes = 4;
    config.procs_per_node = 2;
    config.cost = cost;
    kernel_ = std::make_unique<sim::Kernel>(config);
    net_ = std::make_unique<net::Network>(kernel_.get(), topology);
    rpc_ = std::make_unique<Transport>(kernel_.get(), net_.get());
  }
  void Go(sim::NodeId node, std::function<void()> fn) {
    void* stack = pool_.Allocate();
    kernel_->Spawn(node, stack, pool_.stack_size(), std::move(fn));
  }
  sim::Kernel& k() { return *kernel_; }
  net::Network& net() { return *net_; }
  Transport& rpc() { return *rpc_; }

 private:
  sim::StackPool pool_;
  std::unique_ptr<sim::Kernel> kernel_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<Transport> rpc_;
};

TEST(TopologyTest, SwitchedLinksDoNotQueueAcrossPairs) {
  // Two disjoint node pairs sending simultaneously: on the shared bus the
  // second transmission queues; on a switch they proceed in parallel.
  auto run = [](net::Topology topology) {
    Harness h(topology);
    const Time a = h.net().Send(0, 1, 1250, 0);
    const Time b = h.net().Send(2, 3, 1250, 0);
    return std::make_pair(a, b);
  };
  const auto [bus_a, bus_b] = run(net::Topology::kSharedBus);
  EXPECT_GT(bus_b, bus_a);  // serialized on the medium
  const auto [sw_a, sw_b] = run(net::Topology::kSwitched);
  EXPECT_EQ(sw_a, sw_b);  // independent links
}

TEST(TopologyTest, SwitchedSameLinkStillSerializes) {
  Harness h(net::Topology::kSwitched);
  const Time a = h.net().Send(0, 1, 1250, 0);
  const Time b = h.net().Send(0, 1, 1250, 0);
  EXPECT_GT(b, a);  // same directional link
}

TEST(TopologyTest, SwitchedDuplexDirectionsIndependent) {
  Harness h(net::Topology::kSwitched);
  const Time a = h.net().Send(0, 1, 1250, 0);
  const Time b = h.net().Send(1, 0, 1250, 0);  // reverse direction
  EXPECT_EQ(a, b);
}

TEST(TransportTest, BulkChargesMarshalOnSender) {
  CostModel cost = SimpleNet();
  cost.marshal_base = Micros(200);
  cost.marshal_ns_per_byte = 100.0;
  Harness h(net::Topology::kSharedBus, cost);
  Time after_charge = -1;
  h.Go(0, [&] {
    h.rpc().SendBulkTracked(1, 10000, nullptr);
    after_charge = h.k().Now();  // sender's vtime includes the marshal
  });
  h.k().Run();
  // marshal(10 KB) = 200 µs + 1 ms: the sender's own time reflects it.
  EXPECT_GE(after_charge, Micros(1200));
}

TEST(TransportTest, RoundtripServiceSideEffectsVisible) {
  Harness h(net::Topology::kSharedBus);
  int service_state = 0;
  h.Go(0, [&] {
    for (int i = 0; i < 3; ++i) {
      h.rpc().Roundtrip(2, 64, [&]() -> int64_t {
        ++service_state;
        return 64;
      });
      EXPECT_EQ(service_state, i + 1);  // reply implies the service ran
    }
  });
  h.k().Run();
  EXPECT_EQ(service_state, 3);
}

TEST(TransportTest, TravelCountsTracked) {
  Harness h(net::Topology::kSharedBus);
  h.Go(0, [&] {
    h.rpc().Travel(1, 100);
    h.rpc().Travel(2, 100);
    EXPECT_EQ(h.k().current()->node, 2);
  });
  h.k().Run();
  EXPECT_EQ(h.rpc().travels(), 2);
}

TEST(WireTest, EmptyBuffer) {
  WireBuffer w;
  EXPECT_EQ(w.size(), 0u);
  EXPECT_EQ(w.remaining(), 0u);
  EXPECT_EQ(w.Checksum(), WireBuffer().Checksum());
}

TEST(WireTest, UnderrunPanics) {
  WireBuffer w;
  w.PutU32(5);
  w.GetU32();
  EXPECT_DEATH(w.GetU32(), "underrun");
}

TEST(WireTest, RewindReplays) {
  WireBuffer w;
  w.PutI64(-9);
  EXPECT_EQ(w.GetI64(), -9);
  w.Rewind();
  EXPECT_EQ(w.GetI64(), -9);
}

TEST(WireTest, PropertyRandomRoundTrip) {
  amber::Rng rng(0x17E5);
  for (int round = 0; round < 200; ++round) {
    WireBuffer w;
    // Build a random record, remembering the expected values.
    std::vector<uint64_t> u64s;
    std::vector<double> doubles;
    std::vector<std::string> strings;
    const int fields = static_cast<int>(rng.Range(1, 12));
    std::vector<int> shape;
    for (int f = 0; f < fields; ++f) {
      switch (rng.Below(3)) {
        case 0: {
          u64s.push_back(rng.Next());
          w.PutU64(u64s.back());
          shape.push_back(0);
          break;
        }
        case 1: {
          doubles.push_back(rng.NextDouble() * 1e6 - 5e5);
          w.PutDouble(doubles.back());
          shape.push_back(1);
          break;
        }
        default: {
          std::string s;
          const int len = static_cast<int>(rng.Below(40));
          for (int i = 0; i < len; ++i) {
            s.push_back(static_cast<char>('a' + rng.Below(26)));
          }
          strings.push_back(s);
          w.PutString(s);
          shape.push_back(2);
          break;
        }
      }
    }
    size_t iu = 0;
    size_t id = 0;
    size_t is = 0;
    for (int kind : shape) {
      if (kind == 0) {
        ASSERT_EQ(w.GetU64(), u64s[iu++]);
      } else if (kind == 1) {
        ASSERT_EQ(w.GetDouble(), doubles[id++]);
      } else {
        ASSERT_EQ(w.GetString(), strings[is++]);
      }
    }
    ASSERT_EQ(w.remaining(), 0u);
  }
}

TEST(WireTest, NestedVectorWireSize) {
  std::vector<std::vector<uint64_t>> runs{{1, 2, 3}, {}, {4}};
  // 8 (outer) + (8 + 24) + (8 + 0) + (8 + 8).
  EXPECT_EQ(WireSizeOf(runs), 8 + 32 + 8 + 16);
}

}  // namespace
}  // namespace rpc
