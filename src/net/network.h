// Simulated interconnect: a 10 Mbit/s shared-medium Ethernet.
//
// The bus is modelled as a single FIFO channel: each frame occupies the
// medium for media-access overhead plus size/bandwidth, so concurrent
// senders queue behind one another — reproducing the saturation behaviour
// that limits small-grid SOR speedup (paper Figure 3). Bulk transfers
// (object moves, §4.2 "efficient bulk transfer protocol") fragment at the
// MTU and pay a reduced per-fragment overhead.
//
// Division of labour: the *sender's CPU* costs (marshalling, RPC software
// path) are charged by the RPC layer to the sending fiber so they occupy a
// simulated processor; the Network accounts only for wire occupancy,
// propagation, and the receive-side software path (modelled as latency).

#ifndef AMBER_SRC_NET_NETWORK_H_
#define AMBER_SRC_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "src/base/stats.h"
#include "src/metrics/metrics.h"
#include "src/sim/cost_model.h"
#include "src/sim/kernel.h"

namespace net {

using amber::Counter;
using amber::Duration;
using amber::Time;
using sim::NodeId;

// Interconnect organization. The paper's testbed is a shared 10 Mbit/s
// Ethernet (kSharedBus); kSwitched models the "new high-throughput
// networks" its §5 anticipates — independent full-duplex links per node
// pair, so there is no shared-medium queueing (only per-link serialization).
enum class Topology { kSharedBus, kSwitched };

// --- Fault injection ---------------------------------------------------------
//
// A FaultFilter is consulted once per transmission, at an ordered point,
// before the channel is reserved. It decides the frame's fate: deliver
// normally, drop it (the frame still occupies the sender's medium — it is
// lost at the receiver), or deliver twice (a second identical frame is
// transmitted back-to-back). An extra receive-side delay may be added in
// any case. Loopback sends (src == dst) never consult the filter: they do
// not touch the medium. With no filter attached, behaviour and timings are
// exactly the unfaulted model.

enum class FaultAction : uint8_t { kDeliver, kDrop, kDuplicate };

struct FaultDecision {
  FaultAction action = FaultAction::kDeliver;
  Duration extra_delay = 0;  // added to the receive path (reordering/jitter)
};

class FaultFilter {
 public:
  virtual ~FaultFilter() = default;
  virtual FaultDecision OnTransmit(NodeId src, NodeId dst, int64_t bytes, Time depart,
                                   bool bulk) = 0;
  // Bookkeeping: a frame that was in flight when its destination crashed
  // reached a dead node, and the network discarded the delivery at arrival
  // time. The decision comes from kernel liveness, not from the filter.
  virtual void OnArrivalAtDeadNode(NodeId src, NodeId dst, int64_t bytes, Time arrival) {}
};

// Outcome of one transmission as known to the simulator (not to the sending
// software, which only learns of loss through timeouts).
struct TxResult {
  Time arrival = 0;        // delivery time of the first copy (would-be, if dropped)
  bool delivered = false;  // at least one copy reached dst
};

class Network {
 public:
  explicit Network(sim::Kernel* kernel, Topology topology = Topology::kSharedBus)
      : kernel_(kernel), topology_(topology) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Transmits one datagram of `bytes` payload leaving src no earlier than
  // `depart`. Returns the time the message is available to software at dst
  // (wire + propagation + receive software path). If `deliver` is non-null
  // it runs, in event context, at that time. A loopback send (src == dst)
  // bypasses the medium entirely: zero wire occupancy, no propagation, only
  // the receive software path.
  Time Send(NodeId src, NodeId dst, int64_t bytes, Time depart,
            std::function<void()> deliver = nullptr);

  // As Send, but also reports whether any copy was delivered (fault
  // filters may drop the frame). The *simulator's* view of the outcome —
  // sending software only learns of loss through timeouts.
  TxResult SendTracked(NodeId src, NodeId dst, int64_t bytes, Time depart,
                       std::function<void()> deliver = nullptr);

  // Transmits a bulk payload as MTU-sized fragments back-to-back on the
  // medium. Returns the delivery-complete time at dst and whether the
  // transfer survived the fault filter, which drops or delays it as a unit
  // (always delivered with no filter attached).
  TxResult SendBulkTracked(NodeId src, NodeId dst, int64_t bytes, Time depart,
                           std::function<void()> deliver = nullptr);

  // Attaches a fault filter (nullptr detaches). With none attached every
  // frame is delivered with unmodified timing.
  void SetFaultFilter(FaultFilter* filter) { fault_ = filter; }

  // --- Traffic statistics ----------------------------------------------------
  int64_t messages() const { return messages_.value(); }
  int64_t bytes_sent() const { return bytes_.value(); }
  int64_t fragments() const { return fragments_.value(); }
  Duration busy_time() const { return busy_ns_; }
  void ResetStats() {
    messages_.Reset();
    bytes_.Reset();
    fragments_.Reset();
    busy_ns_ = 0;
  }

  Topology topology() const { return topology_; }

  // Attaches a metrics registry (nullptr detaches): every medium
  // transmission records per-link histograms, labelled "src->dst" —
  // net.link_bytes (payload per transmitted message; a fault-duplicated
  // copy counts separately, a bulk transfer counts once) and
  // net.link_queue_depth (channel reservations: frames of backlog ahead of
  // the frame when it was ready to transmit; 0 = idle channel). Loopback
  // sends never touch a link and record nothing. Observation only: timings
  // are unchanged.
  void SetMetrics(metrics::Registry* registry);

 private:
  // Reserves the channel (the shared bus, or the src->dst link) for a
  // transmission of `wire` duration starting no earlier than `ready`;
  // returns the transmission start time.
  Time AcquireChannel(NodeId src, NodeId dst, Time ready, Duration wire);

  // Records the per-link payload-size sample for one transmitted frame.
  void RecordLinkTx(NodeId src, NodeId dst, int64_t bytes);

  // Posts `deliver` for execution at `arrival`. Under fault injection the
  // receiver may crash while the frame is in flight, so liveness is
  // re-checked when the closure runs: a dead node executes no delivery
  // software (fail-stop covers in-flight frames, not just future
  // departures). With no filter attached this is a plain Post.
  void PostDelivery(NodeId src, NodeId dst, int64_t bytes, Time arrival,
                    std::function<void()> deliver);

  // Delivery time of a loopback send: no medium, only the receive software
  // path (the message never leaves the node's protocol stack).
  TxResult Loopback(NodeId node, int64_t bytes, Time depart, std::function<void()> deliver);

  sim::Kernel* kernel_;
  Topology topology_;
  Time bus_free_at_ = 0;
  std::map<std::pair<NodeId, NodeId>, Time> link_free_at_;  // kSwitched
  Counter messages_;
  Counter bytes_;
  Counter fragments_;
  Duration busy_ns_ = 0;
  FaultFilter* fault_ = nullptr;
  metrics::Registry* metrics_ = nullptr;
  // Per-link handles into metrics_, resolved on first use.
  metrics::FamilyHandles<metrics::Histogram> link_bytes_;
  metrics::FamilyHandles<metrics::Histogram> link_queue_depth_;
};

}  // namespace net

#endif  // AMBER_SRC_NET_NETWORK_H_
