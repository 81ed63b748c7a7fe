#include "src/net/network.h"

#include <algorithm>

#include "src/base/panic.h"
#include "src/metrics/metrics.h"
#include "src/telemetry/telemetry.h"

namespace net {

using amber::RuntimeObserver;

void Network::SetMetrics(metrics::Registry* registry) {
  metrics_ = registry;
  link_bytes_ = {registry, "net.link_bytes"};
  link_queue_depth_ = {registry, "net.link_queue_depth"};
}

Time Network::AcquireChannel(NodeId src, NodeId dst, Time ready, Duration wire) {
  Time* free_at = &bus_free_at_;
  if (topology_ == Topology::kSwitched) {
    free_at = &link_free_at_[{src, dst}];  // full duplex: per direction
  }
  const Time start = std::max(ready, *free_at);
  if (metrics_ != nullptr) {
    // Backlog ahead of this frame when it was ready to go, expressed in
    // frame-times of its own wire duration (0 = idle channel).
    const Duration backlog = start - ready;
    const int64_t depth = wire > 0 ? (backlog + wire - 1) / wire : (backlog > 0 ? 1 : 0);
    link_queue_depth_.Link(src, dst, kernel_->nodes()).Record(static_cast<double>(depth));
  }
  *free_at = start + wire;
  busy_ns_ += wire;
  return start;
}

void Network::RecordLinkTx(NodeId src, NodeId dst, int64_t bytes) {
  if (metrics_ != nullptr) {
    link_bytes_.Link(src, dst, kernel_->nodes()).Record(static_cast<double>(bytes));
  }
}

void Network::PostDelivery(NodeId src, NodeId dst, int64_t bytes, Time arrival,
                           std::function<void()> deliver) {
  if (telemetry::SelfProfiler::active() != nullptr) {
    // Attribute the delivery closure's host cost to the net_delivery bucket.
    // Wrapped only while a profiler is active so the disabled path posts the
    // exact same closure it always did.
    deliver = [inner = std::move(deliver)] {
      telemetry::ScopedWallTimer timer(telemetry::Bucket::kNetDelivery);
      inner();
    };
  }
  if (fault_ == nullptr) {
    kernel_->Post(arrival, std::move(deliver));
    return;
  }
  kernel_->Post(arrival, [this, src, dst, bytes, arrival, deliver = std::move(deliver)] {
    if (!kernel_->NodeUp(dst)) {
      // Fail-stop: the receiver crashed while the frame was in flight; a
      // dead node executes no delivery software. The frame is lost.
      if (fault_ != nullptr) {
        fault_->OnArrivalAtDeadNode(src, dst, bytes, arrival);
      }
      return;
    }
    deliver();
  });
}

TxResult Network::Loopback(NodeId node, int64_t bytes, Time depart,
                           std::function<void()> deliver) {
  // A send to self never touches the medium: zero wire occupancy, no
  // propagation, no channel reservation. Only the receive software path is
  // paid (the message still traverses the local protocol stack). Fault
  // filters are not consulted — there is no wire to be lossy — though
  // delivery still requires the node to be up at arrival time.
  const Time arrival = depart + kernel_->cost().rpc_recv_software;
  messages_.Add();
  bytes_.Add(bytes);
  fragments_.Add();
  kernel_->Emit(&RuntimeObserver::OnMessage, depart, arrival, node, node, bytes);
  if (deliver) {
    PostDelivery(node, node, bytes, arrival, std::move(deliver));
  }
  return TxResult{arrival, true};
}

Time Network::Send(NodeId src, NodeId dst, int64_t bytes, Time depart,
                   std::function<void()> deliver) {
  return SendTracked(src, dst, bytes, depart, std::move(deliver)).arrival;
}

TxResult Network::SendTracked(NodeId src, NodeId dst, int64_t bytes, Time depart,
                              std::function<void()> deliver) {
  AMBER_DCHECK(bytes >= 0);
  if (src == dst) {
    return Loopback(src, bytes, depart, std::move(deliver));
  }
  FaultDecision fd;
  if (fault_ != nullptr) {
    fd = fault_->OnTransmit(src, dst, bytes, depart, /*bulk=*/false);
  }
  const sim::CostModel& cost = kernel_->cost();
  const Duration wire = cost.WireTime(bytes);
  const Time start = AcquireChannel(src, dst, depart, wire);
  const Time arrival = start + wire + cost.propagation + cost.rpc_recv_software + fd.extra_delay;
  messages_.Add();
  bytes_.Add(bytes);
  fragments_.Add();
  RecordLinkTx(src, dst, bytes);
  const bool delivered = fd.action != FaultAction::kDrop;
  if (delivered) {
    kernel_->Emit(&RuntimeObserver::OnMessage, depart, arrival, src, dst, bytes);
    if (deliver) {
      PostDelivery(src, dst, bytes, arrival, deliver);
    }
  }
  if (fd.action == FaultAction::kDuplicate) {
    // A second identical frame goes out back-to-back on the medium and is
    // delivered independently (receivers must suppress duplicates).
    const Time start2 = AcquireChannel(src, dst, start + wire, wire);
    const Time arrival2 =
        start2 + wire + cost.propagation + cost.rpc_recv_software + fd.extra_delay;
    messages_.Add();
    bytes_.Add(bytes);
    fragments_.Add();
    RecordLinkTx(src, dst, bytes);
    kernel_->Emit(&RuntimeObserver::OnMessage, depart, arrival2, src, dst, bytes);
    if (deliver) {
      PostDelivery(src, dst, bytes, arrival2, deliver);
    }
  }
  return TxResult{arrival, delivered};
}

TxResult Network::SendBulkTracked(NodeId src, NodeId dst, int64_t bytes, Time depart,
                                  std::function<void()> deliver) {
  AMBER_DCHECK(bytes >= 0);
  if (src == dst) {
    return Loopback(src, bytes, depart, std::move(deliver));
  }
  // Faults apply to the transfer as a unit: the bulk protocol numbers its
  // fragments, so duplicates are suppressed below the delivery callback
  // (the filter never duplicates bulk transfers) and a lost fragment kills
  // the whole transfer (kDrop).
  FaultDecision fd;
  if (fault_ != nullptr) {
    fd = fault_->OnTransmit(src, dst, bytes, depart, /*bulk=*/true);
  }
  const sim::CostModel& cost = kernel_->cost();
  const int64_t frags = cost.Fragments(bytes);
  Time ready = depart;
  int64_t remaining = bytes;
  Time last_delivery = depart;
  for (int64_t i = 0; i < frags; ++i) {
    const int64_t chunk = std::min<int64_t>(remaining, cost.mtu_bytes);
    remaining -= chunk;
    const Duration wire = cost.WireTime(chunk);
    const Time start = AcquireChannel(src, dst, ready, wire);
    // Back-to-back fragments: the next one is ready as soon as this one has
    // left the adapter, plus the (cheap) per-fragment protocol cost.
    ready = start + wire + cost.per_fragment_overhead;
    last_delivery = start + wire + cost.propagation;
  }
  const Time arrival = last_delivery + cost.rpc_recv_software + fd.extra_delay;
  messages_.Add();
  bytes_.Add(bytes);
  fragments_.Add(frags);
  RecordLinkTx(src, dst, bytes);
  const bool delivered = fd.action != FaultAction::kDrop;
  if (delivered) {
    kernel_->Emit(&RuntimeObserver::OnMessage, depart, arrival, src, dst, bytes);
    if (deliver) {
      PostDelivery(src, dst, bytes, arrival, std::move(deliver));
    }
  }
  return TxResult{arrival, delivered};
}

}  // namespace net
