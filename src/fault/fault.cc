#include "src/fault/fault.h"

#include "src/base/panic.h"

namespace fault {

using amber::RuntimeObserver;

void Injector::Attach(sim::Kernel* kernel, net::Network* net, rpc::Transport* rpc) {
  AMBER_CHECK(!attached_) << "fault injector attached twice";
  attached_ = true;
  if (!active()) {
    return;  // empty plan: leave every hook untouched (byte-identity contract)
  }
  kernel_ = kernel;
  net->SetFaultFilter(this);
  rpc->EnableReliability(true);
  for (const NodeEvent& e : plan_.node_events) {
    AMBER_CHECK(e.node >= 0 && e.node < kernel->nodes())
        << "fault plan crashes unknown node " << e.node;
    AMBER_CHECK(e.restart_at < 0 || e.restart_at > e.crash_at)
        << "node " << e.node << " restart at " << e.restart_at << " not after crash at "
        << e.crash_at;
    kernel->Post(e.crash_at, [this, node = e.node] {
      kernel_->SetNodeUp(node, false);
      ++crashes_;
      Report(&RuntimeObserver::OnNodeCrash, kernel_->Now(), node);
      if (node_handler_) {
        node_handler_(kernel_->Now(), node, /*up=*/false);
      }
    });
    if (e.restart_at >= 0) {
      kernel->Post(e.restart_at, [this, node = e.node] {
        kernel_->SetNodeUp(node, true);
        ++restarts_;
        Report(&RuntimeObserver::OnNodeRestart, kernel_->Now(), node);
        if (node_handler_) {
          node_handler_(kernel_->Now(), node, /*up=*/true);
        }
      });
    }
  }
}

bool Injector::NodeUp(NodeId node) const {
  return kernel_ == nullptr || kernel_->NodeUp(node);
}

bool Injector::Partitioned(NodeId src, NodeId dst, Time at) const {
  for (const Partition& p : plan_.partitions) {
    if (at < p.from || at >= p.until) {
      continue;
    }
    const bool fwd = (p.a == kAnyNode || p.a == src) && (p.b == kAnyNode || p.b == dst);
    const bool rev = (p.a == kAnyNode || p.a == dst) && (p.b == kAnyNode || p.b == src);
    if (fwd || rev) {
      return true;
    }
  }
  return false;
}

bool Injector::Reachable(NodeId src, NodeId dst, Time at) const {
  return NodeUp(src) && NodeUp(dst) && !Partitioned(src, dst, at);
}

const LinkRule* Injector::MatchRule(NodeId src, NodeId dst) const {
  for (const LinkRule& r : plan_.links) {
    if ((r.src == kAnyNode || r.src == src) && (r.dst == kAnyNode || r.dst == dst)) {
      return &r;
    }
  }
  return nullptr;
}

net::FaultDecision Injector::OnTransmit(NodeId src, NodeId dst, int64_t bytes, Time depart,
                                        bool bulk) {
  net::FaultDecision fd;
  // Fail-stop crashes and partitions are deterministic total loss; they are
  // checked before the probabilistic rules so they consume no RNG draws.
  const char* reason = "";  // the observer's drop label
  if (!NodeUp(src) || !NodeUp(dst)) {
    fd.action = net::FaultAction::kDrop;
    reason = "node_down";
  } else if (Partitioned(src, dst, depart)) {
    fd.action = net::FaultAction::kDrop;
    reason = "partition";
  } else if (const LinkRule* r = MatchRule(src, dst); r != nullptr) {
    // Draws happen in a fixed order (drop, duplicate, delay) and only when
    // the corresponding probability is nonzero, so the stream of random
    // numbers is a pure function of the traffic sequence.
    if (r->drop > 0 && rng_.NextDouble() < r->drop) {
      fd.action = net::FaultAction::kDrop;
      reason = "lossy";
    } else {
      // Bulk transfers never duplicate: the bulk protocol numbers its
      // fragments and suppresses duplicates below the delivery callback, so
      // no draw is consumed and no duplicate is counted for them.
      if (!bulk && r->duplicate > 0 && rng_.NextDouble() < r->duplicate) {
        fd.action = net::FaultAction::kDuplicate;
        ++duplicates_;
        Report(&RuntimeObserver::OnMessageDuplicated, depart, src, dst, bytes);
      }
      if (r->delay > 0 && rng_.NextDouble() < r->delay) {
        fd.extra_delay = rng_.Range(r->delay_min, r->delay_max);
        ++delays_;
        Report(&RuntimeObserver::OnMessageDelayed, depart, src, dst, fd.extra_delay);
      }
    }
  }
  if (fd.action == net::FaultAction::kDrop) {
    ++drops_;
    Report(&RuntimeObserver::OnMessageDropped, depart, src, dst, bytes, reason);
  }
  return fd;
}

void Injector::OnArrivalAtDeadNode(NodeId src, NodeId dst, int64_t bytes, Time arrival) {
  ++drops_;
  Report(&RuntimeObserver::OnMessageDropped, arrival, src, dst, bytes, "node_down");
}

}  // namespace fault
