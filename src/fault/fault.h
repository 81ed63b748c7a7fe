// Deterministic fault injection.
//
// A FaultPlan is a declarative description of everything that will go wrong
// in a run: per-link loss/duplication/delay probabilities, link partitions
// over virtual-time windows, and node crash/restart events. The Injector
// executes the plan by hooking the network's transmission path (as a
// net::FaultFilter) and the kernel's node state — all draws come from one
// seeded amber::Rng consulted in virtual-time order, so a (plan, seed) pair
// reproduces the exact same failure sequence on every run.
//
// Contract (see docs/FAULTS.md):
//   * An EMPTY plan is inert: Attach() installs nothing, no generator is
//     consulted, no timers are posted — every output byte is identical to a
//     run without the fault subsystem linked at all.
//   * A non-empty plan flips rpc::Transport into reliability mode (timeouts,
//     capped exponential backoff retransmission, duplicate suppression) so
//     lost frames surface as retries or typed timeout errors, never hangs.
//   * Node crashes are fail-stop freezes: a down node dispatches nothing,
//     all frames to or from it are dropped at departure time, and frames
//     already in flight when it crashes are discarded on arrival; memory
//     and queued state survive a restart.
//   * The Injector's NodeUp/Reachable view is *ground truth*, used by tests
//     to grade the heartbeat/lease membership service (membership.h) —
//     detection latency, false suspicions. The runtime's repair and recovery
//     paths consult Membership::Suspects, never this oracle.

#ifndef AMBER_SRC_FAULT_FAULT_H_
#define AMBER_SRC_FAULT_FAULT_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "src/base/rng.h"
#include "src/base/time.h"
#include "src/net/network.h"
#include "src/rpc/transport.h"
#include "src/sim/kernel.h"

namespace fault {

using amber::Duration;
using amber::Time;
using sim::NodeId;

inline constexpr Time kForever = std::numeric_limits<Time>::max();
inline constexpr NodeId kAnyNode = -1;

// Probabilistic misbehaviour of one direction of one link. kAnyNode
// wildcards match every endpoint; the first matching rule wins.
struct LinkRule {
  NodeId src = kAnyNode;
  NodeId dst = kAnyNode;
  double drop = 0.0;       // P(frame lost)
  double duplicate = 0.0;  // P(frame delivered twice), if not dropped
  double delay = 0.0;      // P(extra receive-side delay), if not dropped
  Duration delay_min = 0;  // uniform extra delay bounds
  Duration delay_max = 0;
};

// Total loss between two endpoints over a virtual-time window [from, until).
// Matches either direction; kAnyNode isolates a node from everyone.
struct Partition {
  NodeId a = kAnyNode;
  NodeId b = kAnyNode;
  Time from = 0;
  Time until = kForever;
};

// Fail-stop crash at crash_at; restart_at < 0 means the node never returns.
struct NodeEvent {
  NodeId node = 0;
  Time crash_at = 0;
  Time restart_at = -1;
};

struct FaultPlan {
  uint64_t seed = 1;
  std::vector<LinkRule> links;
  std::vector<Partition> partitions;
  std::vector<NodeEvent> node_events;

  bool empty() const { return links.empty() && partitions.empty() && node_events.empty(); }
};

class Injector : public net::FaultFilter {
 public:
  explicit Injector(FaultPlan plan) : plan_(std::move(plan)), rng_(plan_.seed) {}

  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  // True when the plan can actually perturb a run. Inactive injectors must
  // not be observable in any output.
  bool active() const { return !plan_.empty(); }

  // Installs the injector into a simulation: hooks the network's
  // transmission path, switches the transport onto its timeout/retry path,
  // and schedules the plan's crash/restart events. Call once, before
  // Kernel::Run(). A no-op when the plan is empty.
  void Attach(sim::Kernel* kernel, net::Network* net, rpc::Transport* rpc);

  // Node lifecycle hook: called in event context, after the kernel's node
  // state has flipped, for every executed crash/restart plan event. Unlike
  // the OnNodeCrash/OnNodeRestart events on the kernel's observer bus, this
  // drives *semantics*: the runtime uses it for membership bookkeeping and
  // boot-time recovery of a restarted node's descriptor tables.
  using NodeEventHandler = std::function<void(Time when, NodeId node, bool up)>;
  void SetNodeEventHandler(NodeEventHandler handler) { node_handler_ = std::move(handler); }

  // --- Failure-detector oracle (test ground truth) ---------------------------

  // Whether `node` is up right now (true before Attach()).
  bool NodeUp(NodeId node) const;

  // Whether a frame sent src->dst at time `at` could be delivered at all:
  // both endpoints up and no partition covering the pair at `at`. Ignores
  // probabilistic loss (that is noise, not reachability).
  bool Reachable(NodeId src, NodeId dst, Time at) const;

  // --- net::FaultFilter ------------------------------------------------------

  net::FaultDecision OnTransmit(NodeId src, NodeId dst, int64_t bytes, Time depart,
                                bool bulk) override;

  // A frame already in flight when its destination crashed was discarded by
  // the network at arrival time: counted and reported as a kNodeDown drop.
  void OnArrivalAtDeadNode(NodeId src, NodeId dst, int64_t bytes, Time arrival) override;

  // --- Statistics ------------------------------------------------------------

  int64_t drops() const { return drops_; }
  int64_t duplicates() const { return duplicates_; }
  int64_t delays() const { return delays_; }
  int64_t crashes() const { return crashes_; }
  int64_t restarts() const { return restarts_; }
  const FaultPlan& plan() const { return plan_; }

 private:
  // Reports a fault on the kernel's event bus. An injector that was never
  // attached (tests drive OnTransmit directly) has no bus to report to.
  template <typename... Params, typename... Args>
  void Report(void (amber::RuntimeObserver::*event)(Params...), const Args&... args) {
    if (kernel_ != nullptr) {
      kernel_->Emit(event, args...);
    }
  }
  bool Partitioned(NodeId src, NodeId dst, Time at) const;
  const LinkRule* MatchRule(NodeId src, NodeId dst) const;

  FaultPlan plan_;
  amber::Rng rng_;
  bool attached_ = false;
  sim::Kernel* kernel_ = nullptr;  // set only by an *active* Attach()
  NodeEventHandler node_handler_;
  int64_t drops_ = 0;
  int64_t duplicates_ = 0;
  int64_t delays_ = 0;
  int64_t crashes_ = 0;
  int64_t restarts_ = 0;
};

}  // namespace fault

#endif  // AMBER_SRC_FAULT_FAULT_H_
