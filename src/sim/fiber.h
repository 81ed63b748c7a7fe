// Fibers: simulated threads of control.
//
// A fiber is a user-level thread (real stack, real context switches on the
// host) whose *time* is virtual: the kernel dispatches it onto a simulated
// processor, it accrues virtual time through Kernel::Charge(), and it blocks
// and migrates through kernel primitives. The Amber runtime layers thread
// objects, invocation stacks and migration semantics on top.

#ifndef AMBER_SRC_SIM_FIBER_H_
#define AMBER_SRC_SIM_FIBER_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/base/time.h"
#include "src/sim/context.h"

namespace sim {

using amber::Time;

using NodeId = int32_t;
constexpr NodeId kNoNode = -1;

enum class FiberState {
  kReady,     // on a node's run queue
  kRunning,   // assigned to a processor (may be host-suspended at a Sync point)
  kBlocked,   // waiting for a Wake
  kFinished,  // entry function returned or Exit() was called
};

// Stable lowercase names for dumps and diagnostics.
inline const char* FiberStateName(FiberState s) {
  switch (s) {
    case FiberState::kReady:
      return "ready";
    case FiberState::kRunning:
      return "running";
    case FiberState::kBlocked:
      return "blocked";
    case FiberState::kFinished:
      return "finished";
  }
  return "unknown";
}

class Kernel;

// Plain data plus the machine context. Owned by the Kernel; the stack memory
// is owned by whoever spawned the fiber (the Amber runtime carves thread
// stacks from the global object space).
class Fiber {
 public:
  uint64_t id = 0;
  std::string name;

  NodeId node = kNoNode;  // node the fiber currently executes on
  int processor = -1;     // processor index while running, else -1

  // While running: the fiber's current virtual time (dispatch time plus
  // accumulated charges). While ready/blocked: the time it last ran or was
  // made ready. Never decreases.
  Time vtime = 0;
  Time quantum_end = 0;  // end of the current timeslice
  Time ready_since = 0;  // when the fiber last joined a run queue (for wait stats)

  FiberState state = FiberState::kReady;

  // Set by RequestPreempt (an object move, §3.5); honoured at the next
  // charge boundary or sync point.
  bool preempt_requested = false;
  // True while resuming from an involuntary preemption or a blocking wait;
  // triggers the resume hook (Amber's context-switch-in residency check).
  bool involuntary_resume = false;

  int priority = 0;         // consulted by PriorityRunQueue only
  int feedback_level = -1;  // FeedbackRunQueue's level; -1 until first enqueued

  // Back-pointer for the embedding runtime (Amber's thread control block).
  void* user_data = nullptr;

  Kernel* kernel = nullptr;
  std::function<void()> entry;
  // Runs in fiber context, at the fiber's exit vtime, just before the fiber
  // is torn down. Amber uses it to wake joiners.
  std::function<void()> on_exit;

  Context ctx;
  void* stack_base = nullptr;
  size_t stack_size = 0;

  // Position in the kernel's creation-order fiber table (kernel-private).
  size_t slot = 0;
};

}  // namespace sim

#endif  // AMBER_SRC_SIM_FIBER_H_
