// The discrete-event simulation kernel.
//
// One Kernel simulates a cluster of `nodes` shared-memory multiprocessors
// with `procs_per_node` processors each, on a single host thread, in virtual
// time. Fibers execute real code; their elapsed time is whatever they Charge.
//
// Ordering discipline
// -------------------
// Events execute in strict (time, sequence) order, so any state shared
// between fibers must only be touched at an *ordered point*: inside an event
// handler, or in fiber code immediately after Kernel::Sync() (which re-enters
// the fiber through the event queue at its current virtual time). Pure
// computation (Charge) may run ahead of the clock safely because it touches
// nothing shared. All Amber runtime primitives Sync() on entry. Preemption
// requests take effect at the next charge boundary or sync point, bounding
// the interleaving granularity by the scheduling quantum — the same
// granularity at which a real multiprocessor node would service the §3.5
// move-time preemption interrupt.
//
// Handoff
// -------
// Sync() posts a typed resume key for the running fiber, so a re-entry keeps
// its place in (time, posting) order. It does not always go back to the
// kernel stack to be run: a Sync may pop the earliest event itself when
//   (1) that event is a resume (of this fiber or another), and
//   (2) the kernel frame suspended in kernel_ctx_ would do nothing more
//       before the loop's next RunOne.
// Its own resume means the fiber just continues (a resume with nothing
// ahead of it never enters the heap); another fiber's resume is a direct
// fiber-to-fiber switch. Popping does what the resume handler would (clock,
// vtime, current_) and counts as an event like any other.
// Condition (2) always holds for a frame entered by the resume handler,
// whose last statement is RunFiberSlice. For TryDispatch(node) it holds
// exactly when `node` has no free processor or an empty run queue: then its
// loop ends, and the handler that called TryDispatch ends with it. That
// state cannot change before the kernel frame resumes, because only event
// handlers free processors or make fibers ready, and a handoff chain runs
// no handler -- TryDispatch DCHECKs it.

#ifndef AMBER_SRC_SIM_KERNEL_H_
#define AMBER_SRC_SIM_KERNEL_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/stats.h"
#include "src/base/time.h"
#include "src/sim/cost_model.h"
#include "src/sim/event_queue.h"
#include "src/sim/fiber.h"
#include "src/sim/observer.h"
#include "src/sim/run_queue.h"
#include "src/telemetry/telemetry.h"

namespace sim {

class Kernel {
 public:
  struct Config {
    int nodes = 1;
    int procs_per_node = 1;
    CostModel cost;
  };

  explicit Kernel(const Config& config);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- Setup / teardown ----------------------------------------------------

  // Creates a fiber that will run fn on `node`. The stack is borrowed, not
  // owned; it must outlive the fiber. The fiber becomes ready at the current
  // virtual time. Callable from host code (before Run) or from fiber code.
  Fiber* Spawn(NodeId node, void* stack_base, size_t stack_size, std::function<void()> fn,
               std::string name = "");

  // Frees the kernel's record of a finished fiber. The caller reclaims the
  // stack. Must not be called on a live fiber.
  void DestroyFiber(Fiber* f);

  // Replaces a node's scheduling policy. Queued fibers are transferred.
  void SetRunQueue(NodeId node, std::unique_ptr<RunQueue> queue);
  RunQueue& run_queue(NodeId node);

  // Hook invoked in fiber context whenever a fiber is dispatched again after
  // blocking or being preempted — Amber's context-switch-in residency check
  // (§3.5) lives here.
  void SetResumeHook(std::function<void(Fiber*)> hook) { resume_hook_ = std::move(hook); }

  // --- Event bus ---------------------------------------------------------------

  // The one ordered observer list every layer emits into (amber::Runtime's
  // AddObserver/RemoveObserver forward here). Events reach observers in
  // attach order; removing one does not change what the others see.
  void AddObserver(amber::RuntimeObserver* observer);
  void RemoveObserver(amber::RuntimeObserver* observer);
  bool observed() const { return !observers_.empty(); }

  // Delivers one event to every attached observer, e.g.
  // Emit(&amber::RuntimeObserver::OnThreadBlock, when, node, id). With none
  // attached this is one branch; otherwise the fan-out is timed into the
  // self-profiler's observer_fanout bucket.
  template <typename... Params, typename... Args>
  void Emit(void (amber::RuntimeObserver::*event)(Params...), const Args&... args) {
    if (observers_.empty()) {
      return;
    }
    telemetry::ScopedWallTimer fanout(telemetry::Bucket::kObserverFanout);
    for (amber::RuntimeObserver* o : observers_) {
      (o->*event)(args...);
    }
  }

  // --- Fiber-facing primitives (call only from fiber context) --------------

  // Advances the running fiber's virtual time by d, honouring the timeslice:
  // the fiber is preempted (and requeued) at quantum boundaries when other
  // work is waiting or a preemption was requested.
  void Charge(Duration d);

  // Re-enters the fiber through the event queue at its current virtual time.
  // Establishes an ordered point; see the header comment. Every event that
  // precedes the re-entry in (time, posting) order runs first; the fiber may
  // then continue in place or be switched into straight from another
  // fiber's Sync (see Handoff above).
  void Sync();

  // Voluntarily yields the processor: requeue on this node and reschedule.
  void Yield();

  // Blocks until another party calls Wake. The caller must have registered
  // itself with that party *after* a Sync() — see the ordering discipline.
  void Block();

  // Moves the running fiber to `node`, arriving at time `arrive` (>= current
  // vtime). The processor is released now; the fiber joins the destination
  // run queue at `arrive`. Used for Amber thread migration.
  void TravelTo(NodeId node, Time arrive);

  // Parks the running fiber until virtual time `t`, releasing its processor
  // (a timer sleep, not a busy wait). Returns immediately when t has already
  // passed. The open-loop benchmark drivers pace their deterministic arrival
  // processes with this.
  void SleepUntil(Time t);

  // Suspends the running fiber WITHOUT releasing its processor — the
  // processor spins (stays busy) until SpinResume. Models non-relinquishing
  // locks (§2.2): latency-optimal, throughput-hostile.
  void SpinWait();

  // Resumes a SpinWait-ed fiber at time t (>= now). Call from an ordered
  // point. The spinner's virtual time jumps to t; its processor was busy
  // throughout.
  void SpinResume(Fiber* f, Time t);

  // Terminates the running fiber (runs its on_exit first). Does not return.
  [[noreturn]] void Exit();

  // --- Kernel-facing primitives (event handlers or ordered fiber code) -----

  // Schedules any callable to run in event context at time t (>= now).
  template <typename F>
  void Post(Time t, F&& fn) {
    queue_.Post(t, std::forward<F>(fn));
  }

  // Makes a blocked fiber ready on its current node at time t.
  void Wake(Fiber* f, Time t);

  // Flags every fiber currently running on `node` for preemption; each will
  // be requeued at its next charge boundary or sync point and will run the
  // resume hook when dispatched again. Returns how many were flagged.
  int RequestPreempt(NodeId node);

  // Marks a node down (crash) or back up (restart). A down node dispatches
  // nothing: running fibers are flagged for preemption and park on the run
  // queue at their next charge boundary; fibers arriving via TravelTo queue
  // up and wait. Memory and queued state survive the outage (fail-stop
  // freeze/restart — the fault-injection model, see docs/FAULTS.md).
  // Call from event context or ordered fiber code.
  void SetNodeUp(NodeId node, bool up);
  bool NodeUp(NodeId node) const;

  // --- Clock / introspection ------------------------------------------------

  // Current virtual time: the running fiber's vtime, else the event clock.
  Time Now() const;

  Fiber* current() const { return current_; }
  int nodes() const { return static_cast<int>(nodes_.size()); }
  int procs_per_node() const { return procs_per_node_; }
  const CostModel& cost() const { return cost_; }
  CostModel& mutable_cost() { return cost_; }

  // --- Run loop -------------------------------------------------------------

  // Processes events until none remain. Returns the final virtual time.
  Time Run();

  // Fibers spawned but not finished. Nonzero after Run() means deadlock.
  int live_fibers() const { return live_fibers_; }

  // Read-only sweep over every fiber the kernel still tracks, in creation
  // order (finished fibers stay listed until DestroyFiber reclaims them).
  // Post-mortem introspection — the flight recorder's authoritative
  // per-thread snapshot at time of death. `fn` must not call back into the
  // kernel.
  void ForEachFiber(const std::function<void(const Fiber&)>& fn) const;

  // True while any unfinished fiber sits on an up node. Background services
  // (the membership heartbeat ticks) use this to decide whether the
  // simulation still has work that could need them: fibers frozen on
  // crashed nodes do not count — with every up node idle they can only run
  // again through a restart event that is already in the queue.
  bool AnyLiveFiberOnUpNode() const;

  // --- Statistics ------------------------------------------------------------

  // Total processor-busy virtual time on a node (for utilization reports).
  Duration NodeBusyTime(NodeId node) const;

  // Instantaneous load introspection (for placement policies).
  int RunQueueLength(NodeId node) const;
  int BusyProcessors(NodeId node) const;
  uint64_t dispatches() const { return dispatches_; }
  uint64_t preemptions() const { return preemptions_; }
  uint64_t events_run() const { return queue_.events_run(); }

 private:
  struct Processor {
    Fiber* running = nullptr;
    Time busy_since = 0;
  };
  struct NodeState {
    std::vector<Processor> procs;
    std::vector<int> free_procs;  // LIFO stack of free processor indices
    std::unique_ptr<RunQueue> queue;
    Duration busy_ns = 0;
    bool up = true;  // down nodes dispatch nothing (fault injection)
  };

  static void FiberEntry(void* arg);

  void EnqueueReady(Fiber* f, Time t);
  void TryDispatch(NodeId node);
  // Switches into f until the kernel is switched back into. frame_node is
  // the node whose TryDispatch loop is calling, or kNoNode from the resume
  // handler (see KernelFrameDone).
  void RunFiberSlice(Fiber* f, NodeId frame_node);
  // Time each fiber slice into the telemetry fiber_run bucket when a
  // self-profiler is active: one call per slice, handoffs included.
  void BeginSliceScope();
  void EndSliceScope();
  // The event queue's handler for resume keys (Sync and SpinResume).
  static void ResumeHandler(void* kernel, Fiber* f);
  void StartResume(Fiber* f);
  // Condition (2) of the handoff rule (header comment).
  bool KernelFrameDone() const;
  // Runs the resume of `next`, just taken from the queue in fiber f's Sync,
  // by continuing in f or switching straight to next. `finished` is the
  // clock of the event that ended with the take.
  void HandOff(Fiber* f, Fiber* next, Time finished);
  void ReleaseProcessorAndMaybeRequeue(Fiber* f, bool requeue);
  void SwitchToKernel(Fiber* f);
  void AfterResume(Fiber* f);

  EventQueue queue_;
  CostModel cost_;
  int procs_per_node_;
  std::vector<NodeState> nodes_;
  // Every fiber not yet destroyed, in creation order; DestroyFiber leaves a
  // null hole at the fiber's slot until the next compaction.
  std::vector<std::unique_ptr<Fiber>> fibers_;
  size_t dead_fibers_ = 0;  // null holes in fibers_
  Fiber* current_ = nullptr;
  Context kernel_ctx_;
  // The kernel frame suspended in kernel_ctx_: the node of the TryDispatch
  // loop that entered the running slice, or kNoNode for the resume handler.
  NodeId frame_node_ = kNoNode;
  bool handed_off_ = false;  // a Sync handed off since the frame switched out
  int64_t slice_scope_ = 0;  // the fiber_run scope's sampled start, or 0
  telemetry::SelfProfiler* loop_prof_ = nullptr;  // the profiler Run() ticks
  std::function<void(Fiber*)> resume_hook_;
  std::vector<amber::RuntimeObserver*> observers_;  // attach (= delivery) order
  uint64_t next_fiber_id_ = 1;
  int live_fibers_ = 0;
  uint64_t dispatches_ = 0;
  uint64_t preemptions_ = 0;
};

}  // namespace sim

#endif  // AMBER_SRC_SIM_KERNEL_H_
