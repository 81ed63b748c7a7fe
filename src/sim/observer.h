// The instrumentation event bus: amber::RuntimeObserver.
//
// Every layer of the simulated machine emits its events straight onto one
// ordered observer list held by sim::Kernel (Kernel::Emit): the kernel its
// scheduler events, rpc::Transport its roundtrips, net::Network its
// messages, fault::Injector its faults, and amber::Runtime the distribution,
// invocation, contention and recovery events. The interface lives here, at
// the bottom of the layer stack, so that every layer can see it.

#ifndef AMBER_SRC_SIM_OBSERVER_H_
#define AMBER_SRC_SIM_OBSERVER_H_

#include <cstdint>
#include <string>

#include "src/base/time.h"
#include "src/sim/fiber.h"

namespace amber {

using sim::NodeId;

// Stable identity of a thread on the event bus: the underlying fiber's
// dense creation-order id (1, 2, 3, ... — deterministic across identical
// runs). Events carry this instead of the thread's name so the hot path is
// allocation-free; OnThreadCreate delivers the id→name binding exactly once
// and sinks keep their own side table (see fdr::Recorder::CreatedName).
using ThreadId = uint64_t;

// Observer of the runtime's events — the instrumentation bus. Callbacks run
// at ordered points with virtual timestamps; deterministic runs produce the
// identical event sequence. Observers must not call back into the runtime.
//
// Four event families:
//   * distribution — migrations, moves, replicas, network messages;
//   * scheduler    — thread lifecycle, run-queue wait, blocking, preemption
//                    (from sim::Kernel);
//   * invocation   — Enter/Exit *span* pairs around every Ref::Call / Join,
//                    labelled local or remote;
//   * contention   — lock wait/hold, condition wakeups, barrier waits (from
//                    core/sync), request/response roundtrips (rpc::Transport).
// With no observer attached every emission is one empty-list check.
//
// Fan-out: several observers may be attached at once (AddObserver); each
// event is delivered to all of them in attachment order, and removing one
// mid-run does not change what the others see (tested in observer_test).
class RuntimeObserver {
 public:
  virtual ~RuntimeObserver() = default;

  // --- Distribution events ---------------------------------------------------
  virtual void OnThreadMigrate(Time when, NodeId src, NodeId dst, ThreadId thread,
                               int64_t bytes) {}
  virtual void OnObjectMove(Time when, const void* obj, NodeId src, NodeId dst, int64_t bytes) {}
  virtual void OnReplicaInstall(Time when, const void* obj, NodeId node) {}
  virtual void OnMessage(Time depart, Time arrive, NodeId src, NodeId dst, int64_t bytes) {}
  // A migrating thread runs at `node` again, `latency` after its departure
  // decision (marshal + wire + dispatch), having carried `bytes`.
  virtual void OnMigrationLanded(Time when, NodeId node, ThreadId thread, Duration latency,
                                 int64_t bytes) {}
  // `thread`'s residency check reached `obj` after `hops` > 0 forwarding hops.
  virtual void OnChaseEnd(Time when, NodeId node, ThreadId thread, const void* obj, int hops) {}
  // A MoveTo that `thread` issued at `node` landed, `latency` after it began.
  virtual void OnMoveLanded(Time when, NodeId node, ThreadId thread, const void* obj,
                            Duration latency, int64_t bytes) {}
  // `thread` at `node` begins fetching a replica of immutable `obj`.
  virtual void OnReplicaFetch(Time when, NodeId node, ThreadId thread, const void* obj) {}

  // --- Scheduler events ------------------------------------------------------
  // The only event that carries the thread's name; `parent` is the creating
  // thread (0 for the initial thread, which host code spawns).
  virtual void OnThreadCreate(Time when, NodeId node, ThreadId thread, const std::string& name,
                              ThreadId parent) {}
  // `queue_wait` is the time spent ready on the run queue before dispatch.
  virtual void OnThreadDispatch(Time when, NodeId node, ThreadId thread, Duration queue_wait) {}
  virtual void OnThreadBlock(Time when, NodeId node, ThreadId thread) {}
  // `waker` is the thread whose Wake made this one runnable (0 when the wake
  // came from event context: a timer, a message delivery, or a migration
  // arrival) and `wake_time` the waker's clock at that call — together they
  // are the causal edge the critical-path profiler walks.
  virtual void OnThreadUnblock(Time when, NodeId node, ThreadId thread, ThreadId waker,
                               Time wake_time) {}
  virtual void OnThreadPreempt(Time when, NodeId node, ThreadId thread) {}
  virtual void OnThreadExit(Time when, NodeId node, ThreadId thread) {}
  // `thread` is about to block until `target` finishes (emitted only when
  // the join actually waits).
  virtual void OnThreadJoin(Time when, NodeId node, ThreadId thread, ThreadId target) {}

  // --- Invocation spans ------------------------------------------------------
  // Emitted once the thread is co-resident with the object (user code is
  // about to run); `remote` is whether reaching the object required
  // migration. Enter/Exit pairs nest properly per thread. `obj` is the
  // object's identity (sinks map it to a dense id), `origin` the node the
  // caller stood on before the residency check, and `entry_overhead` the
  // virtual time that check consumed (forward-chain chasing + migration) —
  // the placement advisor's raw material.
  virtual void OnInvokeEnter(Time when, NodeId node, ThreadId thread, const void* obj,
                             const std::string& object, bool remote, NodeId origin,
                             Duration entry_overhead) {}
  // `exit_overhead` is the return-side residency cost (migrating back to the
  // enclosing frame's object).
  virtual void OnInvokeExit(Time when, NodeId node, ThreadId thread, Duration span, bool remote,
                            Duration exit_overhead) {}

  // --- Contention events -----------------------------------------------------
  // `lock` is a small dense id assigned in first-contention order (stable
  // across identical runs, unlike pointers).
  virtual void OnLockBlocked(Time when, NodeId node, ThreadId thread, int lock) {}
  virtual void OnLockAcquired(Time when, NodeId node, ThreadId thread, int lock,
                              Duration wait) {}
  virtual void OnLockReleased(Time when, NodeId node, ThreadId thread, int lock,
                              Duration held) {}
  virtual void OnConditionWake(Time when, NodeId node, int condition, int woken) {}
  virtual void OnBarrierWait(Time when, NodeId node, ThreadId thread) {}
  // A request of `bytes` left `src` for `dst` at `depart` (first attempt);
  // `id` pairs it with its response and `requester` is the thread blocked
  // for the reply.
  virtual void OnRpcRequest(Time depart, NodeId src, NodeId dst, int64_t bytes, uint64_t id,
                            ThreadId requester) {}
  // The service at `src` ran at `when` and produced a `bytes` reply that
  // reaches the requester at `dst` at `reply_arrive`.
  virtual void OnRpcResponse(Time when, Time reply_arrive, NodeId src, NodeId dst, int64_t bytes,
                             uint64_t id) {}

  // --- Fault events (emitted only in fault-injected runs) --------------------
  // `reason` is one of "lossy", "partition", "node_down".
  virtual void OnMessageDropped(Time when, NodeId src, NodeId dst, int64_t bytes,
                                const char* reason) {}
  virtual void OnMessageDuplicated(Time when, NodeId src, NodeId dst, int64_t bytes) {}
  virtual void OnMessageDelayed(Time when, NodeId src, NodeId dst, Duration extra) {}
  virtual void OnNodeCrash(Time when, NodeId node) {}
  virtual void OnNodeRestart(Time when, NodeId node) {}
  // `attempt` is the 1-based retransmission count of rpc `id`.
  virtual void OnRpcRetry(Time when, NodeId src, NodeId dst, uint64_t id, int attempt,
                          ThreadId requester) {}
  virtual void OnRpcTimeout(Time when, NodeId src, NodeId dst, uint64_t id, int attempts,
                            ThreadId requester) {}
  // `thread` is about to back off for `backoff` before re-probing an
  // unreachable object / unacked transfer (failure-handler kRetry path and
  // move-ack timeouts) — blocked time that is the fault's fault, not the
  // network's.
  virtual void OnFailureBackoff(Time when, NodeId node, ThreadId thread, Duration backoff) {}
  // `thread` found `obj` (ObjectHeader::seq `seq`) unreachable on node `dead`.
  virtual void OnObjectUnreachable(Time when, NodeId node, ThreadId thread, const void* obj,
                                   uint64_t seq, NodeId dead) {}

  // --- Membership / recovery events (fault-injected runs only) ---------------
  // `by`'s heartbeat lease on `node` expired (OnNodeSuspected) or a
  // heartbeat from a suspected node arrived again (OnNodeTrusted). Protocol
  // opinions, not ground truth — tests grade them against the injector.
  virtual void OnNodeSuspected(Time when, NodeId by, NodeId node) {}
  virtual void OnNodeTrusted(Time when, NodeId by, NodeId node) {}
  // `thread` started / finished a recovery episode for `obj` (replica
  // re-bind or checkpoint restore). The critical-path profiler tiles the
  // enclosed waiting into its `recovery` category.
  virtual void OnRecoveryStart(Time when, NodeId node, ThreadId thread, const void* obj) {}
  virtual void OnRecoveryEnd(Time when, NodeId node, ThreadId thread, const void* obj,
                             bool ok) {}
  // `obj` was re-homed from dead node `from` to `to`: an immutable object
  // re-bound to a surviving replica (from_checkpoint=false) or a mutable
  // object restored from its buddy checkpoint (from_checkpoint=true).
  virtual void OnObjectRecovered(Time when, const void* obj, NodeId from, NodeId to,
                                 bool from_checkpoint) {}
  // A checkpoint of `obj`, `bytes` on the wire, reached its buddy node.
  virtual void OnCheckpoint(Time when, const void* obj, NodeId buddy, int64_t bytes) {}
  // DrainNode finished evacuating `node`.
  virtual void OnNodeDrained(Time when, NodeId node, int objects_moved) {}

  // --- Placement-policy events (runs with a PlacementHook attached only) -----
  // The runtime moved `obj` (an attach-group root) from `from` to `to` on
  // behalf of the placement policy — a pull issued on the invocation path.
  // `ok` is whether the move landed; `cost` the virtual time the issuing
  // thread spent on it (the migration bill the profiler attributes).
  virtual void OnPolicyMigration(Time when, const void* obj, NodeId from, NodeId to, bool ok,
                                 Duration cost) {}
};

}  // namespace amber

#endif  // AMBER_SRC_SIM_OBSERVER_H_
