// Execution tracing.
//
// Records the runtime's full event bus — distribution events (thread
// migrations, object moves, replica installs, network messages), scheduler
// events (create/dispatch/block/unblock/preempt/exit), invocation spans and
// contention events — with virtual timestamps, and renders them as
// chrome://tracing JSON (load in https://ui.perfetto.dev) or as a plain-text
// log. Deterministic runs produce byte-identical traces, so traces diff
// cleanly across changes.
//
// Thread identity arrives as a stable integer id (amber::ThreadId); the
// tracer learns each id's name once from OnThreadCreate and keeps an
// id -> name side table, so recording an event never allocates for the
// thread name. Renderers resolve names at write time.
//
// Events are recorded in delivery order. Distribution events are globally
// nondecreasing in time; scheduler/invocation/contention events can run a
// context-switch ahead of the event clock (fiber-context emission), so
// renderers sort by timestamp before writing.
//
// The Chrome renderer emits:
//   * "X" duration spans for invocations (tid = thread), thread-running
//     intervals (tid = "<thread> (cpu)"), network messages and RPC
//     roundtrips;
//   * "s"/"f" flow arrows connecting a migration departure to the arrival
//     on the destination node, and an RPC request to its service;
//   * instants for moves, replica installs and lock/condition activity;
//   * process_name metadata naming each node.
//
// Attach with Runtime::AddObserver(&tracer), alone or alongside other
// observers, before Run().

#ifndef AMBER_SRC_TRACE_TRACE_H_
#define AMBER_SRC_TRACE_TRACE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/runtime.h"

namespace trace {

using amber::Duration;
using amber::NodeId;
using amber::ThreadId;
using amber::Time;

enum class EventKind : uint8_t {
  // Distribution events (globally time-ordered).
  kThreadMigrate,
  kObjectMove,
  kReplicaInstall,
  kMessage,
  // Scheduler events.
  kThreadCreate,
  kThreadDispatch,
  kThreadBlock,
  kThreadUnblock,
  kThreadPreempt,
  kThreadExit,
  // Invocation spans.
  kInvokeEnter,
  kInvokeExit,
  // Contention events.
  kLockBlocked,
  kLockAcquired,
  kLockReleased,
  kConditionWake,
  kRpcRequest,
  kRpcResponse,
  // Fault-injection events (src/fault).
  kMessageDrop,
  kMessageDup,
  kMessageDelay,
  kNodeCrash,
  kNodeRestart,
  kRpcRetry,
  kRpcTimeout,
};

// True for the four kinds whose recording order is globally nondecreasing
// in virtual time.
bool IsDistributionEvent(EventKind kind);

struct Event {
  EventKind kind = EventKind::kMessage;
  Time when = 0;
  Time arrive = 0;      // messages: delivery time; rpc response: reply arrival
  NodeId src = 0;       // node for single-node events
  NodeId dst = 0;
  int64_t bytes = 0;
  Duration dur = 0;     // invoke span, dispatch queue-wait, lock wait/hold
  int64_t value = 0;    // lock/condition id, wakeup count, rpc id
  ThreadId tid = 0;     // acting thread (0 = none / event context)
  bool remote = false;  // invocation required a migration
  std::string label;    // object label or drop reason (thread names live in
                        // the tracer's id -> name table, resolved at render)
};

class Tracer : public amber::RuntimeObserver {
 public:
  // --- RuntimeObserver: distribution ----------------------------------------
  void OnThreadMigrate(Time when, NodeId src, NodeId dst, ThreadId thread,
                       int64_t bytes) override;
  void OnObjectMove(Time when, const void* obj, NodeId src, NodeId dst, int64_t bytes) override;
  void OnReplicaInstall(Time when, const void* obj, NodeId node) override;
  void OnMessage(Time depart, Time arrive, NodeId src, NodeId dst, int64_t bytes) override;

  // --- RuntimeObserver: scheduler -------------------------------------------
  void OnThreadCreate(Time when, NodeId node, ThreadId thread, const std::string& name,
                      ThreadId parent) override;
  void OnThreadDispatch(Time when, NodeId node, ThreadId thread, Duration queue_wait) override;
  void OnThreadBlock(Time when, NodeId node, ThreadId thread) override;
  void OnThreadUnblock(Time when, NodeId node, ThreadId thread, ThreadId waker,
                       Time wake_time) override;
  void OnThreadPreempt(Time when, NodeId node, ThreadId thread) override;
  void OnThreadExit(Time when, NodeId node, ThreadId thread) override;

  // --- RuntimeObserver: invocation spans ------------------------------------
  void OnInvokeEnter(Time when, NodeId node, ThreadId thread, const void* obj,
                     const std::string& object, bool remote, NodeId origin,
                     Duration entry_overhead) override;
  void OnInvokeExit(Time when, NodeId node, ThreadId thread, Duration span, bool remote,
                    Duration exit_overhead) override;

  // --- RuntimeObserver: contention ------------------------------------------
  void OnLockBlocked(Time when, NodeId node, ThreadId thread, int lock) override;
  void OnLockAcquired(Time when, NodeId node, ThreadId thread, int lock,
                      Duration wait) override;
  void OnLockReleased(Time when, NodeId node, ThreadId thread, int lock,
                      Duration held) override;
  void OnConditionWake(Time when, NodeId node, int condition, int woken) override;
  void OnRpcRequest(Time depart, NodeId src, NodeId dst, int64_t bytes, uint64_t id,
                    ThreadId requester) override;
  void OnRpcResponse(Time when, Time reply_arrive, NodeId src, NodeId dst, int64_t bytes,
                     uint64_t id) override;

  // --- RuntimeObserver: fault injection -------------------------------------
  void OnMessageDropped(Time when, NodeId src, NodeId dst, int64_t bytes,
                        const char* reason) override;
  void OnMessageDuplicated(Time when, NodeId src, NodeId dst, int64_t bytes) override;
  void OnMessageDelayed(Time when, NodeId src, NodeId dst, Duration extra) override;
  void OnNodeCrash(Time when, NodeId node) override;
  void OnNodeRestart(Time when, NodeId node) override;
  void OnRpcRetry(Time when, NodeId src, NodeId dst, uint64_t id, int attempt,
                  ThreadId requester) override;
  void OnRpcTimeout(Time when, NodeId src, NodeId dst, uint64_t id, int attempts,
                    ThreadId requester) override;

  // --- Access / rendering ------------------------------------------------------

  const std::vector<Event>& events() const { return events_; }
  size_t size() const { return events_.size(); }
  void Clear() {
    events_.clear();
    obj_ids_.clear();
    thread_names_.clear();
  }

  // Name recorded for a thread id ("t<id>" if its creation was not seen).
  std::string ThreadName(ThreadId tid) const;

  // chrome://tracing "trace event format" JSON; see the header comment for
  // the mapping. pid = node, tid = thread (or "net" / "rpc" rows).
  void WriteChromeTrace(std::ostream& out) const;

  // Plain-text timeline, one line per event.
  void WriteText(std::ostream& out) const;

 private:
  // Dense object label ("obj-N"), assigned in first-seen order so traces are
  // identical across runs (unlike pointer values).
  std::string ObjLabel(const void* obj);

  std::vector<Event> events_;
  std::unordered_map<const void*, int> obj_ids_;
  std::unordered_map<ThreadId, std::string> thread_names_;
};

}  // namespace trace

#endif  // AMBER_SRC_TRACE_TRACE_H_
