// Execution tracing.
//
// A Tracer is an fdr::Recorder that keeps every record (fdr::kKeepAll) and
// renders those records — distribution events (thread migrations, object
// moves, replica installs, network messages), scheduler events
// (create/dispatch/block/unblock/preempt/exit), invocation spans,
// contention events and injected faults — as chrome://tracing JSON (load
// in https://ui.perfetto.dev) or as a plain-text log. Deterministic runs
// produce byte-identical traces, so traces diff cleanly across changes.
//
// Records are walked in `seq` (delivery) order. Distribution events are
// globally nondecreasing in time; scheduler/invocation/contention events can
// run a context-switch ahead of the event clock (fiber-context emission), so
// the Chrome renderer sorts by timestamp before writing. Thread names come
// from the recorder's per-thread table at render time ("t<id>" if the
// thread's creation was not seen).
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
// observers, before Run(). A Tracer is an ordinary observer: it becomes the
// runtime's black box only if passed to Runtime::SetBlackBox.

#ifndef AMBER_SRC_TRACE_TRACE_H_
#define AMBER_SRC_TRACE_TRACE_H_

#include <cstddef>
#include <ostream>

#include "src/fdr/fdr.h"

namespace trace {

class Tracer : public fdr::Recorder {
 public:
  Tracer();

  // Number of recorded events of the kinds the renderers draw.
  size_t size() const;

  // chrome://tracing "trace event format" JSON; see the header comment for
  // the mapping. pid = node, tid = thread (or "net" / "rpc" rows).
  void WriteChromeTrace(std::ostream& out) const;

  // Plain-text timeline, one line per event.
  void WriteText(std::ostream& out) const;
};

}  // namespace trace

#endif  // AMBER_SRC_TRACE_TRACE_H_
