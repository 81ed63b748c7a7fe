// Causal critical-path profiler and object placement advisor.
//
// The profiler subscribes to the amber::RuntimeObserver event bus and
// incrementally builds the run's blocking-dependency graph: every thread's
// lifetime is tiled into segments — runnable-but-queued, running, or blocked
// with a *cause* (waiting for a lock held elsewhere, waiting for an RPC
// served by node N including retry/timeout episodes, in migration transit,
// fault-induced backoff, or a generic wake by another thread). Causes are
// resolved from fiber-context markers that the runtime emits before each
// block (OnLockBlocked, OnThreadJoin, OnRpcRequest, OnFailureBackoff,
// OnThreadMigrate) plus the waker identity carried on OnThreadUnblock.
//
// Finalize() extracts the virtual-time critical path: a backward walk from
// the last thread exit that, at every blocked segment, either attributes the
// wait in place (lock contention, RPC service, migration transit, fault
// backoff) or jumps to the thread that caused the wake (join targets,
// condition/barrier signalers) at the wake time. Every nanosecond of the
// run lands in exactly one category — the breakdown sums to the end-to-end
// virtual time by construction:
//
//   compute.node<n>   executing on a processor of node n
//   queue.node<n>     runnable, waiting for a free processor of node n
//   lock.<l>          blocked on lock l held by another thread
//   rpc.node<n>       waiting for an RPC served by node n
//   rpc.net           waiting on the wire (messages, unpaired waits)
//   migration         thread in migration transit
//   fault             retry backoff / fault-induced waiting
//   recovery          crash-recovery episodes: replica re-bind probes and
//                     checkpoint restores (OnRecoveryStart/End brackets)
//
// The placement advisor aggregates per-object invocation flow (who calls
// each object from where, and how much entry/exit overhead — residency
// chases, thread migration — each remote call pays) and per-lock wait/hold
// totals, then emits ranked advice: "obj-3 lives on node 0 but 83% of
// remote-invocation overhead originates on node 2; MoveTo(2) est. saving
// 1.2 ms".
//
// Determinism: all aggregation is keyed by dense ids (thread ids, first-seen
// object order, lock ids) and all report values are integer nanoseconds, so
// WriteJson output is byte-identical across identical runs. Attach with
// Runtime::AddObserver(&profiler) — alongside a tracer if desired — before
// Run(), and call Finalize() after.

#ifndef AMBER_SRC_PROF_PROFILER_H_
#define AMBER_SRC_PROF_PROFILER_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "src/base/id_table.h"
#include "src/core/runtime.h"

namespace prof {

using amber::Duration;
using amber::NodeId;
using amber::ThreadId;
using amber::Time;

// One attributed stretch of the critical path (adjacent equal categories are
// merged; listed in start -> end order).
struct PathStep {
  std::string category;
  Time ns = 0;
};

// Per-object invocation flow, fed to the placement advisor.
struct ObjectProfile {
  int id = 0;          // dense first-seen order (deterministic)
  std::string label;   // demangled class name + instance ordinal
  NodeId home = 0;     // node of residence at the end of the run
  int64_t moves = 0;
  int64_t invocations = 0;
  int64_t remote_invocations = 0;
  std::map<NodeId, int64_t> calls_by_origin;
  // Entry + exit overhead (residency chase, migration, return travel) paid
  // by remote invocations, bucketed by the calling thread's origin node.
  std::map<NodeId, Time> overhead_by_origin;
};

// Per-lock contention totals; critical_path_ns is filled by Finalize().
struct LockProfile {
  int id = 0;
  int64_t acquisitions = 0;
  Time wait_ns = 0;
  Time hold_ns = 0;
  Time max_wait_ns = 0;
  Time critical_path_ns = 0;
};

// One ranked recommendation. kind is "move" (object placement) or "lock"
// (contention hot spot); est_saving_ns orders the list.
struct Advice {
  std::string kind;
  int target = 0;  // object id (move) or lock id (lock)
  std::string label;
  NodeId from = 0;
  NodeId to = 0;
  Time est_saving_ns = 0;
  std::string text;
};

struct ProfileReport {
  std::string name;  // scenario/bench name, set by the caller
  Time total_ns = 0;
  // category -> attributed ns; the values sum exactly to total_ns.
  std::map<std::string, Time> breakdown;
  std::vector<PathStep> critical_path;
  std::vector<ObjectProfile> objects;  // ordered by id
  std::vector<LockProfile> locks;      // ordered by id
  std::vector<Advice> advice;          // best saving first

  // Machine-readable report. Integer-only values and deterministic key
  // order: byte-identical across identical (same-seed) runs.
  void WriteJson(std::ostream& out) const;

  // Human-readable summary (totals, attribution table, top locks, advice).
  void WriteSummary(std::ostream& out) const;
};

class Profiler : public amber::RuntimeObserver {
 public:
  // --- RuntimeObserver --------------------------------------------------------
  void OnThreadCreate(Time when, NodeId node, ThreadId thread, const std::string& name,
                      ThreadId parent) override;
  void OnThreadDispatch(Time when, NodeId node, ThreadId thread, Duration queue_wait) override;
  void OnThreadBlock(Time when, NodeId node, ThreadId thread) override;
  void OnThreadUnblock(Time when, NodeId node, ThreadId thread, ThreadId waker,
                       Time wake_time) override;
  void OnThreadPreempt(Time when, NodeId node, ThreadId thread) override;
  void OnThreadExit(Time when, NodeId node, ThreadId thread) override;
  void OnThreadJoin(Time when, NodeId node, ThreadId thread, ThreadId target) override;
  void OnThreadMigrate(Time when, NodeId src, NodeId dst, ThreadId thread,
                       int64_t bytes) override;

  void OnInvokeEnter(Time when, NodeId node, ThreadId thread, const void* obj,
                     const std::string& object, bool remote, NodeId origin,
                     Duration entry_overhead) override;
  void OnInvokeExit(Time when, NodeId node, ThreadId thread, Duration span, bool remote,
                    Duration exit_overhead) override;

  void OnLockBlocked(Time when, NodeId node, ThreadId thread, int lock) override;
  void OnLockAcquired(Time when, NodeId node, ThreadId thread, int lock, Duration wait) override;
  void OnLockReleased(Time when, NodeId node, ThreadId thread, int lock, Duration held) override;

  void OnRpcRequest(Time depart, NodeId src, NodeId dst, int64_t bytes, uint64_t id,
                    ThreadId requester) override;
  void OnRpcResponse(Time when, Time reply_arrive, NodeId src, NodeId dst, int64_t bytes,
                     uint64_t id) override;
  void OnRpcRetry(Time when, NodeId src, NodeId dst, uint64_t id, int attempt,
                  ThreadId requester) override;
  void OnRpcTimeout(Time when, NodeId src, NodeId dst, uint64_t id, int attempts,
                    ThreadId requester) override;
  void OnFailureBackoff(Time when, NodeId node, ThreadId thread, Duration backoff) override;
  void OnRecoveryStart(Time when, NodeId node, ThreadId thread, const void* obj) override;
  void OnRecoveryEnd(Time when, NodeId node, ThreadId thread, const void* obj, bool ok) override;

  void OnObjectMove(Time when, const void* obj, NodeId src, NodeId dst, int64_t bytes) override;
  void OnMessage(Time depart, Time arrive, NodeId src, NodeId dst, int64_t bytes) override;

  // --- Extraction -------------------------------------------------------------

  // Closes open segments, walks the dependency graph backward from the last
  // exit, and builds the report. Call once, after Runtime::Run() returns.
  ProfileReport Finalize();

  // Forgets everything recorded so far (for back-to-back runs).
  void Reset();

 private:
  enum class SegKind : uint8_t { kQueued, kRunning, kBlocked };
  enum class Cause : uint8_t {
    kNone,
    kLock,
    kRpc,
    kJoin,
    kMigration,
    kFault,
    kWake,
    kNet,
    kRecovery,
  };

  struct Segment {
    Time start = 0;
    Time end = 0;
    SegKind kind = SegKind::kQueued;
    Cause cause = Cause::kNone;
    NodeId node = 0;
    int aux = 0;         // lock id (kLock) or serving node (kRpc)
    ThreadId other = 0;  // join target (kJoin) or waker (kWake)
    Time wake_time = 0;  // when the waker called Wake (kWake / kJoin)
  };

  enum class Status : uint8_t { kReady, kRunning, kBlocked, kExited };

  struct ThreadState {
    std::string name;
    ThreadId parent = 0;
    Time create_time = 0;
    Time exit_time = 0;
    int64_t exit_seq = -1;  // -1: has not exited
    NodeId node = 0;
    Status status = Status::kReady;
    Time cursor = 0;  // start of the currently open segment
    std::vector<Segment> segs;
    int last_blocked = -1;  // index of the most recently closed blocked seg

    // Cause markers armed from fiber context before the next block.
    int pending_lock = -1;
    ThreadId pending_join = 0;
    bool pending_migrate = false;
    bool pending_backoff = false;
    // Level-triggered (not one-shot like the others): every block between
    // OnRecoveryStart and OnRecoveryEnd belongs to the recovery episode.
    bool in_recovery = false;
    bool rpc_armed = false;
    bool rpc_replied = false;
    NodeId rpc_dst = 0;

    // Open invocation frames: {object id, origin node, remote}.
    struct Frame {
      int obj = 0;
      NodeId origin = 0;
      bool remote = false;
    };
    std::vector<Frame> frames;
  };

  struct ObjectAgg {
    std::string label;
    NodeId home = 0;
    int64_t moves = 0;
    int64_t invocations = 0;
    int64_t remote_invocations = 0;
    std::map<NodeId, int64_t> calls_by_origin;
    std::map<NodeId, Time> overhead_by_origin;
  };

  struct LockAgg {
    int64_t acquisitions = 0;
    Time wait_ns = 0;
    Time hold_ns = 0;
    Time max_wait_ns = 0;
  };

  ThreadState& Ensure(ThreadId tid, Time when);
  void CloseSegment(ThreadState& st, Time when, SegKind kind, Cause cause, NodeId node,
                    int aux = 0, ThreadId other = 0, Time wake_time = 0);
  // Resolves the armed cause markers for a block that ends at `when`.
  void CloseBlocked(ThreadState& st, ThreadId tid, Time when, NodeId node, ThreadId waker,
                    Time wake_time);
  int ObjectId(const void* obj);
  // Index of the segment containing t (start < t <= end), or the last
  // segment before t (gap), or -1 if t is at/before the first segment.
  int SegmentBefore(const ThreadState& st, Time t) const;

  amber::IdTable<ThreadState> threads_;  // by thread id (dense fiber ids)
  std::map<const void*, int> obj_ids_;
  std::vector<ObjectAgg> objects_;      // by dense id
  std::map<int, LockAgg> locks_;        // by lock id
  std::map<uint64_t, ThreadId> rpc_requester_;  // rpc id -> blocked thread
  Time last_time_ = 0;
  int64_t exit_counter_ = 0;
};

}  // namespace prof

#endif  // AMBER_SRC_PROF_PROFILER_H_
