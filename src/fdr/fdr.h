// Flight data recorder: the one full-bus recording of an Amber run.
//
// A fdr::Recorder subscribes to the amber::RuntimeObserver bus and encodes
// *every* event — scheduler, invocation, lock, RPC, migration, fault,
// membership, recovery — into per-node rings of compact 64-byte binary
// records (O(1) append). A bounded ring reserves its capacity up front, so
// steady-state appends never allocate, and an overwritten record counts as
// dropped; a ring created with kKeepAll keeps every record, which is how
// trace::Tracer renders whole-run traces from the same records. Labels (an
// invocation's object type, a drop's reason) are interned once and stored
// per record as a 32-bit id. Alongside the rings the recorder maintains a
// small live-state model fed by the same events: what each thread is doing
// and what it is blocked on, who holds and who waits on every lock, which
// reliable roundtrips are in flight and how many times they have been
// retransmitted, which objects were touched recently, and each node's
// suspicion view.
//
// On amber::Panic (failed AMBER_CHECK included), on injected-fault
// divergence, or on an explicit Runtime::DumpBlackBox(path), WriteDump
// renders everything as a deterministic FDR_<name>.json document: the
// causally-merged (virtual-clock-ordered) last-K events per node, the
// per-thread state at time of death, in-flight RPCs with retry counts, held
// locks, descriptor forwarding chains of the recently-touched objects, the
// authoritative kernel fiber snapshot, and per-node Membership::Suspects()
// views. All values are dense ids and integer nanoseconds — two same-seed
// runs dump byte-identical documents. Render a human report from the dump
// with the amber-fdr CLI (src/apps/fdr).
//
// Contract: the recorder is an observer-only tap. Attaching it changes no
// virtual time and no existing output; detaching leaves the binary
// behaviour untouched (tests/fdr_test.cc asserts both).
//
// Usage:
//   fdr::Recorder rec({.name = "chaos"});
//   rec.AttachTo(rt);            // observer fan-out + panic hook
//   rt.Run(...);                 // any Panic now flushes FDR_chaos.json
//   rt.DumpBlackBox("FDR_chaos.json");   // or flush explicitly

#ifndef AMBER_SRC_FDR_FDR_H_
#define AMBER_SRC_FDR_FDR_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/id_table.h"
#include "src/core/runtime.h"

namespace fdr {

using amber::Duration;
using amber::NodeId;
using amber::ThreadId;
using amber::Time;

struct Config {
  std::string name = "amber";   // dump stem: panic dumps go to FDR_<name>.json
  size_t ring_capacity = 4096;  // records retained per node (the last-K window)
  size_t dump_objects = 32;     // most-recently-touched objects dumped with chains
};

// ring_capacity that keeps every record: the rings grow and never wrap.
inline constexpr size_t kKeepAll = std::numeric_limits<size_t>::max();

// Every bus event maps to one record type. The numeric values are part of
// the (versioned) dump schema only through their names — renderers must
// switch on the "type" strings in the JSON, never on these ordinals.
enum class EventType : uint8_t {
  kThreadCreate,
  kThreadDispatch,
  kThreadBlock,
  kThreadUnblock,
  kThreadPreempt,
  kThreadExit,
  kThreadJoin,
  kThreadMigrate,
  kInvokeEnter,
  kInvokeExit,
  kLockBlocked,
  kLockAcquired,
  kLockReleased,
  kConditionWake,
  kRpcRequest,
  kRpcResponse,
  kRpcRetry,
  kRpcTimeout,
  kObjectMove,
  kReplicaInstall,
  kMessage,
  kMessageDropped,
  kMessageDuplicated,
  kMessageDelayed,
  kNodeCrash,
  kNodeRestart,
  kFailureBackoff,
  kNodeSuspected,
  kNodeTrusted,
  kRecoveryStart,
  kRecoveryEnd,
  kObjectRecovered,
  kNodeDrained,
  kPolicyMigration,
};

// One bus event in the compact binary encoding. `a`, `b`, `c` and `aux`
// carry per-type arguments (see RenderEvent in fdr.cc for the decoding
// table). `label` names an interned string (Recorder::Label): the invoked
// object's type on invoke_enter, the reason on message_dropped, else 0 ("").
// `seq` is the global append order — the causal merge key across rings
// (events are emitted at ordered points, so append order *is* the
// virtual-time order).
struct Record {
  Time when = 0;
  uint64_t seq = 0;
  int64_t a = 0;
  int64_t b = 0;
  int64_t c = 0;
  uint64_t span = 0;  // active rtrace span of the acting thread (0 = untraced)
  int32_t aux = 0;
  uint32_t label = 0;
  EventType type = EventType::kThreadCreate;
  uint8_t flag = 0;  // small per-type flag: remote / ok / from_checkpoint
  int16_t node = 0;
};
static_assert(sizeof(Record) == 64, "compact record layout");

class Recorder : public amber::BlackBox {
 public:
  explicit Recorder(Config config = {});

  // Sizes one ring per node and registers with the runtime: observer
  // fan-out (AddObserver semantics — zero virtual-time cost) plus the
  // panic hook via Runtime::SetBlackBox. Call before Run(). The recorder
  // must outlive the runtime or be detached with rt.SetBlackBox(nullptr).
  void AttachTo(amber::Runtime& rt);

  // --- Volume counters --------------------------------------------------------
  int64_t recorded() const;  // records appended across all rings
  int64_t dropped() const;   // records overwritten before being dumped

  // Joins records to request traces (src/rtrace): `source(thread)` returns
  // the thread's active span id, 0 when untraced. Thread-scoped records
  // (invoke, lock, rpc, migration, backoff) are stamped with it at append
  // time and dump a "span" field when nonzero — with no source set (or an
  // unsampled run) every record stamps 0 and the dump is byte-identical to
  // the pre-span schema.
  void SetSpanSource(std::function<uint64_t(ThreadId)> source) {
    span_source_ = std::move(source);
  }

  // --- amber::BlackBox --------------------------------------------------------
  void WriteDump(std::ostream& out, const std::string& reason,
                 const std::string& detail) override;
  const std::string& name() const override { return config_.name; }
  void PublishMetrics(metrics::Registry* registry) override;

  const Config& config() const { return config_; }

  // --- The records --------------------------------------------------------------
  // fn(record) for every retained record of every ring, in `seq` order.
  void ForEachRecord(const std::function<void(const Record&)>& fn) const;
  // The interned string a record's `label` names.
  const std::string& Label(uint32_t id) const { return *labels_[id]; }
  // The name `thread` was created with; nullptr when its creation was not
  // recorded.
  const std::string* CreatedName(ThreadId thread) const;

  // --- amber::RuntimeObserver -------------------------------------------------
  void OnThreadMigrate(Time when, NodeId src, NodeId dst, ThreadId thread,
                       int64_t bytes) override;
  void OnObjectMove(Time when, const void* obj, NodeId src, NodeId dst, int64_t bytes) override;
  void OnReplicaInstall(Time when, const void* obj, NodeId node) override;
  void OnMessage(Time depart, Time arrive, NodeId src, NodeId dst, int64_t bytes) override;
  void OnThreadCreate(Time when, NodeId node, ThreadId thread, const std::string& name,
                      ThreadId parent) override;
  void OnThreadDispatch(Time when, NodeId node, ThreadId thread, Duration queue_wait) override;
  void OnThreadBlock(Time when, NodeId node, ThreadId thread) override;
  void OnThreadUnblock(Time when, NodeId node, ThreadId thread, ThreadId waker,
                       Time wake_time) override;
  void OnThreadPreempt(Time when, NodeId node, ThreadId thread) override;
  void OnThreadExit(Time when, NodeId node, ThreadId thread) override;
  void OnThreadJoin(Time when, NodeId node, ThreadId thread, ThreadId target) override;
  void OnInvokeEnter(Time when, NodeId node, ThreadId thread, const void* obj,
                     const std::string& object, bool remote, NodeId origin,
                     Duration entry_overhead) override;
  void OnInvokeExit(Time when, NodeId node, ThreadId thread, Duration span, bool remote,
                    Duration exit_overhead) override;
  void OnLockBlocked(Time when, NodeId node, ThreadId thread, int lock) override;
  void OnLockAcquired(Time when, NodeId node, ThreadId thread, int lock, Duration wait) override;
  void OnLockReleased(Time when, NodeId node, ThreadId thread, int lock, Duration held) override;
  void OnConditionWake(Time when, NodeId node, int condition, int woken) override;
  void OnRpcRequest(Time depart, NodeId src, NodeId dst, int64_t bytes, uint64_t id,
                    ThreadId requester) override;
  void OnRpcResponse(Time when, Time reply_arrive, NodeId src, NodeId dst, int64_t bytes,
                     uint64_t id) override;
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
  void OnFailureBackoff(Time when, NodeId node, ThreadId thread, Duration backoff) override;
  void OnNodeSuspected(Time when, NodeId by, NodeId node) override;
  void OnNodeTrusted(Time when, NodeId by, NodeId node) override;
  void OnRecoveryStart(Time when, NodeId node, ThreadId thread, const void* obj) override;
  void OnRecoveryEnd(Time when, NodeId node, ThreadId thread, const void* obj, bool ok) override;
  void OnObjectRecovered(Time when, const void* obj, NodeId from, NodeId to,
                         bool from_checkpoint) override;
  void OnNodeDrained(Time when, NodeId node, int objects_moved) override;
  void OnPolicyMigration(Time when, const void* obj, NodeId from, NodeId to, bool ok,
                         Duration cost) override;

 private:
  struct Ring {
    // Grows by push_back up to the capacity, then wraps; buf.size() records
    // are retained.
    std::vector<Record> buf;
    uint64_t appended = 0;
    // Marks for delta publication of fdr.recorded / fdr.dropped.
    uint64_t published_recorded = 0;
    uint64_t published_dropped = 0;
  };

  // --- Live state at time of death -------------------------------------------
  enum class Status : uint8_t { kReady, kRunning, kBlocked, kExited };
  enum class WaitKind : uint8_t { kNone, kLock, kRpc, kJoin, kMigration, kBackoff };

  struct ThreadLive {
    std::string name;
    ThreadId parent = 0;
    NodeId node = 0;
    Status status = Status::kReady;
    bool created = false;  // OnThreadCreate was recorded (names may be "")
    Time since = 0;  // last status change
    // Active wait (valid while blocked) and the armed marker that becomes
    // it at the next OnThreadBlock — same fiber-context marker protocol as
    // the profiler's cause resolution.
    WaitKind wait = WaitKind::kNone;
    int64_t wait_arg = 0;    // lock id / rpc id / join target / dst node
    NodeId wait_node = -1;   // rpc dst / migration dst
    WaitKind pending = WaitKind::kNone;
    int64_t pending_arg = 0;
    NodeId pending_node = -1;
    bool in_recovery = false;  // level-triggered recovery episode
    std::vector<int> held_locks;  // acquisition order
    std::vector<int> stack;       // object ids of open invocation frames
  };

  struct LockLive {
    ThreadId holder = 0;  // 0 = free
    std::vector<ThreadId> waiters;
  };

  struct RpcLive {
    NodeId src = 0;
    NodeId dst = 0;
    int64_t bytes = 0;
    ThreadId requester = 0;
    Time depart = 0;
    int attempts = 1;  // transmissions so far
  };

  struct ObjectLive {
    uint32_t label = 0;  // first invocation label seen at this address
    NodeId node = -1;    // last known location
    Time last_touch = 0;
  };

  Ring& RingFor(NodeId node);
  void Append(EventType type, Time when, NodeId node, int64_t a = 0, int64_t b = 0,
              int64_t c = 0, int32_t aux = 0, uint8_t flag = 0, uint64_t span = 0,
              uint32_t label = 0);
  // Label ids: by the string's address first (Runtime::ObjectLabel hands
  // every observer one stable string per dynamic type, so the bytes are
  // hashed once per type, not once per invocation), else by its bytes.
  uint32_t InternLabel(const std::string& text);
  uint32_t InternBytes(const std::string& text);
  // The acting thread's active span id via the span source (0 without one).
  uint64_t SpanOf(ThreadId thread) const {
    return span_source_ && thread != 0 ? span_source_(thread) : 0;
  }
  ThreadLive& Thread(ThreadId tid);
  int ObjectId(const void* obj);
  void TouchObject(int id, NodeId node, Time when);
  void SetStatus(ThreadId tid, Status status, Time when);

  // Dump helpers (fdr.cc).
  void RenderEvent(std::ostream& out, const Record& r) const;

  Config config_;
  std::vector<Ring> rings_;
  Time last_time_ = 0;

  amber::IdTable<ThreadLive> threads_;  // by thread id (dense fiber ids)
  std::map<int, LockLive> locks_;
  std::map<uint64_t, RpcLive> rpcs_;
  std::map<NodeId, std::set<NodeId>> suspects_;  // viewer -> suspected peers
  std::set<NodeId> crashed_;
  std::unordered_map<const void*, int> obj_ids_;
  std::vector<ObjectLive> objects_;  // by dense id
  std::unordered_map<std::string, uint32_t> label_ids_;
  std::vector<const std::string*> labels_;  // by label id: keys of label_ids_
  std::unordered_map<const std::string*, uint32_t> label_at_;  // caller's string -> id
  uint64_t next_seq_ = 0;
  std::function<uint64_t(ThreadId)> span_source_;
};

}  // namespace fdr

#endif  // AMBER_SRC_FDR_FDR_H_
