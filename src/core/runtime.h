// amber::Runtime — one simulated Amber machine: N multiprocessor nodes, the
// global object space, per-node descriptor tables and allocators, and the
// simulated interconnect.
//
// A Runtime is the unit of an experiment: construct one with a Config,
// call Run(main) — main executes as the program's initial thread on node 0 —
// and read the final virtual time and traffic statistics afterwards.
//
// The free-function programming surface (amber::New, Ref<T>::Call,
// amber::MoveTo, StartThread, ...) lives in amber.h / ref.h / thread.h and
// funnels into the protocol methods here.

#ifndef AMBER_SRC_CORE_RUNTIME_H_
#define AMBER_SRC_CORE_RUNTIME_H_

#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/time.h"
#include "src/core/status.h"
#include "src/fault/fault.h"
#include "src/fault/membership.h"
#include "src/kernel/descriptor_table.h"
#include "src/mem/address_space.h"
#include "src/mem/region_server.h"
#include "src/mem/segment_alloc.h"
#include "src/net/network.h"
#include "src/rpc/transport.h"
#include "src/sim/kernel.h"

namespace metrics {
class Registry;
}

namespace amber {

class Object;
class ThreadObject;

// A black-box flight recorder: an observer that can additionally render a
// post-mortem dump of everything it has retained. Register one with
// Runtime::SetBlackBox so the runtime can flush it on amber::Panic (failed
// AMBER_CHECK included) and on explicit Runtime::DumpBlackBox calls. The
// concrete implementation lives in src/fdr (fdr::Recorder); core only knows
// this interface.
class BlackBox : public RuntimeObserver {
 public:
  // Renders the dump document (FDR_<name>.json schema, docs/OBSERVABILITY.md).
  // `reason` is "panic", "explicit" or "divergence"; `detail` carries the
  // panic message (or caller-provided context). Runs at death time — it may
  // read the runtime through Runtime::CurrentOrNull() but must not touch
  // virtual time.
  virtual void WriteDump(std::ostream& out, const std::string& reason,
                         const std::string& detail) = 0;
  // Dump file stem: panic dumps go to FDR_<name>.json.
  virtual const std::string& name() const = 0;
  // Copies the recorder's volume counters (fdr.recorded / fdr.dropped) into
  // the registry; called when Run() publishes its totals.
  virtual void PublishMetrics(metrics::Registry* registry) {}
};

// The decision side of the adaptive-placement subsystem (src/policy). The
// runtime consults the hook on the invocation path: when a thread is about
// to invoke an object that is not resident here, ShouldPull may redirect
// the §3.5 protocol — instead of migrating the thread to the object, the
// runtime moves the object's attach-group root to the caller's node (a
// "pull"), and the residency check then finds it local. Decisions run at
// ordered points in fiber context, so enabled-policy runs stay
// deterministic; with no hook attached the invocation path is untouched.
class PlacementHook {
 public:
  virtual ~PlacementHook() = default;
  // `root` is the movable unit (the target's attach-group root), `target`
  // the invoked object whose heat the decision is about, `here` the calling
  // thread's node. Return true to pull root to `here` now, at the calling
  // thread's expense.
  virtual bool ShouldPull(const Object* root, const Object* target, NodeId here, Time now) = 0;
  // Outcome of a pull this hook requested (ok = the move landed).
  virtual void OnPullResult(const Object* root, NodeId here, bool ok) {}
  // Policy metrics (policy.heat and friends); called when Run() publishes
  // its totals, only while a registry is attached.
  virtual void PublishMetrics(metrics::Registry* registry) {}
  // The run is over: `end` is the final virtual time, and no further hook
  // calls will arrive. The hook outlives the runtime, so it must stop
  // consulting runtime-owned state (the kernel clock in particular) after
  // this — freeze anything needed for post-mortem export now.
  virtual void OnRunEnd(Time end) {}
};

// --- Failure-aware semantics ---------------------------------------------------
//
// When an invocation (or a context-switch-in residency check) cannot reach
// the target object — its node crashed, or a partition outlived the whole
// retransmission budget — the runtime consults the failure handler instead
// of hanging. kRetry backs off and re-chases (the node may restart or the
// partition heal); kRecover first attempts crash recovery (re-bind an
// immutable object to a surviving replica, or restore a SetRecoverable
// object from its buddy checkpoint — docs/FAULTS.md) and degrades to the
// kRetry backoff when the object is unrecoverable; kAbort (or no handler
// installed) panics with a typed diagnosis — a *detected* fail-stop, never
// a silent hang.

enum class FailureAction : uint8_t { kAbort, kRetry, kRecover };

struct FailureEvent {
  Status status = Status::kUnreachable;
  const void* object = nullptr;  // the object being chased (may be null)
  NodeId node = -1;              // the unreachable node
  int attempts = 0;              // consecutive failed repair rounds
};

using FailureHandler = std::function<FailureAction(const FailureEvent&)>;

// An invocation-stack frame: user code in this frame runs inside `object`
// (the primary), so the thread is *bound* to it (§3.5) until the frame pops.
struct Frame {
  Object* object;
  Time enter = 0;       // virtual time the invocation began (span start)
  bool remote = false;  // entry required a thread migration
};

class Runtime {
 public:
  struct Config {
    int nodes = 1;
    int procs_per_node = 1;
    sim::CostModel cost;
    net::Topology topology = net::Topology::kSharedBus;
    size_t arena_bytes = size_t{2} << 30;
    int initial_regions_per_node = 8;
    size_t stack_bytes = 64 * 1024;
  };

  explicit Runtime(const Config& config);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // The runtime owning the calling code. Exactly one Runtime exists at a
  // time (they represent whole machines).
  static Runtime& Current();
  static Runtime* CurrentOrNull();

  // Runs `main` as the program's initial thread on node 0; returns the final
  // virtual time after all threads finish and the event queue drains.
  Time Run(std::function<void()> main);

  // --- Invocation protocol (called by Ref<T>::Call and Join) ----------------

  // Entry half of an invocation: pushes the frame (before the residency
  // check, §3.5), charges the check, and migrates this thread to the
  // object's node if it is not resident here.
  void EnterInvocation(Object* primary, int64_t args_wire_bytes);

  // Return half: charges the return check, pops the frame, and migrates back
  // to the enclosing frame's object if that object is elsewhere.
  void ExitInvocation(int64_t result_wire_bytes);

  // --- Object lifecycle ------------------------------------------------------

  // Allocates an object segment on the current node (charges creation cost,
  // acquiring a fresh region from the address-space server if needed) and
  // arms construction bookkeeping; New<T> placement-constructs into it.
  void* AllocateObjectMemory(size_t size);
  void AbandonObjectMemory(void* p);  // constructor threw
  void FinishObjectConstruction(Object* obj);

  // Destroys a primary object (must be invoked where it is resident — the
  // call migrates there like any invocation). Runs the destructor and frees
  // the segment.
  void DeleteObject(Object* obj);

  // Called from Object's constructor to classify primary/member/stack-local.
  void OnObjectConstruct(Object* obj);
  void OnObjectDestruct(Object* obj);

  // --- Mobility (§2.3) --------------------------------------------------------

  // Moves obj (and its attachment closure, and lazily its bound threads) to
  // dst. Synchronous: returns when the object is installed. Moving an
  // immutable object installs a copy at dst instead (§2.3). Always kOk in
  // fault-free runs; under fault injection an unreachable owner or
  // destination surfaces as kUnreachable/kTimeout with the object left
  // consistent at its source.
  Status MoveTo(Object* obj, NodeId dst);

  // Current location of obj (follows and compacts the forwarding chain).
  NodeId Locate(Object* obj);

  // Attaches child to parent: child becomes co-located with parent (moving
  // it there now if needed) and moves whenever parent moves.
  void Attach(Object* child, Object* parent);
  void Unattach(Object* child);

  // Marks obj immutable: it will never be modified again; remote access
  // replicates instead of migrating.
  void MakeImmutable(Object* obj);

  // --- Crash recovery / planned shutdown (docs/FAULTS.md) --------------------

  // Opts a mutable, unattached primary into checkpoint/restore recovery:
  // an initial checkpoint ships to a buddy node now (fault-injected runs),
  // and every successful MoveTo / explicit CheckpointObject refreshes it.
  void SetRecoverable(Object* obj);

  // Checkpoints a recoverable object's bytes (AmberSaveState) to the lowest
  // non-suspected node other than its owner. Returns true when the transfer
  // was delivered; false (lost frame / no live buddy) means the previous
  // checkpoint — if any — remains the restore point. Inert without an
  // active fault plan (returns true, ships nothing).
  bool CheckpointObject(Object* obj);

  // Planned shutdown of `node`: moves every unattached mobile primary homed
  // there to the remaining non-suspected nodes round-robin (attach groups
  // move with their root; bound threads follow through the §3.5 residency
  // re-check). Immutable objects are re-homed to a live replica. Returns
  // the number of evacuated roots.
  int DrainNode(NodeId node);

  // --- Threads ---------------------------------------------------------------

  // Creates a thread object + stack + fiber on the current node running
  // `body` (already wrapped by StartThread to invoke the target operation).
  ThreadObject* CreateThread(std::function<void()> body, std::string name, int priority = 0);

  // Blocks until t finishes (call with the joiner's frame already on t).
  // Returns true when the join completed. With fail_aware set, a *lost*
  // thread (its node suspected down) returns false instead of consulting
  // the failure handler — the ThreadRef::TryJoin path.
  bool JoinWait(ThreadObject* t, bool fail_aware = false);

  ThreadObject* current_thread() const;

  // Installs a scheduling policy on a node (§2.1 replaceable scheduler).
  void SetScheduler(NodeId node, std::unique_ptr<sim::RunQueue> queue);

  // Attaches an observer (e.g. trace::Tracer) to the event bus that every
  // layer emits into (sim::Kernel::Emit). Events are delivered to every
  // attached observer in attachment order — the order is part of the
  // deterministic contract (two identical runs deliver the identical
  // sequence to each observer). May be called before Run() or from ordered
  // fiber code mid-run.
  void AddObserver(RuntimeObserver* observer);

  // Detaches one observer; the remaining observers' event streams are
  // unaffected (they keep receiving every event, in the same order as if
  // the removed one had never been attached). No-op if not attached.
  void RemoveObserver(RuntimeObserver* observer);

  // Attaches a metrics registry. An ordinary observer that this call adds
  // to the bus pre-registers and records every core metric family (see
  // docs/OBSERVABILITY.md for the catalogue) from the events, at its place
  // in attach order like any other, and publishes the scalar totals when
  // Run() finishes; the runtime records nothing inline. Only the network's
  // two per-link histograms are recorded where they happen (they need the
  // channel backlog). Call before Run(); nullptr detaches.
  void SetMetrics(metrics::Registry* registry);
  metrics::Registry* metrics() const;

  // Attaches a fault injector: hooks the network/kernel/transport and routes
  // fault events into the observer bus and the fault.* metrics. Call before
  // Run(); an injector with an empty plan changes nothing (every output stays
  // byte-identical). The injector must outlive the runtime.
  void SetFaultInjector(fault::Injector* injector);
  fault::Injector* fault_injector() const { return injector_; }

  // Installs the failure handler consulted when an object is unreachable
  // (see FailureHandler above). Default: none — unreachability panics.
  void SetFailureHandler(FailureHandler handler) { failure_handler_ = std::move(handler); }

  // Attaches a black-box flight recorder: the recorder joins the observer
  // fan-out (AddObserver — same zero-virtual-time tap), and a panic hook is
  // installed so any amber::Panic / failed AMBER_CHECK flushes it to
  // FDR_<name>.json before aborting (the path is printed by Panic). Pass
  // nullptr to detach (also uninstalls the hook). The recorder must outlive
  // the runtime or be detached first.
  void SetBlackBox(BlackBox* recorder);
  BlackBox* black_box() const { return blackbox_; }

  // Attaches the adaptive-placement decision hook (policy::PlacementPolicy
  // implements it). The hook is consulted on every invocation of a
  // non-resident object; see PlacementHook. It is *not* an observer — pair
  // it with AddObserver for event delivery (PlacementPolicy::AttachTo does
  // both). Call before Run(); nullptr detaches. With no hook attached the
  // invocation path is byte-identical to a policy-free runtime.
  void SetPlacementPolicy(PlacementHook* policy);
  PlacementHook* placement_policy() const { return policy_; }

  // Flushes the attached black box to `path` now ("explicit" reason) —
  // mid-run state capture without dying. Returns `path`, or "" when no
  // recorder is attached.
  std::string DumpBlackBox(const std::string& path);

  // Snapshot of every currently-held lock (instrumented runs only): dense
  // sync id (0 if the lock never produced an id-bearing event — i.e. was
  // never contended or released while observed), the holder's thread id,
  // and when the hold began. Sorted deterministically by (id, holder,
  // since); read-only — assigns no new ids. The black box dumps this as
  // ground truth, since uncontended acquires emit no observer event.
  struct HeldLock {
    int lock = 0;
    ThreadId holder = 0;
    Time since = 0;
  };
  std::vector<HeldLock> HeldLocks() const;

  // True when any observer (a metrics registry included) is attached;
  // instrumentation call sites outside the runtime (core/sync) gate on this.
  bool instrumented() const { return sim_->observed(); }

  // --- Contention instrumentation (called by core/sync; cheap no-ops
  // unless instrumented()) ----------------------------------------------------
  void NotifyLockBlocked(const void* lock);
  void NotifyLockAcquired(const void* lock, Duration wait);
  // Records that `lock` became held at `when` by `holder` (uncontended
  // acquire or FIFO handoff); NotifyLockReleased derives the hold time from
  // it, and HeldLocks() snapshots it for the black box.
  void NotifyLockHeldSince(const void* lock, Time when, ThreadObject* holder);
  void NotifyLockReleased(const void* lock);
  void NotifyConditionWake(const void* condition, int woken);

  // --- Time / work -------------------------------------------------------------

  // Consumes d of CPU on the current thread's processor (the application's
  // "computation"; subject to timeslicing and preemption).
  void Work(Duration d) { sim_->Charge(d); }

  NodeId here() const;
  Time now() const { return sim_->Now(); }
  int nodes() const { return sim_->nodes(); }
  int procs_per_node() const { return sim_->procs_per_node(); }

  // --- Plumbing / introspection --------------------------------------------------

  sim::Kernel& sim() { return *sim_; }
  net::Network& network() { return *net_; }
  rpc::Transport& transport() { return *rpc_; }
  // The heartbeat membership service; non-null only while a fault plan is
  // active (SetFaultInjector with a non-empty plan).
  fault::Membership* membership() { return membership_.get(); }
  const sim::CostModel& cost() const { return sim_->cost(); }
  DescriptorTable& table(NodeId node);
  mem::GlobalAddressSpace& address_space() { return *gas_; }
  mem::SegmentAllocator& allocator(NodeId node);

  // Where obj lives: its header's `owner`, the one record of residency.
  // Uncounted, so observers and tests can ask without moving lookup counts.
  NodeId OwnerOf(const Object* obj) const;

  // Checks: owners valid, no table stores residency, every forwarding chain
  // from an up node ends at the owner, no replica of a mutable object,
  // attachment groups co-located. Panics on violation.
  void ValidateLocationInvariants();

  // Sum of bytes of the attachment closure rooted at obj (move payload).
  int64_t ClosureBytes(Object* obj);

  int64_t objects_created() const { return objects_created_; }
  int64_t objects_moved() const { return objects_moved_; }
  int64_t replicas_installed() const { return replicas_installed_; }
  int64_t thread_migrations() const { return thread_migrations_; }
  int64_t forward_hops() const { return forward_hops_; }

  // Thread migrations from src to dst (for the cluster report).
  int64_t MigrationCount(NodeId src, NodeId dst) const {
    return migration_matrix_[static_cast<size_t>(src) * static_cast<size_t>(nodes()) +
                             static_cast<size_t>(dst)];
  }

 private:
  friend class Object;

  struct PendingAllocation {
    void* base;
    size_t size;
    Object* primary;  // first Object constructed at base
  };

  // Makes the calling thread co-resident with obj, following the forwarding
  // chain with thread hops (mutable) or replica fetches (immutable). Under
  // fault injection a hop into a dead node triggers chain repair (probe the
  // reachable nodes, re-aim the hint) and, when the object itself is
  // unreachable, the failure-handler contract.
  void EnsureResident(Object* obj, int64_t payload_bytes);

  // Resolves obj's current location with control-message roundtrips from the
  // current node, compacting stale hints along the way. Does not move the
  // calling thread. Returns kNoNode when the chain runs through an
  // unreachable node (fault-injected runs only).
  NodeId ResolveLocation(Object* obj);

  // `node`'s descriptor of obj: kResident where obj's `owner` is `node`, else
  // the node's table entry. Counts one descriptor lookup either way.
  Descriptor DescriptorAt(NodeId node, const Object* obj) const;

  // Probes every reachable node for obj's residency (its `owner`) — the
  // forwarding-chain repair path when a hint routes through a dead node.
  // Returns kNoNode if no reachable node holds the object right now.
  NodeId BroadcastLocate(Object* obj);

  // Consults the failure handler (see SetFailureHandler); panics on kAbort
  // or when none is installed. Returns after backoff (kRetry) or after a
  // recovery attempt (kRecover; an unrecoverable object degrades to the
  // kRetry backoff so the caller re-probes).
  void HandleUnreachable(Object* obj, NodeId node, int attempts);
  // Blocks the calling thread for `timeout` (a failure backoff or a lost
  // transfer's ack timer), announced as OnFailureBackoff.
  void BackOff(Duration timeout);
  // Whether `by`'s membership view suspects `peer` (false without an active
  // fault plan).
  bool Suspects(NodeId by, NodeId peer) const;
  // Reads `node`'s descriptor of obj into *out with a control roundtrip from
  // the calling thread; the reply carries `held_reply_bytes` more when the
  // node holds the bytes (resident or replica). False when `node` is
  // unreachable (fault-injected runs only).
  bool ProbeDescriptor(Object* obj, NodeId node, int64_t held_reply_bytes, Descriptor* out);

  // --- Crash recovery internals (docs/FAULTS.md) -----------------------------

  // kRecover dispatch: re-binds immutable obj to a surviving replica or
  // restores a checkpointed mutable obj on its buddy. Returns true when the
  // object has a live home afterwards.
  bool RecoverObject(Object* obj, NodeId dead);
  // Probes the non-suspected nodes in ascending order for a replica of
  // immutable obj; the lowest holder becomes the new home (deterministic
  // election — every recovering thread picks the same winner).
  bool RecoverImmutable(Object* obj, NodeId dead);
  // Restores obj's last checkpoint on its buddy node (idempotent: concurrent
  // recoverers agree because the restore service no-ops once obj left dead).
  bool RecoverMutable(Object* obj, NodeId dead);
  // Refreshes the buddy checkpoint after a successful move of a recoverable
  // object (quiescent point: the object just landed and is not mid-write).
  void MaybeRecheckpoint(Object* obj);
  // Membership suspicion/trust callbacks (virtual-time ordered): announce
  // the opinion on the bus and mark or revive lost threads.
  void OnPeerSuspected(Time when, NodeId by, NodeId peer);
  void OnPeerTrusted(Time when, NodeId by, NodeId peer);
  // Crash/restart hook from the injector (not the observability sink):
  // boot-time repair of the objects recovered away from a restarted node.
  void OnNodeEvent(Time when, NodeId node, bool up);

  // Fetches a replica of immutable obj from `from` (following the chain with
  // further roundtrips if stale) and installs it locally.
  Status FetchReplica(Object* obj, NodeId from);
  // Marks a replica of obj at `at`, copied from `source`, installed at `when`.
  void InstallReplica(Object* obj, NodeId at, NodeId source, Time when);

  // Migrates the calling thread to dst carrying its state + extra payload.
  // kUnreachable means the thread never left (descriptors reverted).
  Status TravelThread(NodeId dst, int64_t extra_bytes);

  // Executes the source side of a move at the owner == current node. On
  // failure the closure is reverted to the source. *moved=false with kOk
  // means a remote move took the object first and the caller should
  // re-resolve.
  Status MoveOutLocal(Object* obj, NodeId dst, bool* moved);
  // Asks `owner` to move obj to dst (source side runs there in event
  // context, latency model). *accepted=false with kOk means the object had
  // moved on and the caller should re-resolve.
  Status RequestRemoteMove(Object* obj, NodeId owner, NodeId dst, bool* accepted);
  // Owner side of a remote move (event context at `owner`): flips obj's
  // closure to dst, preempts the owner's processors, serializes, and sends
  // the tracked bulk transfer at now + setup + marshal + send software; a
  // lost transfer flips the closure back. Sets *bytes to the payload and
  // returns the outcome, its arrival advanced to the install time at dst.
  net::TxResult ShipClosure(Object* obj, NodeId owner, NodeId dst, int64_t* bytes);
  // Holder side of a remote replicate (event context at `holder`): copies
  // obj to dst at now + marshal + send software and installs the replica
  // if the copy arrives. Returns the outcome, arrival as in ShipClosure.
  net::TxResult ShipReplica(Object* obj, NodeId holder, NodeId dst);
  // Lossless protocols: wakes `requester` (blocked on `requester_node`) once
  // dst has installed at `installed` — directly when dst is the requester's
  // node, else when dst's ack frame arrives.
  void AckInstall(sim::Fiber* requester, NodeId requester_node, NodeId dst, Time installed);
  // Installs a replica of immutable obj at dst (MoveTo-on-immutable, §2.3).
  Status ReplicateTo(Object* obj, NodeId dst);
  // Entry wrapper for every thread fiber: root frame, body, joiner wakeup.
  void ThreadMain(ThreadObject* t);

  // Collects obj + transitive attachment children.
  void CollectClosure(Object* obj, std::vector<Object*>* out);

  // Moves one object's location from `from` to `to`: a forwarding hint at
  // `from`, `owner` set to `to`. A move flips this way at departure and a
  // lost transfer flips back.
  void FlipDescriptors(Object* o, NodeId from, NodeId to);
  // Flips a moving closure at an ordered point; returns total payload bytes.
  int64_t FlipDescriptorsForMove(const std::vector<Object*>& closure, NodeId src, NodeId dst);

  // Serializes closure contents and returns the checksum (real copy through
  // a wire buffer — the bulk-transfer marshal).
  uint64_t SerializeClosure(const std::vector<Object*>& closure);

  // Estimate of the calling thread's migration payload (control block +
  // live stack). Must run on the thread being sized.
  int64_t ThreadPayloadBytes() const;

  void* AllocateSegmentOnCurrentNode(size_t size);
  void ResumeHook(sim::Fiber* f);

  // Invocation-path pull: gives the placement policy a chance to move the
  // target's attach group to the calling thread's node before the §3.5
  // residency check chases it the other way. Only called when policy_ is
  // attached; the pull is billed to the calling thread like any MoveTo.
  void MaybePolicyPull(Object* primary);

  // The demangled dynamic type of obj: the label of its invocation spans.
  const std::string& ObjectLabel(const Object* obj);
  // Dense id for a lock/condition address, assigned in first-contention
  // order (deterministic, unlike the address itself).
  int SyncObjectId(const void* obj);
  // fn(obj, seq) for every listed object (a live, fully constructed primary:
  // header flag kObjListed), found by walking every node's heap blocks.
  // O(blocks carved): for the rare sweeps (DrainNode, validation) only.
  template <typename Fn>
  void ForEachListedObject(Fn&& fn) const;

  Config config_;
  std::unique_ptr<sim::Kernel> sim_;
  std::unique_ptr<net::Network> net_;
  std::unique_ptr<rpc::Transport> rpc_;
  std::unique_ptr<mem::GlobalAddressSpace> gas_;
  std::unique_ptr<mem::RegionServer> region_server_;
  std::vector<std::unique_ptr<mem::SegmentAllocator>> allocators_;
  std::vector<std::unique_ptr<DescriptorTable>> tables_;
  std::vector<PendingAllocation> pending_;   // nested New stack
  std::vector<ThreadObject*> threads_;       // for teardown
  // The next primary's ObjectHeader::seq. The main thread and objects still
  // under construction have one but are not listed.
  uint64_t next_obj_seq_ = 1;
  int64_t objects_created_ = 0;
  int64_t objects_moved_ = 0;
  int64_t replicas_installed_ = 0;
  int64_t thread_migrations_ = 0;
  int64_t forward_hops_ = 0;
  // Path-compaction lists for EnsureResident's chases: a chase takes one and
  // gives it back, emptied, with its capacity. One per chase in progress, not
  // one shared list, because a chase yields inside TravelThread.
  std::vector<std::vector<std::pair<NodeId, NodeId>>> chase_paths_;
  std::vector<int64_t> migration_matrix_;  // nodes x nodes, row = source
  fault::Injector* injector_ = nullptr;
  // Heartbeat/lease failure detector, created by SetFaultInjector for active
  // plans only — the runtime's repair/recovery paths ask it, never the
  // injector oracle. Null in fault-free runs.
  std::unique_ptr<fault::Membership> membership_;
  // Last checkpoint of each SetRecoverable object: serialized bytes + the
  // buddy node holding them (conceptually; the bytes travelled there on the
  // wire, we keep the authoritative copy host-side like the replica model).
  struct CheckpointRecord {
    std::vector<uint8_t> bytes;
    NodeId buddy = kNoNode;
  };
  std::unordered_map<Object*, CheckpointRecord> checkpoints_;
  // Per node, the objects recovered away from it since its last restart.
  std::vector<std::vector<Object*>> recovered_from_;
  FailureHandler failure_handler_;
  // The registry's observer on the bus (runtime.cc); null without a registry.
  struct MetricHandles;
  std::unique_ptr<MetricHandles> metric_handles_;
  // Invocation span labels, demangled once per dynamic type. Keyed by the
  // type_info name, which is unique to its type within one binary.
  std::unordered_map<const char*, std::string> object_labels_;
  std::unordered_map<const void*, int> sync_ids_;  // lock/cond -> dense id
  struct LockHold {
    Time since = 0;
    ThreadObject* holder = nullptr;
  };
  std::unordered_map<const void*, LockHold> lock_acquired_;  // only while instrumented
  BlackBox* blackbox_ = nullptr;
  PlacementHook* policy_ = nullptr;
  bool ran_ = false;
};

}  // namespace amber

#endif  // AMBER_SRC_CORE_RUNTIME_H_
