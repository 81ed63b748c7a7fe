#include "src/core/runtime.h"

#include <cxxabi.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <typeinfo>
#include <unordered_map>
#include <unordered_set>

#include "src/base/logging.h"
#include "src/base/panic.h"
#include "src/core/object.h"
#include "src/core/thread.h"
#include "src/metrics/metrics.h"
#include "src/rpc/wire.h"

namespace amber {
namespace {

Runtime* g_runtime = nullptr;

// Human-readable form of a mangled type name (invocation span labels).
// Demangling is deterministic: same binary, same names.
std::string Demangle(const char* raw) {
  int status = 0;
  char* demangled = abi::__cxa_demangle(raw, nullptr, nullptr, &status);
  std::string out = (status == 0 && demangled != nullptr) ? demangled : raw;
  std::free(demangled);
  return out;
}

// "lock<id>": the label of a per-lock metric family.
template <typename Metric>
Metric& PerLock(metrics::FamilyHandles<Metric>& family, int id) {
  return family.At(static_cast<size_t>(id), [id] { return "lock" + std::to_string(id); });
}

// Wire size of the thread control state that travels with a migrating
// thread, excluding the stack (registers, scheduling state, frame list).
constexpr int64_t kThreadStateBytes = 96;
// Size of location-protocol control messages (requests, acks, redirects).
constexpr int64_t kControlBytes = 64;
// Size of an asynchronous forwarding-hint update (path compaction, §3.3).
constexpr int64_t kHintUpdateBytes = 32;
// Per-object descriptor/bookkeeping bytes added to a move's bulk payload.
constexpr int64_t kPerObjectMoveOverhead = 32;

// One object's share of a move's bulk payload.
int64_t MoveBytes(const Object* o) {
  return static_cast<int64_t>(o->amber_header().size) + o->AmberPayloadBytes() +
         kPerObjectMoveOverhead;
}

}  // namespace

// The registry's observer on the event bus. SetMetrics attaches one per
// registry, like any other observer; it pre-registers the live-path
// families, records every runtime metric family from the events and
// publishes the run totals, so the runtime records nothing itself.
// Per-event families go through handles resolved once per (family,
// node/link/lock) (metrics::FamilyHandles); rare ones look up by name.
struct Runtime::MetricHandles : public RuntimeObserver {
  MetricHandles(metrics::Registry* r, const Runtime& rt)
      : registry(r),
        rt(rt),
        threads_created(r, "sched.threads.created"),
        runqueue_wait(r, "sched.runqueue.wait"),
        runqueue_depth(r, "sched.runqueue.depth"),
        preempts(r, "sched.preempts"),
        rpc_latency(r, "rpc.roundtrip.latency"),
        invoke_local(r, "amber.invoke.latency.local"),
        invoke_remote(r, "amber.invoke.latency.remote"),
        link_messages(r, "net.link.messages"),
        link_bytes(r, "net.link.bytes"),
        lock_blocked(r, "sync.lock.blocked"),
        lock_wait(r, "sync.lock.wait"),
        lock_hold(r, "sync.lock.hold"),
        lock_wait_ns(r, "lock.wait_ns"),
        lock_hold_ns(r, "lock.hold_ns"),
        migration_latency(r, "amber.migration.latency"),
        migration_bytes(r, "amber.migration.bytes"),
        forward_chain(r, "amber.forward.chain") {
    // The live-path families render even if the run never hits them.
    for (NodeId n = 0; n < rt.nodes(); ++n) {
      r->GetHistogram("amber.invoke.latency.local", n);
      r->GetHistogram("amber.invoke.latency.remote", n);
      r->GetHistogram("sched.runqueue.wait", n);
      r->GetHistogram("sched.runqueue.depth", n);
      r->GetHistogram("sync.lock.wait", n);
      r->GetHistogram("rpc.roundtrip.latency", n);
    }
    r->GetHistogram("amber.migration.latency");
    r->GetHistogram("amber.move.latency");
    r->GetHistogram("amber.forward.chain");
    r->GetHistogram("sync.lock.hold");
    r->GetCounter("amber.migration.bytes");
    r->GetCounter("amber.move.bytes");
    r->GetCounter("amber.replica.fetches");
    r->GetCounter("sync.condition.wakeups");
  }

  // --- Mobility ------------------------------------------------------------------
  void OnMigrationLanded(Time when, NodeId node, ThreadId thread, Duration latency,
                         int64_t bytes) override {
    migration_latency.Total().Record(static_cast<double>(latency));
    migration_bytes.Total().Add(bytes);
  }
  void OnChaseEnd(Time when, NodeId node, ThreadId thread, const void* obj, int hops) override {
    forward_chain.Total().Record(static_cast<double>(hops));
  }
  void OnMoveLanded(Time when, NodeId node, ThreadId thread, const void* obj, Duration latency,
                    int64_t bytes) override {
    registry->GetHistogram("amber.move.latency").Record(static_cast<double>(latency));
    registry->GetCounter("amber.move.bytes").Add(bytes);
  }
  void OnReplicaFetch(Time when, NodeId node, ThreadId thread, const void* obj) override {
    registry->GetCounter("amber.replica.fetches").Add();
  }

  // --- Scheduler ---------------------------------------------------------------
  void OnThreadCreate(Time when, NodeId node, ThreadId thread, const std::string& name,
                      ThreadId parent) override {
    threads_created.Node(node).Add();
  }
  void OnThreadDispatch(Time when, NodeId node, ThreadId thread, Duration queue_wait) override {
    runqueue_wait.Node(node).Record(static_cast<double>(queue_wait));
    runqueue_depth.Node(node).Record(static_cast<double>(rt.sim_->RunQueueLength(node)));
  }
  void OnThreadPreempt(Time when, NodeId node, ThreadId thread) override {
    preempts.Node(node).Add();
  }

  // --- Rpc -----------------------------------------------------------------------
  void OnRpcRequest(Time depart, NodeId src, NodeId dst, int64_t bytes, uint64_t id,
                    ThreadId requester) override {
    rpc_depart[id] = depart;
  }
  void OnRpcResponse(Time when, Time reply_arrive, NodeId src, NodeId dst, int64_t bytes,
                     uint64_t id) override {
    auto it = rpc_depart.find(id);
    if (it == rpc_depart.end()) {
      return;
    }
    // Latency as seen by the requester (dst of the reply).
    const double latency = static_cast<double>(reply_arrive - it->second);
    rpc_latency.Node(dst).Record(latency);
    if (auto rit = rpc_retried.find(id); rit != rpc_retried.end()) {
      // First-departure-to-reply latency of roundtrips that needed
      // retransmission — the cost of riding out loss.
      registry->GetHistogram("rpc.retry.latency").Record(latency);
      rpc_retried.erase(rit);
    }
    rpc_depart.erase(it);
  }
  void OnRpcRetry(Time when, NodeId src, NodeId dst, uint64_t id, int attempt,
                  ThreadId requester) override {
    registry->GetCounter("rpc.retries").Add();
    // A retried thread travel has no request event and never a response.
    if (rpc_depart.contains(id)) {
      rpc_retried.insert(id);
    }
  }
  void OnRpcTimeout(Time when, NodeId src, NodeId dst, uint64_t id, int attempts,
                    ThreadId requester) override {
    registry->GetCounter("rpc.timeouts").Add();
    rpc_depart.erase(id);
    rpc_retried.erase(id);
  }

  // --- Network and faults --------------------------------------------------------
  void OnMessage(Time depart, Time arrive, NodeId src, NodeId dst, int64_t bytes) override {
    link_messages.Link(src, dst, rt.nodes()).Add();
    link_bytes.Link(src, dst, rt.nodes()).Add(bytes);
  }
  void OnMessageDropped(Time when, NodeId src, NodeId dst, int64_t bytes,
                        const char* reason) override {
    registry->GetCounter("fault.drops", metrics::Registry::LinkLabel(src, dst)).Add();
  }
  void OnMessageDuplicated(Time when, NodeId src, NodeId dst, int64_t bytes) override {
    registry->GetCounter("fault.dups", metrics::Registry::LinkLabel(src, dst)).Add();
  }
  void OnMessageDelayed(Time when, NodeId src, NodeId dst, Duration extra) override {
    registry->GetCounter("fault.delays", metrics::Registry::LinkLabel(src, dst)).Add();
    registry->GetHistogram("fault.delay").Record(static_cast<double>(extra));
  }
  void OnNodeCrash(Time when, NodeId node) override {
    registry->GetCounter("fault.node.crashes", node).Add();
    crashed_at[node] = when;
  }
  void OnNodeRestart(Time when, NodeId node) override {
    registry->GetCounter("fault.node.restarts", node).Add();
    crashed_at.erase(node);
  }
  void OnObjectUnreachable(Time when, NodeId node, ThreadId thread, const void* obj,
                           uint64_t seq, NodeId dead) override {
    // Labelled with the chased object's creation-sequence id alongside the
    // dead node (pointers would not be stable across runs), so the counter
    // says *what* was unreachable, not just where.
    std::string label = "node" + std::to_string(dead);
    if (seq != 0) {
      label = "obj" + std::to_string(seq) + "@" + label;
    }
    registry->GetCounter("fault.unreachable", label).Add();
  }
  // Detection quality, graded against the injector's ground truth (the one
  // sanctioned oracle use: tests judge the protocol with it). A suspicion is
  // genuine when the node is down or partitioned away from `by`.
  void OnNodeSuspected(Time when, NodeId by, NodeId node) override {
    const bool genuine = !rt.injector_->Reachable(by, node, when);
    registry->GetCounter(genuine ? "member.suspicions" : "member.false_suspicions").Add();
    if (auto it = crashed_at.find(node); it != crashed_at.end()) {
      const double latency = static_cast<double>(when - it->second);
      registry->GetHistogram("member.detect_latency").Record(latency);
    }
  }

  // --- Invocation and contention -------------------------------------------------
  void OnInvokeExit(Time when, NodeId node, ThreadId thread, Duration span, bool remote,
                    Duration exit_overhead) override {
    (remote ? invoke_remote : invoke_local).Node(node).Record(static_cast<double>(span));
  }
  void OnLockBlocked(Time when, NodeId node, ThreadId thread, int lock) override {
    PerLock(lock_blocked, lock).Add();
  }
  void OnLockAcquired(Time when, NodeId node, ThreadId thread, int lock, Duration wait) override {
    lock_wait.Node(node).Record(static_cast<double>(wait));
    // Per-lock wait-time distribution (the placement/contention advisor's
    // input): labelled by the dense lock id, like sync.lock.blocked.
    PerLock(lock_wait_ns, lock).Record(static_cast<double>(wait));
  }
  void OnLockReleased(Time when, NodeId node, ThreadId thread, int lock, Duration held) override {
    lock_hold.Total().Record(static_cast<double>(held));
    // Per-lock hold-time distribution, same labelling as lock.wait_ns.
    PerLock(lock_hold_ns, lock).Record(static_cast<double>(held));
  }
  void OnConditionWake(Time when, NodeId node, int condition, int woken) override {
    registry->GetCounter("sync.condition.wakeups").Add(woken);
  }
  void OnBarrierWait(Time when, NodeId node, ThreadId thread) override {
    registry->GetCounter("sync.barrier.waits", node).Add();
  }

  // --- Recovery, drain and placement ---------------------------------------------
  void OnCheckpoint(Time when, const void* obj, NodeId buddy, int64_t bytes) override {
    registry->GetCounter("recovery.checkpoints").Add();
    registry->GetCounter("recovery.checkpoint.bytes").Add(bytes);
  }
  void OnRecoveryStart(Time when, NodeId node, ThreadId thread, const void* obj) override {
    recovery_start[thread] = when;
  }
  void OnRecoveryEnd(Time when, NodeId node, ThreadId thread, const void* obj, bool ok) override {
    if (ok) {
      registry->GetHistogram("recovery.latency")
          .Record(static_cast<double>(when - recovery_start[thread]));
    }
    recovery_start.erase(thread);
  }
  void OnObjectRecovered(Time when, const void* obj, NodeId from, NodeId to,
                         bool from_checkpoint) override {
    registry->GetCounter(from_checkpoint ? "recovery.restores" : "recovery.rebinds").Add();
  }
  void OnNodeDrained(Time when, NodeId node, int objects_moved) override {
    registry->GetCounter("drain.objects", node).Add(objects_moved);
  }
  void OnPolicyMigration(Time when, const void* obj, NodeId from, NodeId to, bool ok,
                         Duration cost) override {
    registry->GetCounter(ok ? "policy.migrations" : "policy.migrations.failed", to).Add();
  }

  // Copies the scalar run totals (object/migration counters, network and
  // simulator activity, per-node busy time) into the registry, then the
  // black box's and the placement policy's own.
  void PublishRunTotals(Time end) {
    metrics::Registry& m = *registry;
    m.GetCounter("amber.objects.created").Add(rt.objects_created_);
    m.GetCounter("amber.objects.moved").Add(rt.objects_moved_);
    m.GetCounter("amber.replicas.installed").Add(rt.replicas_installed_);
    m.GetCounter("amber.threads.migrated").Add(rt.thread_migrations_);
    m.GetCounter("amber.forward.hops").Add(rt.forward_hops_);
    for (NodeId s = 0; s < rt.nodes(); ++s) {
      for (NodeId d = 0; d < rt.nodes(); ++d) {
        const int64_t c = rt.MigrationCount(s, d);
        if (c != 0) {
          m.GetCounter("amber.migration.matrix", metrics::Registry::LinkLabel(s, d)).Add(c);
        }
      }
    }
    m.GetCounter("net.messages").Add(rt.net_->messages());
    m.GetCounter("net.bytes").Add(rt.net_->bytes_sent());
    m.GetCounter("net.fragments").Add(rt.net_->fragments());
    m.GetGauge("net.busy_ns").Set(static_cast<double>(rt.net_->busy_time()));
    m.GetCounter("rpc.roundtrips").Add(rt.rpc_->roundtrips());
    m.GetCounter("rpc.travels").Add(rt.rpc_->travels());
    if (rt.rpc_->duplicates_suppressed() != 0) {
      // Absent until the first suppression, as in the transport's own count.
      m.GetCounter("rpc.dup_suppressed").Add(rt.rpc_->duplicates_suppressed());
    }
    m.GetCounter("sim.events").Add(static_cast<int64_t>(rt.sim_->events_run()));
    m.GetCounter("sim.dispatches").Add(static_cast<int64_t>(rt.sim_->dispatches()));
    m.GetCounter("sim.preemptions").Add(static_cast<int64_t>(rt.sim_->preemptions()));
    for (NodeId n = 0; n < rt.nodes(); ++n) {
      m.GetGauge("sched.busy_ns", n).Set(static_cast<double>(rt.sim_->NodeBusyTime(n)));
    }
    m.GetGauge("run.virtual_time").Set(static_cast<double>(end));
    m.GetGauge("run.nodes").Set(static_cast<double>(rt.nodes()));
    m.GetGauge("run.procs_per_node").Set(static_cast<double>(rt.procs_per_node()));
    if (rt.blackbox_ != nullptr) {
      rt.blackbox_->PublishMetrics(registry);
    }
    if (rt.policy_ != nullptr) {
      rt.policy_->PublishMetrics(registry);
    }
  }

  metrics::Registry* registry;
  const Runtime& rt;
  // depart time per in-flight rpc id (erased on response) for latency.
  std::unordered_map<uint64_t, Time> rpc_depart;
  // ids that needed at least one retransmission (for rpc.retry.latency).
  std::unordered_set<uint64_t> rpc_retried;
  std::unordered_map<NodeId, Time> crashed_at;  // nodes down now: when they crashed
  std::unordered_map<ThreadId, Time> recovery_start;  // per thread in recovery
  metrics::FamilyHandles<metrics::Counter> threads_created;
  metrics::FamilyHandles<metrics::Histogram> runqueue_wait;
  metrics::FamilyHandles<metrics::Histogram> runqueue_depth;
  metrics::FamilyHandles<metrics::Counter> preempts;
  metrics::FamilyHandles<metrics::Histogram> rpc_latency;
  metrics::FamilyHandles<metrics::Histogram> invoke_local;
  metrics::FamilyHandles<metrics::Histogram> invoke_remote;
  metrics::FamilyHandles<metrics::Counter> link_messages;
  metrics::FamilyHandles<metrics::Counter> link_bytes;
  metrics::FamilyHandles<metrics::Counter> lock_blocked;    // by lock id
  metrics::FamilyHandles<metrics::Histogram> lock_wait;     // by node
  metrics::FamilyHandles<metrics::Histogram> lock_hold;     // total
  metrics::FamilyHandles<metrics::Histogram> lock_wait_ns;  // by lock id
  metrics::FamilyHandles<metrics::Histogram> lock_hold_ns;  // by lock id
  metrics::FamilyHandles<metrics::Histogram> migration_latency;
  metrics::FamilyHandles<metrics::Counter> migration_bytes;
  metrics::FamilyHandles<metrics::Histogram> forward_chain;
};

Runtime::Runtime(const Config& config) : config_(config) {
  AMBER_CHECK(g_runtime == nullptr) << "only one Runtime may exist at a time";
  sim::Kernel::Config kc;
  kc.nodes = config.nodes;
  kc.procs_per_node = config.procs_per_node;
  kc.cost = config.cost;
  sim_ = std::make_unique<sim::Kernel>(kc);
  net_ = std::make_unique<net::Network>(sim_.get(), config.topology);
  rpc_ = std::make_unique<rpc::Transport>(sim_.get(), net_.get());
  gas_ = std::make_unique<mem::GlobalAddressSpace>(config.arena_bytes);
  region_server_ = std::make_unique<mem::RegionServer>(gas_.get(), config.nodes,
                                                       config.initial_regions_per_node);
  for (NodeId n = 0; n < config.nodes; ++n) {
    allocators_.push_back(std::make_unique<mem::SegmentAllocator>(gas_.get(), n));
    for (int r = 0; r < config.initial_regions_per_node; ++r) {
      allocators_.back()->AddRegion(n * config.initial_regions_per_node + r);
    }
    tables_.push_back(std::make_unique<DescriptorTable>(n));
  }
  recovered_from_.resize(static_cast<size_t>(config.nodes));
  migration_matrix_.assign(static_cast<size_t>(config.nodes) * config.nodes, 0);
  sim_->SetResumeHook([this](sim::Fiber* f) { ResumeHook(f); });
  g_runtime = this;
}

Runtime::~Runtime() {
  if (blackbox_ != nullptr) {
    SetPanicHook(nullptr);
  }
  // Destroy thread records (their std::function/vector state lives on the
  // host heap); object segments disappear with the arena.
  for (ThreadObject* t : threads_) {
    t->~ThreadObject();
  }
  g_runtime = nullptr;
}

Runtime& Runtime::Current() {
  AMBER_CHECK(g_runtime != nullptr) << "no Runtime is active";
  return *g_runtime;
}

Runtime* Runtime::CurrentOrNull() { return g_runtime; }

DescriptorTable& Runtime::table(NodeId node) {
  AMBER_CHECK(node >= 0 && node < nodes());
  return *tables_[static_cast<size_t>(node)];
}

mem::SegmentAllocator& Runtime::allocator(NodeId node) {
  AMBER_CHECK(node >= 0 && node < nodes());
  return *allocators_[static_cast<size_t>(node)];
}

NodeId Runtime::here() const {
  sim::Fiber* f = sim_->current();
  AMBER_CHECK(f != nullptr) << "not running on an Amber thread";
  return f->node;
}

ThreadObject* Runtime::current_thread() const {
  sim::Fiber* f = sim_->current();
  AMBER_CHECK(f != nullptr) << "not running on an Amber thread";
  auto* t = static_cast<ThreadObject*>(f->user_data);
  AMBER_CHECK(t != nullptr);
  return t;
}

// --- Program startup ----------------------------------------------------------

Time Runtime::Run(std::function<void()> main) {
  AMBER_CHECK(!ran_) << "a Runtime represents one program execution; construct a new one";
  ran_ = true;
  // Stamp log lines with virtual time for the duration of the run.
  SetLogTimeSource(+[]() -> int64_t { return g_runtime != nullptr ? g_runtime->now() : 0; });
  // The initial thread is materialized host-side on node 0 — program startup
  // (§3: tasks created by Topaz facilities), not a charged runtime operation.
  void* mem = allocators_[0]->Allocate(sizeof(ThreadObject));
  AMBER_CHECK(mem != nullptr);
  pending_.push_back(PendingAllocation{mem, sizeof(ThreadObject), nullptr});
  auto* t = new (mem) ThreadObject();
  AMBER_CHECK(pending_.back().primary == t);
  pending_.pop_back();
  t->header_.flags |= kObjThread;
  t->header_.owner = 0;
  t->header_.size = sizeof(ThreadObject);
  t->name_ = "main";
  t->body_ = std::move(main);
  void* stack = allocators_[0]->Allocate(config_.stack_bytes);
  AMBER_CHECK(stack != nullptr);
  t->stack_base_ = stack;
  t->fiber_ = sim_->Spawn(0, stack, config_.stack_bytes, [this, t] { ThreadMain(t); }, "main");
  t->fiber_->user_data = t;
  threads_.push_back(t);
  const Time end = sim_->Run();
  if (metric_handles_ != nullptr) {
    metric_handles_->PublishRunTotals(end);
  }
  if (policy_ != nullptr) {
    policy_->OnRunEnd(end);
  }
  SetLogTimeSource(nullptr);
  return end;
}

void Runtime::ThreadMain(ThreadObject* t) {
  t->frames_.push_back(Frame{t});
  t->body_();
  sim_->Sync();
  t->finished_ = true;
  for (sim::Fiber* w : t->join_waiters_) {
    sim_->Wake(w, sim_->Now());
  }
  // A finished thread keeps only what Join and TryJoin still read (its name
  // and result): the body's bound arguments and the vectors' capacity go
  // back to the host heap now instead of at teardown.
  t->body_ = nullptr;
  std::vector<sim::Fiber*>().swap(t->join_waiters_);
  std::vector<Frame>().swap(t->frames_);
}

// --- Object construction --------------------------------------------------------

void* Runtime::AllocateSegmentOnCurrentNode(size_t size) {
  const NodeId node = here();
  mem::SegmentAllocator& alloc = *allocators_[static_cast<size_t>(node)];
  void* p = alloc.Allocate(size);
  if (p != nullptr) {
    return p;
  }
  // Pool exhausted: extend it through the address-space server (§3.1). A
  // remote server costs a control RPC; the server node extends locally.
  const NodeId server = region_server_->server_node();
  int64_t region = -1;
  if (node == server) {
    sim_->Charge(cost().object_create);  // local bookkeeping for the grant
    sim_->Sync();
    region = region_server_->AcquireRegion(node);
  } else {
    for (int tries = 0;; ++tries) {
      const rpc::RoundtripResult rr =
          rpc_->Roundtrip(server, kControlBytes, [this, node, &region]() -> int64_t {
            region = region_server_->AcquireRegion(node);
            return kControlBytes;
          });
      if (rr.status == rpc::SendStatus::kOk) {
        break;
      }
      // Fault-injected runs: the server may be crashed right now; keep
      // retrying (it is fail-stop/restart) rather than hanging, with a cap
      // so a permanently dead server is a detected failure.
      AMBER_CHECK(tries < 16) << "address-space server on node " << server << " unreachable";
    }
  }
  alloc.AddRegion(region);
  p = alloc.Allocate(size);
  AMBER_CHECK(p != nullptr);
  return p;
}

void* Runtime::AllocateObjectMemory(size_t size) {
  sim_->Charge(cost().object_create);
  sim_->Sync();
  void* p = AllocateSegmentOnCurrentNode(size);
  // Resident here from birth (§3.2), even if the constructor migrates the
  // creating thread: OnObjectConstruct names this node as `owner`.
  pending_.push_back(PendingAllocation{p, size, nullptr});
  return p;
}

void Runtime::AbandonObjectMemory(void* p) {
  AMBER_CHECK(!pending_.empty() && pending_.back().base == p);
  pending_.pop_back();
  allocator(gas_->HomeOf(p)).Free(p);
}

void Runtime::OnObjectConstruct(Object* obj) {
  if (!pending_.empty()) {
    PendingAllocation& p = pending_.back();
    auto* base = static_cast<char*>(p.base);
    auto* addr = reinterpret_cast<char*>(obj);
    if (addr >= base && addr < base + p.size) {
      if (p.primary == nullptr) {
        AMBER_CHECK(addr == base) << "Object base must be the first subobject";
        p.primary = obj;
        const NodeId node = sim_->current() != nullptr ? here() : 0;
        obj->header_.owner = node;
        obj->header_.size = static_cast<uint32_t>(p.size);
        obj->header_.seq = next_obj_seq_++;
      } else {
        // A member object (§3.6): co-resident with — and moves with — the
        // containing primary.
        obj->header_.flags |= kObjMember;
        obj->header_.primary = p.primary;
      }
      return;
    }
  }
  obj->header_.flags |= kObjStackLocal;
}

void Runtime::OnObjectDestruct(Object* obj) {
  // DeleteObject, a constructor that threw, or teardown: a destroyed object
  // is no longer swept, and is labelled by node alone.
  obj->header_.flags &= ~kObjListed;
  obj->header_.seq = 0;
  checkpoints_.erase(obj);
}

void Runtime::FinishObjectConstruction(Object* obj) {
  AMBER_CHECK(!pending_.empty() && pending_.back().primary == obj)
      << "FinishObjectConstruction out of order";
  pending_.pop_back();
  obj->header_.flags |= kObjListed;
  ++objects_created_;
}

template <typename Fn>
void Runtime::ForEachListedObject(Fn&& fn) const {
  // Blocks are never divided (§3.2), so every block base is a well-formed
  // record: a primary's header, or a thread stack's base, which holds no
  // listed header — a fresh region is zero, a stack is written from its top,
  // and a reused block's last occupant was a stack or a destroyed object.
  for (const auto& alloc : allocators_) {
    alloc->WalkBlocks([&fn](const mem::SegmentAllocator::BlockInfo& b) {
      if (!b.live || b.size < sizeof(Object)) {
        return;
      }
      const ObjectHeader h = Object::HeaderAt(b.base);
      if (h.magic == ObjectHeader::kMagic && h.IsListed()) {
        AMBER_DCHECK(h.size <= b.size) << "listed header larger than its block";
        fn(static_cast<Object*>(b.base), h.seq);
      }
    });
  }
}

void Runtime::DeleteObject(Object* obj) {
  AMBER_CHECK(obj != nullptr);
  ObjectHeader& h = obj->header_;
  AMBER_CHECK(!h.IsMember() && !h.IsStackLocal()) << "delete the containing object";
  AMBER_CHECK(!h.IsThread()) << "thread objects are reclaimed by Join";
  AMBER_CHECK(h.attach_parent == nullptr) << "unattach before delete";
  AMBER_CHECK(h.first_child == nullptr) << "unattach children before delete";
  sim_->Charge(cost().object_destroy);
  sim_->Sync();
  const NodeId node = here();
  AMBER_CHECK(h.owner == node) << "DeleteObject must run where the object is resident";
  if (h.IsImmutable()) {
    // Replicas die with the object: a mutable object that reuses the segment
    // must not run from a stale copy.
    for (auto& tab : tables_) {
      tab->Erase(obj);
    }
  } else {
    tables_[static_cast<size_t>(node)]->Erase(obj);  // a hint left from an earlier visit
  }
  // Resident nowhere now: a dangling reference misses the residency check's
  // header path and is caught at the home node, wherever it is used.
  h.owner = kNoNode;
  const NodeId home = gas_->HomeOf(obj);
  obj->~Object();  // virtual: destroys the complete object
  allocator(home).Free(obj);
}

// --- Invocation protocol ---------------------------------------------------------

void Runtime::EnterInvocation(Object* primary, int64_t args_wire_bytes) {
  ThreadObject* t = current_thread();
  const bool instr = instrumented();
  // Frame push precedes the residency check (§3.5) so a concurrent move
  // already sees this thread as bound to the object.
  t->frames_.push_back(Frame{primary, instr ? sim_->Now() : 0});
  sim_->Charge(cost().local_invoke);
  sim_->Sync();
  if (policy_ != nullptr) {
    // Adaptive placement: offer the policy a pull before the residency
    // check chases the object the other way (see MaybePolicyPull).
    MaybePolicyPull(primary);
  }
  const int64_t migrations_before = thread_migrations_;
  // Bracket the residency check: its duration (chain chasing + migration +
  // failure backoff) is the invocation's entry overhead — what a better
  // placement of `primary` would have saved the caller standing on `origin`.
  const NodeId origin = instr ? here() : kNoNode;
  const Time chase_start = instr ? sim_->Now() : 0;
  EnsureResident(primary, args_wire_bytes);
  if (instr) {
    const bool remote = thread_migrations_ != migrations_before;
    t->frames_.back().remote = remote;
    const Time now = sim_->Now();
    sim_->Emit(&RuntimeObserver::OnInvokeEnter, now, here(), t->fiber_->id, primary,
               ObjectLabel(primary), remote, origin, now - chase_start);
  }
}

const std::string& Runtime::ObjectLabel(const Object* obj) {
  static const std::string kStackLocal = "stack-local";
  if (obj == nullptr) {
    return kStackLocal;
  }
  const char* raw = typeid(*obj).name();
  auto it = object_labels_.find(raw);
  if (it == object_labels_.end()) {
    it = object_labels_.emplace(raw, Demangle(raw)).first;
  }
  return it->second;
}

void Runtime::ExitInvocation(int64_t result_wire_bytes) {
  ThreadObject* t = current_thread();
  AMBER_CHECK(t->frames_.size() > 1) << "invocation stack underflow";
  const Frame done = t->frames_.back();
  t->frames_.pop_back();
  sim_->Charge(cost().local_return);
  sim_->Sync();
  const bool instr = instrumented();
  const Time return_start = instr ? sim_->Now() : 0;
  // Return-time check, made after the frame pop (§3.5): continue where the
  // enclosing frame's object now lives.
  EnsureResident(t->frames_.back().object, result_wire_bytes);
  if (instr) {
    const Time now = sim_->Now();
    sim_->Emit(&RuntimeObserver::OnInvokeExit, now, here(), t->fiber_->id, now - done.enter,
               done.remote, now - return_start);
  }
}

void Runtime::ResumeHook(sim::Fiber* f) {
  auto* t = static_cast<ThreadObject*>(f->user_data);
  if (t == nullptr || t->resolving_ || t->frames_.empty()) {
    return;
  }
  // Context-switch-in residency check (§3.5): a thread bound to an object
  // that moved while the thread was suspended chases it on dispatch.
  EnsureResident(t->frames_.back().object, 0);
}

int64_t Runtime::ThreadPayloadBytes() const {
  return kThreadStateBytes + cost().thread_ship_stack_bytes;
}

Status Runtime::TravelThread(NodeId dst, int64_t extra_bytes) {
  ThreadObject* t = current_thread();
  const NodeId src = here();
  AMBER_CHECK(dst != src);
  // The thread object travels with the thread: a hint at the source, its
  // `owner` the destination. (Descriptors flip at departure; see DESIGN.md
  // on the in-flight window.)
  FlipDescriptors(t, src, dst);
  const int64_t payload = ThreadPayloadBytes() + extra_bytes;
  const Time depart = sim_->Now();
  // Fault-injected run: the migration can fail (dst dead or partitioned away
  // for the whole retransmission budget). The thread is still on src then —
  // flip the descriptors back, leaving a correct dst->src hint behind. A
  // lossless migration is counted and announced at departure instead,
  // before it travels.
  const bool reliable = rpc_->reliability_enabled();
  if (reliable && rpc_->Travel(dst, payload).status != rpc::SendStatus::kOk) {
    FlipDescriptors(t, dst, src);
    return Status::kUnreachable;
  }
  ++thread_migrations_;
  migration_matrix_[static_cast<size_t>(src) * static_cast<size_t>(nodes()) +
                    static_cast<size_t>(dst)] += 1;
  sim_->Emit(&RuntimeObserver::OnThreadMigrate, depart, src, dst, t->fiber_->id, payload);
  if (!reliable) {
    rpc_->Travel(dst, payload);
  }
  const Time now = sim_->Now();
  sim_->Emit(&RuntimeObserver::OnMigrationLanded, now, dst, t->fiber_->id, now - depart, payload);
  return Status::kOk;
}

void Runtime::EnsureResident(Object* obj, int64_t payload_bytes) {
  if (obj == nullptr) {
    return;
  }
  ObjectHeader& h = obj->header_;
  if (h.IsStackLocal()) {
    return;
  }
  ThreadObject* t = current_thread();
  if (t->resolving_) {
    return;  // the outer resolution loop is already chasing
  }
  // The header answers for a mutable object (§3.2), read from the record the
  // invocation touches anyway; counted like DescriptorAt. Replicas of
  // immutable objects are known only to the tables.
  if (!h.IsImmutable() && h.owner == here()) {
    telemetry::CountIfActive(telemetry::Count::kDescriptorLookups);
    return;
  }
  t->resolving_ = true;
  const bool faulty = rpc_->reliability_enabled();
  // (node, stale hint) pairs visited on the way, for path compaction.
  std::vector<std::pair<NodeId, NodeId>> visited;
  if (!chase_paths_.empty()) {
    visited = std::move(chase_paths_.back());
    chase_paths_.pop_back();
  }
  int hops = 0;
  // Hops since the chased object's `owner` last changed: the bound below
  // catches a chain that never reaches an object standing still, not a
  // chase of one that keeps moving (a Join of a migrating thread).
  int hops_since_move = 0;
  NodeId owner_seen = h.owner;
  int failures = 0;  // consecutive unreachable rounds (fault-injected runs)
  for (;;) {
    const NodeId cur = here();
    const Descriptor d = DescriptorAt(cur, obj);
    if (d.Holds()) {
      break;
    }
    NodeId target;
    if (d.state == Residency::kRemoteHint) {
      target = d.forward;
    } else {
      const NodeId home = gas_->HomeOf(obj);
      AMBER_CHECK(home != kNoNode) << "reference outside the object space";
      AMBER_CHECK(home != cur) << "dangling object reference (home has no descriptor)";
      target = home;
    }
    if (h.IsImmutable()) {
      // Immutable objects replicate to the reader instead of pulling the
      // reader to them (§2.3).
      AMBER_LOG(kTrace) << "EnsureResident: fetch replica of " << obj << " via " << target;
      if (FetchReplica(obj, target) != Status::kOk) {
        HandleUnreachable(obj, target, ++failures);
      }
      continue;
    }
    if (hops > 0) {
      ++forward_hops_;
    }
    ++hops;
    if (h.owner != owner_seen) {
      owner_seen = h.owner;
      hops_since_move = 0;
    }
    ++hops_since_move;
    AMBER_CHECK(faulty || hops_since_move <= 2 * nodes() + 4)
        << "forwarding chain did not terminate";
    AMBER_LOG(kTrace) << "EnsureResident: chase " << obj << " " << cur << " -> " << target;
    if (TravelThread(target, payload_bytes) != Status::kOk) {
      // The hop target is unreachable (crashed or partitioned away). Repair
      // the chain: probe the nodes that *are* reachable for the object and
      // re-aim the local hint past the dead node. If nobody reachable holds
      // it, the object itself is unavailable — failure contract.
      const NodeId found = BroadcastLocate(obj);
      if (found != kNoNode) {
        if (found != target) {
          AMBER_LOG(kTrace) << "EnsureResident: repair " << obj << " hint " << target << " -> "
                            << found;
          tables_[static_cast<size_t>(cur)]->SetForward(obj, found);
        }
        failures = 0;  // the object is reachable again; re-chase
        continue;
      }
      HandleUnreachable(obj, target, ++failures);
      continue;
    }
    failures = 0;
    visited.emplace_back(cur, target);
  }
  if (hops > 0) {
    sim_->Emit(&RuntimeObserver::OnChaseEnd, sim_->Now(), here(), t->fiber_->id, obj, hops);
  }
  // Path compaction (§3.3): every node along the chain learns the final
  // location, via asynchronous hint updates.
  const NodeId final_node = here();
  for (const auto& [v, hint] : visited) {
    if (v != final_node && hint != final_node) {
      tables_[static_cast<size_t>(v)]->SetForward(obj, final_node);
      net_->Send(final_node, v, kHintUpdateBytes, sim_->Now());
    }
  }
  visited.clear();
  chase_paths_.push_back(std::move(visited));
  t->resolving_ = false;
}

Descriptor Runtime::DescriptorAt(NodeId node, const Object* obj) const {
  if (obj->header_.owner == node) {
    telemetry::CountIfActive(telemetry::Count::kDescriptorLookups);
    return Descriptor{Residency::kResident, kNoNode};
  }
  return tables_[static_cast<size_t>(node)]->Lookup(obj);
}

NodeId Runtime::ResolveLocation(Object* obj) {
  const NodeId cur = here();
  Descriptor d = DescriptorAt(cur, obj);
  if (d.state == Residency::kResident) {
    return cur;
  }
  NodeId target;
  if (d.state == Residency::kRemoteHint ||
      (d.state == Residency::kReplica && d.forward != kNoNode)) {
    // A replica remembers where its bytes came from — a trail toward the
    // primary even when this node never held a forwarding entry.
    target = d.forward;
  } else {
    const NodeId home = gas_->HomeOf(obj);
    AMBER_CHECK(home != kNoNode) << "reference outside the object space";
    AMBER_CHECK(home != cur || d.state == Residency::kReplica)
        << "dangling object reference (home has no descriptor)";
    target = home;
  }
  int hops = 0;
  std::vector<NodeId> visited{cur};
  for (;;) {
    AMBER_CHECK(++hops <= 2 * nodes() + 4) << "forwarding chain did not terminate";
    if (target == cur) {
      // A remote hint pointed back here; re-read our own descriptor.
      d = DescriptorAt(cur, obj);
      if (d.state == Residency::kResident) {
        target = cur;
        break;
      }
      AMBER_CHECK(d.state == Residency::kRemoteHint ||
                  (d.state == Residency::kReplica && d.forward != kNoNode))
          << "location chain stuck: self-lookup state=" << static_cast<int>(d.state)
          << " node=" << cur;
      target = d.forward;
      continue;
    }
    Descriptor dd;
    if (!ProbeDescriptor(obj, target, 0, &dd)) {
      return kNoNode;  // probe unreachable (fault-injected runs only)
    }
    if (dd.state == Residency::kResident) {
      break;
    }
    const NodeId next = dd.state == Residency::kRemoteHint ||
                                (dd.state == Residency::kReplica && dd.forward != kNoNode)
                            ? dd.forward
                            : gas_->HomeOf(obj);
    AMBER_CHECK(next != kNoNode);
    visited.push_back(target);
    target = next;
  }
  // Path compaction for the nodes we probed. A node holding a replica keeps
  // it (the bytes stay useful for immutable reads); only its primary hint
  // is refreshed. If the object moved back to a probed node during a
  // probe's Roundtrip, the hint written there is stale but harmless:
  // `owner` still says the object lives there.
  for (NodeId v : visited) {
    if (v == target) {
      continue;
    }
    if (DescriptorAt(v, obj).state == Residency::kReplica) {
      tables_[static_cast<size_t>(v)]->SetReplica(obj, target);
    } else {
      tables_[static_cast<size_t>(v)]->SetForward(obj, target);
    }
  }
  return target;
}

NodeId Runtime::BroadcastLocate(Object* obj) {
  const NodeId cur = here();
  if (obj->header_.owner == cur) {
    return cur;
  }
  for (NodeId n = 0; n < nodes(); ++n) {
    if (n == cur) {
      continue;
    }
    // Ask the membership service, not the injector: skip peers whose
    // heartbeat lease has expired instead of burning a retransmission
    // budget on each. A dead-but-not-yet-suspected peer still costs one
    // probe, but the transport's own suspicion check cuts that short as
    // soon as the lease runs out mid-probe.
    if (Suspects(cur, n)) {
      continue;
    }
    bool resident = false;
    const rpc::RoundtripResult rr =
        rpc_->Roundtrip(n, kControlBytes, [this, obj, n, &resident]() -> int64_t {
          resident = obj->header_.owner == n;
          return kControlBytes;
        });
    if (rr.status == rpc::SendStatus::kOk && resident) {
      return n;
    }
  }
  return kNoNode;
}

void Runtime::HandleUnreachable(Object* obj, NodeId node, int attempts) {
  sim_->Emit(&RuntimeObserver::OnObjectUnreachable, sim_->Now(), here(), sim_->current()->id,
             obj, obj->header_.seq, node);
  FailureAction action = FailureAction::kAbort;
  if (failure_handler_) {
    action = failure_handler_(FailureEvent{Status::kUnreachable, obj, node, attempts});
  }
  if (action == FailureAction::kAbort) {
    AMBER_CHECK(false) << "object " << obj << " unreachable: node " << node
                  << " is down or partitioned away (after " << attempts
                  << " repair rounds); install a FailureHandler to retry";
  }
  if (action == FailureAction::kRecover && RecoverObject(obj, node)) {
    return;  // the object has a live home again; the caller re-probes it
  }
  // kRetry (or an unrecoverable object under kRecover): back off one
  // retransmission-timeout before re-probing, so a crashed node gets a
  // chance to restart (or a partition to heal).
  BackOff(rpc_->retry_policy().timeout_cap);
}

void Runtime::BackOff(Duration timeout) {
  sim::Fiber* self = sim_->current();
  const Time now = sim_->Now();
  sim_->Emit(&RuntimeObserver::OnFailureBackoff, now, here(), self->id, timeout);
  sim_->Post(now + timeout, [this, self] { sim_->Wake(self, sim_->Now()); });
  sim_->Block();
}

bool Runtime::Suspects(NodeId by, NodeId peer) const {
  return membership_ != nullptr && membership_->Suspects(by, peer);
}

bool Runtime::ProbeDescriptor(Object* obj, NodeId node, int64_t held_reply_bytes,
                              Descriptor* out) {
  const rpc::RoundtripResult rr = rpc_->Roundtrip(
      node, kControlBytes, [this, obj, node, held_reply_bytes, out]() -> int64_t {
        *out = DescriptorAt(node, obj);
        return out->Holds() ? kControlBytes + held_reply_bytes : kControlBytes;
      });
  return rr.status == rpc::SendStatus::kOk;
}

Status Runtime::FetchReplica(Object* obj, NodeId from) {
  const NodeId cur = here();
  sim_->Emit(&RuntimeObserver::OnReplicaFetch, sim_->Now(), cur, sim_->current()->id, obj);
  NodeId target = from;
  int hops = 0;
  const int64_t obj_bytes = static_cast<int64_t>(obj->header_.size);
  for (;;) {
    AMBER_CHECK(++hops <= 2 * nodes() + 4) << "replica fetch chain did not terminate";
    AMBER_LOG(kTrace) << "FetchReplica: " << obj << " probe " << target;
    // A holder's reply carries the object.
    Descriptor dd;
    if (!ProbeDescriptor(obj, target, obj_bytes, &dd)) {
      return Status::kUnreachable;  // holder unreachable (fault-injected runs)
    }
    if (dd.Holds()) {
      break;
    }
    const NodeId next = dd.state == Residency::kRemoteHint ? dd.forward : gas_->HomeOf(obj);
    AMBER_CHECK(next != kNoNode && next != target);
    target = next;
  }
  // Unmarshal locally (the real copy through a wire buffer).
  sim_->Charge(cost().MarshalCost(obj_bytes));
  rpc::WireBuffer wb;
  wb.PutBytes(obj, obj->header_.size);
  sim_->Sync();
  // Two threads on one node can fetch concurrently; both pay the fetch but
  // only one install is recorded. A stale forwarding hint is overwritten —
  // the replica supersedes it.
  if (!DescriptorAt(cur, obj).Holds()) {
    InstallReplica(obj, cur, target != cur ? target : kNoNode, sim_->Now());
  }
  return Status::kOk;
}

void Runtime::InstallReplica(Object* obj, NodeId at, NodeId source, Time when) {
  tables_[static_cast<size_t>(at)]->SetReplica(obj, source);
  ++replicas_installed_;
  sim_->Emit(&RuntimeObserver::OnReplicaInstall, when, obj, at);
}

// --- Mobility -----------------------------------------------------------------------

void Runtime::CollectClosure(Object* obj, std::vector<Object*>* out) {
  out->push_back(obj);
  for (Object* c = obj->header_.first_child; c != nullptr; c = c->header_.next_sibling) {
    CollectClosure(c, out);
  }
}

int64_t Runtime::ClosureBytes(Object* obj) {
  std::vector<Object*> closure;
  CollectClosure(obj->AmberPrimary(), &closure);
  int64_t total = 0;
  for (Object* o : closure) {
    total += MoveBytes(o);
  }
  return total;
}

void Runtime::FlipDescriptors(Object* o, NodeId from, NodeId to) {
  tables_[static_cast<size_t>(from)]->SetForward(o, to);
  o->header_.owner = to;
}

int64_t Runtime::FlipDescriptorsForMove(const std::vector<Object*>& closure, NodeId src,
                                        NodeId dst) {
  int64_t total = 0;
  for (Object* o : closure) {
    FlipDescriptors(o, src, dst);
    total += MoveBytes(o);
  }
  return total;
}

uint64_t Runtime::SerializeClosure(const std::vector<Object*>& closure) {
  rpc::WireBuffer wb;
  for (Object* o : closure) {
    wb.PutPointer(o);
    wb.PutBytes(o, o->header_.size);
  }
  return wb.Checksum();
}

Status Runtime::MoveTo(Object* obj, NodeId dst) {
  AMBER_CHECK(obj != nullptr);
  AMBER_CHECK(dst >= 0 && dst < nodes());
  obj = obj->AmberPrimary();
  AMBER_CHECK(obj != nullptr) << "cannot move a stack-local object";
  ObjectHeader& h = obj->header_;
  AMBER_CHECK(!h.IsThread()) << "thread objects move with their thread";
  AMBER_CHECK(h.attach_parent == nullptr) << "unattach before moving an attached object";
  sim_->Sync();

  if (h.IsImmutable()) {
    // §2.3: "Invoking MoveTo on an immutable object causes the object to be
    // copied rather than moved."
    return ReplicateTo(obj, dst);
  }

  const bool faulty = rpc_->reliability_enabled();
  for (int attempt = 0;; ++attempt) {
    if (faulty && attempt > 2 * nodes() + 4) {
      // The mover lost every race (or the object keeps dodging through a
      // flaky cluster). Typed give-up instead of a panic: the object is
      // still consistent wherever it is.
      return Status::kTimeout;
    }
    AMBER_CHECK(attempt <= 2 * nodes() + 4) << "move could not catch the object";
    AMBER_LOG(kTrace) << "MoveTo: attempt " << attempt << " obj " << obj << " dst " << dst;
    const NodeId owner = ResolveLocation(obj);
    if (owner == kNoNode) {
      return Status::kUnreachable;  // fault-injected runs only
    }
    if (owner == dst) {
      return Status::kOk;
    }
    if (Suspects(here(), dst)) {
      return Status::kUnreachable;  // destination's heartbeat lease expired
    }
    bool moved = false;
    const Status s = owner == here() ? MoveOutLocal(obj, dst, &moved)
                                     : RequestRemoteMove(obj, owner, dst, &moved);
    if (s != Status::kOk || moved) {
      return s;
    }
  }
}

void Runtime::MaybePolicyPull(Object* primary) {
  if (primary == nullptr) {
    return;
  }
  Object* p = primary->AmberPrimary();
  if (p == nullptr) {
    return;  // stack-local: lives in its thread's frame, nothing to place
  }
  ObjectHeader& h = p->header_;
  if (h.IsThread() || h.IsImmutable()) {
    return;  // threads move with their fibers; immutables replicate to readers
  }
  ThreadObject* t = current_thread();
  if (t->resolving_) {
    return;  // already inside a residency resolution — don't recurse
  }
  const NodeId cur = here();
  if (h.owner == cur) {
    return;  // already local: the residency check will be free
  }
  // The movable unit is the attach-group root: attached children cannot be
  // MoveTo'd alone, the group migrates or stays together.
  Object* root = p;
  while (root->header_.attach_parent != nullptr) {
    root = root->header_.attach_parent;
  }
  if (root->header_.IsThread() || root->header_.IsImmutable()) {
    return;
  }
  if (!policy_->ShouldPull(root, p, cur, sim_->Now())) {
    return;
  }
  const Time start = sim_->Now();
  const NodeId src = root->header_.owner;
  // Suppress the context-switch-in residency chase while the pull is in
  // flight: the top frame is the object being pulled, and chasing it from
  // ResumeHook would migrate this thread toward the moving object mid-pull.
  t->resolving_ = true;
  const Status s = MoveTo(root, cur);
  t->resolving_ = false;
  const bool ok = s == Status::kOk;
  const Time now = sim_->Now();
  sim_->Emit(&RuntimeObserver::OnPolicyMigration, now, root, src, cur, ok, now - start);
  policy_->OnPullResult(root, cur, ok);
}

Status Runtime::MoveOutLocal(Object* obj, NodeId dst, bool* moved) {
  const NodeId src = here();
  const Time move_start = sim_->Now();
  std::vector<Object*> closure;
  CollectClosure(obj, &closure);
  sim_->Charge(cost().move_setup);
  sim_->Sync();
  if (obj->header_.owner != src) {
    // A remote move took the object during the Sync. Moving it now would
    // take it from wherever that move put it; the caller re-resolves instead.
    return Status::kOk;
  }
  // §3.5 order: mark non-resident, then preempt every processor on this node
  // so running threads make a fresh residency check, then transfer.
  const int64_t total = FlipDescriptorsForMove(closure, src, dst);
  sim_->RequestPreempt(src);
  SerializeClosure(closure);
  // The bulk send charges this thread for marshalling the payload, then
  // occupies the wire; install completes after the destination's install cost.
  const net::TxResult tx = rpc_->SendBulkTracked(dst, total, nullptr);
  if (!tx.delivered) {
    // The transfer was lost (destination crashed or link cut). Restore the
    // closure at the source, leaving correct dst->src hints behind, and
    // surface the detection latency as one retransmission-timeout of
    // blocking (the bulk protocol's ack timer).
    for (Object* o : closure) {
      FlipDescriptors(o, dst, src);
    }
    BackOff(rpc_->retry_policy().timeout);
    return Status::kUnreachable;
  }
  sim_->Wake(sim_->current(), tx.arrival + cost().move_install);
  sim_->Block();
  ++objects_moved_;
  const Time now = sim_->Now();
  sim_->Emit(&RuntimeObserver::OnObjectMove, now, obj, src, dst, total);
  sim_->Emit(&RuntimeObserver::OnMoveLanded, now, src, sim_->current()->id, obj,
             now - move_start, total);
  MaybeRecheckpoint(obj);
  *moved = true;
  return Status::kOk;
}

net::TxResult Runtime::ShipClosure(Object* obj, NodeId owner, NodeId dst, int64_t* bytes) {
  std::vector<Object*> closure;
  CollectClosure(obj, &closure);
  *bytes = FlipDescriptorsForMove(closure, owner, dst);
  sim_->RequestPreempt(owner);
  SerializeClosure(closure);
  const Time depart =
      sim_->Now() + cost().move_setup + cost().MarshalCost(*bytes) + cost().rpc_send_software;
  net::TxResult tx = net_->SendBulkTracked(owner, dst, *bytes, depart, nullptr);
  if (!tx.delivered) {
    // Transfer lost: the object never left. Flip back.
    for (Object* o : closure) {
      FlipDescriptors(o, dst, owner);
    }
  }
  tx.arrival += cost().move_install;
  return tx;
}

net::TxResult Runtime::ShipReplica(Object* obj, NodeId holder, NodeId dst) {
  SerializeClosure({obj});
  const int64_t obj_bytes = static_cast<int64_t>(obj->header_.size);
  const Time depart = sim_->Now() + cost().MarshalCost(obj_bytes) + cost().rpc_send_software;
  net::TxResult tx = net_->SendBulkTracked(holder, dst, obj_bytes, depart, nullptr);
  tx.arrival += cost().move_install;
  if (tx.delivered) {
    InstallReplica(obj, dst, holder, tx.arrival);
  }
  return tx;
}

void Runtime::AckInstall(sim::Fiber* requester, NodeId requester_node, NodeId dst,
                         Time installed) {
  if (dst == requester_node) {
    sim_->Wake(requester, installed);
  } else {
    sim_->Wake(requester, net_->Send(dst, requester_node, kControlBytes, installed));
  }
}

Status Runtime::RequestRemoteMove(Object* obj, NodeId owner, NodeId dst, bool* accepted_out) {
  const NodeId cur = here();
  AMBER_CHECK(owner != cur);
  const Time move_start = sim_->Now();
  int64_t moved_bytes = 0;
  bool accepted = false;
  if (rpc_->reliability_enabled()) {
    // Fault-injected run: the whole exchange rides the reliable roundtrip
    // (the control request or its ack can be lost). The owner-side bulk
    // transfer is tracked; a lost transfer reverts the move at the owner and
    // NACKs, so the requester re-resolves — the source's ack timeout is
    // folded into the control reply (oracle shortcut, see docs/FAULTS.md).
    const rpc::RoundtripResult rr = rpc_->Roundtrip(
        owner, kControlBytes, [this, obj, owner, dst, &accepted, &moved_bytes]() -> int64_t {
          // A NACK when the object moved on or the transfer was lost.
          if (obj->header_.owner == owner &&
              ShipClosure(obj, owner, dst, &moved_bytes).delivered) {
            accepted = true;
            ++objects_moved_;
            sim_->Emit(&RuntimeObserver::OnObjectMove, sim_->Now(), obj, owner, dst, moved_bytes);
          }
          return kControlBytes;
        });
    // A failed roundtrip after the owner committed the move (descriptors
    // flipped, transfer delivered) lost every reply copy: a lost ack, not a
    // lost move. The in-simulator flag is the oracle; it is stable here
    // because the transport cancels the roundtrip on give-up, so the service
    // can no longer run after this point.
    if (rr.status != rpc::SendStatus::kOk && !accepted) {
      *accepted_out = false;
      return Status::kUnreachable;  // owner unreachable
    }
  } else {
    // Charge the request like any control send, then run the source side of
    // the move at the owner (event context, latency model), then block until
    // the destination's install acknowledgement.
    sim::Fiber* self = sim_->current();
    sim_->Charge(cost().MarshalCost(kControlBytes) + cost().rpc_send_software);
    sim_->Sync();
    net_->Send(cur, owner, kControlBytes, sim_->Now(),
               [this, obj, owner, dst, cur, self, &accepted, &moved_bytes] {
                 if (obj->header_.owner != owner) {
                   // The object moved on; NACK so the requester re-resolves.
                   sim_->Wake(self, net_->Send(owner, cur, kControlBytes, sim_->Now()));
                   return;
                 }
                 accepted = true;
                 AckInstall(self, cur, dst, ShipClosure(obj, owner, dst, &moved_bytes).arrival);
                 ++objects_moved_;
                 sim_->Emit(&RuntimeObserver::OnObjectMove, sim_->Now(), obj, owner, dst,
                            moved_bytes);
               });
    sim_->Block();
  }
  if (accepted) {
    sim_->Emit(&RuntimeObserver::OnMoveLanded, sim_->Now(), cur, sim_->current()->id, obj,
               sim_->Now() - move_start, moved_bytes);
    MaybeRecheckpoint(obj);
  }
  *accepted_out = accepted;
  return Status::kOk;
}

Status Runtime::ReplicateTo(Object* obj, NodeId dst) {
  if (DescriptorAt(dst, obj).Holds()) {
    return Status::kOk;  // dst already holds the object or a replica
  }
  const NodeId cur = here();
  if (Suspects(cur, dst)) {
    return Status::kUnreachable;  // destination's heartbeat lease expired
  }
  if (DescriptorAt(cur, obj).Holds() && dst != cur) {
    // We hold the bytes: bulk-copy them to dst and install a replica.
    SerializeClosure({obj});
    const net::TxResult tx =
        rpc_->SendBulkTracked(dst, static_cast<int64_t>(obj->header_.size), nullptr);
    if (!tx.delivered) {
      // Copy lost; dst never saw it. Ride out the ack timeout, report.
      BackOff(rpc_->retry_policy().timeout);
      return Status::kUnreachable;
    }
    const Time installed = tx.arrival + cost().move_install;
    InstallReplica(obj, dst, cur, installed);
    sim_->Wake(sim_->current(), installed);
    sim_->Block();
    return Status::kOk;
  }
  // Find a holder, then have it copy to dst.
  const NodeId holder = ResolveLocation(obj);
  if (holder == kNoNode) {
    return Status::kUnreachable;  // fault-injected runs only
  }
  if (holder == dst) {
    return Status::kOk;
  }
  if (rpc_->reliability_enabled()) {
    // Reliable control roundtrip to the holder; the holder-side copy to dst
    // is tracked and only installs the replica when it actually arrives.
    bool installed = false;
    const rpc::RoundtripResult rr = rpc_->Roundtrip(
        holder, kControlBytes, [this, obj, holder, dst, &installed]() -> int64_t {
          installed = ShipReplica(obj, holder, dst).delivered;
          return kControlBytes;
        });
    return rr.status == rpc::SendStatus::kOk && installed ? Status::kOk : Status::kUnreachable;
  }
  // A control datagram to the holder; dst acks the install.
  sim::Fiber* self = sim_->current();
  sim_->Charge(cost().MarshalCost(kControlBytes) + cost().rpc_send_software);
  sim_->Sync();
  net_->Send(cur, holder, kControlBytes, sim_->Now(), [this, obj, holder, dst, cur, self] {
    AckInstall(self, cur, dst, ShipReplica(obj, holder, dst).arrival);
  });
  sim_->Block();
  return Status::kOk;
}

NodeId Runtime::Locate(Object* obj) {
  AMBER_CHECK(obj != nullptr);
  obj = obj->AmberPrimary();
  if (obj == nullptr) {
    return here();  // stack-local: wherever this thread is
  }
  sim_->Charge(cost().local_invoke);
  sim_->Sync();
  return ResolveLocation(obj);
}

void Runtime::Attach(Object* child, Object* parent) {
  AMBER_CHECK(child != nullptr && parent != nullptr);
  child = child->AmberPrimary();
  parent = parent->AmberPrimary();
  AMBER_CHECK(child != nullptr && parent != nullptr) << "cannot attach stack-local objects";
  AMBER_CHECK(child != parent);
  AMBER_CHECK(!child->header_.IsThread() && !parent->header_.IsThread());
  AMBER_CHECK(!child->header_.IsImmutable()) << "immutable objects replicate; do not attach them";
  AMBER_CHECK(child->header_.attach_parent == nullptr) << "already attached";
  // Reject cycles: parent must not be a descendant of child.
  for (Object* a = parent; a != nullptr; a = a->header_.attach_parent) {
    AMBER_CHECK(a != child) << "attachment cycle";
  }
  sim_->Charge(cost().local_invoke);
  sim_->Sync();
  // Attachment guarantees co-location (§2.3): bring the child to the parent.
  // Under fault injection the parent's node may be down or the move may be
  // lost; treat that like any unreachable invocation target (failure
  // handler + backoff) instead of panicking — fault-free runs never loop.
  int attach_failures = 0;
  for (;;) {
    const NodeId p = ResolveLocation(parent);
    if (p == kNoNode) {
      // Even the parent's location probe failed (its chain runs through a
      // dead node); back off and re-resolve like any other unreachable.
      HandleUnreachable(parent, gas_->HomeOf(parent), ++attach_failures);
      continue;
    }
    if (ResolveLocation(child) == p || MoveTo(child, p) == Status::kOk) {
      break;
    }
    HandleUnreachable(parent, p, ++attach_failures);
  }
  sim_->Sync();
  child->header_.attach_parent = parent;
  child->header_.next_sibling = parent->header_.first_child;
  parent->header_.first_child = child;
}

void Runtime::Unattach(Object* child) {
  AMBER_CHECK(child != nullptr);
  child = child->AmberPrimary();
  AMBER_CHECK(child != nullptr);
  Object* parent = child->header_.attach_parent;
  AMBER_CHECK(parent != nullptr) << "object is not attached";
  sim_->Charge(cost().local_invoke);
  sim_->Sync();
  Object** link = &parent->header_.first_child;
  while (*link != child) {
    AMBER_CHECK(*link != nullptr) << "attachment list corrupt";
    link = &(*link)->header_.next_sibling;
  }
  *link = child->header_.next_sibling;
  child->header_.attach_parent = nullptr;
  child->header_.next_sibling = nullptr;
}

void Runtime::MakeImmutable(Object* obj) {
  AMBER_CHECK(obj != nullptr);
  obj = obj->AmberPrimary();
  AMBER_CHECK(obj != nullptr) << "cannot mark a stack-local object immutable";
  AMBER_CHECK(!obj->header_.IsThread());
  AMBER_CHECK(obj->header_.first_child == nullptr && obj->header_.attach_parent == nullptr)
      << "detach before marking immutable";
  sim_->Charge(cost().local_invoke);
  sim_->Sync();
  obj->header_.flags |= kObjImmutable;
}

NodeId Runtime::OwnerOf(const Object* obj) const {
  const Object* p = const_cast<Object*>(obj)->AmberPrimary();
  return p != nullptr ? p->amber_header().owner : kNoNode;
}

// --- Crash recovery / planned shutdown (docs/FAULTS.md) ------------------------------

void Runtime::SetRecoverable(Object* obj) {
  AMBER_CHECK(obj != nullptr);
  obj = obj->AmberPrimary();
  AMBER_CHECK(obj != nullptr) << "stack-local objects are not recoverable";
  ObjectHeader& h = obj->header_;
  AMBER_CHECK(!h.IsThread()) << "threads are not recoverable state";
  AMBER_CHECK(!h.IsImmutable()) << "immutable objects already recover via replicas";
  AMBER_CHECK(h.attach_parent == nullptr && h.first_child == nullptr)
      << "a checkpoint covers a single unattached object";
  sim_->Charge(cost().local_invoke);
  sim_->Sync();
  h.flags |= kObjRecoverable;
  if (injector_ != nullptr && injector_->active()) {
    CheckpointObject(obj);  // best-effort initial restore point
  }
}

bool Runtime::CheckpointObject(Object* obj) {
  AMBER_CHECK(obj != nullptr);
  obj = obj->AmberPrimary();
  AMBER_CHECK(obj != nullptr && obj->header_.IsRecoverable())
      << "CheckpointObject requires SetRecoverable";
  if (injector_ == nullptr || !injector_->active()) {
    return true;  // fault-free run: nothing to survive, nothing shipped
  }
  sim_->Sync();
  const NodeId owner = obj->header_.owner;
  const NodeId cur = here();
  // Buddy election: the lowest node, other than the owner, whose heartbeat
  // lease is intact — deterministic given the suspicion state.
  NodeId buddy = kNoNode;
  for (NodeId n = 0; n < nodes(); ++n) {
    if (n == owner || Suspects(cur, n)) {
      continue;
    }
    buddy = n;
    break;
  }
  if (buddy == kNoNode) {
    return false;  // nobody live to hold the checkpoint
  }
  std::vector<uint8_t> bytes;
  obj->AmberSaveState(&bytes);
  // The checkpoint travels owner -> buddy as a tracked background bulk
  // transfer: it takes fault draws like any frame and is recorded only if
  // it actually arrived — a lost checkpoint leaves the previous one valid.
  const int64_t wire = kControlBytes + static_cast<int64_t>(bytes.size());
  const net::TxResult tx = net_->SendBulkTracked(owner, buddy, wire, sim_->Now(), nullptr);
  if (!tx.delivered) {
    return false;
  }
  CheckpointRecord& rec = checkpoints_[obj];
  rec.bytes = std::move(bytes);
  rec.buddy = buddy;
  sim_->Emit(&RuntimeObserver::OnCheckpoint, sim_->Now(), obj, buddy, wire);
  return true;
}

void Runtime::MaybeRecheckpoint(Object* obj) {
  // Quiescent point: the move just committed and no invocation is running
  // inside the object. Only meaningful under an active fault plan.
  if (membership_ == nullptr || !obj->header_.IsRecoverable()) {
    return;
  }
  CheckpointObject(obj);
}

bool Runtime::RecoverObject(Object* obj, NodeId node) {
  if (obj->header_.IsThread()) {
    return false;  // a thread's stack is not recoverable state
  }
  const ThreadId self = sim_->current()->id;
  sim_->Emit(&RuntimeObserver::OnRecoveryStart, sim_->Now(), here(), self, obj);
  bool ok = false;
  if (obj->header_.IsImmutable()) {
    ok = RecoverImmutable(obj, node);
  } else if (checkpoints_.find(obj) != checkpoints_.end()) {
    ok = RecoverMutable(obj, node);
  }
  sim_->Emit(&RuntimeObserver::OnRecoveryEnd, sim_->Now(), here(), self, obj, ok);
  return ok;
}

bool Runtime::RecoverImmutable(Object* obj, NodeId node) {
  const NodeId cur = here();
  const NodeId dead = obj->header_.owner;
  // Deterministic election: probe the non-suspected nodes in ascending id
  // order for a surviving copy; the lowest holder becomes the new home.
  // Every recovering thread runs the same scan and picks the same winner.
  for (NodeId n = 0; n < nodes(); ++n) {
    if (n == node || n == dead || Suspects(cur, n)) {
      continue;
    }
    Descriptor d;
    if (n == cur) {
      d = DescriptorAt(cur, obj);
    } else if (!ProbeDescriptor(obj, n, 0, &d)) {
      continue;  // this candidate is unreachable too; keep scanning
    }
    if (!d.Holds()) {
      continue;
    }
    sim_->Sync();
    // Promote the survivor's replica to the primary copy.
    if (obj->header_.owner != n) {
      recovered_from_[static_cast<size_t>(obj->header_.owner)].push_back(obj);
      obj->header_.owner = n;
    }
    if (cur != n) {
      tables_[static_cast<size_t>(cur)]->SetForward(obj, n);
    }
    sim_->Emit(&RuntimeObserver::OnObjectRecovered, sim_->Now(), obj, dead, n,
               /*from_checkpoint=*/false);
    return true;
  }
  return false;  // no surviving copy: unrecoverable until a restart
}

bool Runtime::RecoverMutable(Object* obj, NodeId node) {
  const auto it = checkpoints_.find(obj);
  if (it == checkpoints_.end()) {
    return false;
  }
  const NodeId cur = here();
  const NodeId dead = obj->header_.owner;
  const NodeId buddy = it->second.buddy;
  if (buddy == kNoNode || buddy == node || buddy == dead || Suspects(cur, buddy)) {
    return false;  // the checkpoint died with its holder
  }
  // Restore at the buddy. Idempotent: the restore runs only while the
  // object is still homed at the dead node, so concurrent recoverers agree
  // — the first restore wins and the rest observe the new home.
  bool restored = false;
  auto restore = [this, obj, dead, buddy, &it, &restored] {
    if (obj->header_.owner != dead) {
      restored = true;  // someone already recovered it (and it may have moved on)
      return;
    }
    obj->AmberLoadState(it->second.bytes.data(), it->second.bytes.size());
    recovered_from_[static_cast<size_t>(dead)].push_back(obj);
    obj->header_.owner = buddy;
    restored = true;
  };
  if (buddy == cur) {
    sim_->Charge(cost().move_install);
    sim_->Sync();
    restore();
  } else {
    const rpc::RoundtripResult rr =
        rpc_->Roundtrip(buddy, kControlBytes, [this, obj, &restore]() -> int64_t {
          restore();
          return kControlBytes + static_cast<int64_t>(obj->header_.size);
        });
    if (rr.status != rpc::SendStatus::kOk) {
      return false;
    }
  }
  if (!restored) {
    return false;
  }
  if (cur != buddy) {
    tables_[static_cast<size_t>(cur)]->SetForward(obj, buddy);
  }
  sim_->Emit(&RuntimeObserver::OnObjectRecovered, sim_->Now(), obj, dead, obj->header_.owner,
             /*from_checkpoint=*/true);
  // The restored copy is the new authoritative state; its old checkpoint
  // record points at what is now the home. Take a fresh one elsewhere.
  MaybeRecheckpoint(obj);
  return true;
}

int Runtime::DrainNode(NodeId node) {
  AMBER_CHECK(node >= 0 && node < nodes());
  sim_->Charge(cost().local_invoke);
  sim_->Sync();
  const NodeId cur = here();
  // Evacuation targets: every other node whose heartbeat lease is intact.
  std::vector<NodeId> targets;
  for (NodeId n = 0; n < nodes(); ++n) {
    if (n == node || Suspects(cur, n)) {
      continue;
    }
    targets.push_back(n);
  }
  AMBER_CHECK(!targets.empty()) << "no live node to evacuate node " << node << " to";
  // Roots homed on the draining node, in creation order — deterministic,
  // where the heap walk's address order would not be.
  std::vector<std::pair<uint64_t, Object*>> roots;
  ForEachListedObject([&roots, node](Object* obj, uint64_t seq) {
    const ObjectHeader& h = obj->header_;
    if (h.IsMember() || h.IsStackLocal() || h.IsThread() || h.attach_parent != nullptr ||
        h.owner != node) {
      return;  // attached children move with their root; threads follow §3.5
    }
    roots.emplace_back(seq, obj);
  });
  std::sort(roots.begin(), roots.end());
  int moved = 0;
  size_t next_target = 0;
  for (const auto& [seq, obj] : roots) {
    const NodeId dst = targets[next_target % targets.size()];
    Status s;
    if (obj->header_.IsImmutable()) {
      // Re-home the primary copy: replicate to dst, promote that replica,
      // and leave a forwarding hint behind. (Not a replica: the drained
      // node is going away, and the hint keeps the old home resolvable —
      // an immutable primary never moves otherwise, so nobody else knows
      // where it went.)
      s = ReplicateTo(obj, dst);
      if (s == Status::kOk) {
        sim_->Sync();
        FlipDescriptors(obj, node, dst);
      }
    } else {
      s = MoveTo(obj, dst);
    }
    if (s == Status::kOk) {
      ++moved;
      ++next_target;
    }
  }
  // Kick every processor on the drained node: resident threads re-run the
  // §3.5 residency check on dispatch and chase their objects out.
  sim_->RequestPreempt(node);
  sim_->Emit(&RuntimeObserver::OnNodeDrained, sim_->Now(), node, moved);
  return moved;
}

void Runtime::OnPeerSuspected(Time when, NodeId by, NodeId peer) {
  sim_->Emit(&RuntimeObserver::OnNodeSuspected, when, by, peer);
  // Threads homed on the suspected node are *lost*: their joiners must not
  // sleep forever waiting on a node that cannot answer.
  for (ThreadObject* t : threads_) {
    if (!t->finished_ && !t->lost_ && t->header_.owner == peer) {
      t->lost_ = true;
      for (sim::Fiber* w : t->join_waiters_) {
        sim_->Wake(w, when);
      }
      t->join_waiters_.clear();
    }
  }
}

void Runtime::OnPeerTrusted(Time when, NodeId by, NodeId peer) {
  sim_->Emit(&RuntimeObserver::OnNodeTrusted, when, by, peer);
  // A healed partition (no crash) revives the node's threads: they were
  // never actually dead. After a real restart OnNodeEvent clears them too.
  if (sim_->NodeUp(peer)) {
    for (ThreadObject* t : threads_) {
      if (t->lost_ && t->header_.owner == peer) {
        t->lost_ = false;
      }
    }
  }
}

void Runtime::OnNodeEvent(Time when, NodeId node, bool up) {
  if (!up) {
    return;
  }
  membership_->OnNodeRestart(when, node);
  // Boot-time repair: point the node at the objects recovered away from it
  // while it was down, so chases leave immediately — an immutable object's
  // stale copy is still a perfectly good replica.
  DescriptorTable& tab = *tables_[static_cast<size_t>(node)];
  std::vector<Object*>& recovered = recovered_from_[static_cast<size_t>(node)];
  for (Object* obj : recovered) {
    const ObjectHeader& h = obj->header_;
    if (!h.IsListed() || h.owner == node) {
      continue;  // deleted since, or back here again
    }
    if (h.IsImmutable()) {
      tab.SetReplica(obj, h.owner);
    } else {
      tab.SetForward(obj, h.owner);
    }
  }
  recovered.clear();
  // The node's threads resume from the freeze: no longer lost.
  for (ThreadObject* t : threads_) {
    if (t->lost_ && t->header_.owner == node) {
      t->lost_ = false;
    }
  }
}

// --- Threads -------------------------------------------------------------------------

ThreadObject* Runtime::CreateThread(std::function<void()> body, std::string name, int priority) {
  sim_->Charge(cost().thread_create);
  void* mem = AllocateObjectMemory(sizeof(ThreadObject));
  auto* t = new (mem) ThreadObject();
  FinishObjectConstruction(t);
  t->header_.flags |= kObjThread;
  t->name_ = name.empty() ? "thread-" + std::to_string(threads_.size()) : std::move(name);
  t->body_ = std::move(body);
  void* stack = AllocateSegmentOnCurrentNode(config_.stack_bytes);
  t->stack_base_ = stack;
  t->fiber_ =
      sim_->Spawn(here(), stack, config_.stack_bytes, [this, t] { ThreadMain(t); }, t->name_);
  t->fiber_->user_data = t;
  t->fiber_->priority = priority;
  threads_.push_back(t);
  return t;
}

bool Runtime::JoinWait(ThreadObject* t, bool fail_aware) {
  AMBER_CHECK(t != nullptr);
  AMBER_CHECK(!t->joined_) << "thread joined twice";
  sim_->Charge(cost().join_sync);
  sim_->Sync();
  int failures = 0;
  while (!t->finished_) {
    if (t->lost_) {
      // The thread's node is suspected down: it cannot finish unless that
      // node restarts. TryJoin reports the loss; a plain Join consults the
      // failure handler (backoff-and-recheck, or typed abort).
      if (fail_aware) {
        return false;
      }
      HandleUnreachable(t, t->header_.owner, ++failures);
      continue;
    }
    // The join will actually wait: the causal edge is "joiner sleeps until
    // target exits" (the profiler follows the critical path into `t`).
    sim_->Emit(&RuntimeObserver::OnThreadJoin, sim_->Now(), here(), sim_->current()->id,
               t->fiber_->id);
    t->join_waiters_.push_back(sim_->current());
    sim_->Block();
  }
  t->joined_ = true;
  if (!t->reaped_) {
    t->reaped_ = true;
    sim_->DestroyFiber(t->fiber_);
    t->fiber_ = nullptr;
    allocator(gas_->HomeOf(t->stack_base_)).Free(t->stack_base_);
    t->stack_base_ = nullptr;
  }
  return true;
}

void Runtime::SetScheduler(NodeId node, std::unique_ptr<sim::RunQueue> queue) {
  sim_->SetRunQueue(node, std::move(queue));
}

void Runtime::AddObserver(RuntimeObserver* observer) { sim_->AddObserver(observer); }

void Runtime::RemoveObserver(RuntimeObserver* observer) { sim_->RemoveObserver(observer); }

void Runtime::SetMetrics(metrics::Registry* registry) {
  if (metric_handles_ != nullptr) {
    sim_->RemoveObserver(metric_handles_.get());
  }
  metric_handles_ =
      registry != nullptr ? std::make_unique<MetricHandles>(registry, *this) : nullptr;
  net_->SetMetrics(registry);
  if (registry != nullptr) {
    sim_->AddObserver(metric_handles_.get());
  }
}

metrics::Registry* Runtime::metrics() const {
  return metric_handles_ != nullptr ? metric_handles_->registry : nullptr;
}

void Runtime::SetBlackBox(BlackBox* recorder) {
  if (blackbox_ != nullptr) {
    RemoveObserver(blackbox_);
    SetPanicHook(nullptr);
  }
  blackbox_ = recorder;
  if (recorder == nullptr) {
    return;
  }
  AddObserver(recorder);
  // Any Panic (AMBER_CHECK included, from fiber or event context) flushes
  // the recorder before abort; Panic prints the returned path. The hook
  // never raises virtual time — it only reads recorder + runtime state.
  SetPanicHook([this](const std::string& msg, const char* file, int line) -> std::string {
    if (blackbox_ == nullptr) {
      return "";
    }
    const std::string path = "FDR_" + blackbox_->name() + ".json";
    std::ofstream out(path);
    if (!out) {
      return "";
    }
    std::ostringstream where;
    where << msg << " at " << file << ":" << line;
    blackbox_->WriteDump(out, "panic", where.str());
    return path;
  });
}

std::string Runtime::DumpBlackBox(const std::string& path) {
  if (blackbox_ == nullptr) {
    return "";
  }
  std::ofstream out(path);
  AMBER_CHECK(out) << "cannot open black-box dump path " << path;
  blackbox_->WriteDump(out, "explicit", "");
  return path;
}

void Runtime::SetPlacementPolicy(PlacementHook* policy) {
  AMBER_CHECK(!ran_) << "attach the placement policy before Run()";
  policy_ = policy;
}

void Runtime::SetFaultInjector(fault::Injector* injector) {
  AMBER_CHECK(!ran_) << "attach the fault injector before Run()";
  AMBER_CHECK(injector_ == nullptr || injector == nullptr) << "fault injector already attached";
  injector_ = injector;
  if (injector_ != nullptr) {
    injector_->Attach(sim_.get(), net_.get(), rpc_.get());
    if (injector_->active()) {
      // Real failure detection: a heartbeat/lease membership service whose
      // datagrams ride the same faulty network as everything else. The
      // repair, screening and recovery paths ask *it* who is reachable; the
      // injector stays ground truth for tests and detection-quality metrics
      // only. An empty plan creates none of this (byte-identity contract).
      membership_ = std::make_unique<fault::Membership>(sim_.get(), net_.get());
      membership_->SetSuspicionHandler(
          [this](Time when, NodeId by, NodeId peer) { OnPeerSuspected(when, by, peer); });
      membership_->SetTrustHandler(
          [this](Time when, NodeId by, NodeId peer) { OnPeerTrusted(when, by, peer); });
      membership_->Start();
      rpc_->SetSuspicionOracle(
          [this](NodeId src, NodeId dst) { return Suspects(src, dst); });
      injector_->SetNodeEventHandler(
          [this](Time when, NodeId node, bool up) { OnNodeEvent(when, node, up); });
    }
  }
}

int Runtime::SyncObjectId(const void* obj) {
  const auto [it, inserted] = sync_ids_.try_emplace(obj, static_cast<int>(sync_ids_.size()) + 1);
  return it->second;
}

void Runtime::NotifyLockBlocked(const void* lock) {
  if (!instrumented()) {
    return;
  }
  const int id = SyncObjectId(lock);
  sim_->Emit(&RuntimeObserver::OnLockBlocked, sim_->Now(), here(), sim_->current()->id, id);
}

void Runtime::NotifyLockAcquired(const void* lock, Duration wait) {
  if (!instrumented()) {
    return;
  }
  const int id = SyncObjectId(lock);
  sim_->Emit(&RuntimeObserver::OnLockAcquired, sim_->Now(), here(), sim_->current()->id, id,
             wait);
}

void Runtime::NotifyLockHeldSince(const void* lock, Time when, ThreadObject* holder) {
  if (!instrumented()) {
    return;
  }
  lock_acquired_[lock] = {when, holder};
}

std::vector<Runtime::HeldLock> Runtime::HeldLocks() const {
  std::vector<HeldLock> held;
  held.reserve(lock_acquired_.size());
  for (const auto& [lock, hold] : lock_acquired_) {
    HeldLock h;
    // Read-only id lookup: locks that never produced an id-bearing event
    // stay 0 — assigning here would perturb the dense numbering that
    // traces and metrics labels already use.
    if (auto it = sync_ids_.find(lock); it != sync_ids_.end()) {
      h.lock = it->second;
    }
    if (hold.holder != nullptr && hold.holder->fiber_ != nullptr) {
      h.holder = hold.holder->fiber_->id;
    }
    h.since = hold.since;
    held.push_back(h);
  }
  // lock_acquired_ iterates in pointer order (nondeterministic across
  // runs); sort by stable keys so dumps stay byte-identical.
  std::sort(held.begin(), held.end(), [](const HeldLock& a, const HeldLock& b) {
    return std::tie(a.lock, a.holder, a.since) < std::tie(b.lock, b.holder, b.since);
  });
  return held;
}

void Runtime::NotifyLockReleased(const void* lock) {
  if (!instrumented()) {
    return;
  }
  Duration held = 0;
  if (auto it = lock_acquired_.find(lock); it != lock_acquired_.end()) {
    held = sim_->Now() - it->second.since;
    lock_acquired_.erase(it);
  }
  const int id = SyncObjectId(lock);
  sim_->Emit(&RuntimeObserver::OnLockReleased, sim_->Now(), here(), sim_->current()->id, id,
             held);
}

void Runtime::NotifyConditionWake(const void* condition, int woken) {
  if (!instrumented()) {
    return;
  }
  sim_->Emit(&RuntimeObserver::OnConditionWake, sim_->Now(), here(), SyncObjectId(condition),
             woken);
}

// --- Validation -------------------------------------------------------------------------

void Runtime::ValidateLocationInvariants() {
  // `owner` is the one record of residency: no table may claim it.
  for (const auto& tab : tables_) {
    tab->ForEach([&tab](const void* obj, const Descriptor& d) {
      AMBER_CHECK(d.state != Residency::kResident)
          << "node " << tab->node() << "'s table stores residency of " << obj;
    });
  }
  // Fault-injected runs skip down nodes (their tables are frozen until the
  // restart repair), and a chain may dead-end at one (repaired lazily by
  // BroadcastLocate). The oracle use (sim_->NodeUp) is sanctioned here —
  // validation is a test instrument, not a protocol path.
  const bool faulty = injector_ != nullptr && injector_->active();
  ForEachListedObject([this, faulty](Object* obj, uint64_t) {
    const ObjectHeader& h = obj->amber_header();
    if (h.IsMember() || h.IsStackLocal()) {
      return;
    }
    AMBER_CHECK(h.owner >= 0 && h.owner < nodes()) << "object owned by node " << h.owner;
    // Every forwarding chain terminates at the owner, and only an immutable
    // object has replicas.
    for (NodeId n = 0; n < nodes(); ++n) {
      if (faulty && !sim_->NodeUp(n)) {
        continue;
      }
      NodeId at = n;
      int hops = 0;
      for (;;) {
        if (faulty && !sim_->NodeUp(at)) {
          break;  // chain runs into a down node: terminal until repaired
        }
        const Descriptor d = DescriptorAt(at, obj);
        if (d.state == Residency::kResident) {
          break;
        }
        if (d.state == Residency::kReplica) {
          AMBER_CHECK(h.IsImmutable()) << "replica of a mutable object";
          break;
        }
        if (d.state == Residency::kUninitialized) {
          const NodeId home = gas_->HomeOf(obj);
          AMBER_CHECK(home != at) << "dangling home descriptor";
          at = home;
        } else {
          at = d.forward;
        }
        AMBER_CHECK(++hops <= 2 * nodes()) << "forwarding chain does not terminate";
      }
    }
    // Attachment groups are co-located.
    for (Object* c = h.first_child; c != nullptr; c = c->amber_header().next_sibling) {
      AMBER_CHECK(c->amber_header().owner == h.owner) << "attached child on different node";
    }
  });
}

}  // namespace amber
