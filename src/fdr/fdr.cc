#include "src/fdr/fdr.h"

#include <algorithm>

#include "src/base/json.h"
#include "src/metrics/metrics.h"
#include "src/sim/fiber.h"

namespace fdr {
namespace {

using amber::json::Quote;

// Stable type names — the dump schema renderers switch on.
const char* TypeName(EventType t) {
  switch (t) {
    case EventType::kThreadCreate:      return "thread_create";
    case EventType::kThreadDispatch:    return "thread_dispatch";
    case EventType::kThreadBlock:       return "thread_block";
    case EventType::kThreadUnblock:     return "thread_unblock";
    case EventType::kThreadPreempt:     return "thread_preempt";
    case EventType::kThreadExit:        return "thread_exit";
    case EventType::kThreadJoin:        return "thread_join";
    case EventType::kThreadMigrate:     return "thread_migrate";
    case EventType::kInvokeEnter:       return "invoke_enter";
    case EventType::kInvokeExit:        return "invoke_exit";
    case EventType::kLockBlocked:       return "lock_blocked";
    case EventType::kLockAcquired:      return "lock_acquired";
    case EventType::kLockReleased:      return "lock_released";
    case EventType::kConditionWake:     return "condition_wake";
    case EventType::kRpcRequest:        return "rpc_request";
    case EventType::kRpcResponse:       return "rpc_response";
    case EventType::kRpcRetry:          return "rpc_retry";
    case EventType::kRpcTimeout:        return "rpc_timeout";
    case EventType::kObjectMove:        return "object_move";
    case EventType::kReplicaInstall:    return "replica_install";
    case EventType::kMessage:           return "message";
    case EventType::kMessageDropped:    return "message_dropped";
    case EventType::kMessageDuplicated: return "message_duplicated";
    case EventType::kMessageDelayed:    return "message_delayed";
    case EventType::kNodeCrash:         return "node_crash";
    case EventType::kNodeRestart:       return "node_restart";
    case EventType::kFailureBackoff:    return "failure_backoff";
    case EventType::kNodeSuspected:     return "node_suspected";
    case EventType::kNodeTrusted:       return "node_trusted";
    case EventType::kRecoveryStart:     return "recovery_start";
    case EventType::kRecoveryEnd:       return "recovery_end";
    case EventType::kObjectRecovered:   return "object_recovered";
    case EventType::kNodeDrained:       return "node_drained";
    case EventType::kPolicyMigration:   return "policy_migration";
  }
  return "unknown";
}

}  // namespace

Recorder::Recorder(Config config) : config_(std::move(config)) {
  if (config_.ring_capacity == 0) {
    config_.ring_capacity = 1;
  }
  InternBytes("");  // label 0
}

void Recorder::AttachTo(amber::Runtime& rt) {
  // Pre-size every node's ring so steady-state appends never allocate.
  rings_.reserve(static_cast<size_t>(rt.nodes()));
  for (NodeId n = 0; n < rt.nodes(); ++n) {
    RingFor(n);
  }
  rt.SetBlackBox(this);
}

Recorder::Ring& Recorder::RingFor(NodeId node) {
  const size_t idx = node < 0 ? 0 : static_cast<size_t>(node);
  while (rings_.size() <= idx) {
    rings_.emplace_back();
    if (config_.ring_capacity != kKeepAll) {
      rings_.back().buf.reserve(config_.ring_capacity);
    }
  }
  return rings_[idx];
}

void Recorder::Append(EventType type, Time when, NodeId node, int64_t a, int64_t b, int64_t c,
                      int32_t aux, uint8_t flag, uint64_t span, uint32_t label) {
  Ring& ring = RingFor(node);
  if (ring.buf.size() < config_.ring_capacity) {
    ring.buf.emplace_back();
  }
  Record& r = ring.buf[ring.appended % config_.ring_capacity];
  r.when = when;
  r.seq = next_seq_++;
  r.a = a;
  r.b = b;
  r.c = c;
  r.span = span;
  r.aux = aux;
  r.label = label;
  r.type = type;
  r.flag = flag;
  r.node = static_cast<int16_t>(node);
  ++ring.appended;
  if (when > last_time_) {
    last_time_ = when;
  }
}

int64_t Recorder::recorded() const {
  int64_t total = 0;
  for (const Ring& r : rings_) {
    total += static_cast<int64_t>(r.appended);
  }
  return total;
}

int64_t Recorder::dropped() const {
  int64_t total = 0;
  for (const Ring& r : rings_) {
    total += static_cast<int64_t>(r.appended - r.buf.size());
  }
  return total;
}

void Recorder::PublishMetrics(metrics::Registry* registry) {
  if (registry == nullptr) {
    return;
  }
  for (size_t n = 0; n < rings_.size(); ++n) {
    Ring& r = rings_[n];
    const uint64_t rec = r.appended;
    const uint64_t drop = r.appended - r.buf.size();
    registry->GetCounter("fdr.recorded", static_cast<int>(n))
        .Add(static_cast<int64_t>(rec - r.published_recorded));
    registry->GetCounter("fdr.dropped", static_cast<int>(n))
        .Add(static_cast<int64_t>(drop - r.published_dropped));
    r.published_recorded = rec;
    r.published_dropped = drop;
  }
}

Recorder::ThreadLive& Recorder::Thread(ThreadId tid) { return threads_[tid]; }

const std::string* Recorder::CreatedName(ThreadId thread) const {
  const ThreadLive* t = threads_.Find(thread);
  return t != nullptr && t->created ? &t->name : nullptr;
}

uint32_t Recorder::InternLabel(const std::string& text) {
  const auto [it, inserted] = label_at_.try_emplace(&text, 0);
  // The compare catches a different string later built at the same address.
  if (inserted || Label(it->second) != text) {
    it->second = InternBytes(text);
  }
  return it->second;
}

uint32_t Recorder::InternBytes(const std::string& text) {
  const auto [it, inserted] = label_ids_.try_emplace(text, static_cast<uint32_t>(labels_.size()));
  if (inserted) {
    labels_.push_back(&it->first);
  }
  return it->second;
}

int Recorder::ObjectId(const void* obj) {
  auto it = obj_ids_.find(obj);
  if (it != obj_ids_.end()) {
    return it->second;
  }
  const int id = static_cast<int>(objects_.size());
  obj_ids_.emplace(obj, id);
  objects_.emplace_back();
  return id;
}

void Recorder::TouchObject(int id, NodeId node, Time when) {
  ObjectLive& o = objects_[static_cast<size_t>(id)];
  if (node >= 0) {
    o.node = node;
  }
  if (when > o.last_touch) {
    o.last_touch = when;
  }
}

void Recorder::SetStatus(ThreadId tid, Status status, Time when) {
  ThreadLive& t = Thread(tid);
  t.status = status;
  t.since = when;
}

// --- Observer callbacks: encode + live state ---------------------------------

void Recorder::OnThreadCreate(Time when, NodeId node, ThreadId thread, const std::string& name,
                              ThreadId parent) {
  Append(EventType::kThreadCreate, when, node, static_cast<int64_t>(thread),
         static_cast<int64_t>(parent));
  ThreadLive& t = Thread(thread);
  t.name = name;
  t.created = true;
  t.parent = parent;
  t.node = node;
  t.status = Status::kReady;
  t.since = when;
}

void Recorder::OnThreadDispatch(Time when, NodeId node, ThreadId thread, Duration queue_wait) {
  Append(EventType::kThreadDispatch, when, node, static_cast<int64_t>(thread), queue_wait);
  ThreadLive& t = Thread(thread);
  t.node = node;
  SetStatus(thread, Status::kRunning, when);
}

void Recorder::OnThreadBlock(Time when, NodeId node, ThreadId thread) {
  Append(EventType::kThreadBlock, when, node, static_cast<int64_t>(thread));
  ThreadLive& t = Thread(thread);
  t.node = node;
  // Consume the armed fiber-context marker: it names what this block waits
  // on (the profiler's cause-resolution protocol).
  t.wait = t.pending;
  t.wait_arg = t.pending_arg;
  t.wait_node = t.pending_node;
  t.pending = WaitKind::kNone;
  t.pending_arg = 0;
  t.pending_node = -1;
  SetStatus(thread, Status::kBlocked, when);
}

void Recorder::OnThreadUnblock(Time when, NodeId node, ThreadId thread, ThreadId waker,
                               Time wake_time) {
  Append(EventType::kThreadUnblock, when, node, static_cast<int64_t>(thread),
         static_cast<int64_t>(waker), wake_time);
  ThreadLive& t = Thread(thread);
  t.node = node;
  t.wait = WaitKind::kNone;
  t.wait_arg = 0;
  t.wait_node = -1;
  SetStatus(thread, Status::kReady, when);
}

void Recorder::OnThreadPreempt(Time when, NodeId node, ThreadId thread) {
  Append(EventType::kThreadPreempt, when, node, static_cast<int64_t>(thread));
  SetStatus(thread, Status::kReady, when);
}

void Recorder::OnThreadExit(Time when, NodeId node, ThreadId thread) {
  Append(EventType::kThreadExit, when, node, static_cast<int64_t>(thread));
  SetStatus(thread, Status::kExited, when);
}

void Recorder::OnThreadJoin(Time when, NodeId node, ThreadId thread, ThreadId target) {
  Append(EventType::kThreadJoin, when, node, static_cast<int64_t>(thread),
         static_cast<int64_t>(target));
  ThreadLive& t = Thread(thread);
  t.pending = WaitKind::kJoin;
  t.pending_arg = static_cast<int64_t>(target);
}

void Recorder::OnThreadMigrate(Time when, NodeId src, NodeId dst, ThreadId thread,
                               int64_t bytes) {
  Append(EventType::kThreadMigrate, when, src, static_cast<int64_t>(thread), bytes, 0, dst, 0,
         SpanOf(thread));
  ThreadLive& t = Thread(thread);
  t.pending = WaitKind::kMigration;
  t.pending_node = dst;
}

void Recorder::OnInvokeEnter(Time when, NodeId node, ThreadId thread, const void* obj,
                             const std::string& object, bool remote, NodeId origin,
                             Duration entry_overhead) {
  const int id = ObjectId(obj);
  const uint32_t label = InternLabel(object);
  ObjectLive& o = objects_[static_cast<size_t>(id)];
  if (o.label == 0) {
    o.label = label;
  }
  TouchObject(id, node, when);
  Append(EventType::kInvokeEnter, when, node, static_cast<int64_t>(thread), id, entry_overhead,
         origin, remote ? 1 : 0, SpanOf(thread), label);
  Thread(thread).stack.push_back(id);
}

void Recorder::OnInvokeExit(Time when, NodeId node, ThreadId thread, Duration span, bool remote,
                            Duration exit_overhead) {
  Append(EventType::kInvokeExit, when, node, static_cast<int64_t>(thread), span, exit_overhead,
         0, remote ? 1 : 0, SpanOf(thread));
  ThreadLive& t = Thread(thread);
  if (!t.stack.empty()) {
    t.stack.pop_back();
  }
}

void Recorder::OnLockBlocked(Time when, NodeId node, ThreadId thread, int lock) {
  Append(EventType::kLockBlocked, when, node, static_cast<int64_t>(thread), 0, 0, lock, 0,
         SpanOf(thread));
  ThreadLive& t = Thread(thread);
  t.pending = WaitKind::kLock;
  t.pending_arg = lock;
  locks_[lock].waiters.push_back(thread);
}

void Recorder::OnLockAcquired(Time when, NodeId node, ThreadId thread, int lock,
                              Duration wait) {
  Append(EventType::kLockAcquired, when, node, static_cast<int64_t>(thread), wait, 0, lock, 0,
         SpanOf(thread));
  LockLive& l = locks_[lock];
  l.holder = thread;
  l.waiters.erase(std::remove(l.waiters.begin(), l.waiters.end(), thread), l.waiters.end());
  Thread(thread).held_locks.push_back(lock);
}

void Recorder::OnLockReleased(Time when, NodeId node, ThreadId thread, int lock,
                              Duration held) {
  Append(EventType::kLockReleased, when, node, static_cast<int64_t>(thread), held, 0, lock);
  LockLive& l = locks_[lock];
  if (l.holder == thread) {
    l.holder = 0;
  }
  auto& hl = Thread(thread).held_locks;
  hl.erase(std::remove(hl.begin(), hl.end(), lock), hl.end());
}

void Recorder::OnConditionWake(Time when, NodeId node, int condition, int woken) {
  Append(EventType::kConditionWake, when, node, woken, 0, 0, condition);
}

void Recorder::OnRpcRequest(Time depart, NodeId src, NodeId dst, int64_t bytes, uint64_t id,
                            ThreadId requester) {
  Append(EventType::kRpcRequest, depart, src, static_cast<int64_t>(id), bytes,
         static_cast<int64_t>(requester), dst, 0, SpanOf(requester));
  rpcs_[id] = RpcLive{src, dst, bytes, requester, depart, 1};
  if (requester != 0) {
    ThreadLive& t = Thread(requester);
    t.pending = WaitKind::kRpc;
    t.pending_arg = static_cast<int64_t>(id);
    t.pending_node = dst;
  }
}

void Recorder::OnRpcResponse(Time when, Time reply_arrive, NodeId src, NodeId dst,
                             int64_t bytes, uint64_t id) {
  Append(EventType::kRpcResponse, when, src, static_cast<int64_t>(id), bytes, reply_arrive,
         dst);
  rpcs_.erase(id);
}

void Recorder::OnRpcRetry(Time when, NodeId src, NodeId dst, uint64_t id, int attempt,
                          ThreadId requester) {
  Append(EventType::kRpcRetry, when, src, static_cast<int64_t>(id), attempt,
         static_cast<int64_t>(requester), dst, 0, SpanOf(requester));
  auto it = rpcs_.find(id);
  if (it != rpcs_.end()) {
    it->second.attempts = attempt + 1;  // attempt is the 1-based retransmission count
  } else {
    // Thread travels emit no request event for their first transmission —
    // a retry is the first we hear of them. Track the roundtrip anyway
    // (bytes unknown) so mid-retry travels appear as in flight.
    rpcs_[id] = RpcLive{src, dst, 0, requester, when, attempt + 1};
  }
}

void Recorder::OnRpcTimeout(Time when, NodeId src, NodeId dst, uint64_t id, int attempts,
                            ThreadId requester) {
  Append(EventType::kRpcTimeout, when, src, static_cast<int64_t>(id), attempts,
         static_cast<int64_t>(requester), dst, 0, SpanOf(requester));
  rpcs_.erase(id);
}

void Recorder::OnObjectMove(Time when, const void* obj, NodeId src, NodeId dst,
                            int64_t bytes) {
  const int id = ObjectId(obj);
  TouchObject(id, dst, when);
  Append(EventType::kObjectMove, when, src, id, bytes, 0, dst);
}

void Recorder::OnReplicaInstall(Time when, const void* obj, NodeId node) {
  const int id = ObjectId(obj);
  TouchObject(id, -1, when);  // replicas don't change the primary's home
  Append(EventType::kReplicaInstall, when, node, id);
}

void Recorder::OnMessage(Time depart, Time arrive, NodeId src, NodeId dst, int64_t bytes) {
  Append(EventType::kMessage, depart, src, bytes, arrive, 0, dst);
}

void Recorder::OnMessageDropped(Time when, NodeId src, NodeId dst, int64_t bytes,
                                const char* reason) {
  Append(EventType::kMessageDropped, when, src, bytes, 0, 0, dst, 0, 0,
         reason != nullptr ? InternBytes(reason) : 0);
}

void Recorder::OnMessageDuplicated(Time when, NodeId src, NodeId dst, int64_t bytes) {
  Append(EventType::kMessageDuplicated, when, src, bytes, 0, 0, dst);
}

void Recorder::OnMessageDelayed(Time when, NodeId src, NodeId dst, Duration extra) {
  Append(EventType::kMessageDelayed, when, src, extra, 0, 0, dst);
}

void Recorder::OnNodeCrash(Time when, NodeId node) {
  Append(EventType::kNodeCrash, when, node);
  crashed_.insert(node);
}

void Recorder::OnNodeRestart(Time when, NodeId node) {
  Append(EventType::kNodeRestart, when, node);
  crashed_.erase(node);
}

void Recorder::OnFailureBackoff(Time when, NodeId node, ThreadId thread, Duration backoff) {
  Append(EventType::kFailureBackoff, when, node, static_cast<int64_t>(thread), backoff, 0, 0, 0,
         SpanOf(thread));
  Thread(thread).pending = WaitKind::kBackoff;
}

void Recorder::OnNodeSuspected(Time when, NodeId by, NodeId node) {
  Append(EventType::kNodeSuspected, when, by, 0, 0, 0, node);
  suspects_[by].insert(node);
}

void Recorder::OnNodeTrusted(Time when, NodeId by, NodeId node) {
  Append(EventType::kNodeTrusted, when, by, 0, 0, 0, node);
  auto it = suspects_.find(by);
  if (it != suspects_.end()) {
    it->second.erase(node);
  }
}

void Recorder::OnRecoveryStart(Time when, NodeId node, ThreadId thread, const void* obj) {
  const int id = ObjectId(obj);
  Append(EventType::kRecoveryStart, when, node, static_cast<int64_t>(thread), id);
  Thread(thread).in_recovery = true;
}

void Recorder::OnRecoveryEnd(Time when, NodeId node, ThreadId thread, const void* obj,
                             bool ok) {
  const int id = ObjectId(obj);
  Append(EventType::kRecoveryEnd, when, node, static_cast<int64_t>(thread), id, 0, 0,
         ok ? 1 : 0);
  Thread(thread).in_recovery = false;
}

void Recorder::OnObjectRecovered(Time when, const void* obj, NodeId from, NodeId to,
                                 bool from_checkpoint) {
  const int id = ObjectId(obj);
  TouchObject(id, to, when);
  Append(EventType::kObjectRecovered, when, to, id, 0, 0, from, from_checkpoint ? 1 : 0);
}

void Recorder::OnNodeDrained(Time when, NodeId node, int objects_moved) {
  Append(EventType::kNodeDrained, when, node, objects_moved);
}

void Recorder::OnPolicyMigration(Time when, const void* obj, NodeId from, NodeId to, bool ok,
                                 Duration cost) {
  const int id = ObjectId(obj);
  TouchObject(id, to, when);
  Append(EventType::kPolicyMigration, when, to, id, cost, 0, from, ok ? 1 : 0);
}

// --- Dump rendering ----------------------------------------------------------

void Recorder::RenderEvent(std::ostream& out, const Record& r) const {
  out << "{\"seq\":" << r.seq << ",\"t\":" << r.when << ",\"node\":" << r.node << ",\"type\":\""
      << TypeName(r.type) << "\"";
  switch (r.type) {
    case EventType::kThreadCreate:
      out << ",\"thread\":" << r.a << ",\"parent\":" << r.b;
      break;
    case EventType::kThreadDispatch:
      out << ",\"thread\":" << r.a << ",\"queue_wait_ns\":" << r.b;
      break;
    case EventType::kThreadBlock:
    case EventType::kThreadPreempt:
    case EventType::kThreadExit:
      out << ",\"thread\":" << r.a;
      break;
    case EventType::kThreadUnblock:
      out << ",\"thread\":" << r.a << ",\"waker\":" << r.b << ",\"wake_time_ns\":" << r.c;
      break;
    case EventType::kThreadJoin:
      out << ",\"thread\":" << r.a << ",\"target\":" << r.b;
      break;
    case EventType::kThreadMigrate:
      out << ",\"thread\":" << r.a << ",\"dst\":" << r.aux << ",\"bytes\":" << r.b;
      break;
    case EventType::kInvokeEnter:
      out << ",\"thread\":" << r.a << ",\"object\":" << r.b << ",\"origin\":" << r.aux
          << ",\"remote\":" << (r.flag ? "true" : "false") << ",\"entry_overhead_ns\":" << r.c;
      break;
    case EventType::kInvokeExit:
      out << ",\"thread\":" << r.a << ",\"span_ns\":" << r.b
          << ",\"remote\":" << (r.flag ? "true" : "false") << ",\"exit_overhead_ns\":" << r.c;
      break;
    case EventType::kLockBlocked:
      out << ",\"thread\":" << r.a << ",\"lock\":" << r.aux;
      break;
    case EventType::kLockAcquired:
      out << ",\"thread\":" << r.a << ",\"lock\":" << r.aux << ",\"wait_ns\":" << r.b;
      break;
    case EventType::kLockReleased:
      out << ",\"thread\":" << r.a << ",\"lock\":" << r.aux << ",\"held_ns\":" << r.b;
      break;
    case EventType::kConditionWake:
      out << ",\"condition\":" << r.aux << ",\"woken\":" << r.a;
      break;
    case EventType::kRpcRequest:
      out << ",\"id\":" << r.a << ",\"dst\":" << r.aux << ",\"bytes\":" << r.b
          << ",\"requester\":" << r.c;
      break;
    case EventType::kRpcResponse:
      out << ",\"id\":" << r.a << ",\"dst\":" << r.aux << ",\"bytes\":" << r.b
          << ",\"reply_arrive_ns\":" << r.c;
      break;
    case EventType::kRpcRetry:
      out << ",\"id\":" << r.a << ",\"dst\":" << r.aux << ",\"attempt\":" << r.b
          << ",\"requester\":" << r.c;
      break;
    case EventType::kRpcTimeout:
      out << ",\"id\":" << r.a << ",\"dst\":" << r.aux << ",\"attempts\":" << r.b
          << ",\"requester\":" << r.c;
      break;
    case EventType::kObjectMove:
      out << ",\"object\":" << r.a << ",\"dst\":" << r.aux << ",\"bytes\":" << r.b;
      break;
    case EventType::kReplicaInstall:
      out << ",\"object\":" << r.a;
      break;
    case EventType::kMessage:
      out << ",\"dst\":" << r.aux << ",\"bytes\":" << r.a << ",\"arrive_ns\":" << r.b;
      break;
    case EventType::kMessageDropped:
      out << ",\"dst\":" << r.aux << ",\"bytes\":" << r.a
          << ",\"reason\":" << Quote(Label(r.label));
      break;
    case EventType::kMessageDuplicated:
      out << ",\"dst\":" << r.aux << ",\"bytes\":" << r.a;
      break;
    case EventType::kMessageDelayed:
      out << ",\"dst\":" << r.aux << ",\"extra_ns\":" << r.a;
      break;
    case EventType::kNodeCrash:
    case EventType::kNodeRestart:
      break;
    case EventType::kFailureBackoff:
      out << ",\"thread\":" << r.a << ",\"backoff_ns\":" << r.b;
      break;
    case EventType::kNodeSuspected:
    case EventType::kNodeTrusted:
      out << ",\"peer\":" << r.aux;
      break;
    case EventType::kRecoveryStart:
      out << ",\"thread\":" << r.a << ",\"object\":" << r.b;
      break;
    case EventType::kRecoveryEnd:
      out << ",\"thread\":" << r.a << ",\"object\":" << r.b << ",\"ok\":"
          << (r.flag ? "true" : "false");
      break;
    case EventType::kObjectRecovered:
      out << ",\"object\":" << r.a << ",\"from\":" << r.aux << ",\"from_checkpoint\":"
          << (r.flag ? "true" : "false");
      break;
    case EventType::kNodeDrained:
      out << ",\"objects_moved\":" << r.a;
      break;
    case EventType::kPolicyMigration:
      out << ",\"object\":" << r.a << ",\"from\":" << r.aux << ",\"cost_ns\":" << r.b
          << ",\"ok\":" << (r.flag ? "true" : "false");
      break;
  }
  // Trace join key, present only when a span source stamped the record —
  // span-free dumps stay byte-identical to the pre-span schema.
  if (r.span != 0) {
    out << ",\"span\":" << r.span;
  }
  out << "}";
}

void Recorder::WriteDump(std::ostream& out, const std::string& reason,
                         const std::string& detail) {
  amber::Runtime* rt = amber::Runtime::CurrentOrNull();

  out << "{\n";
  out << "  \"fdr\": " << Quote(config_.name) << ",\n";
  out << "  \"schema\": 1,\n";
  out << "  \"reason\": " << Quote(reason) << ",\n";
  out << "  \"detail\": " << Quote(detail) << ",\n";
  const Time vt = rt != nullptr ? rt->now() : last_time_;
  out << "  \"virtual_time_ns\": " << vt << ",\n";
  // The thread this dump is "about": the fiber that was executing when the
  // dump was requested (the panicking thread), or 0 when the death happened
  // in event context / outside the simulation.
  ThreadId dying = 0;
  if (rt != nullptr && rt->sim().current() != nullptr) {
    dying = rt->sim().current()->id;
  }
  out << "  \"dying_thread\": " << dying << ",\n";
  out << "  \"ring_capacity\": " << config_.ring_capacity << ",\n";
  out << "  \"recorded\": " << recorded() << ",\n";
  out << "  \"dropped\": " << dropped() << ",\n";

  // Per-node ring stats + last activity (the analyzer's "was this node
  // really dead" cross-check against suspicion views).
  out << "  \"nodes\": [";
  for (size_t n = 0; n < rings_.size(); ++n) {
    const Ring& ring = rings_[n];
    Time last = 0;
    for (const Record& r : ring.buf) {
      last = std::max(last, r.when);
    }
    const uint64_t drop = ring.appended - ring.buf.size();
    out << (n == 0 ? "" : ",") << "\n    {\"node\":" << n << ",\"recorded\":" << ring.appended
        << ",\"dropped\":" << drop << ",\"crashed\":"
        << (crashed_.count(static_cast<NodeId>(n)) ? "true" : "false")
        << ",\"last_event_ns\":" << last << "}";
  }
  out << "\n  ],\n";

  // Suspicion views: the authoritative Membership::Suspects() matrix when a
  // runtime (with an active fault plan) is still alive, else the view
  // reconstructed from suspected/trusted events.
  out << "  \"suspicion\": [";
  {
    bool first = true;
    const int nnodes = rt != nullptr ? rt->nodes() : static_cast<int>(rings_.size());
    for (NodeId viewer = 0; viewer < nnodes; ++viewer) {
      std::vector<NodeId> sus;
      if (rt != nullptr && rt->membership() != nullptr) {
        for (NodeId peer = 0; peer < nnodes; ++peer) {
          if (rt->membership()->Suspects(viewer, peer)) {
            sus.push_back(peer);
          }
        }
      } else {
        auto it = suspects_.find(viewer);
        if (it != suspects_.end()) {
          sus.assign(it->second.begin(), it->second.end());
        }
      }
      out << (first ? "" : ",") << "\n    {\"viewer\":" << viewer << ",\"suspects\":[";
      for (size_t i = 0; i < sus.size(); ++i) {
        out << (i == 0 ? "" : ",") << sus[i];
      }
      out << "]}";
      first = false;
    }
  }
  out << "\n  ],\n";

  // Ground-truth lock holds from the runtime. Uncontended acquires emit no
  // observer event (the fast path is uninstrumented by design), so the
  // event-derived lock table alone misses them; Runtime::HeldLocks() fills
  // the gap at dump time without perturbing any id numbering.
  std::map<ThreadId, std::vector<int>> extra_held;    // holder -> lock ids
  std::map<int, ThreadId> holder_override;            // lock id -> holder
  std::vector<amber::Runtime::HeldLock> anon_holds;   // never-id'd locks
  if (rt != nullptr) {
    for (const amber::Runtime::HeldLock& h : rt->HeldLocks()) {
      if (h.lock > 0 && h.holder != 0) {
        holder_override[h.lock] = h.holder;
        extra_held[h.holder].push_back(h.lock);
      } else {
        anon_holds.push_back(h);
      }
    }
  }

  // Per-thread state at time of death.
  out << "  \"threads\": [";
  {
    bool first = true;
    threads_.ForEach([&](ThreadId tid, const ThreadLive& t) {
      out << (first ? "" : ",") << "\n    {\"thread\":" << tid << ",\"name\":" << Quote(t.name)
          << ",\"parent\":" << t.parent << ",\"node\":" << t.node << ",\"status\":\"";
      switch (t.status) {
        case Status::kReady:   out << "ready"; break;
        case Status::kRunning: out << "running"; break;
        case Status::kBlocked: out << "blocked"; break;
        case Status::kExited:  out << "exited"; break;
      }
      out << "\",\"since_ns\":" << t.since << ",\"wait\":\"";
      switch (t.wait) {
        case WaitKind::kNone:      out << "none"; break;
        case WaitKind::kLock:      out << "lock"; break;
        case WaitKind::kRpc:       out << "rpc"; break;
        case WaitKind::kJoin:      out << "join"; break;
        case WaitKind::kMigration: out << "migration"; break;
        case WaitKind::kBackoff:   out << "backoff"; break;
      }
      out << "\",\"wait_arg\":" << t.wait_arg << ",\"wait_node\":" << t.wait_node
          << ",\"in_recovery\":" << (t.in_recovery ? "true" : "false") << ",\"held_locks\":[";
      std::vector<int> held = t.held_locks;
      if (auto eit = extra_held.find(tid); eit != extra_held.end()) {
        for (int lock : eit->second) {
          if (std::find(held.begin(), held.end(), lock) == held.end()) {
            held.push_back(lock);
          }
        }
      }
      for (size_t i = 0; i < held.size(); ++i) {
        out << (i == 0 ? "" : ",") << held[i];
      }
      out << "],\"stack\":[";
      for (size_t i = 0; i < t.stack.size(); ++i) {
        out << (i == 0 ? "" : ",") << t.stack[i];
      }
      out << "]}";
      first = false;
    });
  }
  out << "\n  ],\n";

  // Lock table: who holds what, who waits. Event-derived waiters, with the
  // holder corrected from the runtime's ground truth when available.
  out << "  \"locks\": [";
  {
    std::map<int, LockLive> table = locks_;
    for (const auto& [id, holder] : holder_override) {
      table[id].holder = holder;
    }
    bool first = true;
    for (const auto& [id, l] : table) {
      if (l.holder == 0 && l.waiters.empty()) {
        continue;  // free and uncontended: noise
      }
      out << (first ? "" : ",") << "\n    {\"lock\":" << id << ",\"holder\":" << l.holder
          << ",\"waiters\":[";
      for (size_t i = 0; i < l.waiters.size(); ++i) {
        out << (i == 0 ? "" : ",") << l.waiters[i];
      }
      out << "]}";
      first = false;
    }
    // Locks held but never contended/released while observed have no dense
    // id; list them anyway (id 0) so no hold is silently missing.
    for (const amber::Runtime::HeldLock& h : anon_holds) {
      out << (first ? "" : ",") << "\n    {\"lock\":0,\"holder\":" << h.holder
          << ",\"waiters\":[]}";
      first = false;
    }
  }
  out << "\n  ],\n";

  // Reliable roundtrips still in flight, with their transmission counts.
  out << "  \"rpcs_in_flight\": [";
  {
    bool first = true;
    for (const auto& [id, r] : rpcs_) {
      out << (first ? "" : ",") << "\n    {\"id\":" << id << ",\"src\":" << r.src
          << ",\"dst\":" << r.dst << ",\"bytes\":" << r.bytes << ",\"requester\":" << r.requester
          << ",\"depart_ns\":" << r.depart << ",\"attempts\":" << r.attempts << "}";
      first = false;
    }
  }
  out << "\n  ],\n";

  // Recently-touched objects, with their descriptor forwarding chain on
  // every node (read via DescriptorTable::ForEach — no Lookup side effects).
  std::vector<int> selected;
  for (size_t i = 0; i < objects_.size(); ++i) {
    selected.push_back(static_cast<int>(i));
  }
  std::sort(selected.begin(), selected.end(), [this](int a, int b) {
    const ObjectLive& oa = objects_[static_cast<size_t>(a)];
    const ObjectLive& ob = objects_[static_cast<size_t>(b)];
    return oa.last_touch != ob.last_touch ? oa.last_touch > ob.last_touch : a < b;
  });
  if (selected.size() > config_.dump_objects) {
    selected.resize(config_.dump_objects);
  }
  std::sort(selected.begin(), selected.end());
  // id -> per-node descriptor rendering ("res", "rep->h", "->h", "-").
  std::map<int, std::vector<std::string>> chains;
  if (rt != nullptr) {
    std::unordered_map<const void*, int> wanted;
    for (const auto& [ptr, id] : obj_ids_) {
      if (std::binary_search(selected.begin(), selected.end(), id)) {
        wanted.emplace(ptr, id);
      }
    }
    for (int id : selected) {
      chains[id].assign(static_cast<size_t>(rt->nodes()), "-");
    }
    for (NodeId n = 0; n < rt->nodes(); ++n) {
      rt->table(n).ForEach([&](const void* ptr, const amber::Descriptor& d) {
        auto it = wanted.find(ptr);
        if (it == wanted.end()) {
          return;
        }
        std::string& cell = chains[it->second][static_cast<size_t>(n)];
        switch (d.state) {
          case amber::Residency::kUninitialized:
            cell = "-";
            break;
          case amber::Residency::kResident:
            cell = "res";
            break;
          case amber::Residency::kRemoteHint:
            cell = "->" + std::to_string(d.forward);
            break;
          case amber::Residency::kReplica:
            cell = d.forward == amber::kNoNode ? "rep" : "rep->" + std::to_string(d.forward);
            break;
        }
      });
    }
    // Residency is the header's `owner` (kNoNode once the object is deleted).
    for (const auto& [ptr, id] : wanted) {
      const NodeId owner = rt->OwnerOf(static_cast<const amber::Object*>(ptr));
      if (owner != amber::kNoNode) {
        chains[id][static_cast<size_t>(owner)] = "res";
      }
    }
  }
  out << "  \"objects\": [";
  {
    bool first = true;
    for (int id : selected) {
      const ObjectLive& o = objects_[static_cast<size_t>(id)];
      out << (first ? "" : ",") << "\n    {\"id\":" << id << ",\"label\":"
          << Quote(o.label == 0 ? "obj-" + std::to_string(id) : Label(o.label))
          << ",\"node\":" << o.node << ",\"last_touched_ns\":" << o.last_touch
          << ",\"chain\":[";
      auto it = chains.find(id);
      if (it != chains.end()) {
        for (size_t n = 0; n < it->second.size(); ++n) {
          out << (n == 0 ? "" : ",") << "\"" << it->second[n] << "\"";
        }
      }
      out << "]}";
      first = false;
    }
  }
  out << "\n  ],\n";

  // Authoritative kernel snapshot: every fiber still tracked, in creation
  // order — the ground truth the event-derived thread states are checked
  // against.
  out << "  \"fibers\": [";
  if (rt != nullptr) {
    bool first = true;
    rt->sim().ForEachFiber([&](const sim::Fiber& f) {
      out << (first ? "" : ",") << "\n    {\"fiber\":" << f.id << ",\"name\":" << Quote(f.name)
          << ",\"node\":" << f.node << ",\"processor\":" << f.processor << ",\"state\":\""
          << sim::FiberStateName(f.state) << "\",\"vtime_ns\":" << f.vtime << "}";
      first = false;
    });
  }
  out << "\n  ],\n";

  // The causally-merged final window.
  out << "  \"events\": [";
  bool first_event = true;
  ForEachRecord([&](const Record& r) {
    out << (first_event ? "" : ",") << "\n    ";
    RenderEvent(out, r);
    first_event = false;
  });
  out << "\n  ]\n";
  out << "}\n";
}

void Recorder::ForEachRecord(const std::function<void(const Record&)>& fn) const {
  // All retained records across rings, ordered by the global append
  // sequence (== virtual-time order, since every emission happens at an
  // ordered point).
  std::vector<const Record*> merged;
  for (const Ring& ring : rings_) {
    for (const Record& r : ring.buf) {
      merged.push_back(&r);
    }
  }
  std::sort(merged.begin(), merged.end(),
            [](const Record* a, const Record* b) { return a->seq < b->seq; });
  for (const Record* r : merged) {
    fn(*r);
  }
}

}  // namespace fdr
