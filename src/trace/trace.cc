#include "src/trace/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>

#include "src/base/json.h"

namespace trace {
namespace {

const char* KindName(EventKind kind) {
  switch (kind) {
    case EventKind::kThreadMigrate:
      return "thread-migrate";
    case EventKind::kObjectMove:
      return "object-move";
    case EventKind::kReplicaInstall:
      return "replica-install";
    case EventKind::kMessage:
      return "message";
    case EventKind::kThreadCreate:
      return "thread-create";
    case EventKind::kThreadDispatch:
      return "thread-dispatch";
    case EventKind::kThreadBlock:
      return "thread-block";
    case EventKind::kThreadUnblock:
      return "thread-unblock";
    case EventKind::kThreadPreempt:
      return "thread-preempt";
    case EventKind::kThreadExit:
      return "thread-exit";
    case EventKind::kInvokeEnter:
      return "invoke-enter";
    case EventKind::kInvokeExit:
      return "invoke-exit";
    case EventKind::kLockBlocked:
      return "lock-blocked";
    case EventKind::kLockAcquired:
      return "lock-acquired";
    case EventKind::kLockReleased:
      return "lock-released";
    case EventKind::kConditionWake:
      return "condition-wake";
    case EventKind::kRpcRequest:
      return "rpc-request";
    case EventKind::kRpcResponse:
      return "rpc-response";
    case EventKind::kMessageDrop:
      return "message-drop";
    case EventKind::kMessageDup:
      return "message-dup";
    case EventKind::kMessageDelay:
      return "message-delay";
    case EventKind::kNodeCrash:
      return "node-crash";
    case EventKind::kNodeRestart:
      return "node-restart";
    case EventKind::kRpcRetry:
      return "rpc-retry";
    case EventKind::kRpcTimeout:
      return "rpc-timeout";
  }
  return "?";
}

using amber::json::Escape;

double Us(Time t) { return static_cast<double>(t) / 1000.0; }

// One rendered trace line, sortable by timestamp with a stable sequence so
// identical runs produce byte-identical files.
struct Line {
  double ts;
  int seq;
  std::string json;
};

}  // namespace

bool IsDistributionEvent(EventKind kind) {
  switch (kind) {
    case EventKind::kThreadMigrate:
    case EventKind::kObjectMove:
    case EventKind::kReplicaInstall:
    case EventKind::kMessage:
      return true;
    default:
      return false;
  }
}

std::string Tracer::ObjLabel(const void* obj) {
  const auto [it, inserted] =
      obj_ids_.try_emplace(obj, static_cast<int>(obj_ids_.size()));
  return "obj-" + std::to_string(it->second);
}

std::string Tracer::ThreadName(ThreadId tid) const {
  const auto it = thread_names_.find(tid);
  if (it != thread_names_.end()) {
    return it->second;
  }
  return "t" + std::to_string(tid);
}

// --- Recording ------------------------------------------------------------------

void Tracer::OnThreadMigrate(Time when, NodeId src, NodeId dst, ThreadId thread,
                             int64_t bytes) {
  Event e;
  e.kind = EventKind::kThreadMigrate;
  e.when = when;
  e.src = src;
  e.dst = dst;
  e.bytes = bytes;
  e.tid = thread;
  events_.push_back(std::move(e));
}

void Tracer::OnObjectMove(Time when, const void* obj, NodeId src, NodeId dst, int64_t bytes) {
  Event e;
  e.kind = EventKind::kObjectMove;
  e.when = when;
  e.src = src;
  e.dst = dst;
  e.bytes = bytes;
  e.label = ObjLabel(obj);
  events_.push_back(std::move(e));
}

void Tracer::OnReplicaInstall(Time when, const void* obj, NodeId node) {
  Event e;
  e.kind = EventKind::kReplicaInstall;
  e.when = when;
  e.src = node;
  e.dst = node;
  e.label = ObjLabel(obj);
  events_.push_back(std::move(e));
}

void Tracer::OnMessage(Time depart, Time arrive, NodeId src, NodeId dst, int64_t bytes) {
  Event e;
  e.kind = EventKind::kMessage;
  e.when = depart;
  e.arrive = arrive;
  e.src = src;
  e.dst = dst;
  e.bytes = bytes;
  events_.push_back(std::move(e));
}

void Tracer::OnThreadCreate(Time when, NodeId node, ThreadId thread, const std::string& name,
                            ThreadId parent) {
  (void)parent;
  thread_names_[thread] = name;
  Event e;
  e.kind = EventKind::kThreadCreate;
  e.when = when;
  e.src = e.dst = node;
  e.tid = thread;
  events_.push_back(std::move(e));
}

void Tracer::OnThreadDispatch(Time when, NodeId node, ThreadId thread, Duration queue_wait) {
  Event e;
  e.kind = EventKind::kThreadDispatch;
  e.when = when;
  e.src = e.dst = node;
  e.dur = queue_wait;
  e.tid = thread;
  events_.push_back(std::move(e));
}

void Tracer::OnThreadBlock(Time when, NodeId node, ThreadId thread) {
  Event e;
  e.kind = EventKind::kThreadBlock;
  e.when = when;
  e.src = e.dst = node;
  e.tid = thread;
  events_.push_back(std::move(e));
}

void Tracer::OnThreadUnblock(Time when, NodeId node, ThreadId thread, ThreadId waker,
                             Time wake_time) {
  (void)waker;
  (void)wake_time;
  Event e;
  e.kind = EventKind::kThreadUnblock;
  e.when = when;
  e.src = e.dst = node;
  e.tid = thread;
  events_.push_back(std::move(e));
}

void Tracer::OnThreadPreempt(Time when, NodeId node, ThreadId thread) {
  Event e;
  e.kind = EventKind::kThreadPreempt;
  e.when = when;
  e.src = e.dst = node;
  e.tid = thread;
  events_.push_back(std::move(e));
}

void Tracer::OnThreadExit(Time when, NodeId node, ThreadId thread) {
  Event e;
  e.kind = EventKind::kThreadExit;
  e.when = when;
  e.src = e.dst = node;
  e.tid = thread;
  events_.push_back(std::move(e));
}

void Tracer::OnInvokeEnter(Time when, NodeId node, ThreadId thread, const void* obj,
                           const std::string& object, bool remote, NodeId origin,
                           Duration entry_overhead) {
  (void)obj;
  (void)origin;
  (void)entry_overhead;
  Event e;
  e.kind = EventKind::kInvokeEnter;
  e.when = when;
  e.src = e.dst = node;
  e.remote = remote;
  e.tid = thread;
  e.label = object;
  events_.push_back(std::move(e));
}

void Tracer::OnInvokeExit(Time when, NodeId node, ThreadId thread, Duration span, bool remote,
                          Duration exit_overhead) {
  (void)exit_overhead;
  Event e;
  e.kind = EventKind::kInvokeExit;
  e.when = when;
  e.src = e.dst = node;
  e.dur = span;
  e.remote = remote;
  e.tid = thread;
  events_.push_back(std::move(e));
}

void Tracer::OnLockBlocked(Time when, NodeId node, ThreadId thread, int lock) {
  Event e;
  e.kind = EventKind::kLockBlocked;
  e.when = when;
  e.src = e.dst = node;
  e.value = lock;
  e.tid = thread;
  events_.push_back(std::move(e));
}

void Tracer::OnLockAcquired(Time when, NodeId node, ThreadId thread, int lock, Duration wait) {
  Event e;
  e.kind = EventKind::kLockAcquired;
  e.when = when;
  e.src = e.dst = node;
  e.value = lock;
  e.dur = wait;
  e.tid = thread;
  events_.push_back(std::move(e));
}

void Tracer::OnLockReleased(Time when, NodeId node, ThreadId thread, int lock, Duration held) {
  Event e;
  e.kind = EventKind::kLockReleased;
  e.when = when;
  e.src = e.dst = node;
  e.value = lock;
  e.dur = held;
  e.tid = thread;
  events_.push_back(std::move(e));
}

void Tracer::OnConditionWake(Time when, NodeId node, int condition, int woken) {
  Event e;
  e.kind = EventKind::kConditionWake;
  e.when = when;
  e.src = e.dst = node;
  e.value = condition;
  e.bytes = woken;
  events_.push_back(std::move(e));
}

void Tracer::OnRpcRequest(Time depart, NodeId src, NodeId dst, int64_t bytes, uint64_t id,
                          ThreadId requester) {
  Event e;
  e.kind = EventKind::kRpcRequest;
  e.when = depart;
  e.src = src;
  e.dst = dst;
  e.bytes = bytes;
  e.value = static_cast<int64_t>(id);
  e.tid = requester;
  events_.push_back(std::move(e));
}

void Tracer::OnRpcResponse(Time when, Time reply_arrive, NodeId src, NodeId dst, int64_t bytes,
                           uint64_t id) {
  Event e;
  e.kind = EventKind::kRpcResponse;
  e.when = when;
  e.arrive = reply_arrive;
  e.src = src;
  e.dst = dst;
  e.bytes = bytes;
  e.value = static_cast<int64_t>(id);
  events_.push_back(std::move(e));
}

void Tracer::OnMessageDropped(Time when, NodeId src, NodeId dst, int64_t bytes,
                              const char* reason) {
  Event e;
  e.kind = EventKind::kMessageDrop;
  e.when = when;
  e.src = src;
  e.dst = dst;
  e.bytes = bytes;
  e.label = reason;
  events_.push_back(std::move(e));
}

void Tracer::OnMessageDuplicated(Time when, NodeId src, NodeId dst, int64_t bytes) {
  Event e;
  e.kind = EventKind::kMessageDup;
  e.when = when;
  e.src = src;
  e.dst = dst;
  e.bytes = bytes;
  events_.push_back(std::move(e));
}

void Tracer::OnMessageDelayed(Time when, NodeId src, NodeId dst, Duration extra) {
  Event e;
  e.kind = EventKind::kMessageDelay;
  e.when = when;
  e.src = src;
  e.dst = dst;
  e.dur = extra;
  events_.push_back(std::move(e));
}

void Tracer::OnNodeCrash(Time when, NodeId node) {
  Event e;
  e.kind = EventKind::kNodeCrash;
  e.when = when;
  e.src = e.dst = node;
  events_.push_back(std::move(e));
}

void Tracer::OnNodeRestart(Time when, NodeId node) {
  Event e;
  e.kind = EventKind::kNodeRestart;
  e.when = when;
  e.src = e.dst = node;
  events_.push_back(std::move(e));
}

void Tracer::OnRpcRetry(Time when, NodeId src, NodeId dst, uint64_t id, int attempt,
                        ThreadId requester) {
  (void)requester;
  Event e;
  e.kind = EventKind::kRpcRetry;
  e.when = when;
  e.src = src;
  e.dst = dst;
  e.value = static_cast<int64_t>(id);
  e.bytes = attempt;
  events_.push_back(std::move(e));
}

void Tracer::OnRpcTimeout(Time when, NodeId src, NodeId dst, uint64_t id, int attempts,
                          ThreadId requester) {
  (void)requester;
  Event e;
  e.kind = EventKind::kRpcTimeout;
  e.when = when;
  e.src = src;
  e.dst = dst;
  e.value = static_cast<int64_t>(id);
  e.bytes = attempts;
  events_.push_back(std::move(e));
}

// --- Rendering ------------------------------------------------------------------

void Tracer::WriteChromeTrace(std::ostream& out) const {
  std::vector<Line> lines;
  int seq = 0;
  char buf[512];
  auto add = [&](double ts, const char* json) {
    lines.push_back(Line{ts, seq++, std::string(json)});
  };

  NodeId max_node = 0;
  for (const Event& e : events_) {
    max_node = std::max({max_node, e.src, e.dst});
  }

  // Render-time pairing state, all keyed by thread id (stable across runs).
  struct OpenSpan {
    Time start;
    NodeId node;
  };
  std::map<ThreadId, OpenSpan> running;                 // open dispatch
  std::map<ThreadId, std::vector<const Event*>> calls;  // invoke stack
  std::map<ThreadId, int> migration_flow;               // awaiting arrival
  std::map<int64_t, const Event*> rpc_requests;         // by rpc id
  int next_flow = 0;

  for (const Event& e : events_) {
    switch (e.kind) {
      case EventKind::kThreadDispatch:
        running[e.tid] = OpenSpan{e.when, e.src};
        break;
      case EventKind::kThreadBlock:
      case EventKind::kThreadPreempt:
      case EventKind::kThreadExit: {
        auto it = running.find(e.tid);
        if (it != running.end()) {
          std::snprintf(buf, sizeof(buf),
                        "{\"name\":\"running\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                        "\"pid\":%d,\"tid\":\"%s (cpu)\",\"cat\":\"sched\"}",
                        Us(it->second.start), Us(e.when - it->second.start), it->second.node,
                        Escape(ThreadName(e.tid)).c_str());
          add(Us(it->second.start), buf);
          running.erase(it);
        }
        break;
      }
      case EventKind::kThreadUnblock: {
        auto it = migration_flow.find(e.tid);
        if (it != migration_flow.end()) {
          std::snprintf(buf, sizeof(buf),
                        "{\"name\":\"migrate\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\","
                        "\"id\":%d,\"ts\":%.3f,\"pid\":%d,\"tid\":\"%s (cpu)\"}",
                        it->second, Us(e.when), e.src, Escape(ThreadName(e.tid)).c_str());
          add(Us(e.when), buf);
          migration_flow.erase(it);
        }
        break;
      }
      case EventKind::kThreadMigrate: {
        const int id = next_flow++;
        migration_flow[e.tid] = id;
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"migrate\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":%d,"
                      "\"ts\":%.3f,\"pid\":%d,\"tid\":\"%s (cpu)\"}",
                      id, Us(e.when), e.src, Escape(ThreadName(e.tid)).c_str());
        add(Us(e.when), buf);
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"thread-migrate %s %d->%d\",\"ph\":\"i\",\"ts\":%.3f,"
                      "\"pid\":%d,\"tid\":\"%s (cpu)\",\"s\":\"p\",\"cat\":\"migration\","
                      "\"args\":{\"bytes\":%lld}}",
                      Escape(ThreadName(e.tid)).c_str(), e.src, e.dst, Us(e.when), e.src,
                      Escape(ThreadName(e.tid)).c_str(), static_cast<long long>(e.bytes));
        add(Us(e.when), buf);
        break;
      }
      case EventKind::kInvokeEnter:
        calls[e.tid].push_back(&e);
        break;
      case EventKind::kInvokeExit: {
        auto it = calls.find(e.tid);
        if (it != calls.end() && !it->second.empty()) {
          const Event* enter = it->second.back();
          it->second.pop_back();
          std::snprintf(buf, sizeof(buf),
                        "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,"
                        "\"tid\":\"%s\",\"cat\":\"invoke\",\"args\":{\"remote\":%s}}",
                        Escape(enter->label).c_str(), Us(enter->when), Us(e.when - enter->when),
                        enter->src, Escape(ThreadName(e.tid)).c_str(),
                        enter->remote ? "true" : "false");
          add(Us(enter->when), buf);
        }
        break;
      }
      case EventKind::kRpcRequest:
        rpc_requests[e.value] = &e;
        break;
      case EventKind::kRpcResponse: {
        auto it = rpc_requests.find(e.value);
        if (it != rpc_requests.end()) {
          const Event* req = it->second;
          // Roundtrip span on the requester's "rpc" row (src of the request,
          // dst of the response).
          std::snprintf(buf, sizeof(buf),
                        "{\"name\":\"rpc %d->%d (%lld B)\",\"ph\":\"X\",\"ts\":%.3f,"
                        "\"dur\":%.3f,\"pid\":%d,\"tid\":\"rpc\",\"cat\":\"rpc\"}",
                        req->src, req->dst, static_cast<long long>(req->bytes), Us(req->when),
                        Us(e.arrive - req->when), req->src);
          add(Us(req->when), buf);
          const int id = next_flow++;
          std::snprintf(buf, sizeof(buf),
                        "{\"name\":\"rpc\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":%d,"
                        "\"ts\":%.3f,\"pid\":%d,\"tid\":\"rpc\"}",
                        id, Us(req->when), req->src);
          add(Us(req->when), buf);
          std::snprintf(buf, sizeof(buf),
                        "{\"name\":\"rpc\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\","
                        "\"id\":%d,\"ts\":%.3f,\"pid\":%d,\"tid\":\"rpc\"}",
                        id, Us(e.when), e.src);
          add(Us(e.when), buf);
          rpc_requests.erase(it);
        }
        break;
      }
      case EventKind::kMessage:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"msg %d->%d (%lld B)\",\"ph\":\"X\",\"ts\":%.3f,"
                      "\"dur\":%.3f,\"pid\":%d,\"tid\":\"net\",\"cat\":\"message\"}",
                      e.src, e.dst, static_cast<long long>(e.bytes), Us(e.when),
                      Us(e.arrive - e.when), e.src);
        add(Us(e.when), buf);
        break;
      case EventKind::kLockBlocked:
      case EventKind::kLockAcquired:
      case EventKind::kLockReleased:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s lock-%lld\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":%d,"
                      "\"tid\":\"%s\",\"s\":\"t\",\"cat\":\"sync\",\"args\":{\"ns\":%lld}}",
                      KindName(e.kind), static_cast<long long>(e.value), Us(e.when), e.src,
                      Escape(ThreadName(e.tid)).c_str(), static_cast<long long>(e.dur));
        add(Us(e.when), buf);
        break;
      case EventKind::kConditionWake:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"condition-wake cond-%lld\",\"ph\":\"i\",\"ts\":%.3f,"
                      "\"pid\":%d,\"tid\":\"sync\",\"s\":\"t\",\"cat\":\"sync\","
                      "\"args\":{\"woken\":%lld}}",
                      static_cast<long long>(e.value), Us(e.when), e.src,
                      static_cast<long long>(e.bytes));
        add(Us(e.when), buf);
        break;
      case EventKind::kThreadCreate:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"thread-create %s\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":%d,"
                      "\"tid\":\"%s (cpu)\",\"s\":\"t\",\"cat\":\"sched\"}",
                      Escape(ThreadName(e.tid)).c_str(), Us(e.when), e.src,
                      Escape(ThreadName(e.tid)).c_str());
        add(Us(e.when), buf);
        break;
      case EventKind::kObjectMove:
      case EventKind::kReplicaInstall:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s %s %d->%d\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":%d,"
                      "\"tid\":\"%s\",\"s\":\"p\",\"cat\":\"%s\",\"args\":{\"bytes\":%lld}}",
                      KindName(e.kind), Escape(e.label).c_str(), e.src, e.dst, Us(e.when),
                      e.src, KindName(e.kind), KindName(e.kind),
                      static_cast<long long>(e.bytes));
        add(Us(e.when), buf);
        break;
      case EventKind::kMessageDrop:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"drop %d->%d (%s)\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":%d,"
                      "\"tid\":\"net\",\"s\":\"p\",\"cat\":\"fault\",\"args\":{\"bytes\":%lld}}",
                      e.src, e.dst, Escape(e.label).c_str(), Us(e.when), e.src,
                      static_cast<long long>(e.bytes));
        add(Us(e.when), buf);
        break;
      case EventKind::kMessageDup:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"dup %d->%d\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":%d,"
                      "\"tid\":\"net\",\"s\":\"p\",\"cat\":\"fault\",\"args\":{\"bytes\":%lld}}",
                      e.src, e.dst, Us(e.when), e.src, static_cast<long long>(e.bytes));
        add(Us(e.when), buf);
        break;
      case EventKind::kMessageDelay:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"delay %d->%d\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":%d,"
                      "\"tid\":\"net\",\"s\":\"p\",\"cat\":\"fault\",\"args\":{\"extra_ns\":%lld}}",
                      e.src, e.dst, Us(e.when), e.src, static_cast<long long>(e.dur));
        add(Us(e.when), buf);
        break;
      case EventKind::kNodeCrash:
      case EventKind::kNodeRestart:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s node-%d\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":%d,"
                      "\"tid\":\"fault\",\"s\":\"p\",\"cat\":\"fault\"}",
                      KindName(e.kind), e.src, Us(e.when), e.src);
        add(Us(e.when), buf);
        break;
      case EventKind::kRpcRetry:
      case EventKind::kRpcTimeout:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s %d->%d\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":%d,"
                      "\"tid\":\"rpc\",\"s\":\"t\",\"cat\":\"fault\","
                      "\"args\":{\"id\":%lld,\"attempt\":%lld}}",
                      KindName(e.kind), e.src, e.dst, Us(e.when), e.src,
                      static_cast<long long>(e.value), static_cast<long long>(e.bytes));
        add(Us(e.when), buf);
        break;
    }
  }

  std::stable_sort(lines.begin(), lines.end(), [](const Line& a, const Line& b) {
    return a.ts != b.ts ? a.ts < b.ts : a.seq < b.seq;
  });

  out << "{\"traceEvents\":[\n";
  bool first = true;
  for (NodeId n = 0; n <= max_node; ++n) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                  "\"args\":{\"name\":\"node %d\"}}",
                  n, n);
    if (!first) {
      out << ",\n";
    }
    first = false;
    out << buf;
  }
  for (const Line& l : lines) {
    if (!first) {
      out << ",\n";
    }
    first = false;
    out << l.json;
  }
  out << "\n]}\n";
}

void Tracer::WriteText(std::ostream& out) const {
  char buf[320];
  for (const Event& e : events_) {
    // Reconstruct the human label: acting thread's name, then any event
    // label (object or reason) after a space — matching the pre-ThreadId
    // format byte for byte.
    std::string label;
    switch (e.kind) {
      case EventKind::kRpcRequest:
      case EventKind::kRpcRetry:
      case EventKind::kRpcTimeout:
        // These carried no thread name before ids existed; keep them bare.
        label = e.label;
        break;
      default:
        if (e.tid != 0) {
          label = ThreadName(e.tid);
        }
        if (!e.label.empty()) {
          if (!label.empty()) {
            label += " ";
          }
          label += e.label;
        }
        break;
    }
    std::snprintf(buf, sizeof(buf), "%12.3f ms  %-16s %d -> %d  %8lld B  %s\n",
                  static_cast<double>(e.when) / 1e6, KindName(e.kind), e.src, e.dst,
                  static_cast<long long>(e.bytes), label.c_str());
    out << buf;
  }
}

}  // namespace trace
