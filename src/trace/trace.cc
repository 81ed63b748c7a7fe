#include "src/trace/trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/json.h"

namespace trace {
namespace {

using amber::NodeId;
using amber::ThreadId;
using amber::Time;
using amber::json::Escape;
using fdr::EventType;
using fdr::Record;

// The trace's name for a record type; nullptr for the types it does not
// draw (joins, backoffs, suspicion, recovery, drains, policy pulls).
const char* KindName(EventType type) {
  switch (type) {
    case EventType::kThreadMigrate:     return "thread-migrate";
    case EventType::kObjectMove:        return "object-move";
    case EventType::kReplicaInstall:    return "replica-install";
    case EventType::kMessage:           return "message";
    case EventType::kThreadCreate:      return "thread-create";
    case EventType::kThreadDispatch:    return "thread-dispatch";
    case EventType::kThreadBlock:       return "thread-block";
    case EventType::kThreadUnblock:     return "thread-unblock";
    case EventType::kThreadPreempt:     return "thread-preempt";
    case EventType::kThreadExit:        return "thread-exit";
    case EventType::kInvokeEnter:       return "invoke-enter";
    case EventType::kInvokeExit:        return "invoke-exit";
    case EventType::kLockBlocked:       return "lock-blocked";
    case EventType::kLockAcquired:      return "lock-acquired";
    case EventType::kLockReleased:      return "lock-released";
    case EventType::kConditionWake:     return "condition-wake";
    case EventType::kRpcRequest:        return "rpc-request";
    case EventType::kRpcResponse:       return "rpc-response";
    case EventType::kMessageDropped:    return "message-drop";
    case EventType::kMessageDuplicated: return "message-dup";
    case EventType::kMessageDelayed:    return "message-delay";
    case EventType::kNodeCrash:         return "node-crash";
    case EventType::kNodeRestart:       return "node-restart";
    case EventType::kRpcRetry:          return "rpc-retry";
    case EventType::kRpcTimeout:        return "rpc-timeout";
    default:                            return nullptr;
  }
}

// What the renderers read off a drawn record besides its time and labels.
// Only these fields hold nodes: in some records `aux` is a lock or
// condition id.
struct Row {
  NodeId src;
  NodeId dst;
  int64_t bytes;  // the text log's byte column: payload, woken count or attempt
  ThreadId tid;   // acting thread the text label names (0 = none)
};

Row RowOf(const Record& r) {
  Row row{r.node, r.node, 0, 0};
  switch (r.type) {
    case EventType::kThreadMigrate:
      row.dst = r.aux;
      row.bytes = r.b;
      row.tid = static_cast<ThreadId>(r.a);
      break;
    case EventType::kObjectMove:
    case EventType::kRpcRequest:
    case EventType::kRpcResponse:
    case EventType::kRpcRetry:
    case EventType::kRpcTimeout:
      row.dst = r.aux;
      row.bytes = r.b;
      break;
    case EventType::kMessage:
    case EventType::kMessageDropped:
    case EventType::kMessageDuplicated:
      row.dst = r.aux;
      row.bytes = r.a;
      break;
    case EventType::kMessageDelayed:
      row.dst = r.aux;
      break;
    case EventType::kConditionWake:
      row.bytes = r.a;
      break;
    case EventType::kThreadCreate:
    case EventType::kThreadDispatch:
    case EventType::kThreadBlock:
    case EventType::kThreadUnblock:
    case EventType::kThreadPreempt:
    case EventType::kThreadExit:
    case EventType::kInvokeEnter:
    case EventType::kInvokeExit:
    case EventType::kLockBlocked:
    case EventType::kLockAcquired:
    case EventType::kLockReleased:
      row.tid = static_cast<ThreadId>(r.a);
      break;
    default:
      break;
  }
  return row;
}

std::string ThreadName(const fdr::Recorder& rec, ThreadId tid) {
  const std::string* name = rec.CreatedName(tid);
  return name != nullptr ? *name : "t" + std::to_string(tid);
}

// Dense object labels ("obj-N"), N counting objects in the order a move or
// replica install first names them, so traces are identical across runs
// (unlike pointer values). The recorder's own object ids count every touch.
class ObjectNames {
 public:
  std::string Of(int64_t id) {
    const auto [it, inserted] = ordinals_.try_emplace(id, static_cast<int>(ordinals_.size()));
    return "obj-" + std::to_string(it->second);
  }

 private:
  std::unordered_map<int64_t, int> ordinals_;
};

double Us(Time t) { return static_cast<double>(t) / 1000.0; }

// One rendered trace line, sortable by timestamp with a stable sequence so
// identical runs produce byte-identical files.
struct Line {
  double ts;
  int seq;
  std::string json;
};

}  // namespace

Tracer::Tracer() : fdr::Recorder({.name = "trace", .ring_capacity = fdr::kKeepAll}) {}

size_t Tracer::size() const {
  size_t n = 0;
  ForEachRecord([&n](const Record& r) { n += KindName(r.type) != nullptr ? 1 : 0; });
  return n;
}

void Tracer::WriteChromeTrace(std::ostream& out) const {
  std::vector<Line> lines;
  int seq = 0;
  char buf[512];
  auto add = [&](double ts, const char* json) {
    lines.push_back(Line{ts, seq++, std::string(json)});
  };

  // Render-time pairing state, all keyed by thread id (stable across runs).
  struct OpenSpan {
    Time start;
    NodeId node;
  };
  std::map<ThreadId, OpenSpan> running;                  // open dispatch
  std::map<ThreadId, std::vector<const Record*>> calls;  // invoke stack
  std::map<ThreadId, int> migration_flow;                // awaiting arrival
  std::map<int64_t, const Record*> rpc_requests;         // by rpc id
  int next_flow = 0;
  ObjectNames objects;
  NodeId max_node = 0;

  ForEachRecord([&](const Record& e) {
    const char* kind = KindName(e.type);
    if (kind == nullptr) {
      return;
    }
    const Row row = RowOf(e);
    max_node = std::max({max_node, row.src, row.dst});
    switch (e.type) {
      case EventType::kThreadDispatch:
        running[row.tid] = OpenSpan{e.when, row.src};
        break;
      case EventType::kThreadBlock:
      case EventType::kThreadPreempt:
      case EventType::kThreadExit: {
        auto it = running.find(row.tid);
        if (it != running.end()) {
          std::snprintf(buf, sizeof(buf),
                        "{\"name\":\"running\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                        "\"pid\":%d,\"tid\":\"%s (cpu)\",\"cat\":\"sched\"}",
                        Us(it->second.start), Us(e.when - it->second.start), it->second.node,
                        Escape(ThreadName(*this, row.tid)).c_str());
          add(Us(it->second.start), buf);
          running.erase(it);
        }
        break;
      }
      case EventType::kThreadUnblock: {
        auto it = migration_flow.find(row.tid);
        if (it != migration_flow.end()) {
          std::snprintf(buf, sizeof(buf),
                        "{\"name\":\"migrate\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\","
                        "\"id\":%d,\"ts\":%.3f,\"pid\":%d,\"tid\":\"%s (cpu)\"}",
                        it->second, Us(e.when), row.src,
                        Escape(ThreadName(*this, row.tid)).c_str());
          add(Us(e.when), buf);
          migration_flow.erase(it);
        }
        break;
      }
      case EventType::kThreadMigrate: {
        const std::string name = Escape(ThreadName(*this, row.tid));
        const int id = next_flow++;
        migration_flow[row.tid] = id;
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"migrate\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":%d,"
                      "\"ts\":%.3f,\"pid\":%d,\"tid\":\"%s (cpu)\"}",
                      id, Us(e.when), row.src, name.c_str());
        add(Us(e.when), buf);
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"thread-migrate %s %d->%d\",\"ph\":\"i\",\"ts\":%.3f,"
                      "\"pid\":%d,\"tid\":\"%s (cpu)\",\"s\":\"p\",\"cat\":\"migration\","
                      "\"args\":{\"bytes\":%lld}}",
                      name.c_str(), row.src, row.dst, Us(e.when), row.src, name.c_str(),
                      static_cast<long long>(row.bytes));
        add(Us(e.when), buf);
        break;
      }
      case EventType::kInvokeEnter:
        calls[row.tid].push_back(&e);
        break;
      case EventType::kInvokeExit: {
        auto it = calls.find(row.tid);
        if (it != calls.end() && !it->second.empty()) {
          const Record* enter = it->second.back();
          it->second.pop_back();
          std::snprintf(buf, sizeof(buf),
                        "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,"
                        "\"tid\":\"%s\",\"cat\":\"invoke\",\"args\":{\"remote\":%s}}",
                        Escape(Label(enter->label)).c_str(), Us(enter->when),
                        Us(e.when - enter->when), enter->node,
                        Escape(ThreadName(*this, row.tid)).c_str(),
                        enter->flag != 0 ? "true" : "false");
          add(Us(enter->when), buf);
        }
        break;
      }
      case EventType::kRpcRequest:
        rpc_requests[e.a] = &e;
        break;
      case EventType::kRpcResponse: {
        auto it = rpc_requests.find(e.a);
        if (it != rpc_requests.end()) {
          const Record* req = it->second;
          // Roundtrip span on the requester's "rpc" row (src of the request,
          // dst of the response).
          std::snprintf(buf, sizeof(buf),
                        "{\"name\":\"rpc %d->%d (%lld B)\",\"ph\":\"X\",\"ts\":%.3f,"
                        "\"dur\":%.3f,\"pid\":%d,\"tid\":\"rpc\",\"cat\":\"rpc\"}",
                        req->node, req->aux, static_cast<long long>(req->b), Us(req->when),
                        Us(e.c - req->when), req->node);
          add(Us(req->when), buf);
          const int id = next_flow++;
          std::snprintf(buf, sizeof(buf),
                        "{\"name\":\"rpc\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":%d,"
                        "\"ts\":%.3f,\"pid\":%d,\"tid\":\"rpc\"}",
                        id, Us(req->when), req->node);
          add(Us(req->when), buf);
          std::snprintf(buf, sizeof(buf),
                        "{\"name\":\"rpc\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\","
                        "\"id\":%d,\"ts\":%.3f,\"pid\":%d,\"tid\":\"rpc\"}",
                        id, Us(e.when), row.src);
          add(Us(e.when), buf);
          rpc_requests.erase(it);
        }
        break;
      }
      case EventType::kMessage:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"msg %d->%d (%lld B)\",\"ph\":\"X\",\"ts\":%.3f,"
                      "\"dur\":%.3f,\"pid\":%d,\"tid\":\"net\",\"cat\":\"message\"}",
                      row.src, row.dst, static_cast<long long>(row.bytes), Us(e.when),
                      Us(e.b - e.when), row.src);
        add(Us(e.when), buf);
        break;
      case EventType::kLockBlocked:
      case EventType::kLockAcquired:
      case EventType::kLockReleased:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s lock-%lld\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":%d,"
                      "\"tid\":\"%s\",\"s\":\"t\",\"cat\":\"sync\",\"args\":{\"ns\":%lld}}",
                      kind, static_cast<long long>(e.aux), Us(e.when), row.src,
                      Escape(ThreadName(*this, row.tid)).c_str(), static_cast<long long>(e.b));
        add(Us(e.when), buf);
        break;
      case EventType::kConditionWake:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"condition-wake cond-%lld\",\"ph\":\"i\",\"ts\":%.3f,"
                      "\"pid\":%d,\"tid\":\"sync\",\"s\":\"t\",\"cat\":\"sync\","
                      "\"args\":{\"woken\":%lld}}",
                      static_cast<long long>(e.aux), Us(e.when), row.src,
                      static_cast<long long>(row.bytes));
        add(Us(e.when), buf);
        break;
      case EventType::kThreadCreate: {
        const std::string name = Escape(ThreadName(*this, row.tid));
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"thread-create %s\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":%d,"
                      "\"tid\":\"%s (cpu)\",\"s\":\"t\",\"cat\":\"sched\"}",
                      name.c_str(), Us(e.when), row.src, name.c_str());
        add(Us(e.when), buf);
        break;
      }
      case EventType::kObjectMove:
      case EventType::kReplicaInstall:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s %s %d->%d\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":%d,"
                      "\"tid\":\"%s\",\"s\":\"p\",\"cat\":\"%s\",\"args\":{\"bytes\":%lld}}",
                      kind, Escape(objects.Of(e.a)).c_str(), row.src, row.dst, Us(e.when),
                      row.src, kind, kind, static_cast<long long>(row.bytes));
        add(Us(e.when), buf);
        break;
      case EventType::kMessageDropped:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"drop %d->%d (%s)\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":%d,"
                      "\"tid\":\"net\",\"s\":\"p\",\"cat\":\"fault\",\"args\":{\"bytes\":%lld}}",
                      row.src, row.dst, Escape(Label(e.label)).c_str(), Us(e.when), row.src,
                      static_cast<long long>(row.bytes));
        add(Us(e.when), buf);
        break;
      case EventType::kMessageDuplicated:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"dup %d->%d\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":%d,"
                      "\"tid\":\"net\",\"s\":\"p\",\"cat\":\"fault\",\"args\":{\"bytes\":%lld}}",
                      row.src, row.dst, Us(e.when), row.src, static_cast<long long>(row.bytes));
        add(Us(e.when), buf);
        break;
      case EventType::kMessageDelayed:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"delay %d->%d\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":%d,"
                      "\"tid\":\"net\",\"s\":\"p\",\"cat\":\"fault\",\"args\":{\"extra_ns\":%lld}}",
                      row.src, row.dst, Us(e.when), row.src, static_cast<long long>(e.a));
        add(Us(e.when), buf);
        break;
      case EventType::kNodeCrash:
      case EventType::kNodeRestart:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s node-%d\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":%d,"
                      "\"tid\":\"fault\",\"s\":\"p\",\"cat\":\"fault\"}",
                      kind, row.src, Us(e.when), row.src);
        add(Us(e.when), buf);
        break;
      case EventType::kRpcRetry:
      case EventType::kRpcTimeout:
        std::snprintf(buf, sizeof(buf),
                      "{\"name\":\"%s %d->%d\",\"ph\":\"i\",\"ts\":%.3f,\"pid\":%d,"
                      "\"tid\":\"rpc\",\"s\":\"t\",\"cat\":\"fault\","
                      "\"args\":{\"id\":%lld,\"attempt\":%lld}}",
                      kind, row.src, row.dst, Us(e.when), row.src, static_cast<long long>(e.a),
                      static_cast<long long>(row.bytes));
        add(Us(e.when), buf);
        break;
      default:
        break;
    }
  });

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
  ObjectNames objects;
  ForEachRecord([&](const Record& e) {
    const char* kind = KindName(e.type);
    if (kind == nullptr) {
      return;
    }
    const Row row = RowOf(e);
    // The acting thread's name, then the event's own label (object type,
    // object ordinal or drop reason) after a space.
    std::string label = row.tid != 0 ? ThreadName(*this, row.tid) : "";
    std::string detail;
    switch (e.type) {
      case EventType::kInvokeEnter:
      case EventType::kMessageDropped:
        detail = Label(e.label);
        break;
      case EventType::kObjectMove:
      case EventType::kReplicaInstall:
        detail = objects.Of(e.a);
        break;
      default:
        break;
    }
    if (!detail.empty()) {
      if (!label.empty()) {
        label += " ";
      }
      label += detail;
    }
    std::snprintf(buf, sizeof(buf), "%12.3f ms  %-16s %d -> %d  %8lld B  %s\n",
                  static_cast<double>(e.when) / 1e6, kind, row.src, row.dst,
                  static_cast<long long>(row.bytes), label.c_str());
    out << buf;
  });
}

}  // namespace trace
