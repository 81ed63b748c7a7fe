#include "src/prof/profiler.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/base/json.h"

namespace prof {
namespace {

using amber::json::Escape;

std::string NodeCat(const char* prefix, NodeId n) {
  return std::string(prefix) + std::to_string(n);
}

// How many cursor-preserving walk steps (thread jumps at one timestamp) are
// tolerated before the walk forces in-place attribution. Wake chains at a
// single virtual instant are short in practice; this is a cycle guard.
constexpr int kStallLimit = 64;

}  // namespace

// --- Event recording --------------------------------------------------------------

Profiler::ThreadState& Profiler::Ensure(ThreadId tid, Time when) {
  auto [st, inserted] = threads_.TryEmplace(tid);
  if (inserted) {
    st.name = "t" + std::to_string(tid);
    st.create_time = when;
    st.cursor = when;
  }
  return st;
}

void Profiler::CloseSegment(ThreadState& st, Time when, SegKind kind, Cause cause, NodeId node,
                            int aux, ThreadId other, Time wake_time) {
  if (when <= st.cursor) {
    // Zero-length (or defensively, out-of-order) interval: nothing to tile.
    st.cursor = std::max(st.cursor, when);
    return;
  }
  Segment s;
  s.start = st.cursor;
  s.end = when;
  s.kind = kind;
  s.cause = cause;
  s.node = node;
  s.aux = aux;
  s.other = other;
  s.wake_time = wake_time;
  if (kind == SegKind::kBlocked) {
    st.last_blocked = static_cast<int>(st.segs.size());
  }
  st.segs.push_back(s);
  st.cursor = when;
}

void Profiler::CloseBlocked(ThreadState& st, ThreadId tid, Time when, NodeId node, ThreadId waker,
                            Time wake_time) {
  // Resolve the wait's cause. Priority: explicit fiber-context markers first
  // (they know *why* the thread blocked), then the waker's identity, then
  // the network default.
  Cause cause = Cause::kNet;
  int aux = 0;
  ThreadId other = 0;
  Time wt = 0;
  if (st.pending_join != 0) {
    cause = Cause::kJoin;
    other = st.pending_join;
    wt = wake_time;
    st.pending_join = 0;
  } else if (st.pending_lock >= 0) {
    cause = Cause::kLock;
    aux = st.pending_lock;  // cleared by OnLockAcquired
  } else if (st.pending_migrate) {
    cause = Cause::kMigration;
    st.pending_migrate = false;
  } else if (st.pending_backoff) {
    cause = Cause::kFault;
    st.pending_backoff = false;
  } else if (st.rpc_armed) {
    cause = Cause::kRpc;
    aux = st.rpc_dst;
    if (st.rpc_replied) {
      // Roundtrip complete; a timeout wake keeps the marker armed for the
      // retry that follows (OnRpcRetry then reclassifies this wait).
      st.rpc_armed = false;
      st.rpc_replied = false;
    }
  } else if (waker != 0 && waker != tid) {
    cause = Cause::kWake;
    other = waker;
    wt = wake_time;
  }
  // Inside a recovery episode every rpc/net wait is the recovery's cost —
  // the probes and restores themselves — not ordinary service time. The
  // marker bookkeeping above still ran, so nothing is left stale.
  if (st.in_recovery && (cause == Cause::kRpc || cause == Cause::kNet)) {
    cause = Cause::kRecovery;
    aux = 0;
  }
  CloseSegment(st, when, SegKind::kBlocked, cause, node, aux, other, wt);
}

int Profiler::ObjectId(const void* obj) {
  const auto [it, inserted] = obj_ids_.try_emplace(obj, static_cast<int>(obj_ids_.size()));
  if (inserted) {
    objects_.emplace_back();
  }
  return it->second;
}

void Profiler::OnThreadCreate(Time when, NodeId node, ThreadId thread, const std::string& name,
                              ThreadId parent) {
  last_time_ = std::max(last_time_, when);
  ThreadState& st = Ensure(thread, when);
  st.name = name;
  st.parent = parent;
  st.node = node;
}

void Profiler::OnThreadDispatch(Time when, NodeId node, ThreadId thread, Duration queue_wait) {
  (void)queue_wait;  // the queued segment [cursor, when] already covers it
  last_time_ = std::max(last_time_, when);
  ThreadState& st = Ensure(thread, when);
  CloseSegment(st, when, SegKind::kQueued, Cause::kNone, node);
  st.status = Status::kRunning;
  st.node = node;
}

void Profiler::OnThreadBlock(Time when, NodeId node, ThreadId thread) {
  last_time_ = std::max(last_time_, when);
  ThreadState& st = Ensure(thread, when);
  CloseSegment(st, when, SegKind::kRunning, Cause::kNone, node);
  st.status = Status::kBlocked;
  st.node = node;
}

void Profiler::OnThreadUnblock(Time when, NodeId node, ThreadId thread, ThreadId waker,
                               Time wake_time) {
  last_time_ = std::max(last_time_, when);
  ThreadState& st = Ensure(thread, when);
  CloseBlocked(st, thread, when, node, waker, wake_time);
  st.status = Status::kReady;
  st.node = node;
}

void Profiler::OnThreadPreempt(Time when, NodeId node, ThreadId thread) {
  last_time_ = std::max(last_time_, when);
  ThreadState& st = Ensure(thread, when);
  CloseSegment(st, when, SegKind::kRunning, Cause::kNone, node);
  st.status = Status::kReady;
}

void Profiler::OnThreadExit(Time when, NodeId node, ThreadId thread) {
  last_time_ = std::max(last_time_, when);
  ThreadState& st = Ensure(thread, when);
  CloseSegment(st, when, SegKind::kRunning, Cause::kNone, node);
  st.status = Status::kExited;
  st.exit_time = when;
  st.exit_seq = exit_counter_++;
}

void Profiler::OnThreadJoin(Time when, NodeId node, ThreadId thread, ThreadId target) {
  (void)node;
  ThreadState& st = Ensure(thread, when);
  st.pending_join = target;
}

void Profiler::OnThreadMigrate(Time when, NodeId src, NodeId dst, ThreadId thread,
                               int64_t bytes) {
  (void)bytes;
  last_time_ = std::max(last_time_, when);
  ThreadState& st = Ensure(thread, when);
  if (st.node == dst && st.last_blocked >= 0) {
    // Reliable-mode travel announces the migration *after* arrival (the
    // thread already runs on dst): the wait it just finished was the
    // transit. Failed attempts were already reclassified by OnRpcRetry.
    Segment& seg = st.segs[st.last_blocked];
    if (seg.cause == Cause::kNet) {
      seg.cause = Cause::kMigration;
    }
  } else {
    // Lossless mode announces before departure (still running on src): the
    // *next* blocked interval is the transit.
    st.pending_migrate = true;
  }
}

void Profiler::OnInvokeEnter(Time when, NodeId node, ThreadId thread, const void* obj,
                             const std::string& object, bool remote, NodeId origin,
                             Duration entry_overhead) {
  last_time_ = std::max(last_time_, when);
  const int id = ObjectId(obj);
  ObjectAgg& agg = objects_[id];
  agg.label = object;
  agg.home = node;
  ++agg.invocations;
  ++agg.calls_by_origin[origin];
  if (remote) {
    ++agg.remote_invocations;
    agg.overhead_by_origin[origin] += entry_overhead;
  }
  ThreadState& st = Ensure(thread, when);
  st.frames.push_back(ThreadState::Frame{id, origin, remote});
}

void Profiler::OnInvokeExit(Time when, NodeId node, ThreadId thread, Duration span, bool remote,
                            Duration exit_overhead) {
  (void)node;
  (void)span;
  (void)remote;
  last_time_ = std::max(last_time_, when);
  ThreadState& st = Ensure(thread, when);
  if (st.frames.empty()) {
    return;  // enter predates attachment
  }
  const ThreadState::Frame f = st.frames.back();
  st.frames.pop_back();
  if (f.remote) {
    objects_[f.obj].overhead_by_origin[f.origin] += exit_overhead;
  }
}

void Profiler::OnLockBlocked(Time when, NodeId node, ThreadId thread, int lock) {
  (void)node;
  ThreadState& st = Ensure(thread, when);
  st.pending_lock = lock;
}

void Profiler::OnLockAcquired(Time when, NodeId node, ThreadId thread, int lock, Duration wait) {
  (void)node;
  last_time_ = std::max(last_time_, when);
  ThreadState& st = Ensure(thread, when);
  st.pending_lock = -1;
  LockAgg& l = locks_[lock];
  ++l.acquisitions;
  l.wait_ns += wait;
  l.max_wait_ns = std::max(l.max_wait_ns, wait);
}

void Profiler::OnLockReleased(Time when, NodeId node, ThreadId thread, int lock, Duration held) {
  (void)node;
  (void)thread;
  last_time_ = std::max(last_time_, when);
  locks_[lock].hold_ns += held;
}

void Profiler::OnRpcRequest(Time depart, NodeId src, NodeId dst, int64_t bytes, uint64_t id,
                            ThreadId requester) {
  (void)src;
  (void)bytes;
  last_time_ = std::max(last_time_, depart);
  ThreadState& st = Ensure(requester, depart);
  st.rpc_armed = true;
  st.rpc_replied = false;
  st.rpc_dst = dst;
  rpc_requester_[id] = requester;
}

void Profiler::OnRpcResponse(Time when, Time reply_arrive, NodeId src, NodeId dst, int64_t bytes,
                             uint64_t id) {
  (void)src;
  (void)dst;
  (void)bytes;
  last_time_ = std::max(last_time_, std::max(when, reply_arrive));
  const auto it = rpc_requester_.find(id);
  if (it == rpc_requester_.end()) {
    return;
  }
  ThreadState* st = threads_.Find(it->second);
  if (st != nullptr && st->rpc_armed) {
    st->rpc_replied = true;
  }
  rpc_requester_.erase(it);
}

void Profiler::OnRpcRetry(Time when, NodeId src, NodeId dst, uint64_t id, int attempt,
                          ThreadId requester) {
  (void)src;
  (void)dst;
  (void)id;
  (void)attempt;
  last_time_ = std::max(last_time_, when);
  ThreadState& st = Ensure(requester, when);
  if (st.last_blocked >= 0) {
    // The wait that just ended was a timeout, not a service: fault-induced.
    Segment& seg = st.segs[st.last_blocked];
    if (seg.cause == Cause::kRpc || seg.cause == Cause::kNet) {
      seg.cause = Cause::kFault;
    }
  }
}

void Profiler::OnRpcTimeout(Time when, NodeId src, NodeId dst, uint64_t id, int attempts,
                            ThreadId requester) {
  (void)src;
  (void)dst;
  (void)id;
  (void)attempts;
  last_time_ = std::max(last_time_, when);
  ThreadState& st = Ensure(requester, when);
  if (st.last_blocked >= 0) {
    Segment& seg = st.segs[st.last_blocked];
    if (seg.cause == Cause::kRpc || seg.cause == Cause::kNet) {
      seg.cause = Cause::kFault;
    }
  }
  st.rpc_armed = false;
  st.rpc_replied = false;
}

void Profiler::OnFailureBackoff(Time when, NodeId node, ThreadId thread, Duration backoff) {
  (void)node;
  (void)backoff;
  ThreadState& st = Ensure(thread, when);
  st.pending_backoff = true;
}

void Profiler::OnRecoveryStart(Time when, NodeId node, ThreadId thread, const void* obj) {
  (void)node;
  (void)obj;
  last_time_ = std::max(last_time_, when);
  Ensure(thread, when).in_recovery = true;
}

void Profiler::OnRecoveryEnd(Time when, NodeId node, ThreadId thread, const void* obj, bool ok) {
  (void)node;
  (void)obj;
  (void)ok;
  last_time_ = std::max(last_time_, when);
  Ensure(thread, when).in_recovery = false;
}

void Profiler::OnObjectMove(Time when, const void* obj, NodeId src, NodeId dst, int64_t bytes) {
  (void)src;
  (void)bytes;
  last_time_ = std::max(last_time_, when);
  const int id = ObjectId(obj);
  ++objects_[id].moves;
  objects_[id].home = dst;
}

void Profiler::OnMessage(Time depart, Time arrive, NodeId src, NodeId dst, int64_t bytes) {
  (void)depart;
  (void)src;
  (void)dst;
  (void)bytes;
  last_time_ = std::max(last_time_, arrive);
}

// --- Extraction --------------------------------------------------------------------

int Profiler::SegmentBefore(const ThreadState& st, Time t) const {
  // Last segment with start < t (binary search over the sorted tiling).
  int lo = 0;
  int hi = static_cast<int>(st.segs.size());
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    if (st.segs[mid].start >= t) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo - 1;
}

ProfileReport Profiler::Finalize() {
  ProfileReport r;
  r.total_ns = last_time_;

  // Close segments still open at the horizon (threads that never exited).
  threads_.ForEach([&](ThreadId tid, ThreadState& st) {
    switch (st.status) {
      case Status::kExited:
        break;
      case Status::kRunning:
        CloseSegment(st, last_time_, SegKind::kRunning, Cause::kNone, st.node);
        break;
      case Status::kBlocked:
        CloseBlocked(st, tid, last_time_, st.node, /*waker=*/0, /*wake_time=*/0);
        break;
      default:
        CloseSegment(st, last_time_, SegKind::kQueued, Cause::kNone, st.node);
        break;
    }
  });

  // Aggregates.
  for (size_t i = 0; i < objects_.size(); ++i) {
    const ObjectAgg& a = objects_[i];
    ObjectProfile o;
    o.id = static_cast<int>(i);
    o.label = a.label.empty() ? "obj-" + std::to_string(i) : a.label;
    o.home = a.home;
    o.moves = a.moves;
    o.invocations = a.invocations;
    o.remote_invocations = a.remote_invocations;
    o.calls_by_origin = a.calls_by_origin;
    o.overhead_by_origin = a.overhead_by_origin;
    r.objects.push_back(std::move(o));
  }
  for (const auto& [id, l] : locks_) {
    LockProfile lp;
    lp.id = id;
    lp.acquisitions = l.acquisitions;
    lp.wait_ns = l.wait_ns;
    lp.hold_ns = l.hold_ns;
    lp.max_wait_ns = l.max_wait_ns;
    r.locks.push_back(std::move(lp));
  }

  // Choose the walk's starting point: the thread whose exit is latest (tie:
  // latest in exit order — deterministic).
  ThreadId start = 0;
  Time best_exit = -1;
  int64_t best_seq = -1;
  threads_.ForEach([&](ThreadId tid, const ThreadState& st) {
    if (st.exit_seq >= 0 &&
        (st.exit_time > best_exit || (st.exit_time == best_exit && st.exit_seq > best_seq))) {
      best_exit = st.exit_time;
      best_seq = st.exit_seq;
      start = tid;
    }
  });
  if (start == 0) {
    Time best = -1;
    threads_.ForEach([&](ThreadId tid, const ThreadState& st) {
      if (st.cursor > best) {
        best = st.cursor;
        start = tid;
      }
    });
  }
  if (start == 0 || r.total_ns == 0) {
    return r;
  }

  // Backward walk: attribute (from, cursor] stretches until time zero.
  std::vector<PathStep> steps;  // collected end -> start, reversed below
  std::map<int, Time> lock_path;
  Time cursor = r.total_ns;
  ThreadId t = start;
  Time last_cursor = cursor;
  int stall = 0;
  auto attribute = [&](const std::string& cat, Time from) {
    if (from >= cursor) {
      return;
    }
    const Time len = cursor - from;
    r.breakdown[cat] += len;
    if (!steps.empty() && steps.back().category == cat) {
      steps.back().ns += len;
    } else {
      steps.push_back(PathStep{cat, len});
    }
    cursor = from;
  };

  while (cursor > 0) {
    if (cursor < last_cursor) {
      last_cursor = cursor;
      stall = 0;
    } else {
      ++stall;
    }
    const bool forced = stall > kStallLimit;  // cycle guard: stop jumping

    const ThreadState* found = threads_.Find(t);
    if (found == nullptr) {
      attribute("rpc.net", 0);
      break;
    }
    const ThreadState& st = *found;
    const int si = SegmentBefore(st, cursor);
    if (si < 0) {
      // At or before this thread's creation: follow the creation edge (the
      // parent was running CreateThread at this instant).
      if (st.parent != 0 && threads_.Find(st.parent) != nullptr && !forced) {
        t = st.parent;
        continue;
      }
      attribute("rpc.net", 0);
      break;
    }
    const Segment& seg = st.segs[si];
    if (seg.end < cursor) {
      // Gap past the thread's last activity (post-exit event drain).
      attribute("rpc.net", seg.end);
      continue;
    }
    switch (seg.kind) {
      case SegKind::kQueued:
        attribute(NodeCat("queue.node", seg.node), seg.start);
        break;
      case SegKind::kRunning:
        attribute(NodeCat("compute.node", seg.node), seg.start);
        break;
      case SegKind::kBlocked:
        switch (seg.cause) {
          case Cause::kLock:
            lock_path[seg.aux] += cursor - seg.start;
            attribute("lock." + std::to_string(seg.aux), seg.start);
            break;
          case Cause::kMigration:
            attribute("migration", seg.start);
            break;
          case Cause::kFault:
            attribute("fault", seg.start);
            break;
          case Cause::kRecovery:
            attribute("recovery", seg.start);
            break;
          case Cause::kRpc:
            attribute(NodeCat("rpc.node", seg.aux), seg.start);
            break;
          case Cause::kJoin:
          case Cause::kWake: {
            // Jump to the thread that caused the wake, at the time it called
            // Wake; the remainder (wake -> unblock delivery) is scheduler
            // latency on the sleeper's node.
            const ThreadState* waker = threads_.Find(seg.other);
            const Time jump = std::max(seg.start, std::min(seg.wake_time, cursor));
            const bool can_jump = !forced && jump > 0 && waker != nullptr &&
                                  SegmentBefore(*waker, jump) >= 0;
            if (can_jump) {
              attribute(NodeCat("queue.node", seg.node), jump);
              t = seg.other;
            } else {
              attribute(NodeCat("queue.node", seg.node), seg.start);
            }
            break;
          }
          default:
            attribute("rpc.net", seg.start);
            break;
        }
        break;
    }
  }
  std::reverse(steps.begin(), steps.end());
  r.critical_path = std::move(steps);
  for (LockProfile& lp : r.locks) {
    const auto lit = lock_path.find(lp.id);
    lp.critical_path_ns = lit != lock_path.end() ? lit->second : 0;
  }

  // --- Placement advice -------------------------------------------------------

  // Per-thread overhead savings only shorten the *run* to the extent the run
  // actually waits on placement overhead: scale raw savings by the measured
  // migration + RPC share of the critical path. A run that is 95% compute
  // cannot be made much faster by moving objects, however much total thread
  // time the moves would save.
  Time path_overhead_ns = 0;
  for (const auto& [cat, ns] : r.breakdown) {
    if (cat == "migration" || cat.rfind("rpc.", 0) == 0) {
      path_overhead_ns += ns;
    }
  }

  char buf[512];
  for (const ObjectProfile& o : r.objects) {
    if (o.remote_invocations == 0) {
      continue;
    }
    Time total_overhead = 0;
    for (const auto& [n, v] : o.overhead_by_origin) {
      total_overhead += v;
    }
    if (total_overhead == 0) {
      continue;
    }
    // Heaviest remote origin (map order breaks ties toward the lowest node).
    NodeId best = o.home;
    Time best_overhead = 0;
    for (const auto& [n, v] : o.overhead_by_origin) {
      if (n != o.home && v > best_overhead) {
        best = n;
        best_overhead = v;
      }
    }
    if (best == o.home || best_overhead == 0) {
      continue;
    }
    const int percent = static_cast<int>(100 * best_overhead / total_overhead);
    if (percent < 60) {
      // No dominant origin: the traffic is symmetric (e.g. neighbour edge
      // exchange). Moving the object only relocates the overhead — that is
      // a load-balance problem, not a placement one.
      continue;
    }
    // Moving the object makes calls from `best` local and calls from the
    // current home remote; price the latter at this object's average
    // remote-call overhead.
    const Time avg_remote = total_overhead / o.remote_invocations;
    const auto hit = o.calls_by_origin.find(o.home);
    const int64_t calls_from_home = hit != o.calls_by_origin.end() ? hit->second : 0;
    const Time raw_saving = best_overhead - avg_remote * calls_from_home;
    if (raw_saving <= 0) {
      continue;
    }
    const Time saving =
        r.total_ns > 0
            ? static_cast<Time>(static_cast<__int128>(raw_saving) * path_overhead_ns /
                                r.total_ns)
            : raw_saving;
    if (saving <= 0) {
      continue;
    }
    Advice a;
    a.kind = "move";
    a.target = o.id;
    a.label = o.label;
    a.from = o.home;
    a.to = best;
    a.est_saving_ns = saving;
    std::snprintf(buf, sizeof(buf),
                  "%s lives on node %d but %d%% of remote-invocation overhead originates on "
                  "node %d; MoveTo(%d) est. saving %lld us",
                  o.label.c_str(), o.home, percent, best, best,
                  static_cast<long long>(saving / 1000));
    a.text = buf;
    r.advice.push_back(std::move(a));
  }
  for (const LockProfile& l : r.locks) {
    if (l.critical_path_ns == 0) {
      continue;
    }
    Advice a;
    a.kind = "lock";
    a.target = l.id;
    a.label = "lock " + std::to_string(l.id);
    a.est_saving_ns = l.critical_path_ns;
    std::snprintf(buf, sizeof(buf),
                  "lock %d contributes %lld us of critical-path wait (%lld acquisitions, "
                  "total wait %lld us); shorten the critical section or split the lock",
                  l.id, static_cast<long long>(l.critical_path_ns / 1000),
                  static_cast<long long>(l.acquisitions),
                  static_cast<long long>(l.wait_ns / 1000));
    a.text = buf;
    r.advice.push_back(std::move(a));
  }
  std::stable_sort(r.advice.begin(), r.advice.end(), [](const Advice& a, const Advice& b) {
    return a.est_saving_ns > b.est_saving_ns;
  });

  return r;
}

void Profiler::Reset() {
  threads_.Clear();
  obj_ids_.clear();
  objects_.clear();
  locks_.clear();
  rpc_requester_.clear();
  last_time_ = 0;
  exit_counter_ = 0;
}

// --- Report rendering --------------------------------------------------------------

void ProfileReport::WriteJson(std::ostream& out) const {
  out << "{\n  \"profile\": \"" << Escape(name) << "\",\n";
  out << "  \"total_ns\": " << total_ns << ",\n";

  out << "  \"breakdown\": {";
  bool first = true;
  for (const auto& [k, v] : breakdown) {
    out << (first ? "\n" : ",\n") << "    \"" << Escape(k) << "\": " << v;
    first = false;
  }
  out << (breakdown.empty() ? "" : "\n  ") << "},\n";

  out << "  \"critical_path\": [";
  first = true;
  for (const PathStep& s : critical_path) {
    out << (first ? "\n" : ",\n") << "    {\"category\": \"" << Escape(s.category)
        << "\", \"ns\": " << s.ns << "}";
    first = false;
  }
  out << (critical_path.empty() ? "" : "\n  ") << "],\n";

  out << "  \"objects\": [";
  first = true;
  for (const ObjectProfile& o : objects) {
    out << (first ? "\n" : ",\n") << "    {\"id\": " << o.id << ", \"label\": \""
        << Escape(o.label) << "\", \"home\": " << o.home << ", \"moves\": " << o.moves
        << ", \"invocations\": " << o.invocations
        << ", \"remote_invocations\": " << o.remote_invocations;
    out << ", \"calls_by_origin\": {";
    bool f2 = true;
    for (const auto& [n, c] : o.calls_by_origin) {
      out << (f2 ? "" : ", ") << "\"" << n << "\": " << c;
      f2 = false;
    }
    out << "}, \"overhead_ns_by_origin\": {";
    f2 = true;
    for (const auto& [n, ns] : o.overhead_by_origin) {
      out << (f2 ? "" : ", ") << "\"" << n << "\": " << ns;
      f2 = false;
    }
    out << "}}";
    first = false;
  }
  out << (objects.empty() ? "" : "\n  ") << "],\n";

  out << "  \"locks\": [";
  first = true;
  for (const LockProfile& l : locks) {
    out << (first ? "\n" : ",\n") << "    {\"id\": " << l.id
        << ", \"acquisitions\": " << l.acquisitions << ", \"wait_ns\": " << l.wait_ns
        << ", \"hold_ns\": " << l.hold_ns << ", \"max_wait_ns\": " << l.max_wait_ns
        << ", \"critical_path_ns\": " << l.critical_path_ns << "}";
    first = false;
  }
  out << (locks.empty() ? "" : "\n  ") << "],\n";

  out << "  \"advice\": [";
  first = true;
  for (const Advice& a : advice) {
    out << (first ? "\n" : ",\n") << "    {\"kind\": \"" << a.kind
        << "\", \"target\": " << a.target << ", \"label\": \"" << Escape(a.label) << "\"";
    if (a.kind == "move") {
      out << ", \"from\": " << a.from << ", \"to\": " << a.to;
    }
    out << ", \"est_saving_ns\": " << a.est_saving_ns << ", \"text\": \"" << Escape(a.text)
        << "\"}";
    first = false;
  }
  out << (advice.empty() ? "" : "\n  ") << "]\n}\n";
}

void ProfileReport::WriteSummary(std::ostream& out) const {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "critical-path profile: %s\n", name.c_str());
  out << buf;
  std::snprintf(buf, sizeof(buf), "  total virtual time : %.3f ms\n",
                static_cast<double>(total_ns) / 1e6);
  out << buf;

  // Attribution table, largest share first (ties: category name).
  std::vector<std::pair<std::string, Time>> rows(breakdown.begin(), breakdown.end());
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });
  Time sum = 0;
  for (const auto& [cat, ns] : rows) {
    sum += ns;
  }
  std::snprintf(buf, sizeof(buf), "  critical path      : %zu steps, %.3f ms attributed\n",
                critical_path.size(), static_cast<double>(sum) / 1e6);
  out << buf;
  for (const auto& [cat, ns] : rows) {
    const double pct =
        total_ns > 0 ? 100.0 * static_cast<double>(ns) / static_cast<double>(total_ns) : 0.0;
    std::snprintf(buf, sizeof(buf), "    %-18s %12.3f ms  %5.1f%%\n", cat.c_str(),
                  static_cast<double>(ns) / 1e6, pct);
    out << buf;
  }

  if (!locks.empty()) {
    out << "  locks:\n";
    for (const LockProfile& l : locks) {
      std::snprintf(buf, sizeof(buf),
                    "    lock %-4d %8lld acq  wait %10.3f ms (max %8.3f ms)  hold %10.3f ms"
                    "  critical-path %10.3f ms\n",
                    l.id, static_cast<long long>(l.acquisitions),
                    static_cast<double>(l.wait_ns) / 1e6, static_cast<double>(l.max_wait_ns) / 1e6,
                    static_cast<double>(l.hold_ns) / 1e6,
                    static_cast<double>(l.critical_path_ns) / 1e6);
      out << buf;
    }
  }

  if (advice.empty()) {
    out << "  advice: none (placement and locking look balanced)\n";
  } else {
    out << "  advice:\n";
    int rank = 1;
    for (const Advice& a : advice) {
      std::snprintf(buf, sizeof(buf), "    %d. [%s] %s\n", rank++, a.kind.c_str(),
                    a.text.c_str());
      out << buf;
    }
  }
}

}  // namespace prof
