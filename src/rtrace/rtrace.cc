#include "src/rtrace/rtrace.h"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "src/base/json.h"
#include "src/base/panic.h"

namespace rtrace {
namespace {

using amber::json::Quote;

// Every completed trace carries all categories (zero included), so dumps
// diff cleanly and consumers need no key-existence checks. Indexed by
// Category.
constexpr const char* kCategories[] = {"compute", "join",     "lock",  "migration", "other",
                                       "queue",   "recovery", "retry", "rpc"};
static_assert(std::size(kCategories) == kCategoryCount);

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRequest:
      return "request";
    case SpanKind::kInvoke:
      return "invoke";
    case SpanKind::kRpc:
      return "rpc";
    case SpanKind::kLockWait:
      return "lock_wait";
    case SpanKind::kMigration:
      return "migration";
    case SpanKind::kBackoff:
      return "backoff";
    case SpanKind::kRecovery:
      return "recovery";
  }
  return "?";
}

// The fields sit at fixed offsets in host byte order, as rpc::WireBuffer
// lays out a record.
rpc::TraceFrame EncodeContext(const TraceContext& ctx) {
  rpc::TraceFrame frame;
  frame.size = kContextV1Bytes;
  uint8_t* p = frame.bytes.data();
  p[0] = ctx.version;
  std::memcpy(p + 1, &ctx.trace_id, sizeof(ctx.trace_id));
  std::memcpy(p + 9, &ctx.span_id, sizeof(ctx.span_id));
  p[17] = ctx.flags;
  return frame;
}

TraceContext DecodeContext(const rpc::TraceFrame& frame) {
  AMBER_CHECK(frame.size >= kContextV1Bytes)
      << "trace context underrun: need " << kContextV1Bytes << " bytes, have "
      << static_cast<int>(frame.size);
  const uint8_t* p = frame.bytes.data();
  TraceContext ctx;
  ctx.version = p[0];
  std::memcpy(&ctx.trace_id, p + 1, sizeof(ctx.trace_id));
  std::memcpy(&ctx.span_id, p + 9, sizeof(ctx.span_id));
  ctx.flags = p[17];
  return ctx;
}

Tracer::Tracer(TraceConfig config) : config_(std::move(config)) {}

void Tracer::AttachTo(amber::Runtime& rt) {
  rt_ = &rt;
  rt.AddObserver(this);
  rt.transport().SetTraceHook(this);
}

uint64_t Tracer::OpenRequest(const std::string& name) {
  ++requests_seen_;
  if (config_.sample_every == 0 ||
      static_cast<uint64_t>(requests_seen_ - 1) % config_.sample_every != 0) {
    return 0;
  }
  sim::Fiber* f = rt_ != nullptr ? rt_->sim().current() : nullptr;
  if (f == nullptr) {
    return 0;  // no fiber to bind the root thread to
  }
  ++requests_sampled_;
  const uint64_t trace_id = next_trace_id_++;
  armed_[f->id] = ArmedRequest{Intern(name), trace_id};
  return trace_id;
}

uint64_t Tracer::CurrentTraceId() const {
  if (rt_ == nullptr) {
    return 0;
  }
  sim::Fiber* f = rt_->sim().current();
  if (f == nullptr) {
    return 0;
  }
  const ThreadCtx* ctx = Ctx(f->id);
  return ctx != nullptr ? ctx->trace_id : 0;
}

uint64_t Tracer::CurrentSpanOf(ThreadId thread) const {
  const ThreadCtx* ctx = Ctx(thread);
  if (ctx == nullptr || ctx->span_stack.empty()) {
    return 0;
  }
  return ctx->span_stack.back();
}

const Trace* Tracer::FindTrace(uint64_t trace_id) const {
  auto it = traces_.find(trace_id);
  return it != traces_.end() ? &it->second : nullptr;
}

Tracer::ThreadCtx* Tracer::Ctx(ThreadId thread) const {
  ThreadCtx* const* ctx = live_.Find(thread);
  return ctx != nullptr ? *ctx : nullptr;
}

Tracer::ThreadCtx& Tracer::BindContext(ThreadId thread) {
  ThreadCtx* ctx;
  if (free_contexts_.empty()) {
    ctx = contexts_.emplace_back(std::make_unique<ThreadCtx>()).get();
  } else {
    ctx = free_contexts_.back();
    free_contexts_.pop_back();
  }
  live_[thread] = ctx;
  return *ctx;
}

void Tracer::ReleaseContext(ThreadId thread, ThreadCtx& ctx) {
  live_.Erase(thread);
  std::vector<uint64_t> stack = std::move(ctx.span_stack);
  stack.clear();
  ctx = ThreadCtx{};
  ctx.span_stack = std::move(stack);
  free_contexts_.push_back(&ctx);
}

Trace& Tracer::OpenTrace(uint64_t trace_id) {
  if (spare_traces_.empty()) {
    Trace& t = traces_.try_emplace(traces_.end(), trace_id)->second;
    t.trace_id = trace_id;
    return t;
  }
  TraceMap::node_type node = std::move(spare_traces_.back());
  spare_traces_.pop_back();
  node.key() = trace_id;
  Trace& t = node.mapped();
  std::vector<Span> spans = std::move(t.spans);
  spans.clear();
  t = Trace{};
  t.trace_id = trace_id;
  t.spans = std::move(spans);
  traces_.insert(traces_.end(), std::move(node));
  return t;
}

std::string_view Tracer::Intern(const std::string& text) {
  auto it = labels_.find(text);
  if (it == labels_.end()) {
    it = labels_.insert(text).first;
  }
  return *it;
}

uint64_t Tracer::AddSpan(ThreadCtx& ctx, SpanKind kind, Time start, Time end, NodeId node,
                         ThreadId thread, std::string_view label, int64_t aux) {
  Trace* t = TraceOf(ctx);
  if (t == nullptr) {
    return 0;
  }
  Span& s = t->spans.emplace_back();
  s.id = next_span_id_++;
  s.parent = ctx.span_stack.empty() ? 0 : ctx.span_stack.back();
  s.kind = kind;
  s.start = start;
  s.end = end;
  s.node = node;
  s.thread = thread;
  s.label = label;
  s.aux = aux;
  return s.id;
}

Span* Tracer::FindSpan(Trace& trace, uint64_t span_id) {
  auto it = std::lower_bound(trace.spans.begin(), trace.spans.end(), span_id,
                             [](const Span& s, uint64_t id) { return s.id < id; });
  return it != trace.spans.end() && it->id == span_id ? &*it : nullptr;
}

void Tracer::CloseSegment(ThreadCtx& ctx, Time when, Category category) {
  // Consecutive segment deltas telescope, so the category sums equal
  // end - start *exactly* no matter how the run interleaved. A root's trace
  // is never evicted before the root exits, so its record is its own.
  ctx.record->attribution[category] += when - ctx.seg_start;
  ctx.seg_start = when;
}

Category Tracer::BlockedCategory(const ThreadCtx& ctx) const {
  if (ctx.recovery_depth > 0) {
    return kRecovery;
  }
  switch (ctx.blocked_cause) {
    case Cause::kRpc:
      return kRpc;
    case Cause::kRetry:
      return kRetry;
    case Cause::kLock:
      return kLock;
    case Cause::kMigration:
      return kMigration;
    case Cause::kJoin:
      return kJoin;
    case Cause::kOther:
      break;
  }
  return kOther;
}

void Tracer::FinishTrace(ThreadCtx& ctx, Time when) {
  Trace* t = TraceOf(ctx);
  if (t == nullptr) {
    return;
  }
  t->end = when;
  t->done = true;
  // Force-close anything the root left open (its own spans only — a child
  // thread outliving the request keeps recording into the trace until it
  // exits or the trace is evicted, but the request is over).
  for (Span& s : t->spans) {
    if (s.end == 0 && s.thread == t->root_thread) {
      s.end = when;
    }
  }
  if (completed_count_ == completed_.size()) {
    // The ring is full: unroll it (oldest first) and grow it at the back.
    std::rotate(completed_.begin(),
                completed_.begin() + static_cast<std::ptrdiff_t>(completed_head_),
                completed_.end());
    completed_head_ = 0;
    completed_.push_back(t->trace_id);
  } else {
    completed_[(completed_head_ + completed_count_) % completed_.size()] = t->trace_id;
  }
  ++completed_count_;
  EvictIfOverCapacity();
}

void Tracer::EvictIfOverCapacity() {
  while (completed_count_ > config_.max_traces) {
    const uint64_t victim = completed_[completed_head_];
    completed_head_ = (completed_head_ + 1) % completed_.size();
    --completed_count_;
    TraceMap::node_type node = traces_.extract(victim);
    // A context or rpc still naming the victim must find no trace from now
    // on, also once this record is reused (OpenTrace gives it a new id).
    node.mapped().trace_id = 0;
    spare_traces_.push_back(std::move(node));
    ++traces_evicted_;
  }
}

// --- rpc::TraceHook ------------------------------------------------------------

rpc::TraceFrame Tracer::ContextFrame(uint64_t requester, NodeId src, NodeId dst) {
  const ThreadCtx* ctx = Ctx(requester);
  if (ctx == nullptr) {
    return {};  // untraced request: zero extra bytes on the wire
  }
  TraceContext tc;
  tc.trace_id = ctx->trace_id;
  tc.span_id = ctx->span_stack.empty() ? 0 : ctx->span_stack.back();
  tc.flags = kContextFlagSampled;
  return EncodeContext(tc);
}

void Tracer::OnContextArrive(Time when, NodeId node, const rpc::TraceFrame& frame) {
  const TraceContext ctx = DecodeContext(frame);
  auto it = traces_.find(ctx.trace_id);
  if (!ctx.sampled() || it == traces_.end()) {
    ++contexts_invalid_;
    return;
  }
  ++contexts_propagated_;
  ++it->second.hops;
}

// --- Observer callbacks --------------------------------------------------------

void Tracer::OnThreadCreate(Time when, NodeId node, ThreadId thread, const std::string& name,
                            ThreadId parent) {
  if (const ArmedRequest* armed = armed_.Find(parent)) {
    // This create is the request root the parent announced with OpenRequest.
    const ArmedRequest req = *armed;
    armed_.Erase(parent);
    Trace& t = OpenTrace(req.trace_id);
    t.name = req.name;
    t.root_thread = thread;
    t.start = when;
    ThreadCtx& ctx = BindContext(thread);
    ctx.trace_id = req.trace_id;
    ctx.record = &t;
    ctx.is_root = true;
    ctx.state = RunState::kQueued;
    ctx.seg_start = when;
    Span& root = t.spans.emplace_back();
    root.id = next_span_id_++;
    root.kind = SpanKind::kRequest;
    root.start = when;
    root.node = node;
    root.thread = thread;
    root.label = req.name;
    ctx.span_stack.push_back(root.id);
    return;
  }
  // A thread created by a traced thread inherits the trace for span
  // recording (its scheduling is not attributed — only the root's is).
  const ThreadCtx* pctx = Ctx(parent);
  if (pctx != nullptr) {
    ThreadCtx& ctx = BindContext(thread);
    ctx.trace_id = pctx->trace_id;
    ctx.record = pctx->record;
    ctx.is_root = false;
    ctx.span_stack.push_back(pctx->span_stack.empty() ? 0 : pctx->span_stack.back());
  }
}

void Tracer::OnThreadDispatch(Time when, NodeId node, ThreadId thread, Duration queue_wait) {
  ThreadCtx* ctx = Ctx(thread);
  if (ctx == nullptr) {
    return;
  }
  if (ctx->open_migration_span != 0) {
    // First dispatch after a migration departure: the hop is complete
    // (or reverted) and the thread is running again.
    Trace* t = TraceOf(*ctx);
    if (t != nullptr) {
      Span* s = FindSpan(*t, ctx->open_migration_span);
      if (s != nullptr && s->end == 0) {
        s->end = when;
      }
    }
    ctx->open_migration_span = 0;
  }
  if (!ctx->is_root) {
    return;
  }
  if (ctx->state == RunState::kQueued) {
    CloseSegment(*ctx, when, kQueue);
  }
  ctx->state = RunState::kRunning;
}

void Tracer::OnThreadBlock(Time when, NodeId node, ThreadId thread) {
  ThreadCtx* ctx = Ctx(thread);
  if (ctx == nullptr || !ctx->is_root) {
    return;
  }
  CloseSegment(*ctx, when, kCompute);
  ctx->state = RunState::kBlocked;
  ctx->blocked_cause = ctx->pending;
  ctx->pending = Cause::kOther;
}

void Tracer::OnThreadUnblock(Time when, NodeId node, ThreadId thread, ThreadId waker,
                             Time wake_time) {
  ThreadCtx* ctx = Ctx(thread);
  if (ctx == nullptr || !ctx->is_root || ctx->state != RunState::kBlocked) {
    return;
  }
  CloseSegment(*ctx, when, BlockedCategory(*ctx));
  ctx->blocked_cause = Cause::kOther;
  ctx->state = RunState::kQueued;
}

void Tracer::OnThreadPreempt(Time when, NodeId node, ThreadId thread) {
  ThreadCtx* ctx = Ctx(thread);
  if (ctx == nullptr || !ctx->is_root) {
    return;
  }
  if (ctx->state == RunState::kRunning) {
    CloseSegment(*ctx, when, kCompute);
  }
  ctx->state = RunState::kQueued;
}

void Tracer::OnThreadExit(Time when, NodeId node, ThreadId thread) {
  ThreadCtx* ctx = Ctx(thread);
  if (ctx == nullptr) {
    return;
  }
  if (ctx->is_root) {
    switch (ctx->state) {
      case RunState::kRunning:
        CloseSegment(*ctx, when, kCompute);
        break;
      case RunState::kQueued:
        CloseSegment(*ctx, when, kQueue);
        break;
      case RunState::kBlocked:
        CloseSegment(*ctx, when, BlockedCategory(*ctx));
        break;
    }
    FinishTrace(*ctx, when);
  } else {
    // Close the child's leftover open spans so the dump has no dangling
    // end_ns = 0 entries.
    Trace* t = TraceOf(*ctx);
    if (t != nullptr) {
      for (Span& s : t->spans) {
        if (s.end == 0 && s.thread == thread) {
          s.end = when;
        }
      }
    }
  }
  ReleaseContext(thread, *ctx);
}

void Tracer::OnThreadJoin(Time when, NodeId node, ThreadId thread, ThreadId target) {
  ThreadCtx* ctx = Ctx(thread);
  if (ctx != nullptr && ctx->is_root) {
    ctx->pending = Cause::kJoin;
  }
}

void Tracer::OnThreadMigrate(Time when, NodeId src, NodeId dst, ThreadId thread,
                             int64_t bytes) {
  ThreadCtx* ctx = Ctx(thread);
  if (ctx == nullptr) {
    return;
  }
  ctx->open_migration_span = AddSpan(*ctx, SpanKind::kMigration, when, 0, src, thread, {}, dst);
  if (ctx->is_root) {
    ctx->pending = Cause::kMigration;
  }
}

void Tracer::OnInvokeEnter(Time when, NodeId node, ThreadId thread, const void* obj,
                           const std::string& object, bool remote, NodeId origin,
                           Duration entry_overhead) {
  ThreadCtx* ctx = Ctx(thread);
  if (ctx == nullptr) {
    return;
  }
  const uint64_t id =
      AddSpan(*ctx, SpanKind::kInvoke, when, 0, node, thread, Intern(object), origin);
  if (id != 0) {
    ctx->span_stack.push_back(id);
  }
}

void Tracer::OnInvokeExit(Time when, NodeId node, ThreadId thread, Duration span, bool remote,
                          Duration exit_overhead) {
  ThreadCtx* ctx = Ctx(thread);
  if (ctx == nullptr || ctx->span_stack.size() <= 1) {
    return;  // never pop the base (request / inherited) span
  }
  Trace* t = TraceOf(*ctx);
  if (t != nullptr) {
    Span* s = FindSpan(*t, ctx->span_stack.back());
    if (s != nullptr && s->end == 0) {
      s->end = when;
    }
  }
  ctx->span_stack.pop_back();
}

void Tracer::OnLockBlocked(Time when, NodeId node, ThreadId thread, int lock) {
  ThreadCtx* ctx = Ctx(thread);
  if (ctx != nullptr && ctx->is_root) {
    ctx->pending = Cause::kLock;
  }
}

void Tracer::OnLockAcquired(Time when, NodeId node, ThreadId thread, int lock, Duration wait) {
  ThreadCtx* ctx = Ctx(thread);
  if (ctx == nullptr || wait <= 0) {
    return;
  }
  AddSpan(*ctx, SpanKind::kLockWait, when - wait, when, node, thread, {}, lock);
}

void Tracer::OnRpcRequest(Time depart, NodeId src, NodeId dst, int64_t bytes, uint64_t id,
                          ThreadId requester) {
  ThreadCtx* ctx = Ctx(requester);
  if (ctx == nullptr) {
    return;
  }
  const uint64_t span = AddSpan(*ctx, SpanKind::kRpc, depart, 0, src, requester, {}, dst);
  if (span != 0) {
    open_rpcs_[id] = OpenRpc{ctx->record, ctx->trace_id, span};
  }
  if (ctx->is_root) {
    ctx->pending = Cause::kRpc;
  }
}

Span* Tracer::OpenRpcSpan(uint64_t rpc_id) {
  const OpenRpc* rpc = open_rpcs_.Find(rpc_id);
  if (rpc == nullptr) {
    return nullptr;
  }
  Trace* t = Live(rpc->record, rpc->trace_id);
  return t != nullptr ? FindSpan(*t, rpc->span_id) : nullptr;
}

void Tracer::OnRpcResponse(Time when, Time reply_arrive, NodeId src, NodeId dst, int64_t bytes,
                           uint64_t id) {
  if (Span* s = OpenRpcSpan(id)) {
    s->end = reply_arrive;
  }
  open_rpcs_.Erase(id);
}

void Tracer::OnRpcRetry(Time when, NodeId src, NodeId dst, uint64_t id, int attempt,
                        ThreadId requester) {
  if (Span* s = OpenRpcSpan(id)) {
    s->retries = attempt;
  }
  // The retry fires in fiber context between the timeout wake and the next
  // block, so it marks the *coming* wait: attempt-0 waits count as "rpc",
  // every retransmission wait as "retry".
  ThreadCtx* ctx = Ctx(requester);
  if (ctx != nullptr && ctx->is_root && ctx->state != RunState::kBlocked) {
    ctx->pending = Cause::kRetry;
  }
}

void Tracer::OnRpcTimeout(Time when, NodeId src, NodeId dst, uint64_t id, int attempts,
                          ThreadId requester) {
  if (Span* s = OpenRpcSpan(id)) {
    s->end = when;
    s->retries = attempts - 1;
    s->failed = true;
  }
  open_rpcs_.Erase(id);
}

void Tracer::OnFailureBackoff(Time when, NodeId node, ThreadId thread, Duration backoff) {
  ThreadCtx* ctx = Ctx(thread);
  if (ctx == nullptr) {
    return;
  }
  AddSpan(*ctx, SpanKind::kBackoff, when, when + backoff, node, thread, {}, 0);
  if (ctx->is_root) {
    ctx->pending = Cause::kRetry;
  }
}

void Tracer::OnRecoveryStart(Time when, NodeId node, ThreadId thread, const void* obj) {
  ThreadCtx* ctx = Ctx(thread);
  if (ctx == nullptr) {
    return;
  }
  if (ctx->recovery_depth++ == 0) {
    ctx->open_recovery_span = AddSpan(*ctx, SpanKind::kRecovery, when, 0, node, thread, {}, 0);
  }
}

void Tracer::OnRecoveryEnd(Time when, NodeId node, ThreadId thread, const void* obj, bool ok) {
  ThreadCtx* ctx = Ctx(thread);
  if (ctx == nullptr || ctx->recovery_depth == 0) {
    return;
  }
  if (--ctx->recovery_depth == 0 && ctx->open_recovery_span != 0) {
    Trace* t = TraceOf(*ctx);
    if (t != nullptr) {
      Span* s = FindSpan(*t, ctx->open_recovery_span);
      if (s != nullptr) {
        s->end = when;
        s->failed = !ok;
      }
    }
    ctx->open_recovery_span = 0;
  }
}

// --- Dump ----------------------------------------------------------------------

void Tracer::WriteJson(std::ostream& out) const {
  out << "{\n";
  out << "  \"rtrace\": " << Quote(config_.name) << ",\n";
  out << "  \"schema\": 1,\n";
  out << "  \"sample_every\": " << config_.sample_every << ",\n";
  out << "  \"requests_seen\": " << requests_seen_ << ",\n";
  out << "  \"requests_sampled\": " << requests_sampled_ << ",\n";
  out << "  \"contexts_propagated\": " << contexts_propagated_ << ",\n";
  out << "  \"contexts_invalid\": " << contexts_invalid_ << ",\n";
  out << "  \"traces_evicted\": " << traces_evicted_ << ",\n";
  out << "  \"traces\": [";
  bool first_trace = true;
  for (const auto& [id, t] : traces_) {
    if (!t.done) {
      continue;
    }
    out << (first_trace ? "\n" : ",\n");
    first_trace = false;
    out << "    {\"trace_id\": " << t.trace_id << ", \"name\": " << Quote(t.name)
        << ", \"root_thread\": " << t.root_thread << ", \"start_ns\": " << t.start
        << ", \"end_ns\": " << t.end << ", \"latency_ns\": " << t.latency()
        << ", \"hops\": " << t.hops << ",\n     \"attribution\": {";
    for (int c = 0; c < kCategoryCount; ++c) {
      out << (c == 0 ? "" : ", ") << "\"" << kCategories[c] << "\": " << t.attribution[c];
    }
    out << "},\n     \"spans\": [";
    bool first_span = true;
    for (const Span& s : t.spans) {
      out << (first_span ? "\n" : ",\n");
      first_span = false;
      out << "       {\"id\": " << s.id << ", \"parent\": " << s.parent << ", \"kind\": \""
          << SpanKindName(s.kind) << "\", \"start_ns\": " << s.start << ", \"end_ns\": " << s.end
          << ", \"node\": " << s.node << ", \"thread\": " << s.thread << ", \"label\": "
          << Quote(s.label) << ", \"aux\": " << s.aux << ", \"retries\": " << s.retries
          << ", \"failed\": " << (s.failed ? "true" : "false") << "}";
    }
    out << (first_span ? "]}" : "\n     ]}");
  }
  out << (first_trace ? "" : "\n  ") << "]\n}\n";
}

}  // namespace rtrace
