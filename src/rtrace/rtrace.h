// Request-scoped distributed tracing (sampled).
//
// Every observability layer before this one is aggregate (metrics, the
// causal profiler) or post-mortem (the flight recorder); none follows a
// *single request* across invocations, RPCs, retries and migrations. A
// rtrace::Tracer does exactly that:
//
//   * A TraceContext — trace id, current span id, sampling bit — is
//     allocated at a request root (OpenRequest, called by the serving
//     driver immediately before StartThread) and bound to the spawned
//     thread. Sampling is deterministic 1-in-N (TraceConfig::sample_every)
//     counted in request-open order, so the same seed samples the same
//     requests.
//   * The context propagates with the request: to child threads at
//     OnThreadCreate, through every EnterInvocation (invoke spans nest on
//     the thread's frame stack), and across the RPC wire — the transport's
//     TraceHook piggybacks an encoded context frame on every transmission
//     of a traced thread's roundtrips and travels (retransmissions
//     re-carry it) and hands the bytes back at the destination, where the
//     tracer decodes and validates them (contexts_propagated). The frame
//     is a fixed kContextV1Bytes carrying a version byte (1), in the style
//     of the membership heartbeats. An untraced request contributes an
//     *empty* frame — zero bytes, byte-exact wire traffic.
//   * Everything the request does is recorded as spans: the root request
//     span, nested invoke spans, RPC roundtrips (with retransmission
//     counts; timeouts close the span failed), lock waits, thread
//     migrations, failure backoffs and recovery episodes.
//   * The root thread's lifetime is tiled into *exact* virtual-time
//     attribution: every nanosecond between thread creation and thread
//     exit lands in exactly one of {queue, compute, rpc, retry, lock,
//     migration, join, recovery, other}, driven by the scheduler's
//     dispatch/block/unblock/preempt events and the same fiber-context
//     cause markers the profiler and flight recorder use. The category
//     sums equal the request's end-to-end latency by construction —
//     amber-tail asserts it when rendering.
//
// Pair with metrics exemplars: record request latency via
// Histogram::Record(latency, tracer.CurrentTraceId()) and the histogram's
// p999 bucket names a trace id this tracer can fully reconstruct
// (WriteJson -> TRACEREQ_<name>.json, rendered by amber-tail).
//
// Cost: sampling should make an untraced request nearly free. The tracer
// keeps state only for threads that carry a trace, in a flat table keyed by
// thread id, so a bus event of an untraced thread costs one probe of that
// table (none while no traced thread is alive). A sampled request reuses
// storage instead of allocating once the run is warm: a thread's context
// returns to a pool at thread exit with its span stack's capacity, the
// record of the trace evicted at capacity is handed to the next request
// opened with its span vector's capacity, span labels point at interned
// strings, and a context frame is a fixed-size value. Memory is bounded by
// the peak of concurrently traced threads, max_traces retained traces plus
// those still open, and one copy of each distinct label (object types and
// request names).
//
// Contract: the tracer is an observer-only tap on the bus plus a wire
// hook. Attached with sampling off (sample_every = 0) it adds no payload
// bytes, records nothing, and every output of the run is byte-identical
// to an untraced run; detached it costs nothing at all. Same-seed runs
// produce byte-identical TRACEREQ documents.

#ifndef AMBER_SRC_RTRACE_RTRACE_H_
#define AMBER_SRC_RTRACE_RTRACE_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "src/base/address_map.h"
#include "src/core/runtime.h"
#include "src/rpc/transport.h"

namespace rtrace {

using amber::Duration;
using amber::NodeId;
using amber::ThreadId;
using amber::Time;

// --- Wire format --------------------------------------------------------------

// v1 frame: [u8 version][u64 trace_id][u64 span_id][u8 flags] = 18 bytes.
inline constexpr uint8_t kContextVersion = 1;
inline constexpr size_t kContextV1Bytes = 18;
inline constexpr uint8_t kContextFlagSampled = 1;
static_assert(kContextV1Bytes <= rpc::TraceFrame::kCapacity);

struct TraceContext {
  uint8_t version = kContextVersion;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;  // the sender's span at transmission time
  uint8_t flags = 0;

  bool sampled() const { return (flags & kContextFlagSampled) != 0; }
};

rpc::TraceFrame EncodeContext(const TraceContext& ctx);
TraceContext DecodeContext(const rpc::TraceFrame& frame);

// --- Spans ---------------------------------------------------------------------

enum class SpanKind : uint8_t {
  kRequest,    // root: the request thread's whole lifetime
  kInvoke,     // one EnterInvocation..ExitInvocation frame
  kRpc,        // transport roundtrip, depart to reply arrival (retries folded)
  kLockWait,   // contended lock acquisition wait
  kMigration,  // thread migration, depart to first dispatch at the destination
  kBackoff,    // failure-handler backoff window
  kRecovery,   // recovery episode (replica re-bind / checkpoint restore)
};

const char* SpanKindName(SpanKind kind);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = top-level (the request span itself)
  Time start = 0;
  Time end = 0;  // 0 while open
  ThreadId thread = 0;
  // invoke: object label; request: request name. Interned: the text lives
  // in the tracer, for as long as the tracer does.
  std::string_view label;
  int64_t aux = 0;      // lock: id; migration/rpc: dst node; invoke: origin node
  int64_t retries = 0;  // rpc: retransmissions beyond the first attempt
  NodeId node = 0;
  SpanKind kind = SpanKind::kRequest;
  bool failed = false;
};

// The nine attribution categories. Trace::attribution is indexed by them;
// they are declared (and rendered) in the alphabetical order of their names.
enum Category : uint8_t {
  kCompute,
  kJoin,
  kLock,
  kMigration,
  kOther,
  kQueue,
  kRecovery,
  kRetry,
  kRpc,
  kCategoryCount,
};

struct Trace {
  uint64_t trace_id = 0;
  std::string_view name;  // interned, like Span::label
  ThreadId root_thread = 0;
  Time start = 0;
  Time end = 0;
  bool done = false;
  int64_t hops = 0;  // context frames that arrived across the wire
  // Ascending id: spans are appended as their ids are drawn from one counter.
  std::vector<Span> spans;
  // Exact tiling of [start, end]: the nine category sums always total
  // end - start for a completed trace.
  std::array<Duration, kCategoryCount> attribution{};

  Duration latency() const { return end - start; }
};

// --- The tracer ----------------------------------------------------------------

struct TraceConfig {
  std::string name = "rtrace";  // dump identity: TRACEREQ_<name>.json
  // Sample 1 of every N opened requests (deterministic, in open order).
  // 0 disables sampling entirely — attached but byte-inert.
  uint64_t sample_every = 1;
  // Completed traces retained; beyond it the oldest-completed is evicted
  // (exemplars normally point at recent traces, so old ones age out first).
  size_t max_traces = 1024;
};

class Tracer : public amber::RuntimeObserver, public rpc::TraceHook {
 public:
  explicit Tracer(TraceConfig config = {});

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Joins the runtime's observer fan-out and installs the transport trace
  // hook. Call before Run(); the tracer must outlive the runtime.
  void AttachTo(amber::Runtime& rt);

  // Declares the *next thread created by the calling thread* a request
  // root named `name`. Returns the allocated trace id, or 0 when this
  // request fell outside the 1-in-N sample (the caller proceeds
  // identically either way). Call from fiber context, immediately before
  // StartThread.
  uint64_t OpenRequest(const std::string& name);

  // The calling fiber's active trace id (0 = untraced). Serving code uses
  // this as the exemplar id when recording the request's latency.
  uint64_t CurrentTraceId() const;

  // `thread`'s innermost open span (0 = untraced) — the flight recorder's
  // span source (fdr::Recorder::SetSpanSource).
  uint64_t CurrentSpanOf(ThreadId thread) const;

  const TraceConfig& config() const { return config_; }
  int64_t requests_seen() const { return requests_seen_; }
  int64_t requests_sampled() const { return requests_sampled_; }
  int64_t contexts_propagated() const { return contexts_propagated_; }
  int64_t contexts_invalid() const { return contexts_invalid_; }
  int64_t traces_evicted() const { return traces_evicted_; }

  // Retained traces by id (completed ones have done = true).
  const std::map<uint64_t, Trace>& traces() const { return traces_; }
  const Trace* FindTrace(uint64_t trace_id) const;

  // TRACEREQ_<name>.json: deterministic, fixed key order, completed traces
  // only, ascending trace id.
  void WriteJson(std::ostream& out) const;

  // --- rpc::TraceHook ---------------------------------------------------------
  rpc::TraceFrame ContextFrame(uint64_t requester, NodeId src, NodeId dst) override;
  void OnContextArrive(Time when, NodeId node, const rpc::TraceFrame& frame) override;

  // --- amber::RuntimeObserver -------------------------------------------------
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
  void OnLockAcquired(Time when, NodeId node, ThreadId thread, int lock, Duration wait) override;
  void OnLockBlocked(Time when, NodeId node, ThreadId thread, int lock) override;
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

 private:
  // What a blocked (or about-to-block) segment of the root thread is for —
  // armed in fiber context right before the block, consumed at the block
  // (the profiler's marker protocol).
  enum class Cause : uint8_t {
    kOther,
    kRpc,
    kRetry,  // rpc retransmission waits + failure backoffs
    kLock,
    kMigration,
    kJoin,
  };
  enum class RunState : uint8_t { kQueued, kRunning, kBlocked };

  using TraceMap = std::map<uint64_t, Trace>;

  // A traced thread's state. Contexts are pooled: one returns to the pool at
  // thread exit and keeps its span stack's capacity for the next thread.
  struct ThreadCtx {
    uint64_t trace_id = 0;
    // The record trace_id was opened in. A child can outlive its request and
    // the trace can then be evicted, and its record reused for a later
    // trace, so the record is this thread's only while it still carries
    // trace_id (TraceOf).
    Trace* record = nullptr;
    bool is_root = false;
    std::vector<uint64_t> span_stack;  // open invoke spans; [0] = base span
    // Root-thread attribution machinery.
    RunState state = RunState::kQueued;
    Time seg_start = 0;
    Cause pending = Cause::kOther;
    Cause blocked_cause = Cause::kOther;
    int recovery_depth = 0;
    uint64_t open_migration_span = 0;  // close at the next dispatch
    uint64_t open_recovery_span = 0;
  };

  struct ArmedRequest {
    std::string_view name;  // interned
    uint64_t trace_id = 0;
  };

  // A traced roundtrip in flight: the span to close when it answers.
  struct OpenRpc {
    Trace* record = nullptr;  // holds the span while it carries trace_id
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
  };

  // `record` if it still carries trace `trace_id`, else nullptr: the trace
  // was evicted, and the record may since carry another one.
  static Trace* Live(Trace* record, uint64_t trace_id) {
    return record != nullptr && record->trace_id == trace_id ? record : nullptr;
  }
  static Trace* TraceOf(const ThreadCtx& ctx) { return Live(ctx.record, ctx.trace_id); }
  ThreadCtx* Ctx(ThreadId thread) const;
  // A pooled context, bound to `thread` in the live table.
  ThreadCtx& BindContext(ThreadId thread);
  // Unbinds `thread` and returns its context to the pool.
  void ReleaseContext(ThreadId thread, ThreadCtx& ctx);
  // An empty record for `trace_id` in traces_: the last evicted one if any.
  Trace& OpenTrace(uint64_t trace_id);
  // The tracer's one copy of `text`, made on first sight.
  std::string_view Intern(const std::string& text);
  // Appends a completed or open span to ctx's trace; returns its id.
  uint64_t AddSpan(ThreadCtx& ctx, SpanKind kind, Time start, Time end, NodeId node,
                   ThreadId thread, std::string_view label, int64_t aux);
  static Span* FindSpan(Trace& trace, uint64_t span_id);
  // The span of traced roundtrip `rpc_id` while it is open and its trace is
  // retained, else nullptr.
  Span* OpenRpcSpan(uint64_t rpc_id);
  // Closes the root thread's current attribution segment at `when` under
  // `category` and opens the next one.
  void CloseSegment(ThreadCtx& ctx, Time when, Category category);
  Category BlockedCategory(const ThreadCtx& ctx) const;
  void FinishTrace(ThreadCtx& ctx, Time when);
  void EvictIfOverCapacity();

  TraceConfig config_;
  amber::Runtime* rt_ = nullptr;
  TraceMap traces_;  // ordered: deterministic dump
  // Records of evicted traces, reused by the next traces opened.
  std::vector<TraceMap::node_type> spare_traces_;
  // Completed trace ids in completion order (the eviction order): a ring of
  // completed_count_ ids starting at completed_head_.
  std::vector<uint64_t> completed_;
  size_t completed_head_ = 0;
  size_t completed_count_ = 0;
  amber::AddressMap<ThreadCtx*, ThreadId> live_;  // traced threads only
  std::vector<std::unique_ptr<ThreadCtx>> contexts_;  // the pool: every context made
  std::vector<ThreadCtx*> free_contexts_;
  amber::AddressMap<ArmedRequest, ThreadId> armed_;  // parent -> next-create binding
  amber::AddressMap<OpenRpc, uint64_t> open_rpcs_;   // by rpc id
  std::unordered_set<std::string> labels_;           // interned label text
  uint64_t next_trace_id_ = 1;
  uint64_t next_span_id_ = 1;
  int64_t requests_seen_ = 0;
  int64_t requests_sampled_ = 0;
  int64_t contexts_propagated_ = 0;
  int64_t contexts_invalid_ = 0;
  int64_t traces_evicted_ = 0;
};

}  // namespace rtrace

#endif  // AMBER_SRC_RTRACE_RTRACE_H_
