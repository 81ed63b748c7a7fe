#include "src/rpc/transport.h"

#include <memory>

#include "src/base/panic.h"

namespace rpc {

using amber::RuntimeObserver;

namespace {

// Shared state of one reliable roundtrip, reachable from the requester
// fiber, every in-flight request frame's delivery closure, the receiver's
// cached-reply re-sends, and the per-attempt timeout events. All access
// happens at ordered points (event context or post-Sync fiber code), so no
// host-level synchronization is needed.
struct RtState {
  sim::Fiber* requester = nullptr;
  // Requester side: true while the fiber is committed to blocking for this
  // attempt. Whoever clears it (reply or timeout) owns the Wake.
  bool waiting = false;
  int epoch = 0;  // attempt number the requester is currently waiting on
  bool reply_arrived = false;
  // Receiver side: the service runs once; duplicates re-send the cached
  // reply size without re-executing (duplicate suppression).
  bool service_ran = false;
  int64_t reply_bytes = 0;
  // Set when the requester gives up (kTimeout) and unwinds. The service
  // closure typically references the requester's stack frame, so a request
  // frame still in flight (fault-delayed past the retry budget) must not
  // execute it after cancellation — the late frame dies at the receiver.
  bool cancelled = false;
};

}  // namespace

Duration Transport::WorstCaseRetryWindow() const {
  Duration w = 0;
  for (int k = 0; k < retry_.max_attempts; ++k) {
    w += retry_.AttemptTimeout(k);
  }
  return w;
}

void Transport::EvictExpiredReplies(Time now) {
  // Lazy sweep (run on each insert): an entry older than the worst-case
  // retry window belongs to a requester that long since gave up; no
  // duplicate of its request can still arrive.
  const Duration window = WorstCaseRetryWindow();
  for (auto it = reply_cache_.begin(); it != reply_cache_.end();) {
    if (now - it->second.cached_at > window) {
      it = reply_cache_.erase(it);
    } else {
      ++it;
    }
  }
}

Time Transport::ChargeSendPath(int64_t payload_bytes) {
  sim::Fiber* f = kernel_->current();
  AMBER_CHECK(f != nullptr) << "RPC send outside fiber context";
  const sim::CostModel& cost = kernel_->cost();
  kernel_->Charge(cost.MarshalCost(payload_bytes) + cost.rpc_send_software);
  // Sync so the bus reservation below happens at an ordered point: shared
  // bus state must only be touched in virtual-time order.
  kernel_->Sync();
  return kernel_->Now();
}

RoundtripResult Transport::Roundtrip(NodeId dst, int64_t request_bytes,
                                     std::function<int64_t()> service) {
  if (reliable_) {
    return RoundtripReliable(dst, request_bytes, std::move(service));
  }
  sim::Fiber* f = kernel_->current();
  const NodeId src = f->node;
  AMBER_CHECK(dst != src) << "roundtrip to self";
  // Trace-context piggyback: an empty frame (untraced request, or no hook)
  // adds zero bytes and triggers no arrival callback — byte-exact.
  TraceFrame ctx;
  if (trace_hook_ != nullptr) {
    ctx = trace_hook_->ContextFrame(f->id, src, dst);
  }
  const int64_t wire_bytes = request_bytes + ctx.size;
  const Time depart = ChargeSendPath(wire_bytes);
  ++roundtrips_;
  const uint64_t id = next_rpc_id_++;
  kernel_->Emit(&RuntimeObserver::OnRpcRequest, depart, src, dst, wire_bytes, id, f->id);
  Time reply_arrival = 0;
  net_->Send(src, dst, wire_bytes, depart, [this, f, src, dst, service, id, ctx,
                                            &reply_arrival] {
    const Time served = kernel_->Now();
    if (trace_hook_ != nullptr && !ctx.empty()) {
      trace_hook_->OnContextArrive(served, dst, ctx);
    }
    const int64_t reply_bytes = service();
    // The service's unmarshal/marshal work is folded into the fixed
    // rpc_recv_software/marshal_base terms below (latency model).
    const Time reply_depart = kernel_->Now() + kernel_->cost().MarshalCost(reply_bytes);
    reply_arrival = net_->Send(dst, src, reply_bytes, reply_depart, nullptr);
    kernel_->Emit(&RuntimeObserver::OnRpcResponse, served, reply_arrival, dst, src, reply_bytes,
                  id);
    kernel_->Wake(f, reply_arrival);
  });
  kernel_->Block();
  return RoundtripResult{SendStatus::kOk, kernel_->Now(), 1};
}

RoundtripResult Transport::RoundtripReliable(NodeId dst, int64_t request_bytes,
                                             std::function<int64_t()> service) {
  sim::Fiber* f = kernel_->current();
  const NodeId src = f->node;
  AMBER_CHECK(dst != src) << "roundtrip to self";
  ++roundtrips_;
  const uint64_t id = next_rpc_id_++;
  // Queried once: every retransmission re-carries the identical context
  // frame, so a request that only lands on attempt k still arrives tagged.
  TraceFrame ctx;
  if (trace_hook_ != nullptr) {
    ctx = trace_hook_->ContextFrame(f->id, src, dst);
  }
  const int64_t wire_bytes = request_bytes + ctx.size;
  auto st = std::make_shared<RtState>();
  st->requester = f;

  // Runs at the requester when a reply frame (original or cached re-send)
  // arrives. Any reply satisfies any attempt of this roundtrip — the
  // sequence id pairs them, and the service is idempotent by construction
  // (it ran exactly once).
  auto on_reply = [this, st] {
    if (st->waiting) {
      st->waiting = false;
      st->reply_arrived = true;
      kernel_->Wake(st->requester, kernel_->Now());
    }
    // else: the requester already gave up (or was already woken) — the late
    // reply is discarded.
  };

  // Runs at the receiver when a request frame arrives. First delivery
  // executes the service and sends the reply; duplicates (retransmissions
  // racing a slow reply, or fault-duplicated frames) re-send the cached
  // reply without re-running the service.
  auto on_request = [this, st, dst, src, id, service, on_reply, ctx] {
    if (st->cancelled) {
      return;  // requester gave up and unwound; see RtState::cancelled
    }
    if (!st->service_ran) {
      st->service_ran = true;
      const Time served = kernel_->Now();
      // Context delivery pairs with service execution: a duplicate frame
      // re-sends the cached reply but does not re-announce the arrival.
      if (trace_hook_ != nullptr && !ctx.empty()) {
        trace_hook_->OnContextArrive(served, dst, ctx);
      }
      st->reply_bytes = service();
      // Cache the reply for duplicate suppression — bounded: the entry dies
      // when the requester completes (ack piggybacked on its next frame,
      // wire cost below the model's resolution) or, if the requester is
      // gone, after the retry budget's worst-case window.
      EvictExpiredReplies(kernel_->Now());
      reply_cache_[id] = CachedReply{st->reply_bytes, kernel_->Now()};
      const Time reply_depart = kernel_->Now() + kernel_->cost().MarshalCost(st->reply_bytes);
      const net::TxResult tx = net_->SendTracked(dst, src, st->reply_bytes, reply_depart, on_reply);
      kernel_->Emit(&RuntimeObserver::OnRpcResponse, served, tx.arrival, dst, src,
                    st->reply_bytes, id);
    } else {
      ++dups_suppressed_;
      auto cached = reply_cache_.find(id);
      if (cached != reply_cache_.end()) {
        // Cached reply: already marshalled, so it departs immediately.
        net_->SendTracked(dst, src, cached->second.bytes, kernel_->Now(), on_reply);
      }
      // else: the requester already acked and the entry was evicted — a
      // straggler duplicate needs no reply.
    }
  };

  int sent = 0;
  for (int attempt = 0; attempt < retry_.max_attempts; ++attempt) {
    if (suspects_ && suspects_(src, dst)) {
      break;  // membership declared dst failed: stop burning the budget
    }
    Time depart;
    if (attempt == 0) {
      depart = ChargeSendPath(wire_bytes);
      kernel_->Emit(&RuntimeObserver::OnRpcRequest, depart, src, dst, wire_bytes, id, f->id);
    } else {
      // Retransmission: the payload is already marshalled; only the protocol
      // send path is paid again.
      kernel_->Charge(kernel_->cost().rpc_send_software);
      kernel_->Sync();
      depart = kernel_->Now();
      ++retries_;
      kernel_->Emit(&RuntimeObserver::OnRpcRetry, depart, src, dst, id, attempt, f->id);
    }
    // No events run between here and Block(): fiber code between kernel
    // calls is atomic, so arming waiting/epoch now is safe.
    st->waiting = true;
    st->epoch = attempt;
    sent = attempt + 1;
    net_->SendTracked(src, dst, wire_bytes, depart, on_request);
    const Duration timeout = retry_.AttemptTimeout(attempt);
    kernel_->Post(depart + timeout, [this, st, attempt] {
      // Only the attempt that armed this timer may expire it; a reply that
      // raced in first cleared `waiting` and owns the wake.
      if (st->waiting && st->epoch == attempt) {
        st->waiting = false;
        kernel_->Wake(st->requester, kernel_->Now());
      }
    });
    kernel_->Block();
    if (st->reply_arrived) {
      // Completion doubles as the ack: the receiver drops its cached reply
      // (no duplicate that still arrives will need it re-sent).
      reply_cache_.erase(id);
      return RoundtripResult{SendStatus::kOk, kernel_->Now(), attempt + 1};
    }
  }
  st->cancelled = true;
  reply_cache_.erase(id);
  if (sent == 0) {
    // Suspected before the first transmission: nothing left the node, no
    // timers ran — report the typed failure without stats or events.
    return RoundtripResult{SendStatus::kTimeout, kernel_->Now(), 0};
  }
  ++timeouts_;
  kernel_->Emit(&RuntimeObserver::OnRpcTimeout, kernel_->Now(), src, dst, id, sent, f->id);
  return RoundtripResult{SendStatus::kTimeout, kernel_->Now(), sent};
}

TravelResult Transport::Travel(NodeId dst, int64_t payload_bytes) {
  sim::Fiber* f = kernel_->current();
  const NodeId src = f->node;
  AMBER_CHECK(dst != src) << "travel to self";
  // The migrating thread's context rides its own carrier frame, so a traced
  // request's identity survives the hop even though the fiber's host-side
  // state never leaves the process.
  TraceFrame ctx;
  if (trace_hook_ != nullptr) {
    ctx = trace_hook_->ContextFrame(f->id, src, dst);
  }
  const int64_t wire_bytes = payload_bytes + ctx.size;
  if (!reliable_) {
    const Time depart = ChargeSendPath(wire_bytes);
    ++travels_;
    const Time arrival = net_->Send(src, dst, wire_bytes, depart, nullptr);
    kernel_->TravelTo(dst, arrival);
    if (trace_hook_ != nullptr && !ctx.empty()) {
      trace_hook_->OnContextArrive(kernel_->Now(), dst, ctx);
    }
    return TravelResult{};
  }
  ++travels_;
  const uint64_t id = next_rpc_id_++;
  int sent = 0;
  for (int attempt = 0; attempt < retry_.max_attempts; ++attempt) {
    if (suspects_ && suspects_(src, dst)) {
      break;  // membership declared dst failed: stop burning the budget
    }
    Time depart;
    if (attempt == 0) {
      depart = ChargeSendPath(wire_bytes);
    } else {
      kernel_->Charge(kernel_->cost().rpc_send_software);
      kernel_->Sync();
      depart = kernel_->Now();
      ++retries_;
      kernel_->Emit(&RuntimeObserver::OnRpcRetry, depart, src, dst, id, attempt, f->id);
    }
    // The simulator's oracle view of delivery stands in for the migration
    // protocol's arrival ack: a lost carrier frame surfaces as an ack
    // timeout at the source, which still holds the thread and retransmits.
    sent = attempt + 1;
    const net::TxResult tx = net_->SendTracked(src, dst, wire_bytes, depart, nullptr);
    if (tx.delivered) {
      kernel_->TravelTo(dst, tx.arrival);
      if (trace_hook_ != nullptr && !ctx.empty()) {
        trace_hook_->OnContextArrive(kernel_->Now(), dst, ctx);
      }
      return TravelResult{SendStatus::kOk, attempt + 1};
    }
    const Duration timeout = retry_.AttemptTimeout(attempt);
    kernel_->Post(depart + timeout, [this, f] { kernel_->Wake(f, kernel_->Now()); });
    kernel_->Block();
  }
  if (sent == 0) {
    return TravelResult{SendStatus::kTimeout, 0};  // suspected before any send
  }
  ++timeouts_;
  kernel_->Emit(&RuntimeObserver::OnRpcTimeout, kernel_->Now(), src, dst, id, sent, f->id);
  return TravelResult{SendStatus::kTimeout, sent};
}

net::TxResult Transport::SendBulkTracked(NodeId dst, int64_t payload_bytes,
                                         std::function<void()> deliver) {
  const NodeId src = kernel_->current()->node;
  const Time depart = ChargeSendPath(payload_bytes);
  return net_->SendBulkTracked(src, dst, payload_bytes, depart, std::move(deliver));
}

}  // namespace rpc
