// RPC transport: composes fiber CPU charges with network transmission.
//
// Three communication shapes cover what a thread sends (§3); one-way
// control datagrams (forwarding updates, acks) go straight to
// net::Network::Send.
//   * Roundtrip — request/reply with a service routine at the destination
//                 (Locate queries, address-space-server region requests,
//                 move-object control). The service runs in event context;
//                 its CPU is modelled as receive-side latency.
//   * Travel    — the signature Amber operation: the calling *thread* is the
//                 message. The current fiber is charged for marshalling its
//                 payload, then migrates to the destination node, arriving
//                 after the wire + software path (§3.4 thread migration).
//   * SendBulkTracked — an object's bytes (move, replica copy): the fiber
//                 is charged for marshalling, then the payload is fragmented
//                 onto the wire.
//
// Failure semantics (fault-injection runs): with reliability enabled
// (Transport::EnableReliability), Roundtrip and Travel become
// sequence-numbered, timeout-protected operations with capped exponential
// backoff retransmission and receiver-side duplicate suppression. After
// RetryPolicy::max_attempts the operation returns a typed kTimeout status
// instead of blocking forever. A bulk transfer is not retransmitted: it
// reports whether it arrived, and callers model the loss as an ack timeout.
// With reliability disabled (the default), every path is byte-for-byte the
// original lossless model — no timers are posted and no sequence state is
// kept.

#ifndef AMBER_SRC_RPC_TRANSPORT_H_
#define AMBER_SRC_RPC_TRANSPORT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>

#include "src/net/network.h"
#include "src/sim/kernel.h"

namespace rpc {

using amber::Duration;
using amber::Time;
using sim::NodeId;

// Outcome of a reliable transport operation. In lossless mode the status is
// always kOk.
enum class SendStatus : uint8_t { kOk, kTimeout };

struct RoundtripResult {
  SendStatus status = SendStatus::kOk;
  Time completed = 0;  // reply arrival (kOk) or the time the caller gave up
  int attempts = 1;    // transmissions of the request
  operator Time() const { return completed; }  // compatibility with Time call sites
};

struct TravelResult {
  SendStatus status = SendStatus::kOk;
  int attempts = 1;
};

// Virtual-time retransmission policy: attempt k (0-based) waits
// min(timeout << k, timeout_cap) for an answer before retransmitting;
// after max_attempts transmissions the operation fails with kTimeout.
struct RetryPolicy {
  Duration timeout = amber::Millis(20);       // first-attempt timeout
  Duration timeout_cap = amber::Millis(160);  // backoff ceiling
  int max_attempts = 8;

  Duration AttemptTimeout(int attempt) const {
    Duration t = timeout;
    for (int i = 0; i < attempt && t < timeout_cap; ++i) {
      t *= 2;
    }
    return t < timeout_cap ? t : timeout_cap;
  }
};

// A trace-context frame as it rides the wire: up to kCapacity bytes, held
// inline, so building or copying one never allocates. size == 0 is the
// empty frame: the request is not traced.
struct TraceFrame {
  static constexpr size_t kCapacity = 23;
  uint8_t size = 0;
  std::array<uint8_t, kCapacity> bytes{};

  bool empty() const { return size == 0; }
};

// Trace-context piggybacking (src/rtrace). The hook is consulted once per
// Roundtrip/Travel on the requesting fiber; the returned frame rides every
// transmission of that operation (a retransmission re-carries the identical
// context) and is handed back at the destination when the payload is
// consumed — service execution for roundtrips, fiber arrival for travels.
// An empty frame means "this request is not traced" and leaves the
// operation byte-exact: no extra payload bytes, no arrival callback, no
// events. With no hook attached the transport never even asks, and the
// frame it carries stays empty.
class TraceHook {
 public:
  virtual ~TraceHook() = default;
  // The context to piggyback for `requester` (the blocked fiber's id), or
  // an empty frame for an untraced request. Returned by value: a frame is
  // a few bytes plus its length.
  virtual TraceFrame ContextFrame(uint64_t requester, NodeId src, NodeId dst) = 0;
  // A tagged frame's payload reached `node` (ordered point, event or fiber
  // context). `frame` is exactly what ContextFrame returned.
  virtual void OnContextArrive(Time when, NodeId node, const TraceFrame& frame) {}
};

class Transport {
 public:
  Transport(sim::Kernel* kernel, net::Network* network) : kernel_(kernel), net_(network) {}

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  // Request/reply. Blocks the calling fiber until the reply (whose size the
  // service returns) arrives back, retrying per the RetryPolicy when
  // reliability is enabled. The service runs at most once per roundtrip:
  // duplicate requests (retransmission racing a slow reply, or a duplicated
  // frame) re-send the cached reply without re-executing it.
  RoundtripResult Roundtrip(NodeId dst, int64_t request_bytes,
                            std::function<int64_t()> service);

  // Migrates the calling fiber to dst carrying `payload_bytes` (thread
  // control state + stack + arguments). On kOk the fiber runs on dst; on
  // kTimeout it never left the source node.
  TravelResult Travel(NodeId dst, int64_t payload_bytes);

  // Bulk transfer (object move) from the current fiber's node; the fiber is
  // charged for marshalling. Returns the delivery-complete time at dst and
  // whether the transfer survived fault injection (the simulator's oracle
  // view; callers model detection as an ack timeout).
  net::TxResult SendBulkTracked(NodeId dst, int64_t payload_bytes,
                                std::function<void()> deliver = nullptr);

  net::Network& network() { return *net_; }

  // Attaches the trace-context hook (nullptr detaches); see TraceHook.
  void SetTraceHook(TraceHook* hook) { trace_hook_ = hook; }

  // Switches Roundtrip/Travel onto the timeout/retry/dedup path. Off by
  // default; fault injection turns it on. When off, behaviour and event
  // traffic are exactly the lossless model.
  void EnableReliability(bool on) { reliable_ = on; }
  bool reliability_enabled() const { return reliable_; }

  void SetRetryPolicy(const RetryPolicy& policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }

  // Failure-detector consult: `suspects(src, dst)` true means src's
  // membership view has declared dst failed, and reliable operations give
  // up immediately (typed kTimeout) instead of burning the whole retry
  // budget against a node the protocol already knows is gone. Fed by
  // fault::Membership (lease expiry), never by the injector oracle. Unset
  // (the default) every attempt is made — exactly the pre-membership model.
  void SetSuspicionOracle(std::function<bool(NodeId, NodeId)> suspects) {
    suspects_ = std::move(suspects);
  }

  // Receiver-side duplicate-suppression entries currently cached (bounded:
  // O(in-flight roundtrips), see RoundtripReliable).
  size_t reply_cache_size() const { return reply_cache_.size(); }

  // --- Statistics --------------------------------------------------------------
  int64_t roundtrips() const { return roundtrips_; }
  int64_t travels() const { return travels_; }
  int64_t retries() const { return retries_; }
  int64_t timeouts() const { return timeouts_; }
  int64_t duplicates_suppressed() const { return dups_suppressed_; }

 private:
  // One cached reply on the receiver side, kept only until the requester
  // acks (completion) or the retry budget's worst-case window has passed.
  struct CachedReply {
    int64_t bytes = 0;
    Time cached_at = 0;
  };

  // Charges marshal + protocol-send CPU to the current fiber and returns its
  // post-charge virtual time (the earliest wire departure).
  Time ChargeSendPath(int64_t payload_bytes);

  RoundtripResult RoundtripReliable(NodeId dst, int64_t request_bytes,
                                    std::function<int64_t()> service);

  // After this window no duplicate of a request can still be in flight
  // (every attempt's timeout has expired and the requester has given up).
  Duration WorstCaseRetryWindow() const;
  void EvictExpiredReplies(Time now);

  sim::Kernel* kernel_;
  net::Network* net_;
  TraceHook* trace_hook_ = nullptr;
  RetryPolicy retry_;
  std::function<bool(NodeId, NodeId)> suspects_;
  std::unordered_map<uint64_t, CachedReply> reply_cache_;
  bool reliable_ = false;
  int64_t roundtrips_ = 0;
  int64_t travels_ = 0;
  int64_t retries_ = 0;
  int64_t timeouts_ = 0;
  int64_t dups_suppressed_ = 0;
  uint64_t next_rpc_id_ = 1;
};

}  // namespace rpc

#endif  // AMBER_SRC_RPC_TRANSPORT_H_
