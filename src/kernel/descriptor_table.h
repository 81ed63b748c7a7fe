// Per-node object descriptor tables (§3.2, §3.3).
//
// Each node holds, for every object it has ever dealt with, a descriptor
// saying whether the object is locally resident, a locally cached replica of
// an immutable object, or remote — in which case the descriptor carries a
// *forwarding address* (the last known location, possibly stale). An object
// the node has never dealt with has an *uninitialized* descriptor — in the
// paper this is detected through zero-filled pages; here, through absence
// from the table — and is resolved via the object's home node, computed from
// its address (§3.3).
//
// Storage: one flat open-addressed table per node (amber::AddressMap), keyed
// by the object's address, so the residency check reads about one cache
// line. A key that is absent reads as uninitialized. Keys are not limited to
// the node's own regions (forwarding hints name objects anywhere, and thread
// objects live in node 0's regions), which is why the table is hashed rather
// than a dense per-region array.
//
// Invariant (checked by tests): at any ordered point, exactly one node's
// table marks a mutable object kResident, that node is the object header's
// `owner`, and every forwarding chain terminates at it. The residency check
// (Runtime::EnsureResident) therefore asks the header first and reaches a
// table only for an object that is not resident here or is immutable; the
// tables remain the protocol's state for hints and replicas.

#ifndef AMBER_SRC_KERNEL_DESCRIPTOR_TABLE_H_
#define AMBER_SRC_KERNEL_DESCRIPTOR_TABLE_H_

#include <cstdint>
#include <functional>

#include "src/base/address_map.h"
#include "src/base/panic.h"
#include "src/sim/fiber.h"
#include "src/telemetry/telemetry.h"

namespace amber {

using sim::NodeId;
using sim::kNoNode;

enum class Residency : uint8_t {
  kUninitialized,  // never seen here: consult the home node
  kResident,       // object lives on this node
  kRemoteHint,     // forwarding address in Descriptor::forward (may be stale)
  kReplica,        // local copy of an immutable object
};

struct Descriptor {
  Residency state = Residency::kUninitialized;
  NodeId forward = kNoNode;
};

class DescriptorTable {
 public:
  explicit DescriptorTable(NodeId node) : node_(node) {}

  // The table's half of the residency check. Absent entries read as
  // uninitialized. Counts one descriptor lookup, as the header check does.
  Descriptor Lookup(const void* obj) const {
    telemetry::CountIfActive(telemetry::Count::kDescriptorLookups);
    const Descriptor* d = map_.Find(obj);
    return d == nullptr ? Descriptor{} : *d;
  }

  bool IsResident(const void* obj) const {
    const Descriptor* d = map_.Find(obj);
    return d != nullptr && d->state == Residency::kResident;
  }

  void SetResident(const void* obj) { map_[obj] = {Residency::kResident, kNoNode}; }

  // Leaves a forwarding address behind when the object departs (§3.3), or
  // refreshes a stale hint after a chain walk (path compaction).
  void SetForward(const void* obj, NodeId to) {
    AMBER_DCHECK(to != node_) << "forwarding to self";
    map_[obj] = {Residency::kRemoteHint, to};
  }

  // A replica also remembers where its bytes came from — a hint toward the
  // primary copy, so location queries made while standing on a replica can
  // still make progress (the hint may be stale, like any forwarding entry).
  void SetReplica(const void* obj, NodeId primary_hint = kNoNode) {
    map_[obj] = {Residency::kReplica, primary_hint};
  }

  // Object deleted on this node: drop local knowledge. Stale entries on
  // other nodes are tolerated by the heap's no-split rule (§3.2).
  void Erase(const void* obj) { map_.Erase(obj); }

  NodeId node() const { return node_; }
  size_t entries() const { return map_.size(); }

  // fn(obj, descriptor) for every entry, in no particular order.
  void ForEach(const std::function<void(const void*, const Descriptor&)>& fn) const {
    map_.ForEach(fn);
  }

 private:
  NodeId node_;
  AddressMap<Descriptor> map_;
};

}  // namespace amber

#endif  // AMBER_SRC_KERNEL_DESCRIPTOR_TABLE_H_
