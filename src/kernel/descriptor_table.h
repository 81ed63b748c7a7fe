// Per-node object descriptor tables (§3.2, §3.3).
//
// A node's table holds what the node knows about objects it does not hold:
// a *forwarding address* left when an object departed or learned from a
// chain walk (the last known location, possibly stale, §3.3), or a locally
// cached replica of an immutable object (§2.3). An object the node has never
// dealt with has an *uninitialized* descriptor — in the paper this is
// detected through zero-filled pages; here, through absence from the table —
// and is resolved via the object's home node, computed from its address
// (§3.3).
//
// Residency is not stored here: the object header's `owner` names the node
// that holds the object, and Runtime::DescriptorAt answers kResident there
// before it reads a table (ValidateLocationInvariants checks no runtime
// table stores a kResident entry).
//
// Storage: one flat open-addressed table per node (amber::AddressMap), keyed
// by the object's address, so the residency check reads about one cache
// line. A key that is absent reads as uninitialized. Keys are not limited to
// the node's own regions (forwarding hints name objects anywhere, and thread
// objects live in node 0's regions), which is why the table is hashed rather
// than a dense per-region array.

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
  kResident,       // object lives on this node (its header's `owner`)
  kRemoteHint,     // forwarding address in Descriptor::forward (may be stale)
  kReplica,        // local copy of an immutable object
};

struct Descriptor {
  Residency state = Residency::kUninitialized;
  NodeId forward = kNoNode;

  // The node has the object's bytes, not just a hint of where they are.
  bool Holds() const { return state == Residency::kResident || state == Residency::kReplica; }
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

  // Unused by the runtime (residency is the header's `owner`); table probes
  // and microbenchmarks fill tables with it.
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
