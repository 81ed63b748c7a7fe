// The object header (§3.2).
//
// "An Amber object is implemented as a record, the first part of which is
// its descriptor, and the remainder of which is its representation." In the
// paper the descriptor bytes at the object's address hold *per-node* state
// (resident bit, forwarding address) because every node has its own copy of
// that page. A single host process has exactly one copy of each address, so
// the per-node descriptor state lives in per-node DescriptorTables
// (descriptor_table.h) and this header carries the node-independent part:
// identity (creation number, listed bit), residency, mobility linkage
// (attachment tree, §2.3), and the immutability flag. The node whose region
// holds the object is not stored: GlobalAddressSpace::HomeOf(address) is the
// one answer.
//
// `owner` is the one record of residency: the object lives on exactly the
// node it names; no descriptor table stores residency (DESIGN.md §4). The
// residency check reads it first — for a mutable object, resident here is
// `owner == here()`, the paper's one load from the front of the object
// record — and falls back to the tables (forwarding chains, home-node
// fallback, replicas) only when the answer is no. `owner` is written only at
// ordered points where the paper's kernel would hold the object's node lock:
// creation, a move's or migration's departure and revert, a recovery, and
// DeleteObject, which clears it.

#ifndef AMBER_SRC_KERNEL_OBJECT_HEADER_H_
#define AMBER_SRC_KERNEL_OBJECT_HEADER_H_

#include <cstdint>

#include "src/sim/fiber.h"

namespace amber {

using sim::NodeId;
using sim::kNoNode;

class Object;

enum ObjectFlags : uint32_t {
  kObjImmutable = 1u << 0,  // marked immutable; replicated on demand (§2.3)
  kObjMember = 1u << 1,     // member object: co-resident with its primary (§3.6)
  kObjStackLocal = 1u << 2, // stack/auto object: co-resident with its thread (§3.6)
  kObjThread = 1u << 3,     // thread object: co-resident with its fiber (§3.4)
  kObjRecoverable = 1u << 4, // opt-in checkpoint/restore crash recovery (docs/FAULTS.md)
  kObjListed = 1u << 5,      // a live, fully constructed primary: the sweeps visit it
};

struct ObjectHeader {
  static constexpr uint32_t kMagic = 0x00a8be20u;

  uint32_t magic = 0;
  uint32_t flags = 0;
  NodeId owner = kNoNode;  // authoritative location; resident there (see above)
  uint32_t size = 0;       // segment size of the primary allocation (<= one region)
  // Creation number of a primary, in program order: DrainNode's evacuation
  // order and the fault.unreachable label (addresses vary with arena layout).
  // 0 for members, stack-locals and destroyed objects.
  uint64_t seq = 0;

  // For member objects: the primary (containing) object whose location
  // governs this one. Null for primary objects.
  Object* primary = nullptr;

  // Attachment tree (§2.3): this object moves whenever `attach_parent`
  // moves; `first_child`/`next_sibling` form the intrusive child list.
  Object* attach_parent = nullptr;
  Object* first_child = nullptr;
  Object* next_sibling = nullptr;

  bool IsImmutable() const { return (flags & kObjImmutable) != 0; }
  bool IsMember() const { return (flags & kObjMember) != 0; }
  bool IsStackLocal() const { return (flags & kObjStackLocal) != 0; }
  bool IsThread() const { return (flags & kObjThread) != 0; }
  bool IsRecoverable() const { return (flags & kObjRecoverable) != 0; }
  bool IsListed() const { return (flags & kObjListed) != 0; }
};

}  // namespace amber

#endif  // AMBER_SRC_KERNEL_OBJECT_HEADER_H_
