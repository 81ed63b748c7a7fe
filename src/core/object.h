// amber::Object — the base class of everything in the object space (§3.6).
//
// "Object descriptors are allocated and managed by deriving all user classes
// from a single base class called Object whose private data items include
// the descriptor. The constructor and destructor functions for the Object
// class maintain the descriptor..."
//
// Construction discipline:
//   * amber::New<T>(...) allocates a segment in the global object space and
//     placement-constructs T there → a *primary*, independently mobile object.
//   * An Object embedded by value inside another Object (a C++ member object)
//     is detected during construction and marked kObjMember: it is always
//     co-resident with — and moves with — its containing primary (§3.6).
//   * An Object constructed on a thread's stack is marked kObjStackLocal:
//     always co-resident with the running thread.

#ifndef AMBER_SRC_CORE_OBJECT_H_
#define AMBER_SRC_CORE_OBJECT_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/kernel/object_header.h"

namespace amber {

class Runtime;

class Object {
 public:
  Object(const Object&) = delete;
  Object& operator=(const Object&) = delete;

  // The primary object whose location governs this object: itself if it is
  // a primary, the containing object for members (transitively resolved at
  // construction), nullptr for stack-local objects.
  Object* AmberPrimary() {
    return header_.IsMember() ? header_.primary : (header_.IsStackLocal() ? nullptr : this);
  }
  const ObjectHeader& amber_header() const { return header_; }

  // Wire bytes of state held OUTSIDE the object's own segment (heap-backed
  // vectors, strings...). Migration charges segment + this. Override it in
  // classes with out-of-line state that should travel on moves — the manual
  // serialization burden of the era; the default assumes none.
  virtual int64_t AmberPayloadBytes() const { return 0; }

  // Checkpoint hooks for amber::SetRecoverable (docs/FAULTS.md). The default
  // raw-copies the derived part of the object's segment, which is correct
  // only for trivially-copyable representations; classes with out-of-line
  // state (the AmberPayloadBytes cases) must override both symmetrically.
  // Save runs at a quiescent point; Load rebuilds the object from a prior
  // Save's bytes on the recovery buddy after the home node crashed.
  virtual void AmberSaveState(std::vector<uint8_t>* out) const;
  virtual void AmberLoadState(const uint8_t* data, size_t size);

 protected:
  Object();
  virtual ~Object();

 private:
  friend class Runtime;

  // A copy of the header of the object whose segment starts at `block`, read
  // without assuming an object is there: a live heap block may be a thread
  // stack. The header fills the object after its vtable pointer.
  static ObjectHeader HeaderAt(const void* block) {
    ObjectHeader h;
    std::memcpy(&h, static_cast<const char*>(block) + (sizeof(Object) - sizeof(ObjectHeader)),
                sizeof(h));
    return h;
  }

  ObjectHeader header_;
};

// Move bytes derive from sizeof (a primary's segment is its size), so a
// header field added or widened would silently move virtual time.
static_assert(sizeof(ObjectHeader) == 56);
static_assert(sizeof(Object) == 64);

}  // namespace amber

#endif  // AMBER_SRC_CORE_OBJECT_H_
