// Discrete-event queue with a virtual clock.
//
// Events are ordered by (time, sequence-number); the sequence number makes
// ordering of simultaneous events deterministic (FIFO within a timestamp),
// which in turn makes every simulation run bit-reproducible.
//
// A 4-ary min-heap holds 24-byte trivially copyable keys {when, seq,
// payload}. A payload is either a resume target -- a Fiber the kernel
// switches back into, posted with PostResume -- or the index of a task
// slot. A Sync handoff that takes a resume off the top puts the new key in
// its place and sifts it down once, instead of a push and a pop.
//
// A task is any callable: a capture of up to kInlineBytes lives in its slot,
// so once the slab is warm posting and running one allocates nothing; a
// larger capture costs one allocation. The slab grows in chunks that never
// move, so a task runs in place even while it posts enough events to grow
// the slab.

#ifndef AMBER_SRC_SIM_EVENT_QUEUE_H_
#define AMBER_SRC_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/panic.h"
#include "src/base/time.h"

namespace sim {

using amber::Duration;
using amber::Time;

class Fiber;

class EventQueue {
 public:
  // Capture bytes a task keeps in its slot without allocating.
  static constexpr size_t kInlineBytes = 56;

  // Runs a popped resume key; the kernel installs one. Posting a resume
  // without a handler is an error.
  using ResumeHandler = void (*)(void* ctx, Fiber* target);

  EventQueue() = default;
  ~EventQueue() {
    for (const Key& key : heap_) {
      if ((key.payload & kTaskBit) != 0) {
        Slot& slot = SlotAt(key.payload >> 1);
        slot.invoke(slot.storage, /*run=*/false);
      }
    }
  }

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  void SetResumeHandler(ResumeHandler handler, void* ctx) {
    resume_handler_ = handler;
    resume_ctx_ = ctx;
  }

  // Schedules fn (any callable) to run at virtual time t. t must not be in
  // the past.
  template <typename F>
  void Post(Time t, F&& fn) {
    AMBER_DCHECK(t >= now_) << "posting event in the past: " << t << " < " << now_;
    using Fn = std::decay_t<F>;
    const uint64_t index = AllocateSlot();
    Slot& slot = SlotAt(index);
    if constexpr (sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(slot.storage)) Fn(std::forward<F>(fn));
      slot.invoke = &InvokeInline<Fn>;
    } else {
      ::new (static_cast<void*>(slot.storage)) Fn*(new Fn(std::forward<F>(fn)));
      slot.invoke = &InvokeBoxed<Fn>;
    }
    Push(Key{t, next_seq_++, (index << 1) | kTaskBit});
  }

  // Schedules the resume handler to run `target` at virtual time t.
  void PostResume(Time t, Fiber* target) {
    AMBER_DCHECK(t >= now_) << "posting event in the past: " << t << " < " << now_;
    AMBER_DCHECK(resume_handler_ != nullptr) << "resume posted without a handler";
    Push(Key{t, next_seq_++, reinterpret_cast<uint64_t>(target)});
  }

  // Runs the earliest pending event, advancing the clock to its timestamp.
  // Returns false if no events remain.
  bool RunOne() {
    if (heap_.empty()) {
      return false;
    }
    const Key key = Pop();
    if ((key.payload & kTaskBit) != 0) {
      // Chunks never move, so the slot stays put while the task posts more
      // events; it is recycled only once the task has returned.
      Slot& slot = SlotAt(key.payload >> 1);
      slot.invoke(slot.storage, /*run=*/true);
      free_slots_.push_back(key.payload >> 1);
    } else {
      resume_handler_(resume_ctx_, reinterpret_cast<Fiber*>(key.payload));
    }
    return true;
  }

  // PostResume(t, target), then: if the earliest pending event is a resume,
  // removes it and advances the clock to its timestamp as RunOne would, and
  // returns its target (maybe `target` itself) for the caller to run; it
  // counts in events_run() like any other event. Otherwise returns nullptr.
  // A resume that would be the earliest event never enters the heap.
  Fiber* PostResumeAndTakeNext(Time t, Fiber* target) {
    AMBER_DCHECK(t >= now_) << "posting event in the past: " << t << " < " << now_;
    if (heap_.empty() || heap_.front().when > t) {
      ++next_seq_;
      now_ = t;
      return target;
    }
    const Key key{t, next_seq_++, reinterpret_cast<uint64_t>(target)};
    const Key top = heap_.front();
    if ((top.payload & kTaskBit) != 0) {
      Push(key);
      return nullptr;
    }
    // The new key sorts after the top (its seq is the newest), so it takes
    // the top's place and sinks: one pass where a push and a pop took two.
    SiftDown(key);
    now_ = top.when;
    return reinterpret_cast<Fiber*>(top.payload);
  }

  bool Empty() const { return heap_.empty(); }
  size_t Size() const { return heap_.size(); }

  // Current virtual time: the timestamp of the most recently started event.
  Time now() const { return now_; }

  // Timestamp of the earliest pending event (queue must be non-empty).
  Time NextTime() const {
    AMBER_DCHECK(!heap_.empty());
    return heap_.front().when;
  }

  uint64_t events_run() const { return next_seq_ - heap_.size(); }

 private:
  static constexpr uint64_t kTaskBit = 1;  // Fiber pointers are even
  static constexpr uint64_t kChunkSlots = 256;

  struct Key {
    Time when;
    uint64_t seq;
    uint64_t payload;  // Fiber* of a resume, or (slot index << 1) | kTaskBit
  };
  static_assert(sizeof(Key) == 24 && std::is_trivially_copyable_v<Key>);
  static bool Before(const Key& a, const Key& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  // One cache line: the callable (or a pointer to a boxed one) and the
  // function that runs and/or destroys it.
  struct alignas(64) Slot {
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];
    void (*invoke)(void* storage, bool run);
  };
  static_assert(sizeof(Slot) == 64);

  template <typename Fn>
  static void InvokeInline(void* storage, bool run) {
    Fn& fn = *std::launder(static_cast<Fn*>(storage));
    if (run) {
      fn();
    }
    fn.~Fn();
  }
  template <typename Fn>
  static void InvokeBoxed(void* storage, bool run) {
    Fn* fn = *std::launder(static_cast<Fn**>(storage));
    if (run) {
      (*fn)();
    }
    delete fn;
  }

  // A 4-ary min-heap: node i's children are kArity * i + 1 ... + kArity.
  // Half as deep as a binary heap, and a sibling group spans 96 bytes.
  static constexpr size_t kArity = 4;

  void Push(const Key& key) {
    size_t i = heap_.size();
    heap_.push_back(key);
    while (i > 0) {
      const size_t parent = (i - 1) / kArity;
      if (!Before(key, heap_[parent])) {
        break;
      }
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = key;
  }
  Key Pop() {
    const Key top = heap_.front();
    const Key last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      SiftDown(last);
    }
    now_ = top.when;
    return top;
  }
  // Overwrites the root with `key` and sinks it to its place.
  void SiftDown(const Key& key) {
    const size_t n = heap_.size();
    size_t i = 0;
    for (;;) {
      const size_t first = kArity * i + 1;
      if (first >= n) {
        break;
      }
      const size_t end = std::min(first + kArity, n);
      size_t best = first;
      for (size_t c = first + 1; c < end; ++c) {
        if (Before(heap_[c], heap_[best])) {
          best = c;
        }
      }
      if (!Before(heap_[best], key)) {
        break;
      }
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = key;
  }

  Slot& SlotAt(uint64_t index) { return chunks_[index / kChunkSlots][index % kChunkSlots]; }
  uint64_t AllocateSlot() {
    if (free_slots_.empty()) {
      const uint64_t base = chunks_.size() * kChunkSlots;
      chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(kChunkSlots));
      for (uint64_t i = kChunkSlots; i > 0; --i) {
        free_slots_.push_back(base + i - 1);
      }
    }
    const uint64_t index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }

  std::vector<Key> heap_;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<uint64_t> free_slots_;  // LIFO, so the warmest slot is reused first
  ResumeHandler resume_handler_ = nullptr;
  void* resume_ctx_ = nullptr;
  Time now_ = 0;
  uint64_t next_seq_ = 0;
};

}  // namespace sim

#endif  // AMBER_SRC_SIM_EVENT_QUEUE_H_
