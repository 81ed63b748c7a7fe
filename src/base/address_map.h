// AddressMap: a flat hash map keyed by address (or by a nonzero integer id).
//
// The per-node descriptor tables are found from an object's address whenever
// the object is not resident where it is invoked, so the lookup should cost
// about one cache line. AddressMap keeps {key, value} slots in one
// power-of-two array and uses open addressing with linear probing: a key's
// home slot is the top bits of its address times a 64-bit odd constant
// (Fibonacci hashing, which spreads addresses a fixed stride apart evenly),
// and a lookup scans forward from there to the key or to an empty slot.
// Erase shifts the rest of the cluster back into the hole instead of leaving
// a tombstone, so probe lengths depend only on the entries present.
//
// The key type K is a pointer (the default, `const void*`) or an unsigned
// integer such as a thread id; sequential ids spread as evenly as addresses
// a fixed stride apart. The zero key (the null address, id 0) marks an empty
// slot and is never stored (Find and Erase treat it as absent). Nothing is
// allocated until the first insert. The table doubles when an insert would
// take it past three quarters full, and never shrinks.
//
// Inserting or erasing moves entries: a pointer returned by Find or
// operator[] is invalidated by the next insert or erase, and a ForEach
// callback must not insert into or erase from the map it is iterating.
// ForEach visits entries in slot order, which depends on the keys and on
// the map's history; a caller that needs a deterministic order sorts.

#ifndef AMBER_SRC_BASE_ADDRESS_MAP_H_
#define AMBER_SRC_BASE_ADDRESS_MAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "src/base/panic.h"

namespace amber {

template <typename V, typename K = const void*>
class AddressMap {
  static_assert(std::is_pointer_v<K> || std::is_unsigned_v<K>,
                "AddressMap keys are pointers or unsigned integer ids");

 public:
  size_t size() const { return size_; }
  size_t capacity() const { return slots_ == nullptr ? 0 : mask_ + 1; }

  // The slot the probe for `key` starts at, in the current table (capacity()
  // must be nonzero). Exposed so tests can build colliding keys.
  size_t HomeOf(K key) const {
    uint64_t bits;
    if constexpr (std::is_pointer_v<K>) {
      bits = reinterpret_cast<uintptr_t>(key);
    } else {
      bits = key;
    }
    return static_cast<size_t>((bits * kHashMultiplier) >> shift_);
  }

  V* Find(K key) {
    return const_cast<V*>(static_cast<const AddressMap*>(this)->Find(key));
  }

  const V* Find(K key) const {
    if (size_ == 0) {
      return nullptr;
    }
    for (size_t i = HomeOf(key);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.key == K{}) {
        return nullptr;
      }
      if (s.key == key) {
        return &s.value;
      }
    }
  }

  // The value for `key`, value-initialized by this call if it was absent.
  V& operator[](K key) {
    AMBER_DCHECK(key != K{}) << "AddressMap keys must be nonzero";
    if (slots_ != nullptr) {
      Slot* s = Probe(key);
      if (s->key == key) {
        return s->value;
      }
      if ((size_ + 1) * kMaxLoadDen <= (mask_ + 1) * kMaxLoadNum) {
        return Fill(s, key);
      }
    }
    Grow();
    return Fill(Probe(key), key);
  }

  // Removes `key`; returns whether it was present.
  bool Erase(K key) {
    if (size_ == 0) {
      return false;
    }
    size_t hole = HomeOf(key);
    for (;; hole = (hole + 1) & mask_) {
      if (slots_[hole].key == K{}) {
        return false;
      }
      if (slots_[hole].key == key) {
        break;
      }
    }
    // Backward-shift deletion: walk the rest of the cluster and move back
    // every entry whose home slot does not lie cyclically in (hole, j], so
    // no probe sequence runs into a gap before reaching its key.
    for (size_t j = (hole + 1) & mask_; slots_[j].key != K{}; j = (j + 1) & mask_) {
      const size_t home = HomeOf(slots_[j].key);
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  // fn(key, value) for every entry, in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (size_ == 0) {
      return;
    }
    for (size_t i = 0; i <= mask_; ++i) {
      if (slots_[i].key != K{}) {
        fn(slots_[i].key, slots_[i].value);
      }
    }
  }

 private:
  static constexpr uint64_t kHashMultiplier = 0x9E3779B97F4A7C15ULL;  // 2^64 / golden ratio
  static constexpr size_t kInitialCapacity = 16;
  static constexpr size_t kMaxLoadNum = 3;
  static constexpr size_t kMaxLoadDen = 4;

  struct Slot {
    K key{};
    V value{};
  };

  // The slot holding `key`, or the empty slot where it would go.
  Slot* Probe(K key) {
    size_t i = HomeOf(key);
    while (slots_[i].key != key && slots_[i].key != K{}) {
      i = (i + 1) & mask_;
    }
    return &slots_[i];
  }

  V& Fill(Slot* s, K key) {
    s->key = key;
    ++size_;
    return s->value;
  }

  void Grow() {
    const size_t old_capacity = capacity();
    std::unique_ptr<Slot[]> old = std::move(slots_);
    const size_t new_capacity = old_capacity == 0 ? kInitialCapacity : 2 * old_capacity;
    slots_ = std::make_unique<Slot[]>(new_capacity);
    mask_ = new_capacity - 1;
    shift_ = 64 - std::countr_zero(new_capacity);
    for (size_t i = 0; i < old_capacity; ++i) {
      if (old[i].key != K{}) {
        *Probe(old[i].key) = std::move(old[i]);
      }
    }
  }

  std::unique_ptr<Slot[]> slots_;
  size_t size_ = 0;
  size_t mask_ = 0;
  int shift_ = 0;  // 64 - log2(capacity) once allocated
};

}  // namespace amber

#endif  // AMBER_SRC_BASE_ADDRESS_MAP_H_
