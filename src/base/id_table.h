// IdTable: entries keyed by small dense ids.
//
// The kernel numbers fibers 1, 2, 3, ... in creation order, and observers
// use those numbers as thread ids. An IdTable indexes its entries by the id
// directly — a shift and a mask instead of a tree walk — and keeps them in
// fixed-size chunks, so a reference to an entry stays valid for the life of
// the table however many entries are added after it. ForEach visits entries
// in ascending id: the order a std::map keyed by id iterates in. Ids are
// never removed; Clear() drops everything.

#ifndef AMBER_SRC_BASE_ID_TABLE_H_
#define AMBER_SRC_BASE_ID_TABLE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

namespace amber {

template <typename T>
class IdTable {
 public:
  // The entry for `id`, value-initialized by this call if it did not exist
  // yet; `.second` says whether it was created.
  std::pair<T&, bool> TryEmplace(uint64_t id) {
    const size_t c = static_cast<size_t>(id >> kChunkBits);
    if (c >= chunks_.size()) {
      chunks_.resize(c + 1);
    }
    if (chunks_[c] == nullptr) {
      chunks_[c] = std::make_unique<Chunk>();
    }
    std::optional<T>& slot = (*chunks_[c])[id & kSlotMask];
    const bool inserted = !slot.has_value();
    if (inserted) {
      slot.emplace();
    }
    return {*slot, inserted};
  }

  T& operator[](uint64_t id) { return TryEmplace(id).first; }

  T* Find(uint64_t id) {
    return const_cast<T*>(static_cast<const IdTable*>(this)->Find(id));
  }
  const T* Find(uint64_t id) const {
    const size_t c = static_cast<size_t>(id >> kChunkBits);
    if (c >= chunks_.size() || chunks_[c] == nullptr) {
      return nullptr;
    }
    const std::optional<T>& slot = (*chunks_[c])[id & kSlotMask];
    return slot.has_value() ? &*slot : nullptr;
  }

  // fn(id, entry) for every entry, in ascending id.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (size_t c = 0; c < chunks_.size(); ++c) {
      if (chunks_[c] == nullptr) {
        continue;
      }
      for (size_t i = 0; i < kChunkSize; ++i) {
        std::optional<T>& slot = (*chunks_[c])[i];
        if (slot.has_value()) {
          fn(static_cast<uint64_t>((c << kChunkBits) | i), *slot);
        }
      }
    }
  }

  void Clear() { chunks_.clear(); }

 private:
  static constexpr size_t kChunkBits = 6;
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;
  static constexpr uint64_t kSlotMask = kChunkSize - 1;
  using Chunk = std::array<std::optional<T>, kChunkSize>;

  std::vector<std::unique_ptr<Chunk>> chunks_;
};

}  // namespace amber

#endif  // AMBER_SRC_BASE_ID_TABLE_H_
