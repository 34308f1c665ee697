#ifndef LHRS_COMMON_ID_TABLE_H_
#define LHRS_COMMON_ID_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace lhrs {

/// Map from nonzero 64-bit ids to values, for per-operation bookkeeping
/// whose ids only grow (client op ids, facade tokens): an operation inserts
/// its entry when it starts and erases it when it completes, so only a
/// small window of ids is live at any time.
///
/// Open addressing with linear probing and slot = id mod capacity. Ids
/// handed out in sequence land in consecutive slots, so as long as the
/// live ids span fewer ids than the table has slots, every lookup hits its
/// home slot. An entry that is never erased holds only its own slot: later
/// ids wrap around the table and probe past it. Capacity is a power of two
/// that doubles when the table would pass half full and halves when it
/// falls below an eighth, so memory follows the live entries and not the
/// span of ids. Erase shifts the following probe run back, so there are no
/// tombstones.
///
/// Values must be default-constructible and movable; empty slots hold a
/// default value. A pointer or reference to a value stays valid only until
/// the next Insert or Erase.
template <typename T>
class IdTable {
 public:
  /// Allocates nothing; the first Insert does.
  IdTable() = default;

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

  T* Find(uint64_t id) {
    const size_t at = SlotOf(id);
    return at == kNone ? nullptr : &slots_[at].value;
  }
  const T* Find(uint64_t id) const {
    const size_t at = SlotOf(id);
    return at == kNone ? nullptr : &slots_[at].value;
  }
  bool Contains(uint64_t id) const { return SlotOf(id) != kNone; }

  /// Inserts the entry for `id` (nonzero), or overwrites it if present.
  template <typename V>
  T& Insert(uint64_t id, V&& value) {
    LHRS_CHECK(id != 0) << "IdTable ids are nonzero";
    if ((size_ + 1) * 2 > slots_.size()) {
      Rehash(std::max(kMinCapacity, slots_.size() * 2));
    }
    size_t i = Home(id);
    for (; slots_[i].id != 0; i = Next(i)) {
      if (slots_[i].id == id) {
        slots_[i].value = std::forward<V>(value);
        return slots_[i].value;
      }
    }
    slots_[i].id = id;
    slots_[i].value = std::forward<V>(value);
    ++size_;
    return slots_[i].value;
  }

  /// Removes the entry for `id`; false if there was none.
  bool Erase(uint64_t id) {
    const size_t at = SlotOf(id);
    if (at == kNone) return false;
    EraseAt(at);
    return true;
  }

  /// Removes the entry for `id` and returns its value (nullopt if absent).
  std::optional<T> Take(uint64_t id) {
    const size_t at = SlotOf(id);
    if (at == kNone) return std::nullopt;
    std::optional<T> out(std::move(slots_[at].value));
    EraseAt(at);
    return out;
  }

 private:
  static constexpr size_t kMinCapacity = 8;
  static constexpr size_t kNone = ~size_t{0};

  struct Slot {
    uint64_t id = 0;  ///< 0 marks an empty slot.
    T value{};
  };

  size_t Home(uint64_t id) const {
    return static_cast<size_t>(id) & (slots_.size() - 1);
  }
  size_t Next(size_t i) const { return (i + 1) & (slots_.size() - 1); }

  size_t SlotOf(uint64_t id) const {
    if (slots_.empty() || id == 0) return kNone;
    for (size_t i = Home(id); slots_[i].id != 0; i = Next(i)) {
      if (slots_[i].id == id) return i;
    }
    return kNone;
  }

  void EraseAt(size_t hole) {
    const size_t mask = slots_.size() - 1;
    for (size_t j = Next(hole); slots_[j].id != 0; j = Next(j)) {
      // The entry at j may fill the hole only if the hole lies on its
      // probe path, i.e. its home is no later than the hole (cyclically).
      const size_t home = Home(slots_[j].id);
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole].id = 0;
    slots_[hole].value = T();
    --size_;
    if (size_ * 8 < slots_.size() && slots_.size() > kMinCapacity) {
      Rehash(slots_.size() / 2);
    }
  }

  void Rehash(size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_ = std::vector<Slot>(capacity);
    for (Slot& s : old) {
      if (s.id == 0) continue;
      size_t i = Home(s.id);
      while (slots_[i].id != 0) i = Next(i);
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;  ///< Power-of-two size, or empty.
  size_t size_ = 0;
};

}  // namespace lhrs

#endif  // LHRS_COMMON_ID_TABLE_H_
