#ifndef LHRS_LHRS_RANK_TABLE_H_
#define LHRS_LHRS_RANK_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "lhrs/messages.h"

namespace lhrs {

/// A table keyed by record rank. Ranks are dense small integers (1, 2, …,
/// reused smallest-first), so entries live in a vector indexed by rank
/// rather than in a tree; visiting ranks upward gives ascending rank order,
/// which keeps every dump and decode built from the table deterministic.
/// The vectors span one past the highest rank with an entry, and give
/// back their spare capacity once it exceeds their size.
template <typename T>
class RankTable {
 public:
  /// The entry of `rank`, created as T(args...) when absent.
  template <typename... Args>
  T& TryEmplace(Rank rank, Args&&... args) {
    if (rank >= values_.size()) {
      values_.resize(rank + 1);
      present_.resize(rank + 1);
    }
    if (!present_[rank]) {
      values_[rank] = T(std::forward<Args>(args)...);
      present_[rank] = 1;
      ++size_;
    }
    return values_[rank];
  }

  T* Find(Rank rank) {
    return Contains(rank) ? &values_[rank] : nullptr;
  }
  const T* Find(Rank rank) const {
    return Contains(rank) ? &values_[rank] : nullptr;
  }
  bool Contains(Rank rank) const {
    return rank < present_.size() && present_[rank] != 0;
  }

  /// Removes the entry of `rank` (if any) and trims trailing free ranks.
  void Erase(Rank rank) {
    if (!Contains(rank)) return;
    values_[rank] = T();
    present_[rank] = 0;
    --size_;
    size_t end = present_.size();
    while (end > 0 && present_[end - 1] == 0) --end;
    values_.resize(end);
    present_.resize(end);
    if (end < values_.capacity() / 2) {
      values_.shrink_to_fit();
      present_.shrink_to_fit();
    }
  }

  void Clear() { *this = RankTable(); }

  /// Number of entries.
  size_t size() const { return size_; }
  /// One past the highest rank with an entry (0 when empty): visit in
  /// ascending rank order with `for (r = 0; r < end_rank(); ++r)`.
  Rank end_rank() const { return static_cast<Rank>(values_.size()); }

 private:
  std::vector<T> values_;
  std::vector<uint8_t> present_;  ///< 1 where values_ holds an entry.
  size_t size_ = 0;
};

}  // namespace lhrs

#endif  // LHRS_LHRS_RANK_TABLE_H_
