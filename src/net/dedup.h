#ifndef LHRS_NET_DEDUP_H_
#define LHRS_NET_DEDUP_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

namespace lhrs {

/// Bounded receiver-side duplicate detector, keyed on Message::id (a
/// duplicated delivery carries the same id as the original — see
/// FaultActions::duplicates). Nodes whose handlers are not idempotent
/// (parity-delta application, record moves) consult it when a fault
/// injector is active; in a fault-free simulation the network never
/// duplicates, so the filter stays empty.
///
/// The window is FIFO-bounded: after `capacity` further messages a
/// duplicate would be forgotten. Simulated duplicates arrive at the same
/// latency as their originals, so a window of thousands is far beyond any
/// achievable reorder distance.
class DuplicateFilter {
 public:
  /// `capacity` must be positive. Nothing is allocated until the first
  /// SeenBefore: every data and parity bucket owns a filter, and only a
  /// fault-injected or lossy run ever records into one.
  explicit DuplicateFilter(size_t capacity = 4096) : capacity_(capacity) {}

  /// Records `msg_id` and reports whether it was already in the window.
  bool SeenBefore(uint64_t msg_id) {
    if (!seen_.insert(msg_id).second) return true;
    if (order_.size() < capacity_) {
      order_.push_back(msg_id);
    } else {
      // Full: the ring slot of the oldest id takes the newest.
      seen_.erase(order_[oldest_]);
      order_[oldest_] = msg_id;
      oldest_ = oldest_ + 1 == capacity_ ? 0 : oldest_ + 1;
    }
    return false;
  }

  /// Peek without recording. The socket transport records a sequence only
  /// once its delivery is accepted, so a rejected frame's retransmit is
  /// judged afresh instead of being mistaken for a lost-ack duplicate.
  bool Contains(uint64_t msg_id) const { return seen_.contains(msg_id); }

  size_t size() const { return order_.size(); }

 private:
  size_t capacity_;
  std::unordered_set<uint64_t> seen_;
  /// Insertion order: grows to `capacity_`, then is reused as a ring whose
  /// oldest entry sits at `oldest_`.
  std::vector<uint64_t> order_;
  size_t oldest_ = 0;
};

}  // namespace lhrs

#endif  // LHRS_NET_DEDUP_H_
