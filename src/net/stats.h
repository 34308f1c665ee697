#ifndef LHRS_NET_STATS_H_
#define LHRS_NET_STATS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "net/message.h"

namespace lhrs {

namespace telemetry {
class MetricsRegistry;
}  // namespace telemetry

/// Message-traffic counters, the primary metric of every SDDS evaluation
/// ("messaging costs are network-speed invariant"). Counts are kept per
/// message kind; benches snapshot/diff around operations.
class MessageStats {
 public:
  struct Counter {
    uint64_t messages = 0;
    uint64_t bytes = 0;
  };

  /// Records one sent message. A multicast to n destinations is recorded as
  /// one message when the multicast service is on (`count_as_message` true
  /// only for the first member), matching how the paper counts scans.
  /// `from` attributes the send to a node (kInvalidNode: unattributed).
  void RecordSend(int kind, size_t bytes, bool count_as_message,
                  NodeId from = kInvalidNode) {
    Counter& c = KindSlot(kind);
    c.bytes += bytes;
    total_.bytes += bytes;
    if (count_as_message) {
      ++c.messages;
      ++total_.messages;
    }
    ++deliveries_;
    if (from >= 0) {
      Counter& n = NodeSlot(sent_, from);
      ++n.messages;  // Per-node counts are physical, every copy counts.
      n.bytes += bytes;
    }
  }

  /// Records one successful point-to-point delivery at node `to`.
  void RecordReceive(NodeId to, size_t bytes) {
    if (to < 0) return;
    Counter& n = NodeSlot(received_, to);
    ++n.messages;
    n.bytes += bytes;
  }

  void RecordDeliveryFailure() { ++delivery_failures_; }

  const Counter& total() const { return total_; }
  uint64_t total_messages() const { return total_.messages; }

  /// Point-to-point deliveries including every member of a multicast.
  uint64_t deliveries() const { return deliveries_; }
  uint64_t delivery_failures() const { return delivery_failures_; }

  Counter ForKind(int kind) const {
    auto it = LowerBound(kind);
    return it != per_kind_.end() && it->kind == kind ? it->counter
                                                     : Counter{};
  }

  /// Sum over a half-open kind range [lo, hi) — e.g. all LH*RS parity
  /// traffic.
  Counter ForKindRange(int lo, int hi) const {
    Counter out;
    for (auto it = LowerBound(lo); it != per_kind_.end() && it->kind < hi;
         ++it) {
      out.messages += it->counter.messages;
      out.bytes += it->counter.bytes;
    }
    return out;
  }

  // --- Per-node attribution (hot-bucket skew visibility) -----------------
  Counter SentBy(NodeId node) const { return NodeAt(sent_, node); }
  Counter ReceivedBy(NodeId node) const { return NodeAt(received_, node); }

  /// Publishes every per-kind and per-node series into a metrics registry
  /// as "net.sent.messages{kind=...}", "net.node_sent.messages{node=N}",
  /// "net.node_received.bytes{node=N}", ... — the bridge between the
  /// paper-style message accounting and the telemetry run reports. Nodes
  /// that never sent (received) get no node_sent (node_received) series.
  void ExportTo(telemetry::MetricsRegistry* registry) const;

  /// Folds another stats object into this one. The parallel engine keeps
  /// one MessageStats per locality (recorded lock-free by its own
  /// executor) and merges the shards into the published view on read.
  void MergeFrom(const MessageStats& other) {
    for (const KindCounter& kc : other.per_kind_) {
      Counter& mine = KindSlot(kc.kind);
      mine.messages += kc.counter.messages;
      mine.bytes += kc.counter.bytes;
    }
    MergeNodes(sent_, other.sent_);
    MergeNodes(received_, other.received_);
    total_.messages += other.total_.messages;
    total_.bytes += other.total_.bytes;
    deliveries_ += other.deliveries_;
    delivery_failures_ += other.delivery_failures_;
  }

  void Reset() {
    per_kind_.clear();
    sent_.clear();
    received_.clear();
    total_ = Counter{};
    deliveries_ = 0;
    delivery_failures_ = 0;
  }

  /// Multi-line table of per-kind counts using the registered kind names.
  std::string ToString() const;

 private:
  /// One row of the per-kind table. A file sends a few dozen distinct
  /// kinds spread over several hundred kind values, so the table is a
  /// vector sorted by kind rather than an array indexed by it.
  struct KindCounter {
    int kind;
    Counter counter;
  };

  std::vector<KindCounter>::const_iterator LowerBound(int kind) const {
    return std::lower_bound(
        per_kind_.begin(), per_kind_.end(), kind,
        [](const KindCounter& kc, int k) { return kc.kind < k; });
  }

  Counter& KindSlot(int kind) {
    auto it = std::lower_bound(
        per_kind_.begin(), per_kind_.end(), kind,
        [](const KindCounter& kc, int k) { return kc.kind < k; });
    if (it == per_kind_.end() || it->kind != kind) {
      it = per_kind_.insert(it, KindCounter{kind, Counter{}});
    }
    return it->counter;
  }

  /// Per-node counters are indexed by the dense NodeId. A node that sent
  /// (received) anything has a nonzero message count, so zero rows mark
  /// ids that never did.
  static Counter& NodeSlot(std::vector<Counter>& nodes, NodeId node) {
    const auto at = static_cast<size_t>(node);
    if (at >= nodes.size()) nodes.resize(at + 1);
    return nodes[at];
  }

  static Counter NodeAt(const std::vector<Counter>& nodes, NodeId node) {
    const auto at = static_cast<size_t>(node);
    return node >= 0 && at < nodes.size() ? nodes[at] : Counter{};
  }

  static void MergeNodes(std::vector<Counter>& mine,
                         const std::vector<Counter>& other) {
    if (other.size() > mine.size()) mine.resize(other.size());
    for (size_t i = 0; i < other.size(); ++i) {
      mine[i].messages += other[i].messages;
      mine[i].bytes += other[i].bytes;
    }
  }

  std::vector<KindCounter> per_kind_;  ///< Sorted by kind.
  std::vector<Counter> sent_;          ///< Indexed by sending NodeId.
  std::vector<Counter> received_;      ///< Indexed by receiving NodeId.
  Counter total_;
  uint64_t deliveries_ = 0;
  uint64_t delivery_failures_ = 0;
};

/// Registers a display name for a message kind (idempotent).
void RegisterMessageKindName(int kind, std::string name);

/// Name previously registered, or "kind<N>".
std::string MessageKindName(int kind);

}  // namespace lhrs

#endif  // LHRS_NET_STATS_H_
