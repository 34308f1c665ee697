#ifndef LHRS_LHRS_PARITY_BUCKET_H_
#define LHRS_LHRS_PARITY_BUCKET_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/buffer.h"
#include "common/bytes.h"
#include "lhrs/messages.h"
#include "lhrs/shared.h"
#include "net/dedup.h"
#include "net/node.h"

namespace lhrs {

/// Read-only view of parity record (g, rank) at one parity bucket: the
/// member keys and lengths per data slot and this parity column's
/// Reed-Solomon parity bytes. Points into the bucket's rank slab; valid
/// until the next message the bucket handles.
struct ParityRecordView {
  Rank rank = 0;
  /// Member bitmask, ceil(m / 64) words: bit s % 64 of word s / 64 is set
  /// iff slot s has a member.
  std::span<const uint64_t> members;
  std::span<const Key> keys;           ///< m entries; valid iff a member.
  std::span<const uint32_t> lengths;   ///< m entries; 0 when no member.
  const BufferView* parity = nullptr;  ///< Copy-on-write parity bytes.

  bool has_member(uint32_t slot) const {
    return (members[slot / 64] >> (slot % 64)) & 1;
  }
  size_t member_count() const {
    size_t n = 0;
    for (uint64_t w : members) n += static_cast<size_t>(std::popcount(w));
    return n;
  }
  std::optional<Key> key(uint32_t slot) const {
    return has_member(slot) ? std::optional<Key>(keys[slot]) : std::nullopt;
  }
};

/// Test-only mutable access to one parity record's slab entries, used to
/// inject silent corruption that scrubbing must detect. Empty spans and a
/// null parity when the rank has no record.
struct MutableParityRecord {
  std::span<const uint64_t> members;  ///< As in ParityRecordView.
  std::span<Key> keys;
  std::span<uint32_t> lengths;
  BufferView* parity = nullptr;

  bool has_member(uint32_t slot) const {
    return (members[slot / 64] >> (slot % 64)) & 1;
  }
};

/// A server carrying one parity bucket: parity column `parity_index` of
/// bucket group `group`, at availability level k.
///
/// Applies incremental parity deltas from the group's data buckets, serves
/// rank lookups for degraded-mode record recovery, and dumps / installs its
/// column during bucket recovery.
class ParityBucketNode : public Node {
 public:
  /// `pre_initialized` is false for recovery spares, which buffer deltas
  /// and reads until the reconstructed column is installed.
  ParityBucketNode(std::shared_ptr<LhrsContext> ctx, uint32_t group,
                   uint32_t parity_index, uint32_t k, bool pre_initialized);

  void HandleMessage(const Message& msg) override;
  void HandleDeliveryFailure(const Message& msg) override;
  const char* role() const override { return "parity-bucket"; }

  uint32_t group() const { return group_; }
  uint32_t parity_index() const { return parity_index_; }
  uint32_t k() const { return k_; }
  size_t parity_record_count() const { return record_count_; }

  /// Visits every parity record in ascending rank order: fn(const
  /// ParityRecordView&). Local inspection for tests / invariant
  /// verification; the protocol path is ColumnReadRequest.
  template <typename Fn>
  void ForEachParityRecord(Fn&& fn) const {
    for (Rank r = 0; r < end_rank_; ++r) {
      if (HasRecord(r)) fn(View(r));
    }
  }

  /// The parity record of `rank`, or nullopt when it has none.
  std::optional<ParityRecordView> FindParityRecord(Rank rank) const {
    if (!HasRecord(rank)) return std::nullopt;
    return View(rank);
  }

  MutableParityRecord MutableParityRecordForTest(Rank rank);

  size_t StorageBytes() const;

 private:
  void Dispatch(const Message& msg);
  void ApplyDelta(const ParityDelta& delta);
  /// Applies `delta` unless its metadata precondition has not arrived yet
  /// (kSet onto a foreign key / kClear of an empty slot — possible only
  /// when chaos reordering swaps deltas in flight). Returns false without
  /// touching any state when the delta must wait.
  bool TryApplyDelta(const ParityDelta& delta);
  /// Re-attempts buffered deltas for (rank, slot) after a successful apply
  /// unblocked them, in arrival order.
  void DrainPendingDeltas(Rank rank, uint32_t slot);
  /// Telemetry for one applied delta round (a kParityDelta message or one
  /// kParityDeltaBatch of `deltas` updates). Counters go to the running
  /// locality's metric shard: worker localities never write the main
  /// registry.
  void RecordUpdateRound(size_t deltas);
  WireParityRecord ToWire(Rank rank) const;
  void InstallColumn(const InstallParityColumnMsg& install);

  /// kSlabChunkRanks consecutive ranks of the slab, as a structure of
  /// arrays; row i holds rank (chunk index * kSlabChunkRanks + i).
  static constexpr size_t kSlabChunkRanks = 16;
  struct SlabChunk {
    SlabChunk(size_t m, size_t mask_words)
        : members(kSlabChunkRanks * mask_words),
          keys(kSlabChunkRanks * m),
          lengths(kSlabChunkRanks * m) {}
    std::array<BufferView, kSlabChunkRanks> parity;  ///< Empty: no record.
    /// Member bitmasks, [i * mask_words + slot / 64].
    std::vector<uint64_t> members;
    std::vector<Key> keys;          ///< [i * m + slot]; 0 when no member.
    std::vector<uint32_t> lengths;  ///< [i * m + slot]; 0 when no member.
  };
  const SlabChunk& Chunk(Rank rank) const {
    return *slab_[rank / kSlabChunkRanks];
  }
  SlabChunk& Chunk(Rank rank) { return *slab_[rank / kSlabChunkRanks]; }
  static size_t Row(Rank rank) { return rank % kSlabChunkRanks; }
  /// The member bitmask words of `rank`, which must be inside the slab.
  std::span<const uint64_t> Members(Rank rank) const {
    return std::span<const uint64_t>(Chunk(rank).members)
        .subspan(Row(rank) * mask_words_, mask_words_);
  }
  bool IsMember(Rank rank, uint32_t slot) const {
    return rank < end_rank_ &&
           ((Members(rank)[slot / 64] >> (slot % 64)) & 1) != 0;
  }
  bool HasRecord(Rank rank) const {
    if (rank >= end_rank_) return false;
    for (uint64_t w : Members(rank)) {
      if (w != 0) return true;
    }
    return false;
  }

  ParityRecordView View(Rank rank) const;
  /// This bucket's parity code, resolved once (codes are immutable).
  const parity::ParityCode& coder();
  /// Makes `rank` addressable, adding chunks as needed.
  void ExtendSlab(Rank rank);
  /// The last member of `rank` left: checks the parity is zero, resets the
  /// slab entry, trims trailing free ranks and frees the chunks past them.
  void ReleaseRank(Rank rank);

  std::shared_ptr<LhrsContext> ctx_;
  /// Delta application XORs into the column — not idempotent, so network
  /// duplicates (chaos) must be filtered by message id on arrival.
  DuplicateFilter dedup_;
  uint32_t group_;
  uint32_t parity_index_;
  uint32_t k_;
  bool initialized_;
  const size_t mask_words_;  ///< Member bitmask words per rank.
  const parity::ParityCode* coder_ = nullptr;

  /// The column as a rank-indexed slab (DESIGN.md section 10.4): rank r
  /// holds parity record (group, r). Ranks are dense small integers, so
  /// indexing beats a tree. A record exists exactly when its member mask
  /// has a bit set. The slab grows a fixed-size chunk at a time, so no
  /// existing entry is ever copied, and it covers the ranks below
  /// end_rank_ (one past the highest live rank) with no spare chunk.
  std::vector<std::unique_ptr<SlabChunk>> slab_;
  Rank end_rank_ = 0;
  size_t record_count_ = 0;  ///< Ranks with a non-zero mask.

  std::vector<std::shared_ptr<Message>> queued_;  // Pre-install traffic.
  /// Deltas that overtook the registration they depend on, in arrival
  /// order. The XOR parity bytes commute, but the key/length metadata does
  /// not — so an early arrival waits here and drains, per (rank, slot) in
  /// arrival order, once the blocking registration lands. Empty in
  /// fault-free runs except for rare size-skewed overtakes.
  std::vector<ParityDelta> pending_deltas_;
};

}  // namespace lhrs

#endif  // LHRS_LHRS_PARITY_BUCKET_H_
