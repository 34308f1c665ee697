// Property test of the parity bucket's rank-indexed slab: randomized
// set / none / clear delta streams — with rank reuse, deltas that overtake
// the delta they depend on, and column re-installs — are applied both to a
// live ParityBucketNode and to a reference model built on an ordered map
// of per-rank records. After every step the bucket's protocol answers
// (ColumnRead dump, FindRank, ParityRecordRequest) and its accounting
// (record count, StorageBytes) must equal the model's. Groups run at m = 4
// and at m = 70, whose member masks take two words.

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "lhrs/lhrs_file.h"

namespace lhrs {
namespace {

constexpr uint32_t kK = 2;
constexpr uint32_t kParityIndex = 1;  // Non-trivial RS coefficients.

/// Records every message it receives; the replies of the parity bucket
/// under test land here.
class ReplySink : public Node {
 public:
  void HandleMessage(const Message& msg) override {
    if (msg.body->kind() == LhrsMsg::kColumnReadReply) {
      dump = static_cast<const ColumnReadReplyMsg&>(*msg.body);
    } else if (msg.body->kind() == LhrsMsg::kFindRankReply) {
      find_rank = static_cast<const FindRankReplyMsg&>(*msg.body);
    } else if (msg.body->kind() == LhrsMsg::kParityRecordReply) {
      record = static_cast<const ParityRecordReplyMsg&>(*msg.body);
    }
  }

  std::optional<ColumnReadReplyMsg> dump;
  std::optional<FindRankReplyMsg> find_rank;
  std::optional<ParityRecordReplyMsg> record;
};

/// The reference: the parity column as an ordered map of per-rank records,
/// with the same delta preconditions and arrival-order buffering the
/// bucket promises.
class Model {
 public:
  struct Record {
    explicit Record(uint32_t m) : keys(m), lengths(m, 0) {}
    std::vector<std::optional<Key>> keys;
    std::vector<uint32_t> lengths;
    BufferView parity;
  };

  Model(uint32_t m, const parity::ParityCode& coder) : m_(m), coder_(coder) {}

  void Apply(const ParityDelta& d) {
    if (TryApply(d)) {
      Drain(d.rank, d.slot);
    } else {
      pending_.push_back(d);
    }
  }

  /// Replaces the column (the bucket drops buffered deltas on install).
  void Install(const std::vector<WireParityRecord>& records) {
    records_.clear();
    pending_.clear();
    for (const WireParityRecord& w : records) {
      Record& rec = records_.try_emplace(w.rank, m_).first->second;
      rec.keys = w.keys;
      rec.lengths = w.lengths;
      rec.parity = w.parity;
    }
  }

  const std::map<Rank, Record>& records() const { return records_; }
  bool has_pending() const { return !pending_.empty(); }

  std::optional<Rank> FindRank(Key key, uint32_t slot) const {
    for (const auto& [rank, rec] : records_) {
      if (rec.keys[slot] == key) return rank;
    }
    return std::nullopt;
  }

  size_t StorageBytes() const {
    size_t n = 0;
    for (const auto& [rank, rec] : records_) n += m_ * 12 + rec.parity.size();
    return n;
  }

 private:
  bool TryApply(const ParityDelta& d) {
    auto it = records_.find(d.rank);
    const std::optional<Key>* cur =
        it == records_.end() ? nullptr : &it->second.keys[d.slot];
    const bool present = cur != nullptr && cur->has_value();
    switch (d.key_op) {
      case ParityDelta::KeyOp::kSet:
        if (present && **cur != d.key) return false;
        break;
      case ParityDelta::KeyOp::kNone:
        if (!present) return false;
        break;
      case ParityDelta::KeyOp::kClear:
        if (!present || **cur != d.key) return false;
        break;
    }
    Record& rec = records_.try_emplace(d.rank, m_).first->second;
    coder_.ApplyDelta(d.slot, d.delta, kParityIndex, &rec.parity);
    switch (d.key_op) {
      case ParityDelta::KeyOp::kNone:
        rec.lengths[d.slot] = d.new_length;
        break;
      case ParityDelta::KeyOp::kSet:
        rec.keys[d.slot] = d.key;
        rec.lengths[d.slot] = d.new_length;
        break;
      case ParityDelta::KeyOp::kClear:
        rec.keys[d.slot].reset();
        rec.lengths[d.slot] = 0;
        break;
    }
    bool any = false;
    for (const auto& k : rec.keys) any = any || k.has_value();
    if (!any) {
      EXPECT_TRUE(AllZero(rec.parity)) << "model: empty group, rank " << d.rank;
      records_.erase(d.rank);
    }
    return true;
  }

  void Drain(Rank rank, uint32_t slot) {
    bool progress = true;
    while (progress) {
      progress = false;
      for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        if (it->rank != rank || it->slot != slot) continue;
        if (TryApply(*it)) {
          pending_.erase(it);
          progress = true;
          break;
        }
      }
    }
  }

  const uint32_t m_;
  const parity::ParityCode& coder_;
  std::map<Rank, Record> records_;
  std::vector<ParityDelta> pending_;
};

/// The data side of one bucket group, generating the delta stream a data
/// bucket would send: fresh keys only, ranks allocated smallest-free-first
/// per slot.
class Generator {
 public:
  struct Member {
    Key key = 0;
    Bytes value;
  };
  struct Step {
    ParityDelta delta;
    bool inserts = false;  ///< kSet registering a new member.
  };

  Generator(uint32_t m, uint64_t seed) : rng_(seed), slots_(m) {}

  Step Next() {
    const uint32_t slot = static_cast<uint32_t>(rng_.Uniform(slots_.size()));
    std::map<Rank, Member>& column = slots_[slot];
    const uint32_t roll = static_cast<uint32_t>(rng_.Uniform(100));
    // Bias towards growth so the slab crosses several chunks, but delete
    // often enough that ranks (including the top one) are freed and reused.
    if (column.empty() || roll < 45) return Insert(slot);
    auto it = column.begin();
    std::advance(it, static_cast<long>(rng_.Uniform(column.size())));
    if (roll < 75) return Update(slot, it);
    return Delete(slot, it);
  }

  Key RandomLiveKey(uint32_t* slot) {
    for (int tries = 0; tries < 16; ++tries) {
      *slot = static_cast<uint32_t>(rng_.Uniform(slots_.size()));
      const auto& column = slots_[*slot];
      if (column.empty()) continue;
      auto it = column.begin();
      std::advance(it, static_cast<long>(rng_.Uniform(column.size())));
      return it->second.key;
    }
    *slot = 0;
    return next_key_ + 1;  // Never handed out.
  }

  /// Clears of every live member, highest rank first.
  std::vector<ParityDelta> ClearAll() {
    std::vector<ParityDelta> out;
    for (uint32_t slot = 0; slot < slots_.size(); ++slot) {
      for (const auto& [rank, m] : slots_[slot]) {
        out.push_back(
            Delta(rank, slot, ParityDelta::KeyOp::kClear, m.key, m.value));
        out.back().new_length = 0;
      }
      slots_[slot].clear();
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const ParityDelta& a, const ParityDelta& b) {
                       return a.rank > b.rank;
                     });
    return out;
  }

  Rng& rng() { return rng_; }

 private:
  Step Insert(uint32_t slot) {
    std::map<Rank, Member>& column = slots_[slot];
    Rank rank = 1;
    while (column.contains(rank)) ++rank;  // Smallest free rank.
    Member& m = column[rank];
    m.key = ++next_key_ * 7919;  // Unique; never 0.
    m.value = rng_.RandomBytes(1 + rng_.Uniform(48));
    Step s;
    s.inserts = true;
    s.delta = Delta(rank, slot, ParityDelta::KeyOp::kSet, m.key, m.value);
    return s;
  }

  Step Update(uint32_t slot, std::map<Rank, Member>::iterator it) {
    Member& m = it->second;
    Bytes fresh = rng_.RandomBytes(1 + rng_.Uniform(48));
    const BufferView xor_delta = MakeXorDelta(m.value, fresh);
    m.value = std::move(fresh);
    // Data buckets refresh the length through kSet; kNone is the
    // value-only form. Both must behave the same on a live member.
    const auto op = rng_.Uniform(2) == 0 ? ParityDelta::KeyOp::kSet
                                         : ParityDelta::KeyOp::kNone;
    Step s;
    s.delta = Delta(it->first, slot, op, m.key, xor_delta);
    s.delta.new_length = static_cast<uint32_t>(m.value.size());
    return s;
  }

  Step Delete(uint32_t slot, std::map<Rank, Member>::iterator it) {
    Step s;
    s.delta = Delta(it->first, slot, ParityDelta::KeyOp::kClear,
                    it->second.key, it->second.value);
    s.delta.new_length = 0;
    slots_[slot].erase(it);
    return s;
  }

  static ParityDelta Delta(Rank rank, uint32_t slot, ParityDelta::KeyOp op,
                           Key key, const BufferView& delta) {
    ParityDelta d;
    d.rank = rank;
    d.slot = slot;
    d.key_op = op;
    d.key = key;
    d.new_length = static_cast<uint32_t>(delta.size());
    d.delta = delta;
    return d;
  }

  Rng rng_;
  Key next_key_ = 0;
  std::vector<std::map<Rank, Member>> slots_;  ///< One column per slot.
};

LhrsFile::Options Options(uint32_t m) {
  LhrsFile::Options opts;
  opts.file.bucket_capacity = 8;
  opts.group_size = m;
  opts.policy.base_k = kK;
  return opts;
}

void ExpectSameRecord(const WireParityRecord& got, Rank rank,
                      const Model::Record& want) {
  EXPECT_EQ(got.rank, rank);
  EXPECT_EQ(got.keys, want.keys) << "rank " << rank;
  EXPECT_EQ(got.lengths, want.lengths) << "rank " << rank;
  EXPECT_EQ(got.parity, want.parity) << "rank " << rank;
  EXPECT_EQ(got.parity.size(), want.parity.size()) << "rank " << rank;
}

/// Parameters: group size m, generator seed.
class ParitySlabTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint64_t>> {
 protected:
  ParitySlabTest()
      : m_(std::get<0>(GetParam())),
        file_(Options(m_)),
        pb_(file_.parity_bucket(0, kParityIndex)),
        coders_(m_),
        model_(m_, coders_.ForK(kK)) {
    auto sink = std::make_unique<ReplySink>();
    sink_ = sink.get();
    sink_id_ = file_.network().AddNode(std::move(sink));
  }

  void Deliver(std::unique_ptr<MessageBody> body) {
    Message msg;
    msg.from = sink_id_;
    msg.to = pb_->id();
    msg.body = std::move(body);
    pb_->HandleMessage(msg);
    file_.network().RunUntilIdle();  // Replies reach the sink.
  }

  void Apply(const ParityDelta& d) {
    auto body = std::make_unique<ParityDeltaMsg>();
    body->group = 0;
    body->delta = d;
    Deliver(std::move(body));
    model_.Apply(d);
  }

  std::vector<WireParityRecord> Dump() {
    auto req = std::make_unique<ColumnReadRequestMsg>();
    req->group = 0;
    sink_->dump.reset();
    Deliver(std::move(req));
    EXPECT_TRUE(sink_->dump.has_value());
    return sink_->dump.has_value() ? sink_->dump->parity_records
                                   : std::vector<WireParityRecord>{};
  }

  void Install(const std::vector<WireParityRecord>& records) {
    auto install = std::make_unique<InstallParityColumnMsg>();
    install->group = 0;
    install->parity_index = kParityIndex;
    install->parity_records = records;
    Deliver(std::move(install));
    model_.Install(records);
  }

  /// The bucket and the model agree on everything observable.
  void ExpectEquivalent(Generator& gen) {
    const auto& want = model_.records();
    const std::vector<WireParityRecord> dump = Dump();
    ASSERT_EQ(dump.size(), want.size());
    auto it = want.begin();
    for (const WireParityRecord& got : dump) {
      ExpectSameRecord(got, it->first, it->second);
      ++it;
    }
    EXPECT_EQ(pb_->parity_record_count(), want.size());
    EXPECT_EQ(pb_->StorageBytes(), model_.StorageBytes());

    // The in-process visitor walks the same records in the same order.
    std::vector<Rank> visited;
    pb_->ForEachParityRecord(
        [&](const ParityRecordView& v) { visited.push_back(v.rank); });
    std::vector<Rank> ranks;
    for (const auto& [rank, rec] : want) ranks.push_back(rank);
    EXPECT_EQ(visited, ranks);

    // FindRank for a live key, and for a key that was never handed out.
    for (int probe = 0; probe < 2; ++probe) {
      uint32_t slot = 0;
      const Key key = probe == 0 ? gen.RandomLiveKey(&slot) : 1;
      auto req = std::make_unique<FindRankRequestMsg>();
      req->key = key;
      req->slot = slot;
      sink_->find_rank.reset();
      Deliver(std::move(req));
      ASSERT_TRUE(sink_->find_rank.has_value());
      const std::optional<Rank> rank = model_.FindRank(key, slot);
      ASSERT_EQ(sink_->find_rank->found, rank.has_value()) << "key " << key;
      if (rank.has_value()) {
        ExpectSameRecord(sink_->find_rank->record, *rank, want.at(*rank));
      }
    }

    // ParityRecordRequest for a rank at, just below and past the top.
    const Rank top = want.empty() ? 0 : want.rbegin()->first;
    for (Rank rank : {Rank{1}, top, top + 1}) {
      auto req = std::make_unique<ParityRecordRequestMsg>();
      req->rank = rank;
      sink_->record.reset();
      Deliver(std::move(req));
      ASSERT_TRUE(sink_->record.has_value());
      ASSERT_EQ(sink_->record->found, want.contains(rank)) << "rank " << rank;
      if (sink_->record->found) {
        ExpectSameRecord(sink_->record->record, rank, want.at(rank));
      }
    }
  }

  const uint32_t m_;
  LhrsFile file_;
  ParityBucketNode* pb_;
  ReplySink* sink_ = nullptr;
  NodeId sink_id_ = kInvalidNode;
  CoderCache coders_;
  Model model_;
};

TEST_P(ParitySlabTest, MatchesOrderedMapModel) {
  Generator gen(m_, std::get<1>(GetParam()));
  std::optional<Generator::Step> held;
  size_t buffered_steps = 0;
  size_t max_records = 0;
  size_t two_word_records = 0;  // Members in both mask words (m > 64).
  for (int step = 0; step < 1500; ++step) {
    Generator::Step next = gen.Next();
    if (held.has_value()) {
      // Deliver the successor first, then the held delta: the successor
      // overtook it. A clear must never overtake an update of its own
      // member (a data bucket cannot produce that order: the member would
      // leave with a stale contribution still in flight).
      const bool same_member = held->delta.rank == next.delta.rank &&
                               held->delta.slot == next.delta.slot;
      const bool unsafe = same_member && !held->inserts &&
                          next.delta.key_op == ParityDelta::KeyOp::kClear;
      if (!unsafe) {
        Apply(next.delta);
        if (model_.has_pending()) ++buffered_steps;
        Apply(held->delta);
        held.reset();
        ExpectEquivalent(gen);
        continue;
      }
      Apply(held->delta);
      held.reset();
    }
    if (gen.rng().Uniform(5) == 0) {
      held = next;  // Delivered after the following delta.
      continue;
    }
    Apply(next.delta);
    ExpectEquivalent(gen);
    max_records = std::max(max_records, model_.records().size());
    pb_->ForEachParityRecord([&](const ParityRecordView& v) {
      bool low = false, high = false;
      for (uint32_t slot = 0; slot < m_; ++slot) {
        (slot < 64 ? low : high) |= v.has_member(slot);
      }
      if (low && high) ++two_word_records;
    });
    if (step % 97 == 0 && !model_.has_pending()) {
      // Round-trip the column through a recovery install.
      Install(Dump());
      ExpectEquivalent(gen);
    }
    if (HasFatalFailure()) return;
  }
  if (held.has_value()) Apply(held->delta);
  ExpectEquivalent(gen);
  if (m_ > 64) {
    // Wide groups spread deltas thin: overtakes on one (rank, slot) and
    // many-chunk slabs are the narrow groups' coverage.
    EXPECT_GT(two_word_records, 0u) << "no record used both mask words";
  } else {
    EXPECT_GT(buffered_steps, 0u) << "no delta ever overtook its predecessor";
    EXPECT_GT(max_records, 40u) << "the slab never grew past a few chunks";
  }
}

TEST_P(ParitySlabTest, DrainsToEmptyAndTrims) {
  Generator gen(m_, std::get<1>(GetParam()));
  for (int i = 0; i < 300; ++i) Apply(gen.Next().delta);
  ASSERT_GT(pb_->parity_record_count(), 0u);
  // Every member leaves, highest rank first, so the slab trims as it
  // shrinks; each emptied group passes the zero-parity check.
  for (const ParityDelta& clear : gen.ClearAll()) {
    Apply(clear);
    ExpectEquivalent(gen);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(pb_->parity_record_count(), 0u);
  EXPECT_EQ(pb_->StorageBytes(), 0u);
  // The emptied slab takes new records again from rank 1.
  Apply(gen.Next().delta);
  ExpectEquivalent(gen);
}

INSTANTIATE_TEST_SUITE_P(
    GroupSizesAndSeeds, ParitySlabTest,
    ::testing::Combine(::testing::Values(4u, 70u),
                       ::testing::Values(uint64_t{1}, uint64_t{2},
                                         uint64_t{3}, uint64_t{4},
                                         uint64_t{5})));

TEST(ParitySlabDeathTest, NonZeroParityOfEmptyGroupIsFatal) {
  LhrsFile file(Options(4));
  ParityBucketNode* pb = file.parity_bucket(0, 0);
  const auto deliver = [&](ParityDelta::KeyOp op, const char* bytes) {
    auto body = std::make_unique<ParityDeltaMsg>();
    body->group = 0;
    body->delta.rank = 3;
    body->delta.slot = 1;
    body->delta.key_op = op;
    body->delta.key = 42;
    body->delta.delta = BufferView::FromString(bytes);
    body->delta.new_length = static_cast<uint32_t>(body->delta.delta.size());
    Message msg;
    msg.to = pb->id();
    msg.body = std::move(body);
    pb->HandleMessage(msg);
  };
  deliver(ParityDelta::KeyOp::kSet, "abcd");
  // The clear folds out different bytes than the member put in: the last
  // member leaves a non-zero parity behind, which must abort.
  EXPECT_DEATH(deliver(ParityDelta::KeyOp::kClear, "abce"),
               "non-zero parity for empty record group");
}

}  // namespace
}  // namespace lhrs
