#include "lhrs/parity_bucket.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "net/locality.h"
#include "net/network.h"

namespace lhrs {

namespace {

/// Copies a message body of any kind the parity bucket understands, for
/// deferring traffic that arrives before a recovery install.
std::unique_ptr<MessageBody> CloneBody(const MessageBody& body) {
  switch (body.kind()) {
    case LhrsMsg::kParityDelta:
      return std::make_unique<ParityDeltaMsg>(
          static_cast<const ParityDeltaMsg&>(body));
    case LhrsMsg::kParityDeltaBatch:
      return std::make_unique<ParityDeltaBatchMsg>(
          static_cast<const ParityDeltaBatchMsg&>(body));
    case LhrsMsg::kFindRankRequest:
      return std::make_unique<FindRankRequestMsg>(
          static_cast<const FindRankRequestMsg&>(body));
    case LhrsMsg::kColumnReadRequest:
      return std::make_unique<ColumnReadRequestMsg>(
          static_cast<const ColumnReadRequestMsg&>(body));
    case LhrsMsg::kParityRecordRequest:
      return std::make_unique<ParityRecordRequestMsg>(
          static_cast<const ParityRecordRequestMsg&>(body));
    default:
      LHRS_LOG(Fatal) << "parity bucket cannot defer message kind "
                      << body.kind();
      return nullptr;
  }
}

}  // namespace

ParityBucketNode::ParityBucketNode(std::shared_ptr<LhrsContext> ctx,
                                   uint32_t group, uint32_t parity_index,
                                   uint32_t k, bool pre_initialized)
    : ctx_(std::move(ctx)),
      group_(group),
      parity_index_(parity_index),
      k_(k),
      initialized_(pre_initialized),
      mask_words_((ctx_->m + 63) / 64) {
  LHRS_CHECK_LT(parity_index_, k_);
}

size_t ParityBucketNode::StorageBytes() const {
  // Per record: 12 bytes of key + length metadata per data slot, plus the
  // parity bytes.
  size_t n = record_count_ * ctx_->m * 12;
  for (Rank r = 0; r < end_rank_; ++r) {
    if (HasRecord(r)) n += Chunk(r).parity[Row(r)].size();
  }
  return n;
}

ParityRecordView ParityBucketNode::View(Rank rank) const {
  const size_t m = ctx_->m;
  const SlabChunk& c = Chunk(rank);
  ParityRecordView view;
  view.rank = rank;
  view.members = Members(rank);
  view.keys = std::span<const Key>(c.keys).subspan(Row(rank) * m, m);
  view.lengths =
      std::span<const uint32_t>(c.lengths).subspan(Row(rank) * m, m);
  view.parity = &c.parity[Row(rank)];
  return view;
}

MutableParityRecord ParityBucketNode::MutableParityRecordForTest(Rank rank) {
  if (!HasRecord(rank)) return {};
  const size_t m = ctx_->m;
  SlabChunk& c = Chunk(rank);
  MutableParityRecord rec;
  rec.members = Members(rank);
  rec.keys = std::span<Key>(c.keys).subspan(Row(rank) * m, m);
  rec.lengths = std::span<uint32_t>(c.lengths).subspan(Row(rank) * m, m);
  rec.parity = &c.parity[Row(rank)];
  return rec;
}

const parity::ParityCode& ParityBucketNode::coder() {
  if (coder_ == nullptr) coder_ = &ctx_->coders->ForK(k_);
  return *coder_;
}

void ParityBucketNode::ExtendSlab(Rank rank) {
  while (slab_.size() * kSlabChunkRanks <= rank) {
    slab_.push_back(std::make_unique<SlabChunk>(ctx_->m, mask_words_));
  }
  end_rank_ = std::max<Rank>(end_rank_, rank + 1);
}

void ParityBucketNode::ReleaseRank(Rank rank) {
  SlabChunk& c = Chunk(rank);
  const size_t row = Row(rank);
  // The parity of an empty record group must be zero — a cheap, powerful
  // integrity check of the whole delta pipeline.
  LHRS_CHECK(AllZero(c.parity[row]))
      << "non-zero parity for empty record group (g=" << group_
      << ", r=" << rank << ")";
  const size_t m = ctx_->m;
  c.parity[row] = BufferView{};
  std::fill_n(c.keys.begin() + static_cast<long>(row * m), m, Key{0});
  std::fill_n(c.lengths.begin() + static_cast<long>(row * m), m, 0u);
  --record_count_;
  // Trim trailing free ranks and give back the chunks past the new end.
  while (end_rank_ > 0 && !HasRecord(end_rank_ - 1)) --end_rank_;
  while (slab_.size() * kSlabChunkRanks >= end_rank_ + kSlabChunkRanks) {
    slab_.pop_back();
  }
}

void ParityBucketNode::HandleMessage(const Message& msg) {
  const int kind = msg.body->kind();
  if ((kind == LhrsMsg::kParityDelta || kind == LhrsMsg::kParityDeltaBatch) &&
      network()->fault_injection_active() && dedup_.SeenBefore(msg.id)) {
    return;  // Duplicated delivery: applying the delta twice would corrupt.
  }
  if (!initialized_ && msg.body->kind() != LhrsMsg::kInstallParityColumn &&
      msg.body->kind() != LhrsMsg::kPingRequest &&
      msg.body->kind() != LhStarMsg::kSurveyRequest) {
    auto deferred = std::make_shared<Message>();
    deferred->from = msg.from;
    deferred->to = msg.to;
    deferred->body = CloneBody(*msg.body);
    queued_.push_back(std::move(deferred));
    return;
  }
  Dispatch(msg);
}

void ParityBucketNode::HandleDeliveryFailure(const Message& msg) {
  // Recovery-protocol replies to the coordinator. A drop (fault injection;
  // the coordinator itself does not crash) would wedge the recovery task,
  // so re-send a bounded number of times. Everything else stays ignored:
  // degraded-read replies are re-driven by client retries.
  if (!network()->fault_injection_active()) return;
  constexpr uint32_t kMaxReplyAttempts = 4;
  switch (msg.body->kind()) {
    case LhrsMsg::kColumnReadReply: {
      const auto& reply = static_cast<const ColumnReadReplyMsg&>(*msg.body);
      if (reply.attempt + 1 < kMaxReplyAttempts) {
        auto resend = std::make_unique<ColumnReadReplyMsg>(reply);
        ++resend->attempt;
        Send(msg.to, std::move(resend));
      }
      return;
    }
    case LhrsMsg::kInstallDone: {
      const auto& done = static_cast<const InstallDoneMsg&>(*msg.body);
      if (done.attempt + 1 < kMaxReplyAttempts) {
        auto resend = std::make_unique<InstallDoneMsg>(done);
        ++resend->attempt;
        Send(msg.to, std::move(resend));
      }
      return;
    }
    default:
      return;
  }
}

void ParityBucketNode::RecordUpdateRound(size_t deltas) {
  telemetry::Telemetry* t = network()->telemetry();
  if (t == nullptr) return;
  telemetry::MetricsRegistry& counters = t->shard(CurrentLocality());
  counters.GetCounter("parity.update_rounds").Add();
  counters.GetCounter("parity.deltas_applied").Add(deltas);
  if (t->trace_messages()) {
    t->tracer().Record({network()->now(),
                        telemetry::TraceEventType::kParityUpdateRound, id(),
                        -1, -1, static_cast<int32_t>(group_),
                        static_cast<int64_t>(deltas)});
  }
}

void ParityBucketNode::Dispatch(const Message& msg) {
  switch (msg.body->kind()) {
    case LhrsMsg::kParityDelta: {
      const auto& m = static_cast<const ParityDeltaMsg&>(*msg.body);
      LHRS_CHECK_EQ(m.group, group_);
      ApplyDelta(m.delta);
      RecordUpdateRound(1);
      return;
    }
    case LhrsMsg::kParityDeltaBatch: {
      const auto& m = static_cast<const ParityDeltaBatchMsg&>(*msg.body);
      LHRS_CHECK_EQ(m.group, group_);
      for (const auto& d : m.deltas) ApplyDelta(d);
      RecordUpdateRound(m.deltas.size());
      return;
    }
    case LhrsMsg::kFindRankRequest: {
      const auto& req = static_cast<const FindRankRequestMsg&>(*msg.body);
      auto reply = std::make_unique<FindRankReplyMsg>();
      reply->task_id = req.task_id;
      reply->parity_index = parity_index_;
      // The key sits at the requested slot: keys are unique file-wide and
      // the slot is derived from the key's correct bucket. A scan of that
      // slot's column (at most a bucket's worth of ranks) finds it.
      const size_t m = ctx_->m;
      for (Rank r = 0; req.slot < m && r < end_rank_; ++r) {
        if (Chunk(r).keys[Row(r) * m + req.slot] == req.key &&
            IsMember(r, req.slot)) {
          reply->found = true;
          reply->record = ToWire(r);
          break;
        }
      }
      Send(msg.from, std::move(reply));
      return;
    }
    case LhrsMsg::kParityRecordRequest: {
      const auto& req =
          static_cast<const ParityRecordRequestMsg&>(*msg.body);
      auto reply = std::make_unique<ParityRecordReplyMsg>();
      reply->task_id = req.task_id;
      reply->column = ctx_->m + parity_index_;
      if (HasRecord(req.rank)) {
        reply->found = true;
        reply->record = ToWire(req.rank);
      }
      Send(msg.from, std::move(reply));
      return;
    }
    case LhrsMsg::kColumnReadRequest: {
      const auto& req = static_cast<const ColumnReadRequestMsg&>(*msg.body);
      LHRS_CHECK_EQ(req.group, group_);
      auto reply = std::make_unique<ColumnReadReplyMsg>();
      reply->task_id = req.task_id;
      reply->column = ctx_->m + parity_index_;
      // Ascending rank order keeps the dump (and every decode fed from
      // it) deterministic.
      reply->parity_records.reserve(record_count_);
      for (Rank r = 0; r < end_rank_; ++r) {
        if (HasRecord(r)) reply->parity_records.push_back(ToWire(r));
      }
      Send(msg.from, std::move(reply));
      return;
    }
    case LhrsMsg::kInstallParityColumn: {
      InstallColumn(static_cast<const InstallParityColumnMsg&>(*msg.body));
      auto done = std::make_unique<InstallDoneMsg>();
      done->task_id =
          static_cast<const InstallParityColumnMsg&>(*msg.body).task_id;
      done->column = ctx_->m + parity_index_;
      Send(msg.from, std::move(done));
      // Replay deferred traffic in arrival order.
      std::vector<std::shared_ptr<Message>> queued = std::move(queued_);
      queued_.clear();
      for (const auto& m : queued) Dispatch(*m);
      return;
    }
    case LhStarMsg::kSurveyRequest: {
      const auto& req = static_cast<const SurveyRequestMsg&>(*msg.body);
      auto reply = std::make_unique<SurveyReplyMsg>();
      reply->survey_id = req.survey_id;
      reply->role = SurveyReplyMsg::Role::kParityBucket;
      reply->group = group_;
      reply->parity_index = parity_index_;
      reply->k = k_;
      Send(msg.from, std::move(reply));
      return;
    }
    case LhrsMsg::kPingRequest: {
      const auto& req = static_cast<const PingRequestMsg&>(*msg.body);
      auto pong = std::make_unique<PongReplyMsg>();
      pong->probe_id = req.probe_id;
      Send(msg.from, std::move(pong));
      return;
    }
    default:
      LHRS_LOG(Fatal) << "parity bucket: unhandled message kind "
                      << msg.body->kind();
  }
}

void ParityBucketNode::ApplyDelta(const ParityDelta& delta) {
  if (TryApplyDelta(delta)) {
    DrainPendingDeltas(delta.rank, delta.slot);
    return;
  }
  // The delta this op depends on has not arrived yet. Chaos reordering is
  // one cause; the other is plain concurrency: delivery latency scales with
  // message size, so a small kSet for a just-freed rank (insert reusing the
  // rank a split mover released) can overtake the bulk kClear batch that
  // frees it, even on the same sender->receiver path. Buffer the delta;
  // applying the predecessor drains it in arrival order.
  pending_deltas_.push_back(delta);
  if (auto* t = network()->telemetry(); t != nullptr) {
    t->shard(CurrentLocality()).GetCounter("parity.deltas_buffered").Add();
  }
}

bool ParityBucketNode::TryApplyDelta(const ParityDelta& delta) {
  const size_t m = ctx_->m;
  LHRS_CHECK_LT(delta.slot, m);
  const Rank rank = delta.rank;
  const uint64_t bit = uint64_t{1} << (delta.slot % 64);
  const size_t at = Row(rank) * m + delta.slot;

  // Precondition check before touching any state: kSet may not overwrite a
  // different live key, kNone needs a registered member, and kClear must
  // name the key it removes. The key match matters under real-transport
  // reordering: ranks are reused smallest-first, so a retransmit-delayed
  // clear(old key) can arrive after set(new key) for the same (rank, slot)
  // — applied blindly it would remove the new member and let the buffered
  // old set resurrect a deleted key in the parity metadata.
  const bool present = IsMember(rank, delta.slot);
  switch (delta.key_op) {
    case ParityDelta::KeyOp::kSet:
      if (present && Chunk(rank).keys[at] != delta.key) return false;
      break;
    case ParityDelta::KeyOp::kNone:
      if (!present) return false;
      break;
    case ParityDelta::KeyOp::kClear:
      if (!present || Chunk(rank).keys[at] != delta.key) return false;
      break;
  }

  // Only a kSet can get here without a record; it creates one in place.
  if (rank >= end_rank_) ExtendSlab(rank);
  if (!HasRecord(rank)) ++record_count_;
  SlabChunk& c = Chunk(rank);
  uint64_t& word = c.members[Row(rank) * mask_words_ + delta.slot / 64];
  coder().ApplyDelta(delta.slot, delta.delta, parity_index_,
                     &c.parity[Row(rank)]);

  switch (delta.key_op) {
    case ParityDelta::KeyOp::kNone:
      c.lengths[at] = delta.new_length;
      break;
    case ParityDelta::KeyOp::kSet:
      if (!present) {
        word |= bit;
        c.keys[at] = delta.key;
      }
      c.lengths[at] = delta.new_length;
      break;
    case ParityDelta::KeyOp::kClear:
      word &= ~bit;
      c.keys[at] = 0;
      c.lengths[at] = 0;
      break;
  }

  if (word == 0 && !HasRecord(rank)) ReleaseRank(rank);
  return true;
}

void ParityBucketNode::DrainPendingDeltas(Rank rank, uint32_t slot) {
  if (pending_deltas_.empty()) return;
  // Each successful apply can unblock the next buffered op for the same
  // (rank, slot) (a scrambled set/clear/set chain resolves one alternation
  // at a time), so keep sweeping in arrival order until a pass makes no
  // progress.
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = pending_deltas_.begin(); it != pending_deltas_.end();
         ++it) {
      if (it->rank != rank || it->slot != slot) continue;
      if (TryApplyDelta(*it)) {
        pending_deltas_.erase(it);
        progress = true;
        break;
      }
    }
  }
}

WireParityRecord ParityBucketNode::ToWire(Rank rank) const {
  const ParityRecordView view = View(rank);
  WireParityRecord out;
  out.rank = rank;
  out.keys.resize(ctx_->m);
  for (uint32_t slot = 0; slot < ctx_->m; ++slot) {
    out.keys[slot] = view.key(slot);
  }
  out.lengths.assign(view.lengths.begin(), view.lengths.end());
  out.parity = *view.parity;
  return out;
}

void ParityBucketNode::InstallColumn(const InstallParityColumnMsg& install) {
  LHRS_CHECK_EQ(install.group, group_);
  LHRS_CHECK_EQ(install.parity_index, parity_index_);
  const size_t m = ctx_->m;
  slab_.clear();
  end_rank_ = 0;
  record_count_ = 0;
  pending_deltas_.clear();  // An install supersedes anything buffered.
  for (const auto& wire : install.parity_records) {
    const Rank rank = wire.rank;
    LHRS_CHECK_EQ(wire.keys.size(), m);
    LHRS_CHECK_EQ(wire.lengths.size(), m);
    LHRS_CHECK(!HasRecord(rank)) << "rank " << rank << " installed twice";
    ExtendSlab(rank);
    SlabChunk& c = Chunk(rank);
    const size_t row = Row(rank);
    for (uint32_t slot = 0; slot < m; ++slot) {
      c.lengths[row * m + slot] = wire.lengths[slot];
      if (!wire.keys[slot].has_value()) continue;
      c.members[row * mask_words_ + slot / 64] |= uint64_t{1} << (slot % 64);
      c.keys[row * m + slot] = *wire.keys[slot];
    }
    LHRS_CHECK(HasRecord(rank))
        << "installed parity record " << rank << " has no member";
    c.parity[row] = wire.parity;
    ++record_count_;
  }
  initialized_ = true;
}

}  // namespace lhrs
