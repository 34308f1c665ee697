#include "lhstar/client.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "net/network.h"
#include "telemetry/metrics.h"

namespace lhrs {

ClientNode::ClientNode(std::shared_ptr<SystemContext> ctx)
    : ctx_(std::move(ctx)) {
  image_.initial_buckets = ctx_->config.initial_buckets;
}

NodeId ClientNode::ResolveNode(BucketNo bucket) {
  if (bucket < cached_nodes_.size() &&
      cached_nodes_[bucket] != kInvalidNode) {
    return cached_nodes_[bucket];
  }
  // Cluster mode: this client's allocation replica may lag the
  // coordinator's table right after a split or recovery. An unknown
  // bucket is not an error — the caller routes via the coordinator.
  if (!ctx_->allocation.Knows(bucket)) return kInvalidNode;
  const NodeId node = ctx_->allocation.Lookup(bucket);
  if (bucket >= cached_nodes_.size()) {
    cached_nodes_.resize(bucket + 1, kInvalidNode);
  }
  cached_nodes_[bucket] = node;
  return node;
}

uint64_t ClientNode::StartOp(OpType op, Key key, BufferView value) {
  const uint64_t op_id = next_op_id_++;
  const BucketNo a = image_.Address(key);  // Algorithm (A1) on the image.
  PendingOp& pending =
      pending_.Insert(op_id, PendingOp{op, key, std::move(value), a});
  pending.start_us = network()->now();
  SendDirect(op_id, pending);
  if (retry_.enabled) ArmOpTimer(op_id, pending);
  return op_id;
}

void ClientNode::SetRetryPolicy(ClientRetryPolicy policy) {
  retry_ = policy;
  retry_rng_.emplace(policy.seed);
}

void ClientNode::SendDirect(uint64_t op_id, PendingOp& op) {
  // Re-derive the address each attempt: an IAM that arrived since the
  // first send may have advanced the image.
  const BucketNo a = image_.Address(op.key);
  op.sent_to_bucket = a;
  auto req = std::make_unique<OpRequestMsg>();
  req->op = op.op;
  req->op_id = op_id;
  req->client = id();
  req->intended_bucket = a;
  req->key = op.key;
  req->value = op.value;
  const NodeId node = ResolveNode(a);
  if (node == kInvalidNode) {
    // The image points at a bucket this process has not learned the
    // address of yet (stale allocation replica): let the coordinator
    // place the operation.
    SendViaCoordinator(op_id, op);
    return;
  }
  Send(node, std::move(req));
}

void ClientNode::SendViaCoordinator(uint64_t op_id, const PendingOp& op) {
  auto bounce = std::make_unique<ClientOpViaCoordinatorMsg>();
  bounce->op = op.op;
  bounce->op_id = op_id;
  bounce->client = id();
  bounce->intended_bucket = op.sent_to_bucket;
  bounce->key = op.key;
  bounce->value = op.value;
  Send(ctx_->coordinator, std::move(bounce));
}

SimTime ClientNode::Backoff(uint32_t attempt) {
  if (attempt <= 1) return 0;
  SimTime backoff = retry_.base_backoff_us;
  for (uint32_t i = 2; i < attempt && backoff < retry_.max_backoff_us; ++i) {
    backoff *= 2;
  }
  backoff = std::min(backoff, retry_.max_backoff_us);
  if (retry_.jitter > 0 && retry_rng_.has_value()) {
    const auto spread = static_cast<SimTime>(
        static_cast<double>(backoff) * retry_.jitter);
    if (spread > 0) {
      backoff = backoff - spread + retry_rng_->Uniform(2 * spread + 1);
    }
  }
  return backoff;
}

void ClientNode::ArmOpTimer(uint64_t op_id, PendingOp& op) {
  const SimTime delay = retry_.request_timeout_us + Backoff(op.attempts + 1);
  op.deadline = network()->now() + delay;
  ScheduleTimer(delay, op_id);
}

void ClientNode::HandleTimer(uint64_t timer_id) {
  if (!retry_.enabled) return;
  PendingOp* op = pending_.Find(timer_id);
  if (op == nullptr) return;  // Completed; timer is stale.
  // A bounce-triggered resend moved the deadline past this (uncancellable)
  // timer: the newer timer owns the attempt.
  if (network()->now() < op->deadline) return;
  RetryOp(timer_id, *op);
}

void ClientNode::RetryOp(uint64_t op_id, PendingOp& op) {
  if (op.attempts >= retry_.max_total_attempts) {
    OpOutcome outcome;
    outcome.status = Status::Unavailable("retries exhausted after " +
                                         std::to_string(op.attempts) +
                                         " attempts");
    CompleteOp(op_id, std::move(outcome));
    return;
  }
  ++op.attempts;
  CountRetry();
  if (op.attempts <= retry_.max_direct_attempts) {
    SendDirect(op_id, op);
  } else {
    ++escalations_;
    if (escalations_counter_ != nullptr) escalations_counter_->Add();
    SendViaCoordinator(op_id, op);
  }
  ArmOpTimer(op_id, op);
}

void ClientNode::CountRetry() {
  ResolveCounters();
  ++retries_;
  if (retries_counter_ != nullptr) retries_counter_->Add();
}

void ClientNode::CountDuplicate() {
  ResolveCounters();
  ++duplicates_suppressed_;
  if (duplicates_counter_ != nullptr) duplicates_counter_->Add();
}

void ClientNode::ResolveCounters() {
  if (retries_counter_ != nullptr || network() == nullptr ||
      network()->telemetry() == nullptr) {
    return;
  }
  telemetry::MetricsRegistry& m = network()->telemetry()->metrics();
  retries_counter_ = &m.GetCounter("client.retries");
  escalations_counter_ = &m.GetCounter("client.escalations");
  duplicates_counter_ = &m.GetCounter("client.duplicates_suppressed");
}

uint64_t ClientNode::StartInsertBatch(std::vector<WireRecord> records) {
  LHRS_CHECK(!records.empty()) << "empty insert batch";
  const uint64_t op_id = next_op_id_++;
  PendingBatch& batch = pending_batches_[op_id];
  batch.total = records.size();
  batch.start_us = network()->now();

  // Group per target bucket under the image (algorithm A1 per record);
  // map order makes the sub-batch sequence deterministic.
  std::map<BucketNo, std::vector<WireRecord>> groups;
  for (WireRecord& rec : records) {
    groups[image_.Address(rec.key)].push_back(std::move(rec));
  }
  for (auto& [bucket, group] : groups) {
    SendSubBatch(op_id, batch, bucket, std::move(group), /*attempt=*/1);
  }
  return op_id;
}

void ClientNode::SendSubBatch(uint64_t op_id, PendingBatch& batch,
                              BucketNo bucket,
                              std::vector<WireRecord> records,
                              uint32_t attempt) {
  const NodeId node = ResolveNode(bucket);
  if (node == kInvalidNode) {
    // Stale allocation replica: the coordinator places these per record.
    for (const WireRecord& rec : records) {
      SendBatchChildViaCoordinator(op_id, batch, rec);
    }
    return;
  }
  const uint64_t seq = next_batch_seq_++;
  auto msg = std::make_unique<InsertBatchMsg>();
  msg->op_id = op_id;
  msg->seq = seq;
  msg->client = id();
  msg->intended_bucket = bucket;
  msg->attempt = attempt;
  msg->records = records;  // The pending copy shares the payload views.
  batch.outstanding[seq] = PendingSubBatch{std::move(records), attempt};
  Send(node, std::move(msg));
}

void ClientNode::SendBatchChildViaCoordinator(uint64_t batch_op_id,
                                              PendingBatch& batch,
                                              const WireRecord& rec) {
  const uint64_t child_id = next_op_id_++;
  batch_children_[child_id] = batch_op_id;
  ++batch.outstanding_children;
  auto bounce = std::make_unique<ClientOpViaCoordinatorMsg>();
  bounce->op = OpType::kInsert;
  bounce->op_id = child_id;
  bounce->client = id();
  bounce->intended_bucket = image_.Address(rec.key);
  bounce->key = rec.key;
  bounce->value = rec.value;
  Send(ctx_->coordinator, std::move(bounce));
}

void ClientNode::HandleInsertBatchReply(const InsertBatchReplyMsg& reply) {
  auto bit = pending_batches_.find(reply.op_id);
  if (bit == pending_batches_.end()) {
    CountDuplicate();
    return;
  }
  PendingBatch& batch = bit->second;
  auto oit = batch.outstanding.find(reply.seq);
  if (oit == batch.outstanding.end()) {
    CountDuplicate();  // Resent reply for a sub-batch already settled.
    return;
  }
  PendingSubBatch sub = std::move(oit->second);
  batch.outstanding.erase(oit);

  if (reply.bounced) {
    // Displaced bucket / spare: coordinator routing, per record.
    for (const WireRecord& rec : sub.records) {
      SendBatchChildViaCoordinator(reply.op_id, batch, rec);
    }
    MaybeCompleteBatch(reply.op_id);
    return;
  }

  batch.applied += reply.applied;
  batch.exists += reply.exists;
  if (!reply.rejected.empty()) {
    // The server's (bucket, level) is the IAM: adjust and re-group. The
    // LH* image-convergence argument guarantees a rejected record never
    // lands on the same wrong bucket twice, but merges can move the file
    // under the client, so re-grouping is bounded and then handed over.
    ++iam_count_;
    image_.Adjust(reply.bucket, reply.level);
    if (sub.attempt < 4) {
      std::map<BucketNo, std::vector<WireRecord>> groups;
      for (const WireRecord& rec : reply.rejected) {
        groups[image_.Address(rec.key)].push_back(rec);
      }
      for (auto& [bucket, group] : groups) {
        SendSubBatch(reply.op_id, batch, bucket, std::move(group),
                     sub.attempt + 1);
      }
    } else {
      for (const WireRecord& rec : reply.rejected) {
        SendBatchChildViaCoordinator(reply.op_id, batch, rec);
      }
    }
  }
  MaybeCompleteBatch(reply.op_id);
}

void ClientNode::MaybeCompleteBatch(uint64_t op_id) {
  auto it = pending_batches_.find(op_id);
  if (it == pending_batches_.end()) return;
  PendingBatch& batch = it->second;
  if (!batch.outstanding.empty() || batch.outstanding_children > 0) return;
  OpOutcome outcome;
  const size_t settled = batch.applied + batch.exists + batch.failed;
  if (settled < batch.total) {
    // Records lost without a failure signal would be a protocol bug; a
    // completed batch always accounts for every record.
    batch.failed += static_cast<uint32_t>(batch.total - settled);
  }
  outcome.batch_applied = batch.applied;
  outcome.batch_exists = batch.exists;
  outcome.batch_failed = batch.failed;
  outcome.status =
      batch.failed == 0
          ? Status::OK()
          : Status::Internal(std::to_string(batch.failed) +
                             " batch records failed");
  CompleteOp(op_id, std::move(outcome));
}

uint64_t ClientNode::StartScan(ScanPredicate predicate, bool deterministic) {
  const uint64_t op_id = next_op_id_++;
  pending_scans_[op_id] = PendingScan{deterministic, {}, {}, network()->now()};

  // One copy to every bucket of the client's image, each tagged with the
  // level the image presumes for it; server-side forwarding covers buckets
  // the image does not know (exactly once).
  const BucketNo extent = image_.presumed_bucket_count();
  FileState presumed{image_.i, image_.n, image_.initial_buckets};
  std::vector<std::pair<NodeId, std::unique_ptr<MessageBody>>> batch;
  batch.reserve(extent);
  for (BucketNo a = 0; a < extent; ++a) {
    // Cluster mode: buckets the local allocation replica cannot place yet
    // are skipped; the deterministic-coverage check reports the gap.
    if (!ctx_->allocation.Knows(a)) continue;
    auto req = std::make_unique<ScanRequestMsg>();
    req->op_id = op_id;
    req->client = id();
    req->attached_level = presumed.BucketLevel(a);
    req->predicate = predicate;
    req->deterministic = deterministic;
    // Scans resolve through the authoritative allocation (the multicast
    // group membership); key-addressed ops use the cache.
    batch.emplace_back(ctx_->allocation.Lookup(a), std::move(req));
  }
  if (network()->config().multicast_available) {
    network()->Multicast(id(), std::move(batch));
  } else {
    // No hardware multicast: the client sends one true unicast per bucket
    // (section 2.1's fallback), each paying full per-message cost.
    for (auto& [to, body] : batch) Send(to, std::move(body));
  }
  return op_id;
}

Result<OpOutcome> ClientNode::TakeResult(uint64_t op_id) {
  std::optional<OpOutcome> out = done_.Take(op_id);
  if (!out.has_value()) {
    return Status::Internal("operation " + std::to_string(op_id) +
                            " not finished");
  }
  return std::move(*out);
}

void ClientNode::FinishProbabilisticScan(uint64_t op_id) {
  auto it = pending_scans_.find(op_id);
  if (it == pending_scans_.end()) return;
  LHRS_CHECK(!it->second.deterministic);
  OpOutcome outcome;
  outcome.status = Status::OK();
  outcome.scan_records = std::move(it->second.records);
  CompleteOp(op_id, std::move(outcome));
}

void ClientNode::ResetImage() {
  image_ = ClientImage{};
  image_.initial_buckets = ctx_->config.initial_buckets;
  cached_nodes_.clear();
}

void ClientNode::CompleteOp(uint64_t op_id, OpOutcome outcome) {
  RecordOpLatency(op_id);
  pending_.Erase(op_id);
  pending_scans_.erase(op_id);
  pending_batches_.erase(op_id);
  done_.Insert(op_id, std::move(outcome));
  // Last: the callback may re-enter StartOp / TakeResult.
  if (on_op_complete_) on_op_complete_(op_id);
}

void ClientNode::RecordOpLatency(uint64_t op_id) {
  if (network() == nullptr || network()->telemetry() == nullptr) return;
  size_t slot;
  SimTime start;
  if (const PendingOp* op = pending_.Find(op_id)) {
    slot = static_cast<size_t>(op->op);
    start = op->start_us;
  } else if (auto sit = pending_scans_.find(op_id);
             sit != pending_scans_.end()) {
    slot = 4;
    start = sit->second.start_us;
  } else if (auto bit = pending_batches_.find(op_id);
             bit != pending_batches_.end()) {
    slot = 5;
    start = bit->second.start_us;
  } else {
    return;
  }
  if (latency_histograms_[slot] == nullptr) {
    static constexpr const char* kLabels[6] = {"insert", "search", "update",
                                               "delete", "scan", "batch"};
    telemetry::MetricsRegistry& m = network()->telemetry()->metrics();
    latency_histograms_[slot] = &m.GetHistogram(
        telemetry::Labeled("op_latency_us", "op", kLabels[slot]));
  }
  latency_histograms_[slot]->Record(network()->now() - start);
}

void ClientNode::HandleMessage(const Message& msg) {
  switch (msg.body->kind()) {
    case LhStarMsg::kInsertBatchReply:
      HandleInsertBatchReply(
          static_cast<const InsertBatchReplyMsg&>(*msg.body));
      return;
    case LhStarMsg::kOpReply: {
      const auto& reply = static_cast<const OpReplyMsg&>(*msg.body);
      const PendingOp* op = pending_.Find(reply.op_id);
      if (op == nullptr) {
        // A child of a batch operation (coordinator fallback)?
        if (auto cit = batch_children_.find(reply.op_id);
            cit != batch_children_.end()) {
          const uint64_t batch_op = cit->second;
          batch_children_.erase(cit);
          auto bit = pending_batches_.find(batch_op);
          if (bit == pending_batches_.end()) return;
          PendingBatch& batch = bit->second;
          if (reply.iam.has_value()) {
            image_.Adjust(reply.iam->bucket, reply.iam->level);
          }
          if (reply.code == StatusCode::kOk) {
            ++batch.applied;
          } else if (reply.code == StatusCode::kAlreadyExists) {
            // An earlier attempt (a sub-batch applied just before its
            // server crashed) landed this record.
            ++batch.exists;
          } else {
            ++batch.failed;
          }
          if (batch.outstanding_children > 0) --batch.outstanding_children;
          MaybeCompleteBatch(batch_op);
          return;
        }
        CountDuplicate();  // Late duplicate (chaos or a retry).
        return;
      }
      StatusCode code = reply.code;
      if (retry_.enabled && op->attempts > 1) {
        // At-least-once semantics: if an earlier attempt landed, its
        // effect shows up as a constraint error on the retry — fold it
        // back into success.
        if (op->op == OpType::kInsert &&
            code == StatusCode::kAlreadyExists) {
          code = StatusCode::kOk;
        }
        if (op->op == OpType::kDelete &&
            code == StatusCode::kNotFound) {
          code = StatusCode::kOk;
        }
      }
      OpOutcome outcome;
      outcome.status = code == StatusCode::kOk ? Status::OK()
                                               : Status(code, reply.error);
      outcome.value = reply.value;
      if (reply.iam.has_value()) {
        // Algorithm (A3) plus address-cache refresh.
        ++iam_count_;
        ++forwarded_ops_;
        outcome.was_forwarded = true;
        image_.Adjust(reply.iam->bucket, reply.iam->level);
        if (reply.iam->bucket >= cached_nodes_.size()) {
          cached_nodes_.resize(reply.iam->bucket + 1, kInvalidNode);
        }
        cached_nodes_[reply.iam->bucket] = msg.from;
      }
      CompleteOp(reply.op_id, std::move(outcome));
      return;
    }
    case LhStarMsg::kSurveyRequest: {
      const auto& req = static_cast<const SurveyRequestMsg&>(*msg.body);
      auto reply = std::make_unique<SurveyReplyMsg>();
      reply->survey_id = req.survey_id;
      reply->role = SurveyReplyMsg::Role::kOther;
      Send(msg.from, std::move(reply));
      return;
    }
    case LhStarMsg::kImageReset: {
      const auto& reset = static_cast<const ImageResetMsg&>(*msg.body);
      image_.i = reset.i;
      image_.n = reset.n;
      // Cached physical addresses beyond the new extent are stale.
      if (cached_nodes_.size() > image_.presumed_bucket_count()) {
        cached_nodes_.resize(image_.presumed_bucket_count());
      }
      return;
    }
    case LhStarMsg::kScanReply: {
      const auto& reply = static_cast<const ScanReplyMsg&>(*msg.body);
      auto it = pending_scans_.find(reply.op_id);
      if (it == pending_scans_.end()) return;
      if (reply.coverage_failed) {
        OpOutcome outcome;
        outcome.status =
            Status::Unavailable("scan could not reach every bucket");
        CompleteOp(reply.op_id, std::move(outcome));
        return;
      }
      PendingScan& scan = it->second;
      if (scan.replied.contains(reply.bucket)) {
        CountDuplicate();  // A duplicated reply must not double records.
        return;
      }
      scan.replied[reply.bucket] = reply.level;
      for (const auto& rec : reply.records) scan.records.push_back(rec);
      if (!scan.deterministic) return;  // Completed via time-out upstream.
      if (ScanCoverageComplete(scan)) {
        OpOutcome outcome;
        outcome.status = Status::OK();
        outcome.scan_records = std::move(scan.records);
        CompleteOp(reply.op_id, std::move(outcome));
      }
      return;
    }
    default:
      LHRS_LOG(Fatal) << "client: unhandled message kind "
                      << msg.body->kind();
  }
}

bool ClientNode::ScanCoverageComplete(const PendingScan& scan) const {
  // Deterministic termination (section 2.1): with i = min(j_m) and
  // n = min{m : j_m = i}, the file has M = n + 2^i * N buckets; terminate
  // when every bucket 0..M-1 has replied.
  if (scan.replied.empty()) return false;
  Level min_level = ~Level{0};
  for (const auto& [bucket, level] : scan.replied) {
    min_level = std::min(min_level, level);
  }
  BucketNo n = 0;
  bool found = false;
  for (const auto& [bucket, level] : scan.replied) {
    if (level == min_level) {
      n = bucket;
      found = true;
      break;  // std::map iterates in bucket order: first hit is min.
    }
  }
  LHRS_CHECK(found);
  const BucketNo expected =
      n + (static_cast<BucketNo>(image_.initial_buckets) << min_level);
  if (scan.replied.size() < expected) return false;
  for (BucketNo b = 0; b < expected; ++b) {
    if (!scan.replied.contains(b)) return false;
  }
  return true;
}

void ClientNode::HandleDeliveryFailure(const Message& msg) {
  switch (msg.body->kind()) {
    case LhStarMsg::kOpRequest: {
      // Section 2.4/2.8: the server did not answer; notify the
      // coordinator, which completes the operation (recovering first when
      // the file has an availability layer).
      const auto& req = static_cast<const OpRequestMsg&>(*msg.body);
      PendingOp* op = pending_.Find(req.op_id);
      if (op == nullptr) return;
      // Evict the stale cache entry; the next attempt re-resolves.
      if (req.intended_bucket < cached_nodes_.size()) {
        cached_nodes_[req.intended_bucket] = kInvalidNode;
      }
      auto report = std::make_unique<UnavailableReportMsg>();
      report->node = msg.to;
      report->bucket = req.intended_bucket;
      Send(ctx_->coordinator, std::move(report));

      if (retry_.enabled) {
        // The bounce is a definite loss signal: retry immediately rather
        // than waiting out the attempt timer (RetryOp re-arms the
        // deadline, superseding it).
        RetryOp(req.op_id, *op);
        return;
      }

      auto bounce = std::make_unique<ClientOpViaCoordinatorMsg>();
      bounce->op = req.op;
      bounce->op_id = req.op_id;
      bounce->client = id();
      bounce->intended_bucket = req.intended_bucket;
      bounce->key = req.key;
      bounce->value = req.value;
      Send(ctx_->coordinator, std::move(bounce));
      return;
    }
    case LhStarMsg::kInsertBatch: {
      // The whole sub-batch bounced (server crashed / unreachable):
      // report it and fall back to per-record delivery via the
      // coordinator, which recovers the bucket first when the scheme can.
      const auto& batch_msg = static_cast<const InsertBatchMsg&>(*msg.body);
      auto bit = pending_batches_.find(batch_msg.op_id);
      if (bit == pending_batches_.end()) return;
      PendingBatch& batch = bit->second;
      auto oit = batch.outstanding.find(batch_msg.seq);
      if (oit == batch.outstanding.end()) return;  // Already settled.
      PendingSubBatch sub = std::move(oit->second);
      batch.outstanding.erase(oit);
      if (batch_msg.intended_bucket < cached_nodes_.size()) {
        cached_nodes_[batch_msg.intended_bucket] = kInvalidNode;
      }
      auto report = std::make_unique<UnavailableReportMsg>();
      report->node = msg.to;
      report->bucket = batch_msg.intended_bucket;
      Send(ctx_->coordinator, std::move(report));
      for (const WireRecord& rec : sub.records) {
        SendBatchChildViaCoordinator(batch_msg.op_id, batch, rec);
      }
      MaybeCompleteBatch(batch_msg.op_id);
      return;
    }
    case LhStarMsg::kScanRequest: {
      // A scan with deterministic termination blocks on an unavailable
      // bucket; surface that as kUnavailable.
      const auto& req = static_cast<const ScanRequestMsg&>(*msg.body);
      if (!pending_scans_.contains(req.op_id)) return;
      OpOutcome outcome;
      outcome.status =
          Status::Unavailable("scan could not reach every bucket");
      CompleteOp(req.op_id, std::move(outcome));
      return;
    }
    default:
      return;
  }
}

}  // namespace lhrs
