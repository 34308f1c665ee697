#ifndef LHRS_LHSTAR_CLIENT_H_
#define LHRS_LHSTAR_CLIENT_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "common/bytes.h"
#include "common/id_table.h"
#include "common/result.h"
#include "common/rng.h"
#include "lh/lh_math.h"
#include "lhstar/messages.h"
#include "lhstar/system.h"
#include "net/node.h"

namespace lhrs {

namespace telemetry {
class Counter;
class Histogram;
}  // namespace telemetry

/// Client-side resilience knobs for lossy networks (the chaos engine's
/// territory). Disabled by default: in a fault-free simulation the only
/// failure signal is the delivery-failure bounce, which the base protocol
/// already handles, and retry timers would change message counts.
///
/// With the policy enabled a key-addressed operation becomes at-least-once:
/// attempts 1..max_direct_attempts go straight to the addressed bucket
/// (each armed with a timeout of request_timeout_us plus exponential
/// backoff with +/- jitter), later attempts escalate to the coordinator,
/// whose degraded-read path answers even with the data bucket down. The
/// duplicate deliveries that retries can produce are suppressed by op id on
/// the reply path, and retried inserts/deletes map kAlreadyExists/kNotFound
/// back to success (the earlier attempt landed).
struct ClientRetryPolicy {
  bool enabled = false;
  uint32_t max_direct_attempts = 3;  ///< Sends to the bucket itself.
  uint32_t max_total_attempts = 6;   ///< Including coordinator escalations.
  SimTime request_timeout_us = 6000; ///< Lost-reply detection per attempt.
  SimTime base_backoff_us = 500;     ///< Backoff before attempt 2.
  SimTime max_backoff_us = 8000;     ///< Exponential growth cap.
  double jitter = 0.5;               ///< Backoff spread: b * (1 +/- jitter).
  uint64_t seed = 42;                ///< Jitter stream (deterministic).
};

/// Completed outcome of a client operation.
struct OpOutcome {
  Status status;
  BufferView value;                  ///< Search result payload (shared).
  std::vector<WireRecord> scan_records;
  bool was_forwarded = false;        ///< An IAM arrived with the reply.
  // Batch operations (StartInsertBatch) report per-record tallies.
  uint32_t batch_applied = 0;
  uint32_t batch_exists = 0;   ///< Duplicate keys (already resident).
  uint32_t batch_failed = 0;
};

/// An LH* application client. Autonomous: carries its own image (i', n')
/// of the file state — initially (0, 0), i.e. "the file never grew" — and
/// converges through IAMs (algorithm A3).
///
/// The client also caches physical addresses of buckets it has talked to;
/// a recovery that moves a bucket to a spare leaves this cache stale, which
/// exercises the displaced-bucket protocol of section 2.8.
///
/// Operations are asynchronous: Start*() returns an op id, the simulation
/// is run (Network::RunUntilIdle), then TakeResult() yields the outcome.
class ClientNode : public Node {
 public:
  explicit ClientNode(std::shared_ptr<SystemContext> ctx);

  void HandleMessage(const Message& msg) override;
  void HandleDeliveryFailure(const Message& msg) override;
  const char* role() const override { return "client"; }

  /// Starts a key-addressed operation; value applies to insert/update.
  uint64_t StartOp(OpType op, Key key, BufferView value = {});

  /// Starts a bulk-load batch: the records are grouped per target bucket
  /// under the client's image and shipped as one InsertBatchMsg per
  /// bucket. Records a stale image sent astray come back in the reply
  /// (with the IAM) and are re-grouped and resent; sub-batches that bounce
  /// off a displaced or crashed server fall back to per-record delivery
  /// via the coordinator. Completes (one op id, one outcome carrying the
  /// batch_* tallies) when every record is applied, a known duplicate, or
  /// failed. `records` must be non-empty.
  uint64_t StartInsertBatch(std::vector<WireRecord> records);

  /// Starts a parallel scan. With `deterministic` termination every bucket
  /// replies and the client verifies full coverage; otherwise only
  /// matching buckets reply (the caller then relies on the run-until-idle
  /// simulation as the paper's time-out).
  uint64_t StartScan(ScanPredicate predicate, bool deterministic = true);

  bool IsDone(uint64_t op_id) const { return done_.Contains(op_id); }

  /// Declares a probabilistic-termination scan finished (the driver's
  /// time-out fired): whatever replies arrived become the result.
  void FinishProbabilisticScan(uint64_t op_id);

  /// Returns and removes the outcome of a finished operation.
  Result<OpOutcome> TakeResult(uint64_t op_id);

  const ClientImage& image() const { return image_; }

  /// Forgets everything learned (image and address cache): the client
  /// behaves like a brand-new one. Used by the image-convergence bench.
  void ResetImage();

  /// Number of IAMs received so far (image-adjustment messages).
  uint64_t iam_count() const { return iam_count_; }
  /// Number of operations that needed at least one forwarding hop.
  uint64_t forwarded_ops() const { return forwarded_ops_; }

  /// Installs (or, with policy.enabled false, removes) the retry layer.
  /// Applies to operations started afterwards.
  void SetRetryPolicy(ClientRetryPolicy policy);
  const ClientRetryPolicy& retry_policy() const { return retry_; }

  /// Resilience counters (mirrored to telemetry when enabled, as
  /// client.retries / client.escalations / client.duplicates_suppressed).
  uint64_t retries() const { return retries_; }
  uint64_t escalations() const { return escalations_; }
  uint64_t duplicates_suppressed() const { return duplicates_suppressed_; }

  /// Invoked with the op id as the last action of every op completion
  /// (replies, retries-exhausted, scan termination alike). The callback
  /// runs inside event processing and may start new operations; it must
  /// not destroy the client. One callback per client; facades use it to
  /// surface completions to open-loop drivers.
  using OpCompleteCallback = std::function<void(uint64_t op_id)>;
  void SetOnOpComplete(OpCompleteCallback callback) {
    on_op_complete_ = std::move(callback);
  }

 private:
  struct PendingOp {
    OpType op;
    Key key = 0;
    BufferView value;  ///< Shared across attempts; never re-copied.
    BucketNo sent_to_bucket = 0;
    uint32_t attempts = 1;
    SimTime deadline = 0;  ///< Current attempt's timeout instant.
    SimTime start_us = 0;  ///< Send time of the first attempt.
  };

  struct PendingScan {
    bool deterministic = true;
    std::map<BucketNo, Level> replied;
    std::vector<WireRecord> records;
    SimTime start_us = 0;
  };

  struct PendingSubBatch {
    std::vector<WireRecord> records;  ///< As sent (views; no copies).
    uint32_t attempt = 1;
  };

  struct PendingBatch {
    size_t total = 0;
    uint32_t applied = 0;
    uint32_t exists = 0;
    uint32_t failed = 0;
    /// In-flight sub-batches by seq; erased on first reply (dedup).
    std::map<uint64_t, PendingSubBatch> outstanding;
    /// Records re-routed per-record via the coordinator (children).
    size_t outstanding_children = 0;
    SimTime start_us = 0;
  };

  /// Physical address the client uses for `bucket`: its cached entry if it
  /// has one, else the authoritative table (modelling the allocation-table
  /// propagation to new clients), which is then cached.
  NodeId ResolveNode(BucketNo bucket);

  void CompleteOp(uint64_t op_id, OpOutcome outcome);
  bool ScanCoverageComplete(const PendingScan& scan) const;

  /// Ships one sub-batch of `op_id` to `bucket` (as addressed under the
  /// current image).
  void SendSubBatch(uint64_t op_id, PendingBatch& batch, BucketNo bucket,
                    std::vector<WireRecord> records, uint32_t attempt);
  /// Re-routes one record of a batch via the coordinator as an individual
  /// child insert (crash / displaced-bucket fallback).
  void SendBatchChildViaCoordinator(uint64_t batch_op_id, PendingBatch& batch,
                                    const WireRecord& rec);
  /// Completes the batch op when nothing is outstanding any more.
  void MaybeCompleteBatch(uint64_t op_id);
  void HandleInsertBatchReply(const InsertBatchReplyMsg& reply);

  /// Timer callback (HandleTimer): attempts are tracked by op id.
  void HandleTimer(uint64_t timer_id) override;

  /// Re-sends a timed-out / bounced operation: directly while direct
  /// attempts remain, then via the coordinator, then gives up.
  void RetryOp(uint64_t op_id, PendingOp& op);

  /// Arms the current attempt's timeout timer and records its deadline
  /// (stale timers from superseded attempts check the deadline and bail —
  /// the simulator has no timer cancellation).
  void ArmOpTimer(uint64_t op_id, PendingOp& op);

  /// Backoff before attempt `attempt` (0 for the first attempt):
  /// exponential in the attempt number, capped, with +/- jitter.
  SimTime Backoff(uint32_t attempt);

  void SendDirect(uint64_t op_id, PendingOp& op);
  void SendViaCoordinator(uint64_t op_id, const PendingOp& op);
  void CountRetry();
  void CountDuplicate();
  void ResolveCounters();

  /// Records op_latency_us{op=...} for a completing op: simulated time
  /// from the StartOp/StartScan send to this completion — the client's
  /// view of one operation, independent of any background work (splits,
  /// parity traffic) the drain to idle would otherwise fold in.
  void RecordOpLatency(uint64_t op_id);

  std::shared_ptr<SystemContext> ctx_;
  ClientImage image_;
  uint64_t next_op_id_ = 1;
  /// Key-addressed ops in flight, by op id.
  IdTable<PendingOp> pending_;
  std::map<uint64_t, PendingScan> pending_scans_;
  std::map<uint64_t, PendingBatch> pending_batches_;
  /// Child insert op id -> owning batch op id (coordinator fallback).
  std::map<uint64_t, uint64_t> batch_children_;
  uint64_t next_batch_seq_ = 1;
  /// Finished ops whose outcome has not been taken yet, by op id.
  IdTable<OpOutcome> done_;
  std::vector<NodeId> cached_nodes_;
  uint64_t iam_count_ = 0;
  uint64_t forwarded_ops_ = 0;

  ClientRetryPolicy retry_;
  std::optional<Rng> retry_rng_;
  uint64_t retries_ = 0;
  uint64_t escalations_ = 0;
  uint64_t duplicates_suppressed_ = 0;
  telemetry::Counter* retries_counter_ = nullptr;
  telemetry::Counter* escalations_counter_ = nullptr;
  telemetry::Counter* duplicates_counter_ = nullptr;
  /// Cached op_latency_us{op=...} handles, indexed by OpType; slot 4 is
  /// the scan histogram, slot 5 the batch one. Resolved lazily like the
  /// counters.
  telemetry::Histogram* latency_histograms_[6] = {};

  OpCompleteCallback on_op_complete_;
};

}  // namespace lhrs

#endif  // LHRS_LHSTAR_CLIENT_H_
