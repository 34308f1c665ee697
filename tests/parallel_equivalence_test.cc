// Cross-mode equivalence harness: the locality-sharded parallel execution
// engine must be *convergence-equivalent* to the single-threaded
// deterministic Network (the chaos-replay / test oracle). The same seeded
// workload, run in both modes, must reach the same logical file contents,
// the same parity invariants and the same client-visible results — while
// event interleavings, split timings and message counts are free to
// differ. The deterministic engine itself must additionally stay
// byte-identical across replays of the same plan.

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/chaos.h"
#include "common/rng.h"
#include "lhrs/lhrs_file.h"
#include "telemetry/telemetry.h"

namespace lhrs {
namespace {

using chaos::FaultPlan;

Bytes Val(const std::string& s) { return BytesFromString(s); }

std::string ToHexStr(const Bytes& b) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (uint8_t byte : b) {
    out.push_back(digits[byte >> 4]);
    out.push_back(digits[byte & 0xF]);
  }
  return out;
}

std::vector<Key> MakeKeys(int n, uint64_t seed) {
  Rng rng(seed);
  std::set<Key> keys;
  while (keys.size() < static_cast<size_t>(n)) keys.insert(rng.Next64());
  return {keys.begin(), keys.end()};
}

LhrsFile::Options ModeOptions(size_t localities) {
  LhrsFile::Options opts;
  opts.file.bucket_capacity = 8;
  opts.group_size = 4;
  opts.policy.base_k = 2;
  opts.net.localities = localities;
  return opts;
}

/// Everything the client can observe about a finished run. Deliberately
/// excludes timings, message counts and bucket counts — those are
/// interleaving-dependent and exempt from the equivalence contract.
struct ModeResult {
  std::vector<std::string> op_results;  ///< Per-op client-visible outcome.
  std::string final_state;              ///< key=value for every live key.
  uint64_t record_count = 0;
  bool parity_ok = false;
};

/// Fault-free seeded mixed workload: inserts (driving splits), updates,
/// deletes, searches. Every op outcome is recorded in issue order.
ModeResult RunWorkload(size_t localities, uint64_t seed) {
  LhrsFile file(ModeOptions(localities));
  const std::vector<Key> keys = MakeKeys(140, seed);
  Rng rng(seed ^ 0xABCDEF);

  ModeResult result;
  auto note = [&result](const std::string& tag, const Status& s) {
    result.op_results.push_back(tag + ":" + (s.ok() ? "ok" : s.ToString()));
  };

  for (Key k : keys) {
    note("ins", file.Insert(k, Val("v" + std::to_string(k % 1000))));
  }
  std::set<Key> deleted;
  for (size_t i = 0; i < keys.size(); ++i) {
    const uint64_t dice = rng.Uniform(10);
    if (dice < 2) {
      note("del", file.Delete(keys[i]));
      deleted.insert(keys[i]);
    } else if (dice < 5) {
      note("upd", file.Update(keys[i], Val("u" + std::to_string(i))));
    } else {
      auto got = file.Search(keys[i]);
      note("sea", got.status());
    }
  }

  for (Key k : keys) {
    auto got = file.Search(k);
    if (deleted.contains(k)) {
      result.final_state +=
          std::to_string(k) + "=" + (got.ok() ? "LIVE?" : "gone") + ";";
    } else {
      result.final_state +=
          std::to_string(k) + "=" + (got.ok() ? ToHexStr(*got) : "?") + ";";
    }
  }
  result.record_count = file.GetStorageStats().record_count;
  result.parity_ok = file.VerifyParityInvariants().ok();
  return result;
}

TEST(ParallelEquivalenceTest, FaultFreeWorkloadConvergesAcrossModes) {
  const ModeResult oracle = RunWorkload(/*localities=*/0, /*seed=*/99);
  ASSERT_TRUE(oracle.parity_ok);
  EXPECT_GT(oracle.record_count, 100u);
  for (size_t localities : {1, 2, 4}) {
    const ModeResult parallel = RunWorkload(localities, /*seed=*/99);
    EXPECT_TRUE(parallel.parity_ok) << localities << " localities";
    EXPECT_EQ(parallel.final_state, oracle.final_state)
        << localities << " localities";
    EXPECT_EQ(parallel.record_count, oracle.record_count);
    EXPECT_EQ(parallel.op_results, oracle.op_results);
  }
}

TEST(ParallelEquivalenceTest, TelemetryOnWorkersSurvivesGrowthAndMerges) {
  // Per-record growth across many splits on two worker localities with
  // telemetry on. Parity buckets count their delta rounds from worker
  // threads, and every stats() read merges the worker shards into the main
  // registry mid-run; handles the workers resolved before a merge must stay
  // valid after it, and no count may be lost or doubled.
  LhrsFile file(ModeOptions(2));
  telemetry::Telemetry* t = file.network().EnableTelemetry();
  ASSERT_NE(t, nullptr);
  const std::vector<Key> keys = MakeKeys(400, 97);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(file.Insert(keys[i], Val("v" + std::to_string(i))).ok());
    if (i % 40 == 39) (void)file.network().stats();
  }
  file.network().RunUntilIdle();
  const MessageStats& stats = file.network().stats();
  EXPECT_GT(file.bucket_count(), 16u);
  EXPECT_TRUE(file.VerifyParityInvariants().ok());

  const telemetry::Counter* rounds =
      t->metrics().FindCounter("parity.update_rounds");
  const telemetry::Counter* applied =
      t->metrics().FindCounter("parity.deltas_applied");
  ASSERT_NE(rounds, nullptr);
  ASSERT_NE(applied, nullptr);
  // One update round per delta message delivered to a parity bucket.
  EXPECT_EQ(rounds->value(),
            stats.ForKind(LhrsMsg::kParityDelta).messages +
                stats.ForKind(LhrsMsg::kParityDeltaBatch).messages);
  // Every insert reaches both parity buckets of its group; split moves add
  // a clear and a set per mover on top.
  EXPECT_GE(applied->value(), 2 * keys.size());
  const telemetry::Histogram* latency =
      t->metrics().FindHistogram("net.delivery_latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_GT(latency->count(), 0u);
}

TEST(ParallelEquivalenceTest, VirtualServiceTimeDoesNotChangeResults) {
  // The F11 occupancy knobs shift locality clocks, never outcomes.
  LhrsFile::Options opts = ModeOptions(2);
  opts.net.service_us_per_task = 50;
  opts.net.service_us_per_kb = 20;
  LhrsFile file(opts);
  const std::vector<Key> keys = MakeKeys(60, 7);
  for (Key k : keys) {
    ASSERT_TRUE(file.Insert(k, Val("v" + std::to_string(k % 100))).ok());
  }
  for (Key k : keys) {
    auto got = file.Search(k);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, Val("v" + std::to_string(k % 100)));
  }
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
}

ClientRetryPolicy Resilient() {
  ClientRetryPolicy policy;
  policy.enabled = true;
  policy.seed = 7;
  return policy;
}

/// One chaos drill in either mode: crash + group-crash + probabilistic
/// message faults under an insert workload, then recovery and re-issue of
/// any inserts that exhausted their retries mid-outage. Returns the
/// converged logical state (plus the trace in deterministic mode, for the
/// byte-identical replay assert).
struct ChaosDrillResult {
  std::string final_state;
  uint64_t record_count = 0;
  bool parity_ok = false;
  uint64_t faults = 0;
  std::string trace_json;  ///< Deterministic mode only.
};

ChaosDrillResult RunChaosDrill(size_t localities, uint64_t plan_seed) {
  LhrsFile file(ModeOptions(localities));
  const bool deterministic = localities == 0;
  if (deterministic) file.network().EnableTelemetry();
  file.client(0).SetRetryPolicy(Resilient());

  const std::vector<Key> keys = MakeKeys(80, 61);
  size_t i = 0;
  for (; i < keys.size() / 2; ++i) {
    const Status s = file.Insert(keys[i], Val("v" + std::to_string(keys[i])));
    EXPECT_TRUE(s.ok()) << "mode=" << localities << " pre-chaos insert " << i
                        << ": " << s;
  }
  const NodeId victim = file.context().allocation.Lookup(2);

  FaultPlan plan;
  plan.seed = plan_seed;
  plan.CrashAt(2000, victim)
      .RestoreAt(400000, victim)
      .CrashGroupAt(5000, 0, 1)
      .DropMessages(0.03)
      .DuplicateMessages(0.05)
      .ReorderMessages(0.1, 400);
  chaos::ChaosEngine& engine = file.AttachChaos(std::move(plan));
  std::vector<Key> deferred;
  for (; i < keys.size(); ++i) {
    if (!file.Insert(keys[i], Val("v" + std::to_string(keys[i]))).ok()) {
      deferred.push_back(keys[i]);
    }
  }
  file.PlayOutChaos();
  ChaosDrillResult result;
  result.faults = engine.injected_total();
  file.DetachChaos();
  file.RecoverAll();
  for (Key k : deferred) {
    // kAlreadyExists = the "failed" insert did land server-side; the
    // at-least-once ambiguity is part of the client-visible contract.
    const Status s = file.Insert(k, Val("v" + std::to_string(k)));
    EXPECT_TRUE(s.ok() || s.IsAlreadyExists()) << s;
  }

  for (Key k : keys) {
    auto got = file.Search(k);
    EXPECT_TRUE(got.ok()) << got.status();
    result.final_state +=
        std::to_string(k) + "=" + (got.ok() ? ToHexStr(*got) : "?") + ";";
  }
  result.record_count = file.GetStorageStats().record_count;
  result.parity_ok = file.VerifyParityInvariants().ok();
  if (deterministic) {
    result.trace_json = file.network().telemetry()->tracer().ToJson();
  }
  return result;
}

TEST(ParallelEquivalenceTest, ChaosDrillsConvergeAcrossModesOverManySeeds) {
  // >= 10 seeds: under every fault pattern, both engines settle on the
  // same surviving records with intact parity.
  for (uint64_t seed = 100; seed < 110; ++seed) {
    const ChaosDrillResult oracle = RunChaosDrill(/*localities=*/0, seed);
    const ChaosDrillResult parallel = RunChaosDrill(/*localities=*/3, seed);
    ASSERT_TRUE(oracle.parity_ok) << "seed " << seed;
    ASSERT_TRUE(parallel.parity_ok) << "seed " << seed;
    EXPECT_GT(oracle.faults, 0u) << "seed " << seed;
    EXPECT_EQ(parallel.final_state, oracle.final_state) << "seed " << seed;
    EXPECT_EQ(parallel.record_count, oracle.record_count) << "seed " << seed;
  }
}

TEST(ParallelEquivalenceTest, DeterministicModeStillReplaysByteIdentically) {
  // The per-locality RNG streams must not perturb the classic engine:
  // stream 0 is seeded exactly as before, and single-threaded runs draw
  // only from it — the full telemetry trace stays byte-for-byte stable.
  const ChaosDrillResult a = RunChaosDrill(/*localities=*/0, 77);
  const ChaosDrillResult b = RunChaosDrill(/*localities=*/0, 77);
  EXPECT_GT(a.faults, 0u);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.final_state, b.final_state);
  EXPECT_EQ(a.trace_json, b.trace_json);
}

}  // namespace
}  // namespace lhrs
