// Tests for the scheme-agnostic SDDS facade and the pipelined session
// layer: async Submit/Poll/Take, bounded windows, completion-driven
// refill, latency attribution, and — the load-bearing property — exact
// equivalence of the N=1/W=1 open-loop schedule with the closed-loop
// synchronous API, chaos included.

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/lhm/lhm_file.h"
#include "baselines/lhs/lhs_file.h"
#include "chaos/chaos.h"
#include "common/rng.h"
#include "lhrs/lhrs_file.h"
#include "lhstar/lhstar_file.h"
#include "sdds/session.h"
#include "workload/generator.h"

namespace lhrs {
namespace {

using chaos::FaultPlan;
using sdds::OpToken;
using sdds::PipelinedRunner;
using sdds::RunnerOptions;
using sdds::RunnerReport;
using sdds::SddsOp;
using sdds::SessionPool;

Bytes Val(const std::string& s) { return BytesFromString(s); }

LhrsFile::Options LhrsOpts(uint32_t m = 4, uint32_t k = 1,
                           size_t capacity = 8) {
  LhrsFile::Options opts;
  opts.file.bucket_capacity = capacity;
  opts.group_size = m;
  opts.policy.base_k = k;
  return opts;
}

std::vector<Key> MakeKeys(int n, uint64_t seed) {
  Rng rng(seed);
  std::set<Key> keys;
  while (keys.size() < static_cast<size_t>(n)) keys.insert(rng.Next64());
  return {keys.begin(), keys.end()};
}

/// Op source replaying a fixed script in order, any session.
sdds::PipelinedRunner::OpSource Scripted(const std::vector<SddsOp>& script) {
  auto next = std::make_shared<size_t>(0);
  return [&script, next](size_t /*session*/) -> std::optional<SddsOp> {
    if (*next >= script.size()) return std::nullopt;
    return script[(*next)++];
  };
}

TEST(SddsFacadeTest, SubmitPollTakeLifecycle) {
  LhStarFile file(LhStarFile::Options{});
  const OpToken ins = file.Submit(0, OpType::kInsert, 7, Val("seven"));
  EXPECT_FALSE(file.Poll(ins));  // Nothing ran yet.
  while (!file.Poll(ins)) ASSERT_TRUE(file.network().Step());
  auto out = file.Take(ins);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->status.ok());
  EXPECT_FALSE(file.Poll(ins));          // Consumed.
  EXPECT_FALSE(file.Take(ins).ok());     // Unknown token now.

  const OpToken get = file.Submit(0, OpType::kSearch, 7, {});
  file.network().RunUntilIdle();
  ASSERT_TRUE(file.Poll(get));
  auto got = file.Take(get);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->status.ok());
  EXPECT_EQ(got->value.ToBytes(), Val("seven"));
}

TEST(SddsFacadeTest, OpTablesTakeOutOfOrderAndKeepUntakenOps) {
  // The facade's token table and the client's pending/done tables are
  // keyed by ids that only grow. Results taken in any order, one never
  // taken while thousands of later ops reuse the slots around it.
  LhStarFile file(LhStarFile::Options{});
  for (Key k = 1; k <= 8; ++k) {
    ASSERT_TRUE(file.Insert(k, Val("v" + std::to_string(k))).ok());
  }
  const OpToken untaken = file.Submit(0, OpType::kSearch, 1, {});
  std::vector<OpToken> tokens;
  for (Key k = 1; k <= 8; ++k) {
    tokens.push_back(file.Submit(0, OpType::kSearch, k, {}));
  }
  file.network().RunUntilIdle();
  for (size_t i = tokens.size(); i-- > 0;) {
    ASSERT_TRUE(file.Poll(tokens[i]));
    auto out = file.Take(tokens[i]);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->value.ToBytes(), Val("v" + std::to_string(i + 1)));
    EXPECT_FALSE(file.Take(tokens[i]).ok());
  }
  for (int i = 0; i < 3000; ++i) {
    const Key k = 1 + i % 8;
    auto got = file.Search(k);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_EQ(*got, Val("v" + std::to_string(k)));
  }
  ASSERT_TRUE(file.Poll(untaken));
  auto out = file.Take(untaken);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->value.ToBytes(), Val("v1"));
  EXPECT_FALSE(file.Poll(untaken));
}

TEST(SddsFacadeTest, CompletionListenerFiresInsideEventProcessing) {
  LhStarFile file(LhStarFile::Options{});
  std::vector<OpToken> completed;
  file.SetCompletionListener([&](OpToken t) { completed.push_back(t); });
  const OpToken a = file.Submit(0, OpType::kInsert, 1, Val("a"));
  file.network().RunUntilIdle();
  EXPECT_EQ(completed, std::vector<OpToken>{a});
  // The listener may take the result from inside the callback.
  file.SetCompletionListener([&](OpToken t) {
    auto out = file.Take(t);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(out->status.ok());
  });
  file.Submit(0, OpType::kSearch, 1, {});
  file.network().RunUntilIdle();
  file.SetCompletionListener(nullptr);
}

TEST(SddsFacadeTest, SchemesWithoutScanRejectIt) {
  lhm::LhmFile mirror({});
  EXPECT_TRUE(mirror.Scan().status().IsInvalidArgument());
  lhs::LhsFile striped(lhs::LhsFile::Options{});
  EXPECT_TRUE(striped.Scan().status().IsInvalidArgument());
}

TEST(SessionPoolTest, WindowIsEnforcedAndLatenciesStamped) {
  LhrsFile file(LhrsOpts());
  SessionPool pool(file, /*sessions=*/1, /*window=*/2);
  std::vector<SimTime> latencies;
  pool.SetCompletionHandler([&](size_t session, const SddsOp& op,
                                const OpOutcome& outcome, SimTime latency) {
    EXPECT_EQ(session, 0u);
    EXPECT_TRUE(outcome.status.ok()) << outcome.status << " op " << op.key;
    latencies.push_back(latency);
  });
  pool.Submit(0, SddsOp{OpType::kInsert, 1, Val("one")});
  pool.Submit(0, SddsOp{OpType::kInsert, 2, Val("two")});
  EXPECT_FALSE(pool.HasCapacity(0));  // Window full at W=2.
  EXPECT_EQ(pool.inflight_total(), 2u);
  file.network().RunUntilIdle();
  EXPECT_EQ(pool.inflight_total(), 0u);
  ASSERT_EQ(latencies.size(), 2u);
  for (SimTime l : latencies) EXPECT_GT(l, 0u);
}

TEST(SessionPoolTest, LatencyExcludesBackgroundSplitWork) {
  // Fill one bucket so the next insert triggers a split. The op's latency
  // is stamped when *its reply* reaches the client — the split traffic the
  // drain then plays out must not be billed to the op.
  LhrsFile file(LhrsOpts(4, 1, /*capacity=*/4));
  std::vector<Key> keys = MakeKeys(5, 31);
  for (size_t i = 0; i + 1 < keys.size(); ++i) {
    ASSERT_TRUE(file.Insert(keys[i], Val("x")).ok());
  }
  SessionPool pool(file, 1, 1);
  SimTime latency = 0;
  pool.SetCompletionHandler([&](size_t, const SddsOp&, const OpOutcome& out,
                                SimTime l) {
    ASSERT_TRUE(out.status.ok());
    latency = l;
  });
  const SimTime start = file.network().now();
  pool.Submit(0, SddsOp{OpType::kInsert, keys.back(), Val("x")});
  file.network().RunUntilIdle();
  const SimTime drained = file.network().now() - start;
  ASSERT_GT(latency, 0u);
  // The drain kept processing split/parity traffic well past the reply.
  EXPECT_LT(latency, drained);
}

TEST(PipelinedRunnerTest, UnitWindowMatchesSynchronousRunExactly) {
  // N=1/W=1 is the seed's closed-loop execution model: the same ops must
  // produce the same message count and the same final clock, to the byte.
  const std::vector<Key> keys = MakeKeys(60, 41);
  std::vector<SddsOp> script;
  for (Key k : keys) {
    script.push_back(SddsOp{OpType::kInsert, k, Val("v" + std::to_string(k))});
  }
  for (Key k : keys) script.push_back(SddsOp{OpType::kSearch, k, {}});

  LhrsFile sync_file(LhrsOpts());
  for (Key k : keys) {
    ASSERT_TRUE(sync_file.Insert(k, Val("v" + std::to_string(k))).ok());
  }
  for (Key k : keys) ASSERT_TRUE(sync_file.Search(k).ok());

  LhrsFile piped_file(LhrsOpts());
  PipelinedRunner runner(piped_file, RunnerOptions{1, 1, 0});
  const RunnerReport report = runner.Run(Scripted(script));
  EXPECT_EQ(report.completed, script.size());
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.stalled, 0u);
  EXPECT_EQ(piped_file.network().stats().total_messages(),
            sync_file.network().stats().total_messages());
  EXPECT_EQ(piped_file.network().now(), sync_file.network().now());
}

TEST(PipelinedRunnerTest, PipeliningRaisesThroughputWithSameWork) {
  const std::vector<Key> keys = MakeKeys(200, 43);
  std::vector<SddsOp> script;
  for (Key k : keys) {
    script.push_back(SddsOp{OpType::kInsert, k, Val("w" + std::to_string(k))});
  }
  auto run = [&](size_t sessions, size_t window) {
    LhrsFile file(LhrsOpts());
    PipelinedRunner runner(file, RunnerOptions{sessions, window, 0});
    RunnerReport report = runner.Run(Scripted(script));
    EXPECT_EQ(report.completed, script.size());
    EXPECT_EQ(report.failures, 0u);
    return report;
  };
  const RunnerReport closed = run(1, 1);
  const RunnerReport open = run(4, 4);
  // Same ops, overlapping in simulated time: strictly less wall-clock.
  EXPECT_LT(open.elapsed_us(), closed.elapsed_us());
  EXPECT_GT(open.OpsPerSimSecond(), closed.OpsPerSimSecond());
}

TEST(PipelinedRunnerTest, TwoSessionsRacingASplitLoseNothing) {
  // Tiny buckets force splits mid-stream while two sessions keep four ops
  // in flight; every record must land and stay addressable, and the
  // parity invariants must hold afterwards.
  LhrsFile file(LhrsOpts(4, 1, /*capacity=*/4));
  const std::vector<Key> keys = MakeKeys(160, 47);
  std::vector<SddsOp> script;
  for (Key k : keys) {
    script.push_back(SddsOp{OpType::kInsert, k, Val("r" + std::to_string(k))});
  }
  PipelinedRunner runner(file, RunnerOptions{2, 2, 0});
  const RunnerReport report = runner.Run(Scripted(script));
  EXPECT_EQ(report.completed, script.size());
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.stalled, 0u);
  for (Key k : keys) {
    auto got = file.Search(k);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, Val("r" + std::to_string(k)));
  }
  EXPECT_TRUE(file.VerifyParityInvariants().ok());
}

TEST(PipelinedRunnerTest, MirroredFilePipelinesWithoutBreakingInvariant) {
  lhm::LhmFile file({});
  const std::vector<Key> keys = MakeKeys(120, 53);
  std::vector<SddsOp> script;
  for (Key k : keys) {
    script.push_back(SddsOp{OpType::kInsert, k, Val("m" + std::to_string(k))});
  }
  PipelinedRunner runner(file, RunnerOptions{2, 2, 0});
  const RunnerReport report = runner.Run(Scripted(script));
  EXPECT_EQ(report.completed, script.size());
  EXPECT_EQ(report.failures, 0u);
  EXPECT_TRUE(file.VerifyMirrorInvariant().ok());
  for (Key k : keys) {
    auto got = file.Search(k);
    ASSERT_TRUE(got.ok()) << got.status();
  }
}

TEST(PipelinedRunnerTest, StripedFileServesDegradedReadsPipelined) {
  lhs::LhsFile file(lhs::LhsFile::Options{});
  const std::vector<Key> keys = MakeKeys(40, 59);
  Rng rng(59);
  std::vector<Bytes> values;
  std::vector<SddsOp> inserts;
  for (Key k : keys) {
    values.push_back(rng.RandomBytes(64 + rng.Uniform(64)));
    inserts.push_back(SddsOp{OpType::kInsert, k, values.back()});
  }
  {
    PipelinedRunner runner(file, RunnerOptions{2, 2, 0});
    const RunnerReport report = runner.Run(Scripted(inserts));
    ASSERT_EQ(report.completed, inserts.size());
    ASSERT_EQ(report.failures, 0u);
  }
  // Kill one stripe column's bucket mid-life; pipelined reads must still
  // all complete with the right payloads (parked + rebuilt server-side).
  file.CrashStripeBucketOf(2, keys[0]);
  std::vector<SddsOp> searches;
  for (Key k : keys) searches.push_back(SddsOp{OpType::kSearch, k, {}});
  std::map<Key, Bytes> expected;
  for (size_t i = 0; i < keys.size(); ++i) expected[keys[i]] = values[i];
  PipelinedRunner runner(file, RunnerOptions{2, 2, 0});
  size_t verified = 0;
  const RunnerReport report = runner.Run(
      Scripted(searches),
      [&](size_t, const SddsOp& op, const OpOutcome& out) {
        ASSERT_TRUE(out.status.ok()) << out.status;
        EXPECT_EQ(out.value.ToBytes(), expected[op.key]);
        ++verified;
      });
  EXPECT_EQ(report.completed, searches.size());
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(verified, searches.size());
}

/// What RunMixed saw besides the runner's own report.
struct MixedRun {
  RunnerReport report;
  std::set<Key> resident;  ///< Keys the run leaves in the file.
  std::set<Key> deleted;   ///< Keys a delete was sent for.
  std::set<Key> phantoms;  ///< Searched keys that were never inserted.
  uint64_t deletes = 0;
  uint64_t inserts_landed = 0;
  uint64_t phantom_misses = 0;  ///< Phantom searches that came back NotFound.
  uint64_t raced_misses = 0;    ///< NotFound on a key a delete was sent for.
  /// Inserts answered AlreadyExists although the key is fresh: the answer
  /// to a second copy of a request duplicated in flight. Data buckets drop
  /// such copies, so the tests expect none.
  uint64_t duplicate_answers = 0;
  uint64_t wrong = 0;           ///< Outcomes that no interleaving explains.
  uint64_t outcome_digest = workload::kFnvOffsetBasis;
};

/// Preloads the generator's keyspace into `file`, then drives its
/// per-session streams through the pipelined runner with deletes and
/// phantom searches mixed in: each op is, with probability 5 %, swapped
/// for a delete of a resident key, and 10 % of the other searches look up
/// a fresh random key instead. Deletes race the searches and updates the
/// streams still send for that key, so a NotFound is expected exactly for
/// keys a delete was sent for and for phantoms; an OK phantom read, a
/// failed delete or insert, or a NotFound on any other key counts as
/// `wrong`. An insert of a fresh key answered AlreadyExists landed all the
/// same: it stays resident and counts as a duplicate answer.
MixedRun RunMixed(sdds::SddsFile& file,
                  const workload::GeneratorOptions& gen_opts,
                  const RunnerOptions& runner_opts) {
  constexpr double kDeleteFraction = 0.05;
  constexpr double kPhantomFraction = 0.10;
  MixedRun run;
  workload::WorkloadGenerator gen(gen_opts);
  Rng rng(gen_opts.seed);
  for (Key k : gen.preload_keys()) {
    EXPECT_TRUE(file.Insert(k, rng.RandomBytes(gen_opts.value_bytes)).ok());
    run.resident.insert(k);
  }
  // Resident keys no delete has been sent for yet, in a deterministic
  // order: the source runs in completion order on the event loop.
  std::vector<Key> deletable(gen.preload_keys());
  auto source = [&](size_t session) -> std::optional<SddsOp> {
    std::optional<SddsOp> op = gen.Next(session);
    if (!op.has_value()) return op;
    if (!deletable.empty() && rng.Flip(kDeleteFraction)) {
      const size_t at = static_cast<size_t>(rng.Uniform(deletable.size()));
      const Key key = deletable[at];
      deletable[at] = deletable.back();
      deletable.pop_back();
      run.deleted.insert(key);
      ++run.deletes;
      return SddsOp{OpType::kDelete, key, {}};
    }
    if (op->op == OpType::kSearch && rng.Flip(kPhantomFraction)) {
      op->key = rng.Next64();
      run.phantoms.insert(op->key);
    }
    return op;
  };
  auto on_complete = [&](size_t, const SddsOp& op, const OpOutcome& out) {
    run.outcome_digest = workload::DigestOp(run.outcome_digest, op);
    run.outcome_digest = (run.outcome_digest ^
                          static_cast<uint64_t>(out.status.code())) *
                         1099511628211ULL;
    const bool not_found = out.status.IsNotFound();
    switch (op.op) {
      case OpType::kInsert:
        if (out.status.IsAlreadyExists()) {
          ++run.duplicate_answers;
        } else if (!out.status.ok()) {
          ++run.wrong;
          return;
        }
        run.resident.insert(op.key);
        deletable.push_back(op.key);
        ++run.inserts_landed;
        return;
      case OpType::kDelete:
        if (!out.status.ok()) {
          ++run.wrong;
          return;
        }
        run.resident.erase(op.key);
        return;
      case OpType::kSearch:
        if (run.phantoms.count(op.key) > 0) {
          if (not_found) ++run.phantom_misses;
          else ++run.wrong;  // Phantom read.
          return;
        }
        [[fallthrough]];
      default:
        if (out.status.ok()) return;
        if (not_found && run.deleted.count(op.key) > 0) ++run.raced_misses;
        else ++run.wrong;
    }
  };
  PipelinedRunner runner(file, runner_opts);
  run.report = runner.Run(source, on_complete);
  return run;
}

/// After a MixedRun: every resident key is still found, every deleted and
/// every phantom key is gone.
void ExpectFinalState(sdds::SddsFile& file, const MixedRun& run) {
  for (Key k : run.resident) EXPECT_TRUE(file.Search(k).ok()) << k;
  for (Key k : run.deleted) {
    EXPECT_TRUE(file.Search(k).status().IsNotFound()) << k;
  }
  for (Key k : run.phantoms) {
    EXPECT_TRUE(file.Search(k).status().IsNotFound()) << k;
  }
}

TEST(OpenLoopWorkloadTest, DriverRunsCleanAcrossSchemes) {
  workload::GeneratorOptions gen_opts;
  gen_opts.seed = 67;
  gen_opts.sessions = 4;
  gen_opts.ops_per_session = 75;
  gen_opts.keyspace = 64;
  auto drive = [&](sdds::SddsFile& file) {
    const MixedRun run = RunMixed(file, gen_opts, RunnerOptions{4, 2, 0});
    const RunnerReport& report = run.report;
    EXPECT_EQ(report.completed, 300u);
    EXPECT_EQ(report.failures, 0u);
    EXPECT_EQ(report.stalled, 0u);
    EXPECT_EQ(run.wrong, 0u);
    EXPECT_EQ(run.duplicate_answers, 0u);
    EXPECT_EQ(report.not_found, run.phantom_misses + run.raced_misses);
    EXPECT_GT(run.deletes, 0u) << "no delete ran";
    EXPECT_GT(run.phantom_misses, 0u) << "no phantom search ran";
    EXPECT_GT(run.raced_misses, 0u) << "no op raced a delete";
    EXPECT_GT(run.inserts_landed, 0u) << "no insert landed";
    ExpectFinalState(file, run);
    EXPECT_GT(report.OpsPerSimSecond(), 0.0);
  };
  LhrsFile rs(LhrsOpts());
  drive(rs);
  EXPECT_TRUE(rs.VerifyParityInvariants().ok());
  lhm::LhmFile mirror({});
  drive(mirror);
  EXPECT_TRUE(mirror.VerifyMirrorInvariant().ok());
}

TEST(OpenLoopWorkloadTest, SameSeedReplaysByteIdenticallyUnderChaos) {
  // The headline determinism property carried over to the open-loop world:
  // a pipelined run under seeded message chaos (delays, duplicates,
  // reorders) is a pure function of its seeds — the full telemetry trace,
  // every per-op latency and every op's outcome replay byte-identically.
  auto run = [](std::string& trace, MixedRun& mixed) {
    LhrsFile file(LhrsOpts(4, 2));
    file.network().EnableTelemetry();
    FaultPlan plan;
    plan.seed = 91;
    plan.DuplicateMessages(0.05)
        .DelayMessages(0.15, 400, 200)
        .ReorderMessages(0.1, 300);
    file.AttachChaos(std::move(plan));
    workload::GeneratorOptions gen_opts;
    gen_opts.seed = 97;
    gen_opts.sessions = 3;
    gen_opts.ops_per_session = 84;
    gen_opts.keyspace = 64;
    mixed = RunMixed(file, gen_opts, RunnerOptions{3, 2, 250});
    const RunnerReport& report = mixed.report;
    EXPECT_EQ(report.completed, 250u);
    // Data buckets drop duplicated op requests, so no insert is answered
    // AlreadyExists by a second copy of itself.
    EXPECT_EQ(report.failures, 0u);
    EXPECT_EQ(mixed.duplicate_answers, 0u);
    EXPECT_EQ(mixed.wrong, 0u);
    EXPECT_EQ(report.not_found, mixed.phantom_misses + mixed.raced_misses);
    EXPECT_GT(mixed.deletes, 0u) << "no delete ran";
    EXPECT_GT(mixed.phantom_misses, 0u) << "no phantom search ran";
    EXPECT_GT(mixed.raced_misses, 0u) << "no op raced a delete";
    file.DetachChaos();
    trace = file.network().telemetry()->tracer().ToJson();
    ExpectFinalState(file, mixed);
    EXPECT_TRUE(file.VerifyParityInvariants().ok());
  };
  std::string trace_a, trace_b;
  MixedRun run_a, run_b;
  run(trace_a, run_a);
  run(trace_b, run_b);
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(run_a.report.latencies_us, run_b.report.latencies_us);
  EXPECT_EQ(run_a.report.end_us, run_b.report.end_us);
  EXPECT_EQ(run_a.report.ok, run_b.report.ok);
  EXPECT_EQ(run_a.report.not_found, run_b.report.not_found);
  EXPECT_EQ(run_a.report.failures, run_b.report.failures);
  EXPECT_EQ(run_a.outcome_digest, run_b.outcome_digest);
  EXPECT_EQ(run_a.deleted, run_b.deleted);
}

}  // namespace
}  // namespace lhrs
