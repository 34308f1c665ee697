// lhrs_perfbench — the end-to-end and per-layer benchmark of LH*RS. One
// process runs one named workload against LhrsFile through its public API,
// checks every output against a benchmark-side oracle, prints a metric
// table and ends stdout with one JSON result line. README.md in
// this directory documents workloads, metrics and the layer map; run.py
// builds this binary and is the command to use.
//
//   lhrs_perfbench --workload insert_grow --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics with tracing and telemetry off.
// --trace 1 is the separate traced run: it times the benchmark's own calls
// into each module, reports the per-layer metrics and the tracing overhead
// on ops_per_ref_s, and writes the recorded spans to --trace-out at exit.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "calibrate.h"
#include "lhrs/lhrs_file.h"
#include "lhrs/messages.h"
#include "lhstar/messages.h"
#include "replay.h"
#include "sdds/session.h"
#include "tracer.h"
#include "workload/bulk_load.h"
#include "workload/generator.h"

namespace lhrs::perfbench {
namespace {

// --- Fixed configuration (every workload) -----------------------------------
constexpr uint32_t kGroupSize = 4;          // m
constexpr uint32_t kParityK = 2;            // k
constexpr size_t kBucketCapacity = 1024;    // b
constexpr size_t kSessions = 4;
constexpr size_t kWindow = 8;
constexpr size_t kCpus = 4;  // The exec.cpu_util denominator.

// --- Workload sizes ----------------------------------------------------------
// Work is a pure function of (workload, --seconds), never of elapsed time,
// so every count below is exact for a seed. The per-second rates size a
// run, set-up included, to about --seconds on a 4-core x86-64 box.
// fail_recover is kept shorter: its RSS grows ~25 MB per round (crashed
// nodes are never freed).
constexpr size_t kSmallValue = 64;
constexpr size_t kLargeValue = 1024;
constexpr uint64_t kGrowRecords = 60000;        // Per insert_grow repetition.
constexpr double kGrowRepsPerSecond = 0.5;
constexpr uint64_t kGrowChunks = 16;  // Host-speed readings a repetition.
constexpr double kGrowL3RepsPerSecond = 0.8;
constexpr size_t kEmptySetupBatch = 20;  // insert_grow: files per sample.
constexpr int kEmptySetupSamples = 5;    // insert_grow: samples per rep.
constexpr size_t kZipfPreload = 60000;
constexpr size_t kZipfBatch = 512;
// Ops of one zipf_mixed phase. About 8 % of them are fresh inserts, so a
// phase grows the preloaded file by about 17 %: the mix stays read-heavy.
constexpr uint64_t kZipfOps = 2 * kZipfPreload;
constexpr double kZipfRepsPerSecond = 0.3;
constexpr size_t kZipfChunks = 16;  // ops_per_ref_s samples a phase.
constexpr size_t kRecoverPreload = 50000;       // 64 buckets, 16 groups.
constexpr double kRecoverRoundsPerSecond = 1.2;
constexpr int kSetupRepeats = 3;                // fail_recover.
constexpr size_t kSetupMarkEvery = 5000;        // fail_recover preload.
constexpr size_t kDegradedReadsPerBucket = 50;
constexpr size_t kProbeGroups = 32;             // Traced recovery probe.
constexpr size_t kBulkReplayRecords = 20000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string trace_out;
};

// --- Small helpers -----------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

template <typename T>
double Percentile(std::vector<T> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto idx = static_cast<size_t>(std::llround(rank));
  return static_cast<double>(v[std::min(idx, v.size() - 1)]);
}

template <typename T>
double Mean(const std::vector<T>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (T x : v) sum += static_cast<double>(x);
  return sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

uint64_t Fnv(std::span<const uint8_t> bytes) {
  uint64_t h = workload::kFnvOffsetBasis;
  for (uint8_t b : bytes) h = (h ^ b) * 1099511628211ULL;
  return h;
}

// --- Outcome of one run ------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// Everything one run reports: metrics, op tallies and correctness.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  void EndToEnd(std::string name, std::string unit, double value) {
    if (!trace_) metrics_.push_back({std::move(name), std::move(unit), value});
  }
  void PerLayer(std::string name, std::string unit, double value) {
    if (trace_) metrics_.push_back({std::move(name), std::move(unit), value});
  }

  void Fail(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    correct_ = false;
    if (++errors_ > 20) return;  // Keep stderr readable.
    va_list args;
    va_start(args, fmt);
    std::fputs("FAIL: ", stderr);
    std::vfprintf(stderr, fmt, args);
    std::fputc('\n', stderr);
    va_end(args);
  }

  /// Ops attempted / failed (non-OK outcome or stalled) — failed_frac.
  void CountOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// Records a seed-exact quantity under `name`. With `assert_equal`
  /// every later value must equal the first (in-run determinism
  /// self-check); otherwise the spread is only reported.
  void SeedExact(const std::string& name, double value, bool assert_equal) {
    std::vector<double>& seen = seed_exact_[name];
    if (assert_equal && !seen.empty() && seen.front() != value) {
      Fail("determinism: %s was %.17g, now %.17g", name.c_str(),
           seen.front(), value);
    }
    seen.push_back(value);
  }

  void Print(const std::string& workload) const {
    std::printf("%-30s %-10s %s  (%s, %s)\n", "metric", "unit", "value",
                workload.c_str(), trace_ ? "per-layer" : "end-to-end");
    for (const Metric& m : metrics_) {
      std::printf("%-30s %-10s %.6g\n", m.name.c_str(), m.unit.c_str(),
                  m.value);
    }
    // One line the determinism check compares across processes: the
    // first value of each seed-exact quantity, with the in-run range.
    std::fputs("seed-exact:", stderr);
    for (const auto& [name, values] : seed_exact_) {
      const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
      std::fprintf(stderr, " %s=%.17g", name.c_str(), values.front());
      if (*lo != *hi) std::fprintf(stderr, "[%.17g..%.17g]", *lo, *hi);
    }
    std::fputc('\n', stderr);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct_ ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  bool trace_;
  bool correct_ = true;
  int errors_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::map<std::string, std::vector<double>> seed_exact_;
};

// --- Oracle ------------------------------------------------------------------

/// Benchmark-side map of every acknowledged value. A search must return a
/// value committed no earlier than the oldest search of that key still in
/// flight, or the value of a write to it still in flight: a stale, lost or
/// corrupted value fails the run.
class Oracle {
 public:
  explicit Oracle(Report& report) : report_(report) {}

  void Preload(Key key, std::span<const uint8_t> value) {
    Entry& e = keys_[key];
    if (e.history.empty()) ++acked_keys_;
    e.history.assign(1, Fnv(value));
  }

  /// Keys with at least one acknowledged value.
  size_t size() const { return acked_keys_; }

  /// Hash of the last acknowledged value of `key` (0 if none).
  uint64_t Latest(Key key) const {
    auto it = keys_.find(key);
    return it == keys_.end() || it->second.history.empty()
               ? 0
               : it->second.history.back();
  }

  void OnSubmit(const sdds::SddsOp& op) {
    Entry& e = keys_[op.key];
    if (op.op == OpType::kSearch) {
      if (e.searches_in_flight++ == 0) {
        e.oldest_search = static_cast<uint32_t>(
            e.history.empty() ? 0 : e.history.size() - 1);
        e.must_exist = !e.history.empty();
      }
    } else {
      e.writes_in_flight.push_back(Fnv(op.value));
    }
  }

  /// Checks one completion; returns false when the outcome was not OK.
  /// A failed search of a key acknowledged before it was issued is a lost
  /// record and fails the run.
  bool OnComplete(const sdds::SddsOp& op, const OpOutcome& outcome) {
    Entry& e = keys_[op.key];
    if (op.op == OpType::kSearch) {
      --e.searches_in_flight;
      if (!outcome.status.ok()) {
        if (e.must_exist) {
          report_.Fail("search of acknowledged key %llx failed: %s",
                       static_cast<unsigned long long>(op.key),
                       outcome.status.ToString().c_str());
        }
        return false;
      }
      const uint64_t got = Fnv(outcome.value.span());
      const bool committed =
          std::find(e.history.begin() + e.oldest_search, e.history.end(),
                    got) != e.history.end();
      const bool racing = std::find(e.writes_in_flight.begin(),
                                    e.writes_in_flight.end(),
                                    got) != e.writes_in_flight.end();
      if (!committed && !racing) {
        report_.Fail("search of key %llx returned a stale or unwritten value",
                     static_cast<unsigned long long>(op.key));
      }
      return true;
    }
    const uint64_t h = Fnv(op.value);
    auto it = std::find(e.writes_in_flight.begin(), e.writes_in_flight.end(),
                        h);
    if (it != e.writes_in_flight.end()) e.writes_in_flight.erase(it);
    if (!outcome.status.ok()) return false;
    if (e.history.empty()) ++acked_keys_;
    e.history.push_back(h);
    return true;
  }

 private:
  struct Entry {
    std::vector<uint64_t> history;  ///< Acknowledged value hashes, in order.
    std::vector<uint64_t> writes_in_flight;
    uint32_t searches_in_flight = 0;
    uint32_t oldest_search = 0;  ///< History index when searches began.
    bool must_exist = false;     ///< The key was acknowledged by then.
  };
  Report& report_;
  std::unordered_map<Key, Entry> keys_;
  size_t acked_keys_ = 0;
};

// --- Open-loop load ----------------------------------------------------------

/// A stamp between stretches of measured work, with a fresh reading of the
/// host's speed, except on the locality engine, whose workers would run on
/// while the reference kernel runs.
Stamp Mark(const Network& net) {
  return net.config().localities == 0 ? GaugeNow() : Now();
}

using OpSource = std::function<std::optional<sdds::SddsOp>(size_t session)>;

struct DriveResult {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;  ///< Non-OK outcomes plus ops stalled in flight.
  std::vector<SimTime> latencies_us;
  /// Time at the start, at every `mark_every` completions, and after the
  /// drain: the bounds of the phase's chunks.
  std::vector<Stamp> marks;
  double drain_s = 0;
};

/// PipelinedRunner::Run, spelled out so the traced run can time each call
/// into the workload, session and network layers: kSessions sessions, each
/// refilled from `source` up to kWindow ops in flight from inside the
/// completion path, the benchmark stepping the network until every op
/// completed, then draining it to quiescence. `on_chunk(i)`, if set, runs
/// as chunk i begins.
DriveResult Drive(LhrsFile& file, Tracer& tracer, Oracle& oracle,
                  const OpSource& source, uint64_t mark_every,
                  const std::function<void(size_t)>& on_chunk = {}) {
  Network& net = file.network();
  DriveResult r;
  sdds::SessionPool pool(file, kSessions, kWindow);
  std::vector<bool> exhausted(kSessions, false);

  auto refill = [&](size_t session) {
    while (!exhausted[session] && pool.HasCapacity(session)) {
      const uint64_t op_id = r.submitted + 1;
      std::optional<sdds::SddsOp> op = tracer.Time(
          Layer::kWorkloadNext, op_id, [&] { return source(session); });
      if (!op.has_value()) {
        exhausted[session] = true;
        return;
      }
      oracle.OnSubmit(*op);
      tracer.Time(Layer::kSddsSubmit, op_id,
                  [&] { pool.Submit(session, std::move(*op)); });
      ++r.submitted;
    }
  };
  pool.SetCompletionHandler([&](size_t session, const sdds::SddsOp& op,
                                const OpOutcome& outcome, SimTime latency) {
    ++r.completed;
    r.latencies_us.push_back(latency);
    if (!oracle.OnComplete(op, outcome)) ++r.failed;
    if (mark_every != 0 && r.completed % mark_every == 0) {
      r.marks.push_back(Mark(net));
      if (on_chunk) on_chunk(r.marks.size() - 1);
    }
    refill(session);
  });

  r.marks.push_back(Mark(net));
  if (on_chunk) on_chunk(0);
  for (size_t s = 0; s < kSessions; ++s) refill(s);
  while (pool.inflight_total() > 0) {
    if (!tracer.Time(Layer::kNetStep, 0, [&] { return net.Step(); })) break;
  }
  r.failed += pool.inflight_total();
  const Stamp drain_start = Now();
  tracer.Time(Layer::kNetDrain, 0, [&] { net.RunUntilIdle(); });
  r.marks.push_back(Mark(net));
  r.drain_s = Between(drain_start, r.marks.back()).wall_s;
  return r;
}

/// Ops per second of each span between consecutive marks, in the seconds
/// `clock` picks (Span::ref_s or wall_s).
std::vector<double> MarkRates(const std::vector<Stamp>& marks,
                              uint64_t total_ops, uint64_t mark_every,
                              double Span::*clock) {
  std::vector<double> rates;
  uint64_t done = 0;
  for (size_t i = 1; i < marks.size(); ++i) {
    const uint64_t ops = std::min(mark_every, total_ops - done);
    done += ops;
    const double s = Between(marks[i - 1], marks[i]).*clock;
    if (ops > 0 && s > 0) rates.push_back(static_cast<double>(ops) / s);
  }
  return rates;
}

/// The spans between consecutive marks added up: each span's reference
/// seconds use the host speed measured at its own ends.
Span MarkTotal(const std::vector<Stamp>& marks) {
  Span total;
  for (size_t i = 1; i < marks.size(); ++i) {
    total += Between(marks[i - 1], marks[i]);
  }
  return total;
}

// --- Counter snapshots around a phase ----------------------------------------

struct Snapshot {
  MessageStats stats;
  uint64_t events = 0;
  SimTime sim_us = 0;
  BucketNo buckets = 0;
  uint64_t deltas_applied = 0;
  uint64_t deltas_buffered = 0;
  Stamp at;
};

uint64_t CounterValue(LhrsFile& file, const char* name) {
  const telemetry::Telemetry* t = file.network().telemetry();
  if (t == nullptr) return 0;
  const telemetry::Counter* c = t->metrics().FindCounter(name);
  return c == nullptr ? 0 : c->value();
}

Snapshot Snap(LhrsFile& file) {
  Snapshot s;
  s.stats = file.network().stats();  // Merges parallel shards first.
  s.events = file.network().processed_events();
  s.sim_us = file.network().now();
  s.buckets = file.bucket_count();
  s.deltas_applied = CounterValue(file, "parity.deltas_applied");
  s.deltas_buffered = CounterValue(file, "parity.deltas_buffered");
  s.at = Now();
  return s;
}

/// Counter deltas of one measured phase.
struct PhaseCounts {
  double ops = 0;
  double msgs = 0;
  double bytes = 0;
  double events = 0;
  double op_requests = 0;
  double overflow_reports = 0;
  double move_bytes = 0;
  double parity_msgs = 0;
  double splits = 0;
  double sim_us = 0;
  double cpu_s = 0;
  double wall_s = 0;
  double deltas_applied = 0;
  double deltas_buffered = 0;
};

PhaseCounts Diff(const Snapshot& a, const Snapshot& b, uint64_t ops) {
  auto kind = [&](int k) {
    return static_cast<double>(b.stats.ForKind(k).messages -
                               a.stats.ForKind(k).messages);
  };
  PhaseCounts c;
  c.ops = static_cast<double>(ops);
  c.msgs = static_cast<double>(b.stats.total_messages() -
                               a.stats.total_messages());
  c.bytes = static_cast<double>(b.stats.total().bytes - a.stats.total().bytes);
  c.events = static_cast<double>(b.events - a.events);
  c.op_requests = kind(LhStarMsg::kOpRequest);
  c.overflow_reports = kind(LhStarMsg::kOverflowReport);
  c.move_bytes =
      static_cast<double>(b.stats.ForKind(LhStarMsg::kMoveRecords).bytes -
                          a.stats.ForKind(LhStarMsg::kMoveRecords).bytes);
  c.parity_msgs =
      kind(LhrsMsg::kParityDelta) + kind(LhrsMsg::kParityDeltaBatch);
  c.splits = static_cast<double>(b.buckets - a.buckets);
  c.sim_us = static_cast<double>(b.sim_us - a.sim_us);
  const Span span = Between(a.at, b.at);
  c.cpu_s = span.cpu_s;
  c.wall_s = span.wall_s;
  c.deltas_applied = static_cast<double>(b.deltas_applied - a.deltas_applied);
  c.deltas_buffered =
      static_cast<double>(b.deltas_buffered - a.deltas_buffered);
  return c;
}

// --- File construction and checks -------------------------------------------

std::unique_ptr<LhrsFile> MakeFile(size_t localities) {
  LhrsFile::Options opts;
  opts.file.bucket_capacity = kBucketCapacity;
  opts.group_size = kGroupSize;
  opts.policy.base_k = kParityK;
  // Failures are injected and recovered explicitly (RecoverAll), so the
  // degraded-read and rebuild costs are measured apart.
  opts.auto_recover = false;
  // No handler service-time charge: simulated time is the network model
  // alone on both engines. With a charge the locality engine's workers
  // park on their virtual clocks, and its wall and simulated figures swing
  // by about 50 % from run to run.
  opts.net.localities = localities;
  return std::make_unique<LhrsFile>(opts);
}

/// Turns on the library's telemetry counters (parity.*, recovery.*) for the
/// traced run. Deterministic engine only: on the locality engine the parity
/// buckets bump the shared registry from worker threads (a data race that
/// corrupts the heap), so those counters stay off there.
void EnableCounters(LhrsFile& file) {
  if (file.network().config().localities != 0) return;
  telemetry::TelemetryConfig config;
  config.trace_messages = false;
  file.network().EnableTelemetry(config);
}

/// Quiescent-file checks (never timed): the parity invariant of every
/// group and the record count against the acknowledged inserts.
void CheckFile(LhrsFile& file, const Oracle& oracle, Report& report,
               const char* when) {
  const Status parity = file.VerifyParityInvariants();
  if (!parity.ok()) {
    report.Fail("%s: parity invariant broken: %s", when,
                parity.ToString().c_str());
  }
  const size_t records = file.GetStorageStats().record_count;
  if (records != oracle.size()) {
    report.Fail("%s: file holds %zu records, %zu were acknowledged", when,
                records, oracle.size());
  }
}

// --- Failure / recovery cycles -----------------------------------------------

/// Costs of crash + degraded reads + RecoverAll cycles.
struct RecoveryTally {
  uint64_t cycles = 0;
  uint64_t reads = 0;
  uint64_t read_failures = 0;
  Span measured;  ///< Degraded reads plus RecoverAll.
  double drain_s = 0;  ///< Network drains after the degraded reads.
  std::vector<double> read_us_per_op;  ///< Per cycle.
  std::vector<SimTime> read_latencies_us;
  std::vector<double> recover_wall_s;  ///< Per cycle.
  std::vector<double> recover_mb_per_s;  ///< Per cycle.
  double recover_sim_us = 0;
  double recover_msgs = 0;
  double repair_bytes = 0;
};

using Contents = std::vector<std::pair<Key, uint64_t>>;

Contents BucketContents(LhrsFile& file, BucketNo b) {
  Contents out;
  file.rs_bucket(b)->records().ForEachOrdered(
      [&](uint64_t key, const BufferView& value) {
        out.emplace_back(key, Fnv(value.span()));
      });
  return out;
}

/// One failure cycle on group `g`: crash the data buckets at `slots`, read
/// kDegradedReadsPerBucket of each one's records while they are down,
/// RecoverAll, and check the rebuilt buckets hold exactly their pre-crash
/// records.
void FailureCycle(LhrsFile& file, Tracer& tracer, Oracle& oracle,
                  Report& report, uint32_t g,
                  const std::vector<uint32_t>& slots, Rng& rng,
                  RecoveryTally& tally) {
  std::vector<BucketNo> victims;
  std::vector<Contents> before;
  std::vector<std::vector<Key>> reads(kSessions);
  size_t user_bytes = 0;
  size_t next = 0;
  for (uint32_t slot : slots) {
    const BucketNo b = g * kGroupSize + slot;
    victims.push_back(b);
    before.push_back(BucketContents(file, b));
    user_bytes += file.rs_bucket(b)->records().payload_bytes();
    const Contents& c = before.back();
    for (const auto& [key, hash] : c) {
      if (hash != oracle.Latest(key)) {
        report.Fail("bucket %u holds a stale value before the crash", b);
        break;
      }
    }
    if (c.empty()) continue;
    for (size_t i = 0; i < kDegradedReadsPerBucket; ++i) {
      reads[next++ % kSessions].push_back(c[rng.Uniform(c.size())].first);
    }
  }
  for (BucketNo b : victims) file.CrashDataBucket(b);

  std::vector<size_t> cursor(kSessions, 0);
  const OpSource source = [&](size_t s) -> std::optional<sdds::SddsOp> {
    if (cursor[s] == reads[s].size()) return std::nullopt;
    return sdds::SddsOp{OpType::kSearch, reads[s][cursor[s]++], {}};
  };
  const DriveResult dr = Drive(file, tracer, oracle, source, 0);
  const Span read = Between(dr.marks.front(), dr.marks.back());
  const double read_s = read.wall_s;
  tally.reads += dr.completed;
  tally.read_failures += dr.failed;
  tally.measured += read;
  tally.drain_s += dr.drain_s;
  tally.read_us_per_op.push_back(
      Ratio(read_s * 1e6, static_cast<double>(dr.completed)));
  tally.read_latencies_us.insert(tally.read_latencies_us.end(),
                                 dr.latencies_us.begin(),
                                 dr.latencies_us.end());

  const Snapshot s0 = Snap(file);
  tracer.Time(Layer::kLhrsRecover, 0, [&] { file.RecoverAll(); });
  const Stamp recovered = Mark(file.network());
  const Snapshot s1 = Snap(file);
  const Span recover = Between(s0.at, recovered);
  const double wall = recover.wall_s;
  ++tally.cycles;
  tally.recover_wall_s.push_back(wall);
  tally.measured += recover;
  tally.recover_mb_per_s.push_back(
      Ratio(static_cast<double>(user_bytes) / 1e6, wall));
  tally.recover_sim_us += static_cast<double>(s1.sim_us - s0.sim_us);
  tally.recover_msgs += static_cast<double>(s1.stats.total_messages() -
                                            s0.stats.total_messages());
  // The column dumps the coordinator reads to rebuild (what the library's
  // recovery.repair_bytes_moved counter adds up), from MessageStats so it
  // needs no telemetry and holds on every engine.
  tally.repair_bytes += static_cast<double>(
      s1.stats.ForKind(LhrsMsg::kColumnReadReply).bytes -
      s0.stats.ForKind(LhrsMsg::kColumnReadReply).bytes);

  for (size_t i = 0; i < victims.size(); ++i) {
    if (!file.network().available(
            file.context().allocation.Lookup(victims[i]))) {
      report.Fail("bucket %u still down after RecoverAll", victims[i]);
      continue;
    }
    if (BucketContents(file, victims[i]) != before[i]) {
      report.Fail("bucket %u rebuilt with different records", victims[i]);
    }
  }
}

/// Two distinct data slots of a group, drawn from `rng`.
std::vector<uint32_t> PickSlots(Rng& rng) {
  const uint32_t a = static_cast<uint32_t>(rng.Uniform(kGroupSize));
  const uint32_t b =
      (a + 1 + static_cast<uint32_t>(rng.Uniform(kGroupSize - 1))) %
      kGroupSize;
  return {a, b};
}

/// Recovery probe of the traced run of a workload without failures, after
/// its measured phase: kProbeGroups failure cycles on the final file, so
/// every per-layer metric has a value on every workload. Untraced runs
/// skip it, so it never touches the end-to-end metrics.
RecoveryTally RecoveryProbe(LhrsFile& file, Tracer& tracer, Oracle& oracle,
                            Report& report, uint64_t seed) {
  RecoveryTally tally;
  Rng rng(seed ^ 0x70726f6265ULL);
  const uint32_t full_groups =
      static_cast<uint32_t>(file.bucket_count() / kGroupSize);
  for (size_t i = 0; i < kProbeGroups && full_groups > 0; ++i) {
    const uint32_t g = static_cast<uint32_t>(rng.Uniform(full_groups));
    const std::vector<uint32_t> slots = PickSlots(rng);
    FailureCycle(file, tracer, oracle, report, g, slots, rng, tally);
  }
  if (tally.read_failures != 0) {
    report.Fail("%llu degraded reads of the recovery probe failed",
                static_cast<unsigned long long>(tally.read_failures));
  }
  return tally;
}

/// ops/s samples of a measured phase, per reference and per wall second.
struct Rates {
  std::vector<double> ref;   ///< ops_per_ref_s.
  std::vector<double> wall;  ///< Reported on stderr only.

  /// One sample: `ops` completed in `seconds`.
  static Rates Of(double ops, const Span& seconds) {
    return {{Ratio(ops, seconds.ref_s)}, {Ratio(ops, seconds.wall_s)}};
  }
  void Append(const Rates& other) {
    ref.insert(ref.end(), other.ref.begin(), other.ref.end());
    wall.insert(wall.end(), other.wall.begin(), other.wall.end());
  }
};

// --- Metrics shared by every workload ----------------------------------------

/// Everything measured across a run, reduced to metrics at the end.
struct RunData {
  /// Set-up samples; `gauged` ones measured the host's speed inside.
  struct Setup {
    Span span;
    bool gauged = false;
  };
  std::vector<Setup> setups;
  Rates untraced;                    ///< ops/s samples, spans off.
  std::vector<double> traced_rates;  ///< ops per ref second, spans on.
  // Simulated latency percentiles of each measured phase; the run reports
  // their medians, so one phase's stall on the locality engine does not
  // move the run's figure.
  std::vector<double> sim_p50_us;
  std::vector<double> sim_p99_us;
  std::vector<PhaseCounts> phases;     ///< Every measured phase.
  /// exec sim us/op of the phases run on one input, keyed by input stream:
  /// repeated inputs show the engine's run-to-run spread.
  std::map<uint64_t, std::vector<double>> sim_us_per_op_by_stream;
  std::vector<double> drain_s;
  // File shape at the end of each measured phase (means reported).
  std::vector<double> load_factor;
  std::vector<double> storage_overhead;
  std::vector<double> occupancy;  ///< Mean records per data bucket.
  size_t value_bytes = 0;
  std::vector<double> bulk_load_s;  ///< Set-up BulkLoad walls, if any.
  RecoveryTally recovery;
};

void RecordShape(LhrsFile& file, RunData& data) {
  const StorageStats st = file.GetStorageStats();
  data.load_factor.push_back(st.load_factor);
  data.storage_overhead.push_back(st.ParityOverhead());
  data.occupancy.push_back(Ratio(static_cast<double>(st.record_count),
                                 static_cast<double>(st.data_buckets)));
}

/// Seed-exact counts of one measured phase on input `stream`, compared
/// across the run's repetitions of that input.
void RecordPhase(Report& report, RunData& data, uint64_t stream,
                 const PhaseCounts& c, bool assert_equal) {
  data.phases.push_back(c);
  data.sim_us_per_op_by_stream[stream].push_back(Ratio(c.sim_us, c.ops));
  const std::string p = "phase" + std::to_string(stream);
  report.SeedExact(p + ".msgs", c.msgs, assert_equal);
  report.SeedExact(p + ".bytes", c.bytes, assert_equal);
  report.SeedExact(p + ".events", c.events, assert_equal);
  report.SeedExact(p + ".splits", c.splits, assert_equal);
  report.SeedExact(p + ".sim_us", c.sim_us, assert_equal);
  report.SeedExact(p + ".parity_msgs", c.parity_msgs, assert_equal);
}

/// Files one measured phase's timing samples: ops/s of the stretches run
/// with spans off (ops_per_ref_s) and on (the tracing overhead), its drain
/// time and the percentiles of its simulated latencies.
void RecordTiming(RunData& data, const Rates& untraced,
                  const std::vector<double>& traced, double drain_s,
                  const std::vector<SimTime>& latencies_us) {
  data.untraced.Append(untraced);
  data.traced_rates.insert(data.traced_rates.end(), traced.begin(),
                           traced.end());
  data.drain_s.push_back(drain_s);
  data.sim_p50_us.push_back(Percentile(latencies_us, 50));
  data.sim_p99_us.push_back(Percentile(latencies_us, 99));
}

/// Even-indexed samples, then odd-indexed ones: with --trace 1 the odd
/// chunks or rounds of a phase run with spans on.
std::pair<Rates, std::vector<double>> SplitAlternate(const Rates& samples,
                                                     bool trace) {
  if (!trace) return {samples, {}};
  std::pair<Rates, std::vector<double>> out;
  for (size_t i = 0; i < samples.ref.size(); ++i) {
    if (i % 2 == 1) {
      out.second.push_back(samples.ref[i]);
      continue;
    }
    out.first.ref.push_back(samples.ref[i]);
    out.first.wall.push_back(samples.wall[i]);
  }
  return out;
}

void EmitMetrics(const Args& args, size_t localities, Tracer& tracer,
                 RunData& data, Report& report) {
  // Traffic over all measured phases: total / total.
  auto per_op = [&](double PhaseCounts::*field) {
    double sum = 0;
    double ops = 0;
    for (const PhaseCounts& c : data.phases) {
      sum += c.*field;
      ops += c.ops;
    }
    return Ratio(sum, ops);
  };
  const RecoveryTally& rec = data.recovery;

  // Set-up and throughput are in reference seconds (calibrate.h); stderr
  // also gives them in wall seconds. Each chunk of a measured phase, and
  // each piece of a set-up that paused for readings, is scaled by the host
  // speed measured at its two ends. A set-up that is one library call has
  // readings only at its ends, just after a file was built or torn down,
  // which disturbs the allocator-heavy reference kernel: it is scaled by
  // the run's median speed instead.
  const std::vector<double>& speeds = SpeedReadings();
  const double speed = Median(speeds);
  std::vector<double> setup_ref, setup_wall;
  for (const RunData::Setup& s : data.setups) {
    setup_ref.push_back(s.gauged ? s.span.ref_s : s.span.cpu_s * speed);
    setup_wall.push_back(s.span.wall_s);
  }
  const Rates& rates = data.untraced;
  std::fprintf(stderr, "ops_per_ref_s samples (spans off):");
  for (double r : rates.ref) std::fprintf(stderr, " %.0f", r);
  std::fprintf(stderr,
               "\nclock  ops/s (median of %zu)  setup_s (median of %zu)\n"
               "ref    %.17g  %.17g\nwall   %.17g  %.17g\n",
               rates.ref.size(), data.setups.size(), Median(rates.ref),
               Median(setup_ref), Median(rates.wall), Median(setup_wall));
  std::fprintf(stderr, "host speed: median %.3f, %.3f .. %.3f over %zu runs "
               "of the reference kernel\n", speed,
               Percentile(speeds, 5), Percentile(speeds, 95), speeds.size());
  report.EndToEnd("setup_s", "s", Median(setup_ref));
  report.EndToEnd("ops_per_ref_s", "1/s", Median(rates.ref));
  report.EndToEnd("sim_p50_us", "sim_us", Median(data.sim_p50_us));
  report.EndToEnd("sim_p99_us", "sim_us", Median(data.sim_p99_us));
  report.EndToEnd("msgs_per_op", "msg/op", per_op(&PhaseCounts::msgs));
  report.EndToEnd("bytes_per_op", "B/op", per_op(&PhaseCounts::bytes));
  report.EndToEnd("storage_overhead", "ratio", Mean(data.storage_overhead));
  report.EndToEnd("peak_rss_mb", "MB", PeakRssMb());
  if (!args.trace) return;

  // File shape and recovery throughput: on insert_grow they are a chaotic
  // function of the seed (the split storm), too unsteady to gate, so they
  // are reported per layer.
  report.PerLayer("lhstar.load_factor", "ratio", Mean(data.load_factor));
  report.PerLayer("lhrs.recover_mb_per_s", "MB/s",
                  Median(rec.recover_mb_per_s));
  report.PerLayer("lhrs.recover_sim_ms", "sim_ms",
                  Ratio(rec.recover_sim_us / 1e3,
                        static_cast<double>(rec.cycles)));

  // Per-layer metrics: counts over the traced run's phases, self times
  // from its stretches with spans on.
  auto traced = [&](auto fn) {
    std::vector<double> v;
    for (const PhaseCounts& c : data.phases) v.push_back(fn(c));
    return Median(v);
  };
  auto mean_ns = [&](Layer layer) { return Mean(tracer.self_ns(layer)); };
  const double untraced = Median(rates.ref);
  report.PerLayer("trace.overhead_pct", "%",
                  Ratio(untraced - Median(data.traced_rates), untraced) * 100);
  report.PerLayer("net.events_per_op", "1/op",
                  traced([](const PhaseCounts& c) {
                    return Ratio(c.events, c.ops);
                  }));
  report.PerLayer("net.step_ns_p50", "ns",
                  Percentile(tracer.self_ns(Layer::kNetStep), 50));
  report.PerLayer("net.step_ns_p99", "ns",
                  Percentile(tracer.self_ns(Layer::kNetStep), 99));
  report.PerLayer("net.drain_s", "s", Median(data.drain_s));
  report.PerLayer("sdds.submit_ns", "ns", mean_ns(Layer::kSddsSubmit));
  report.PerLayer("workload.next_ns", "ns", mean_ns(Layer::kWorkloadNext));
  double bulk_s = Median(data.bulk_load_s);
  if (data.bulk_load_s.empty()) {
    // No set-up bulk load in this workload: replay one at its value size,
    // so the metric has a value here too.
    auto file = MakeFile(0);
    Rng rng(args.seed ^ 0x62756c6bULL);
    std::vector<WireRecord> records;
    for (size_t i = 0; i < kBulkReplayRecords; ++i) {
      records.push_back(
          WireRecord{rng.Next64(), 0, rng.RandomBytes(data.value_bytes)});
    }
    const Clock::time_point t0 = Clock::now();
    const auto load = workload::BulkLoad(
        *file, records, {kZipfBatch, kSessions, /*window=*/2});
    bulk_s = SecondsBetween(t0, Clock::now());
    if (load.applied != records.size()) {
      report.Fail("bulk-load replay lost records");
    }
  }
  report.PerLayer("workload.bulk_load_s", "s", bulk_s);
  report.PerLayer("lhstar.forwards_per_op", "1/op",
                  traced([](const PhaseCounts& c) {
                    return Ratio(c.op_requests - c.ops, c.ops);
                  }));
  report.PerLayer("lhstar.splits", "count",
                  traced([](const PhaseCounts& c) { return c.splits; }));
  report.PerLayer("lhstar.overflow_reports_per_split", "1/split",
                  traced([](const PhaseCounts& c) {
                    return Ratio(c.overflow_reports, c.splits);
                  }));
  report.PerLayer("lhstar.move_bytes_per_op", "B/op",
                  traced([](const PhaseCounts& c) {
                    return Ratio(c.move_bytes, c.ops);
                  }));
  report.PerLayer("lhrs.parity_msgs_per_op", "1/op",
                  traced([](const PhaseCounts& c) {
                    return Ratio(c.parity_msgs, c.ops);
                  }));
  // Telemetry counters: off on the locality engine (EnableCounters).
  if (localities == 0) {
    report.PerLayer("lhrs.deltas_applied_per_op", "1/op",
                    traced([](const PhaseCounts& c) {
                      return Ratio(c.deltas_applied, c.ops);
                    }));
    report.PerLayer("lhrs.deltas_buffered", "count",
                    traced([](const PhaseCounts& c) {
                      return c.deltas_buffered;
                    }));
  }
  const double cycles = static_cast<double>(rec.cycles);
  report.PerLayer("lhrs.recover_ms_per_cycle", "ms",
                  Median(rec.recover_wall_s) * 1e3);
  report.PerLayer("lhrs.repair_bytes_per_cycle", "B",
                  Ratio(rec.repair_bytes, cycles));
  report.PerLayer("lhrs.recovery_msgs_per_cycle", "1/cycle",
                  Ratio(rec.recover_msgs, cycles));
  report.PerLayer("lhrs.degraded_read_us", "us", Median(rec.read_us_per_op));

  const size_t occupancy =
      static_cast<size_t>(std::llround(std::max(1.0, Median(data.occupancy))));
  const StoreReplay store = ReplayStore(occupancy, data.value_bytes, args.seed);
  report.PerLayer("store.insert_ns", "ns", store.insert_ns);
  report.PerLayer("store.find_ns", "ns", store.find_ns);
  report.PerLayer("store.sorted_keys_us", "us", store.sorted_keys_us);
  const CodeReplay codes = ReplayCodes(data.value_bytes, args.seed);
  report.PerLayer("parity.apply_delta_ns", "ns", codes.apply_delta_ns);
  report.PerLayer("rs.decode_mb_per_s", "MB/s", codes.decode_mb_per_s);
  report.PerLayer("gf.muladd_gb_per_s", "GB/s", codes.muladd_gb_per_s);
  std::printf("kernel_isa: %s  (store replay at %zu records x %zu B)\n",
              codes.kernel_isa, occupancy, data.value_bytes);

  // The locality engine's layer: only insert_grow_l3 runs it, and that
  // workload is not gated (README.md, "Known defects", item 3).
  if (localities == 0) return;
  report.PerLayer("exec.cpu_util", "ratio",
                  traced([](const PhaseCounts& c) {
                    return Ratio(c.cpu_s, c.wall_s * kCpus);
                  }));
  report.PerLayer("exec.cpu_s_per_op", "s/op",
                  traced([](const PhaseCounts& c) {
                    return Ratio(c.cpu_s, c.ops);
                  }));
  report.PerLayer("exec.sim_us_per_op", "sim_us",
                  per_op(&PhaseCounts::sim_us));
  // Largest relative range of sim us/op among phases that ran one input:
  // the engine's run-to-run drift.
  double spread = 0;
  for (const auto& [stream, v] : data.sim_us_per_op_by_stream) {
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    spread = std::max(spread, Ratio(*hi - *lo, Median(v)) * 100);
  }
  report.PerLayer("exec.sim_spread_pct", "%", spread);
}

// --- Workloads ---------------------------------------------------------------

uint64_t RepsFor(double seconds, double per_second) {
  return std::max<uint64_t>(
      2, static_cast<uint64_t>(std::llround(seconds * per_second)));
}

/// Seed of a run's input stream `stream`; stream 0 is the run's seed.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return stream == 0
             ? seed
             : workload::WorkloadGenerator::SessionSeed(seed, 1000 + stream);
}

/// insert_grow / insert_grow_l3: per-record inserts of 64-B values into an
/// empty file, repeated on fresh files. Each repetition grows from its own
/// input stream (stream 0 is the run's seed), so the figures average over
/// several file shapes. With --trace 1 repetitions come in pairs on one
/// stream, untraced then traced: the pair gives the tracing overhead on
/// identical input and the engine's run-to-run spread.
void InsertGrow(const Args& args, size_t localities, Tracer& tracer,
                RunData& data, Report& report) {
  workload::GeneratorOptions gen_opts;
  gen_opts.sessions = kSessions;
  gen_opts.ops_per_session = kGrowRecords / kSessions;
  gen_opts.keyspace = 1;  // No preload: every op is a fresh insert.
  gen_opts.value_bytes = kSmallValue;
  gen_opts.search_fraction = 0;
  gen_opts.rmw_fraction = 0;
  gen_opts.insert_fraction = 1;
  data.value_bytes = kSmallValue;
  const bool deterministic = localities == 0;
  uint64_t reps = RepsFor(
      args.seconds, deterministic ? kGrowRepsPerSecond : kGrowL3RepsPerSecond);
  if (args.trace) reps += reps % 2;

  // Set-up here is constructing the empty file, a few microseconds, so
  // one set-up sample is the mean over a batch of files built back to back
  // (on the locality engine, where each file owns worker threads, a batch
  // of one). Samples are taken before every repetition, so their median
  // spans the run as ops_per_ref_s does.
  const size_t batch_size = localities == 0 ? kEmptySetupBatch : 1;
  for (uint64_t rep = 0; rep < reps; ++rep) {
    const bool traced = args.trace && rep % 2 == 1;
    const uint64_t stream = args.trace ? rep / 2 : rep;
    gen_opts.seed = StreamSeed(args.seed, stream);
    std::unique_ptr<LhrsFile> file;
    for (int i = 0; i < kEmptySetupSamples; ++i) {
      std::vector<std::unique_ptr<LhrsFile>> batch;
      const Stamp t0 = Now();
      for (size_t j = 0; j < batch_size; ++j) {
        batch.push_back(MakeFile(localities));
      }
      const Span setup = Between(t0, Now());
      const double n = static_cast<double>(batch_size);
      data.setups.push_back(
          {{setup.wall_s / n, setup.cpu_s / n, setup.ref_s / n}, false});
      file = std::move(batch.back());
    }
    if (args.trace) EnableCounters(*file);

    workload::WorkloadGenerator gen(gen_opts);
    Oracle oracle(report);
    tracer.set_enabled(traced);
    const Snapshot before = Snap(*file);
    const DriveResult dr = tracer.Time(Layer::kPhase, rep, [&] {
      return Drive(*file, tracer, oracle,
                   [&](size_t s) { return gen.Next(s); },
                   kGrowRecords / kGrowChunks);
    });
    const Snapshot after = Snap(*file);
    tracer.set_enabled(false);

    report.CountOps(dr.submitted, dr.failed);
    const PhaseCounts c = Diff(before, after, dr.completed);
    const Rates rate = Rates::Of(c.ops, MarkTotal(dr.marks));
    RecordTiming(data, traced ? Rates{} : rate,
                 traced ? rate.ref : std::vector<double>{}, dr.drain_s,
                 dr.latencies_us);
    RecordPhase(report, data, stream, c, deterministic);
    report.SeedExact("phase" + std::to_string(stream) + ".latency_sum_us",
                     static_cast<double>(std::accumulate(
                         dr.latencies_us.begin(), dr.latencies_us.end(),
                         SimTime{0})),
                     deterministic);
    CheckFile(*file, oracle, report, "after growth");
    RecordShape(*file, data);
    if (args.trace && rep + 1 == reps) {
      data.recovery = RecoveryProbe(*file, tracer, oracle, report, args.seed);
      CheckFile(*file, oracle, report, "after recovery probe");
    }
  }
}

/// Keys and values of a preload, drawn from the seed (input generation is
/// not part of set-up time).
std::vector<WireRecord> PreloadRecords(const std::vector<Key>& keys,
                                       size_t value_bytes, uint64_t seed) {
  Rng rng(seed);
  std::vector<WireRecord> records;
  records.reserve(keys.size());
  for (Key k : keys) {
    records.push_back(WireRecord{k, 0, rng.RandomBytes(value_bytes)});
  }
  return records;
}

/// Set-up of a preloaded workload: constructs a file and runs `load` on
/// it, timed as one set-up sample. `load` may add marks (GaugeNow) where
/// it can pause. Every set-up of input `stream` in a run must end in the
/// same file. `oracle` gets `records` and the loaded file is checked
/// against it.
using Load = std::function<void(LhrsFile&, std::vector<Stamp>& marks)>;

std::unique_ptr<LhrsFile> TimedSetup(const std::vector<WireRecord>& records,
                                     const Load& load, uint64_t stream,
                                     RunData& data, Report& report,
                                     Oracle& oracle) {
  std::vector<Stamp> marks = {GaugeNow()};
  std::unique_ptr<LhrsFile> file = MakeFile(0);
  load(*file, marks);
  marks.push_back(GaugeNow());
  data.setups.push_back({MarkTotal(marks), marks.size() > 2});
  const std::string p = "setup" + std::to_string(stream);
  report.SeedExact(p + ".buckets", static_cast<double>(file->bucket_count()),
                   true);
  report.SeedExact(
      p + ".msgs",
      static_cast<double>(file->network().stats().total_messages()), true);
  for (const WireRecord& r : records) oracle.Preload(r.key, r.value.span());
  CheckFile(*file, oracle, report, "after set-up");
  return file;
}

/// zipf_mixed: repetitions of a batched BulkLoad set-up followed by a
/// Zipfian 70/20/10 search/RMW/insert stream on that file. Each repetition
/// draws its preload and stream from its own input stream (stream 0 is the
/// run's seed): throughput depends on the input by several percent, so
/// the run's median spans several inputs. With --trace 1 the stream's
/// chunks alternate spans off / on.
void ZipfMixed(const Args& args, Tracer& tracer, RunData& data,
               Report& report) {
  workload::GeneratorOptions gen_opts;
  gen_opts.sessions = kSessions;
  gen_opts.ops_per_session = kZipfOps / kSessions;
  gen_opts.keyspace = kZipfPreload;
  gen_opts.value_bytes = kSmallValue;
  gen_opts.dist = workload::GeneratorOptions::KeyDist::kZipfian;
  data.value_bytes = kSmallValue;
  std::vector<WireRecord> records;
  const uint64_t mark_every = std::max<uint64_t>(1, kZipfOps / kZipfChunks);
  const uint64_t reps = RepsFor(args.seconds, kZipfRepsPerSecond);
  const auto load = [&](LhrsFile& f, std::vector<Stamp>&) {
    const Clock::time_point t0 = Clock::now();
    const workload::BulkLoadReport loaded = workload::BulkLoad(
        f, records, {kZipfBatch, kSessions, /*window=*/2});
    data.bulk_load_s.push_back(SecondsBetween(t0, Clock::now()));
    if (loaded.applied != records.size() || loaded.failed != 0) {
      report.Fail("bulk load applied %llu of %zu records",
                  static_cast<unsigned long long>(loaded.applied),
                  records.size());
    }
  };

  std::unique_ptr<LhrsFile> file;
  for (uint64_t rep = 0; rep < reps; ++rep) {
    gen_opts.seed = StreamSeed(args.seed, rep);
    records = PreloadRecords(
        workload::WorkloadGenerator(gen_opts).preload_keys(), kSmallValue,
        gen_opts.seed ^ 0x7a697066ULL);
    file.reset();
    Oracle oracle(report);
    file = TimedSetup(records, load, rep, data, report, oracle);
    if (args.trace) EnableCounters(*file);

    workload::WorkloadGenerator gen(gen_opts);
    const Snapshot before = Snap(*file);
    const DriveResult dr = Drive(
        *file, tracer, oracle, [&](size_t s) { return gen.Next(s); },
        mark_every,
        [&](size_t chunk) { tracer.set_enabled(args.trace && chunk % 2); });
    tracer.set_enabled(false);
    const Snapshot after = Snap(*file);

    report.CountOps(dr.submitted, dr.failed);
    const Rates chunks = {
        MarkRates(dr.marks, dr.completed, mark_every, &Span::ref_s),
        MarkRates(dr.marks, dr.completed, mark_every, &Span::wall_s)};
    const auto [untraced, traced] = SplitAlternate(chunks, args.trace);
    RecordTiming(data, untraced, traced, dr.drain_s, dr.latencies_us);
    RecordPhase(report, data, rep, Diff(before, after, dr.completed), true);
    CheckFile(*file, oracle, report, "after zipf stream");
    RecordShape(*file, data);
    if (args.trace && rep + 1 == reps) {
      data.recovery = RecoveryProbe(*file, tracer, oracle, report, args.seed);
      CheckFile(*file, oracle, report, "after recovery probe");
    }
  }
}

/// fail_recover: closed-loop per-record preload of 1-KiB values, then
/// rounds of rolling failure over every group: crash two data buckets,
/// degraded searches, RecoverAll, check the rebuild. With --trace 1 the
/// rounds alternate spans off / on.
void FailRecover(const Args& args, Tracer& tracer, RunData& data,
                 Report& report) {
  data.value_bytes = kLargeValue;
  Rng key_rng(args.seed ^ 0x6661696cULL);
  std::vector<Key> keys;
  {
    std::unordered_map<Key, bool> seen;
    while (keys.size() < kRecoverPreload) {
      const Key k = key_rng.Next64();
      if (seen.emplace(k, true).second) keys.push_back(k);
    }
  }
  const std::vector<WireRecord> records =
      PreloadRecords(keys, kLargeValue, args.seed ^ 0x76616cULL);
  const uint64_t rounds = RepsFor(args.seconds, kRecoverRoundsPerSecond);

  const auto load = [&](LhrsFile& f, std::vector<Stamp>& marks) {
    uint64_t failures = 0;
    for (size_t i = 0; i < records.size(); ++i) {
      const WireRecord& r = records[i];
      const Status st = f.Insert(r.key, Bytes(r.value.begin(), r.value.end()));
      failures += !st.ok();
      if ((i + 1) % kSetupMarkEvery == 0) marks.push_back(GaugeNow());
    }
    if (failures != 0) {
      report.Fail("%llu preload inserts failed",
                  static_cast<unsigned long long>(failures));
    }
  };
  // kSetupRepeats set-ups, one file alive at a time; the last one is used.
  std::unique_ptr<LhrsFile> file;
  std::unique_ptr<Oracle> oracle;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    file.reset();
    oracle = std::make_unique<Oracle>(report);
    file = TimedSetup(records, load, 0, data, report, *oracle);
  }
  RecordShape(*file, data);
  if (args.trace) EnableCounters(*file);

  const uint32_t groups =
      static_cast<uint32_t>(file->bucket_count() / kGroupSize);
  Rng slot_rng(args.seed ^ 0x736c6f74ULL);
  std::vector<std::vector<uint32_t>> slots;
  for (uint32_t g = 0; g < groups; ++g) slots.push_back(PickSlots(slot_rng));
  Rng read_rng(args.seed ^ 0x72656164ULL);

  RecoveryTally tally;
  const Snapshot before = Snap(*file);
  // The measured phase is the degraded reads plus RecoverAll; the
  // benchmark's own content checks are not part of it.
  Rates round_rates;
  for (uint64_t round = 0; round < rounds; ++round) {
    tracer.set_enabled(args.trace && round % 2);
    tracer.Time(Layer::kPhase, round, [&] {
      const uint64_t reads0 = tally.reads;
      const Span t0 = tally.measured;
      for (uint32_t g = 0; g < groups; ++g) {
        FailureCycle(*file, tracer, *oracle, report, g, slots[g], read_rng,
                     tally);
      }
      round_rates.Append(Rates::Of(static_cast<double>(tally.reads - reads0),
                                   tally.measured - t0));
    });
  }
  tracer.set_enabled(false);
  const Snapshot after = Snap(*file);

  report.CountOps(tally.reads, tally.read_failures);
  if (tally.read_failures != 0) {
    report.Fail("%llu degraded reads failed",
                static_cast<unsigned long long>(tally.read_failures));
  }
  const auto [untraced, traced] = SplitAlternate(round_rates, args.trace);
  RecordTiming(data, untraced, traced, tally.drain_s,
               tally.read_latencies_us);
  RecordPhase(report, data, 0, Diff(before, after, tally.reads), true);
  report.SeedExact("phase0.recover_sim_us", tally.recover_sim_us, true);
  CheckFile(*file, *oracle, report, "after failure rounds");
  data.recovery = std::move(tally);
}

int Run(const Args& args) {
  Tracer tracer;
  Report report(args.trace);
  RunData data;
  // insert_grow_l3 runs on the locality engine: 3 worker localities plus
  // the driving thread.
  const size_t localities = args.workload == "insert_grow_l3" ? 3 : 0;
  if (args.workload == "insert_grow" || args.workload == "insert_grow_l3") {
    InsertGrow(args, localities, tracer, data, report);
  } else if (args.workload == "zipf_mixed") {
    ZipfMixed(args, tracer, data, report);
  } else if (args.workload == "fail_recover") {
    FailRecover(args, tracer, data, report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  EmitMetrics(args, localities, tracer, data, report);
  if (args.trace && !args.trace_out.empty()) {
    if (!tracer.WriteChromeTrace(args.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %s\n", args.trace_out.c_str());
  }
  report.Print(args.workload);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::string(value) == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace lhrs::perfbench

int main(int argc, char** argv) {
  lhrs::perfbench::Args args;
  if (!lhrs::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  return lhrs::perfbench::Run(args);
}
