#ifndef LHRS_TELEMETRY_METRICS_H_
#define LHRS_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace lhrs::telemetry {

/// Monotone event counter. Emission is safe from any thread (relaxed
/// atomics): counters are the one metric kind that multiple localities of
/// the parallel engine may legitimately share (chaos fault tallies,
/// protocol counters), and a plain increment would be a data race there.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter& other) : value_(other.value()) {}
  Counter& operator=(const Counter& other) {
    value_.store(other.value(), std::memory_order_relaxed);
    return *this;
  }

  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (e.g. nodes currently down).
/// Thread-safe like Counter; Add is atomic so +1/-1 pairs from different
/// localities never lose updates.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge& other) : value_(other.value()) {}
  Gauge& operator=(const Gauge& other) {
    value_.store(other.value(), std::memory_order_relaxed);
    return *this;
  }

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log-bucketed histogram of non-negative integer samples (latencies in
/// simulated microseconds, message sizes, ...).
///
/// Bucket layout: values below 2^kSubBits get one exact bucket each; above
/// that, every power-of-two octave is split into 2^kSubBits sub-buckets, so
/// the relative quantization error is bounded by 1/2^kSubBits (12.5%).
/// Recording is O(1) and allocation-free once the covering bucket exists
/// (the bucket vector only ever grows, to at most ~500 entries for the full
/// uint64 range).
class Histogram {
 public:
  static constexpr uint32_t kSubBits = 3;
  static constexpr uint64_t kSub = 1u << kSubBits;  // Sub-buckets per octave.

  void Record(uint64_t value);

  /// Folds another histogram into this one (same fixed bucket layout).
  void Merge(const Histogram& other);

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  /// Smallest / largest recorded sample (exact, not bucketized). 0 if empty.
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_;
  }

  /// Value at percentile `p` in [0, 100]: the inclusive upper bound of the
  /// bucket containing the ceil(p/100 * count)-th smallest sample, clamped
  /// to [min(), max()] so exact extremes are preserved. 0 if empty.
  uint64_t Percentile(double p) const;
  uint64_t p50() const { return Percentile(50); }
  uint64_t p95() const { return Percentile(95); }
  uint64_t p99() const { return Percentile(99); }

  /// Bucket index covering `value` (exposed for the boundary tests).
  static size_t BucketIndex(uint64_t value);
  /// Inclusive [lower, upper] value range of bucket `index`.
  static uint64_t BucketLowerBound(size_t index);
  static uint64_t BucketUpperBound(size_t index);

  /// Per-bucket counts, trailing zero buckets trimmed.
  const std::vector<uint64_t>& buckets() const { return buckets_; }

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = ~uint64_t{0};
  uint64_t max_ = 0;
};

/// Central, name-keyed home of every metric. Names are free-form; the
/// "base{label=value,...}" convention (see Labeled) keeps families of
/// related series (per node role, per message kind) groupable while the
/// registry itself stays a flat, deterministically ordered map.
/// Lookup/creation is mutex-protected so metrics may be resolved from any
/// locality thread; the std::map storage keeps returned references stable,
/// so the hot path (bumping an already-resolved Counter) never takes the
/// lock. Histograms are NOT internally synchronized — a histogram must be
/// recorded to from one thread at a time (the parallel engine gives each
/// locality its own shard registry and merges at report time, see
/// Telemetry::MergeShards).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. References stay valid for the registry's lifetime.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  /// Lookup without creation (nullptr when absent).
  const Counter* FindCounter(std::string_view name) const;
  const Gauge* FindGauge(std::string_view name) const;
  const Histogram* FindHistogram(std::string_view name) const;

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// Zeroes every series in place. The series stay registered, so handles
  /// resolved earlier (cached Counter* or Histogram*) remain valid.
  void Reset();

  /// Folds every series of `other` into this registry: counter and gauge
  /// values add, histograms merge bucket-wise. Used to collapse per-locality
  /// shards into the published registry at report time.
  void MergeFrom(const MetricsRegistry& other);

  /// {"counters":{...},"gauges":{...},"histograms":{...}} with all keys in
  /// lexicographic order; histograms export count/sum/min/max/mean and the
  /// p50/p95/p99 accessors. Byte-identical across identical runs.
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

/// "base{key=value}" / "base{k1=v1,k2=v2}" series-name builders.
std::string Labeled(std::string_view base, std::string_view key,
                    std::string_view value);
std::string Labeled(std::string_view base, std::string_view key,
                    int64_t value);
std::string Labeled(std::string_view base, std::string_view k1,
                    std::string_view v1, std::string_view k2,
                    std::string_view v2);

}  // namespace lhrs::telemetry

#endif  // LHRS_TELEMETRY_METRICS_H_
