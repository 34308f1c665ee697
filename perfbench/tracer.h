#ifndef LHRS_PERFBENCH_TRACER_H_
#define LHRS_PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace lhrs::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The layer boundaries the benchmark times: each is one call from the
/// benchmark into a module's public function.
enum class Layer : uint8_t {
  kPhase,          ///< One measured repetition (root span).
  kWorkloadNext,   ///< workload::WorkloadGenerator::Next (or the op source).
  kSddsSubmit,     ///< sdds::SessionPool::Submit.
  kNetStep,        ///< Network::Step, driven by the benchmark.
  kNetDrain,       ///< Network::RunUntilIdle after the last reply.
  kLhrsRecover,    ///< LhrsFile::RecoverAll.
  kCount,
};

const char* LayerName(Layer layer);

/// In-memory span recorder of the traced run. Disabled, Time() costs one
/// branch. Enabled, every call records its self time (duration minus the
/// time its nested spans took) per layer, and the first kMaxSpans spans
/// (name, start, end, parent, op id) are kept for the trace file written
/// when the benchmark ends.
class Tracer {
 public:
  static constexpr size_t kMaxSpans = 1 << 18;

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Runs `fn`, timing it as a span of `layer` when enabled. `op` ties the
  /// spans of one request together (0: not request-scoped).
  template <typename Fn>
  decltype(auto) Time(Layer layer, uint64_t op, Fn&& fn) {
    if (!enabled_) return fn();
    Frame frame(*this, layer, op);
    return fn();
  }

  /// Self-time samples (ns) of every span recorded for `layer`.
  const std::vector<uint32_t>& self_ns(Layer layer) const {
    return self_ns_[static_cast<size_t>(layer)];
  }

  /// Writes the kept spans as a Chrome trace ("X" events; args carry the
  /// span id, its parent and the op id). Returns false on an I/O error.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    int64_t start_ns;
    int64_t end_ns;
    uint64_t op;
    uint32_t id;
    uint32_t parent;  ///< 0: root.
    Layer layer;
  };
  struct Open {
    uint32_t id;
    int64_t child_ns;  ///< Time covered by nested spans so far.
  };

  class Frame {
   public:
    Frame(Tracer& tracer, Layer layer, uint64_t op);
    ~Frame();
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    Tracer& tracer_;
    Layer layer_;
    uint64_t op_;
    uint32_t id_;
    uint32_t parent_;
    int64_t start_ns_;
  };

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  uint32_t next_id_ = 1;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::vector<uint32_t> self_ns_[static_cast<size_t>(Layer::kCount)];
};

}  // namespace lhrs::perfbench

#endif  // LHRS_PERFBENCH_TRACER_H_
