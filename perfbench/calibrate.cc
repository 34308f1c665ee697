#include "calibrate.h"

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace lhrs::perfbench {
namespace {

/// CPU seconds of one kernel run on the reference core: roughly what a
/// 4-core Intel Xeon VM at 2.0 GHz took when it ran fast. It only sets the
/// scale of reference seconds.
constexpr double kReferenceKernelSeconds = 0.6e-3;
constexpr int kTimedRuns = 3;

// Kernel runs so far, left out of Now()'s clocks.
Clock::duration kernel_wall{};
double kernel_cpu_s = 0;
double last_speed = 1;
std::vector<double> speeds;

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

/// The reference kernel: the same fixed work on every call, about 0.6 ms
/// on the reference core. It is shaped like the benchmark's own hot paths,
/// because those slow down with the host more than tight loops do: an
/// ordered map grown one heap node at a time and walked, then a small event
/// loop (a time-ordered queue of events, each appending a 64-B message to
/// the buffer of a node found by hash). It allocates from the process heap
/// as the program does; a version on a private arena tracked the host
/// worse (README.md). Returns a checksum of its results.
uint64_t ReferenceKernel() {
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  uint64_t sum = 0;

  std::map<uint64_t, uint64_t> tree;
  for (uint64_t i = 0; i < 1000; ++i) tree[next()] = i;
  for (const auto& [key, value] : tree) sum += key ^ value;

  using Event = std::pair<uint64_t, uint32_t>;  // (time, node)
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::unordered_map<uint32_t, std::vector<uint8_t>> nodes;
  const std::vector<uint8_t> message(64, 0x5a);
  for (uint32_t n = 0; n < 128; ++n) events.emplace(next() & 0xfff, n);
  for (int i = 0; i < 1500; ++i) {
    const Event e = events.top();
    events.pop();
    std::vector<uint8_t>& buffer = nodes[(e.second * 2654435761u) & 0x3ff];
    buffer.insert(buffer.end(), message.begin(), message.end());
    if (buffer.size() > 1024) buffer.clear();
    sum += buffer.size();
    events.emplace(e.first + (next() & 0xff), static_cast<uint32_t>(next()));
  }
  return sum + nodes.size();
}

}  // namespace

Stamp Now() {
  return {Clock::now() - kernel_wall, ProcessCpuSeconds() - kernel_cpu_s,
          last_speed};
}

Stamp GaugeNow() {
  static std::optional<uint64_t> expected;
  const Clock::time_point wall0 = Clock::now();
  const double cpu0 = ProcessCpuSeconds();
  // One untimed run to warm the caches and the allocator after the
  // measured work, then the mean of kTimedRuns runs. Every run must give
  // the first run's checksum.
  const uint64_t warm = ReferenceKernel();
  if (!expected.has_value()) expected = warm;
  LHRS_CHECK_EQ(warm, *expected);
  const double start = ProcessCpuSeconds();
  for (int i = 0; i < kTimedRuns; ++i) {
    LHRS_CHECK_EQ(ReferenceKernel(), *expected);
  }
  const double mean = (ProcessCpuSeconds() - start) / kTimedRuns;
  kernel_cpu_s += ProcessCpuSeconds() - cpu0;
  kernel_wall += Clock::now() - wall0;
  if (mean > 0) last_speed = kReferenceKernelSeconds / mean;
  speeds.push_back(last_speed);
  return Now();
}

const std::vector<double>& SpeedReadings() { return speeds; }

Span Between(const Stamp& a, const Stamp& b) {
  const double cpu_s = b.cpu_s - a.cpu_s;
  return {SecondsBetween(a.wall, b.wall), cpu_s,
          cpu_s * (a.speed + b.speed) / 2};
}

}  // namespace lhrs::perfbench
