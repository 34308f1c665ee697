#ifndef LHRS_PERFBENCH_CALIBRATE_H_
#define LHRS_PERFBENCH_CALIBRATE_H_

// The benchmark's clock. On a shared host the benchmark's one thread runs
// at speeds that differ by up to 1.6x from minute to minute, and even
// within a run, while process CPU time stays equal to wall time: another
// tenant's load slows the core itself. So the benchmark measures the
// host's speed as it goes, with a fixed reference kernel that uses no
// LH*RS code (an ordered map and a small event loop over heap-allocated
// buffers), and reports times in reference seconds: process CPU seconds
// scaled by the measured speed. A change to the program moves reference
// seconds as it moves CPU seconds; a change in the host's speed moves the
// kernel too and largely cancels out. README.md gives the measurements.

#include <vector>

#include "tracer.h"

namespace lhrs::perfbench {

/// A point in time: wall clock and process CPU time, both leaving out the
/// reference kernel's own runs, and the host speed last measured (1.0 =
/// the reference core, kReferenceKernelSeconds per kernel run).
struct Stamp {
  Clock::time_point wall;
  double cpu_s = 0;
  double speed = 1;
};

/// Time between two stamps.
struct Span {
  double wall_s = 0;
  double cpu_s = 0;
  double ref_s = 0;  ///< cpu_s times the mean speed at the two ends.

  Span& operator+=(const Span& o) {
    wall_s += o.wall_s;
    cpu_s += o.cpu_s;
    ref_s += o.ref_s;
    return *this;
  }
  Span operator-(const Span& o) const {
    return {wall_s - o.wall_s, cpu_s - o.cpu_s, ref_s - o.ref_s};
  }
};

/// Reads the clocks; the speed is the last one measured.
Stamp Now();

/// Runs the reference kernel once to measure the host's speed, then reads
/// the clocks. Call it where the measured work pauses: the kernel's own
/// time is left out of every clock.
Stamp GaugeNow();

Span Between(const Stamp& a, const Stamp& b);

/// Every speed GaugeNow has measured, in order.
const std::vector<double>& SpeedReadings();

}  // namespace lhrs::perfbench

#endif  // LHRS_PERFBENCH_CALIBRATE_H_
