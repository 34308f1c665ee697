#ifndef LHRS_PERFBENCH_REPLAY_H_
#define LHRS_PERFBENCH_REPLAY_H_

#include <cstddef>
#include <cstdint>

namespace lhrs::perfbench {

/// BucketStore replayed through its public API at one bucket's occupancy
/// and value size.
struct StoreReplay {
  double insert_ns = 0;      ///< Per Insert, filling an empty store.
  double find_ns = 0;        ///< Per Find of a resident key.
  double sorted_keys_us = 0; ///< Per SortedKeys call.
};
StoreReplay ReplayStore(size_t occupancy, size_t value_bytes, uint64_t seed);

/// The parity code (RS, m=4, k=2, GF(2^8)) and GF kernel layer replayed at
/// one value size.
struct CodeReplay {
  double apply_delta_ns = 0;    ///< ParityCode::ApplyDelta per delta.
  double decode_mb_per_s = 0;   ///< Rebuilt bytes/s, two data columns lost.
  double muladd_gb_per_s = 0;   ///< ActiveKernels().mul_add_8 throughput.
  const char* kernel_isa = "";  ///< Name of the active kernel tier.
};
CodeReplay ReplayCodes(size_t value_bytes, uint64_t seed);

}  // namespace lhrs::perfbench

#endif  // LHRS_PERFBENCH_REPLAY_H_
