#ifndef LHRS_RS_DECODE_PLAN_H_
#define LHRS_RS_DECODE_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gf/gf.h"

namespace lhrs {

/// Decode coefficients for one ordered list of available codeword column
/// identities. Which columns are in hand fixes the linear combination
/// that yields each wanted data column; the payload bytes never do. So a
/// plan is solved once (one matrix inverse or one elimination) and then
/// applied to every record group that has the same columns in hand:
///
///   wanted[w] = sum over t of coeff(w, t) * available[sources[t]]
///
/// Sources are positions in the caller's available list; every source
/// feeds at least one wanted column with a non-zero coefficient.
struct DecodePlan {
  std::vector<uint32_t> wanted;   ///< Data columns, in request order.
  std::vector<uint32_t> sources;  ///< Positions in the available list.
  /// wanted.size() x sources.size() coefficients, row-major; field
  /// symbols widened to 16 bits.
  std::vector<uint16_t> coeffs;

  const uint16_t* row(size_t w) const {
    return coeffs.data() + w * sources.size();
  }
};

/// Keeps the sources with a non-zero coefficient in some row of the dense
/// `rows` (wanted.size() x positions.size(), row-major) and stores them in
/// `plan`.
inline void CompactDecodePlan(const std::vector<uint32_t>& positions,
                              const std::vector<uint16_t>& rows,
                              DecodePlan* plan) {
  const size_t width = positions.size();
  const size_t wanted = plan->wanted.size();
  std::vector<size_t> keep;
  for (size_t t = 0; t < width; ++t) {
    for (size_t w = 0; w < wanted; ++w) {
      if (rows[w * width + t] != 0) {
        keep.push_back(t);
        break;
      }
    }
  }
  plan->sources.clear();
  plan->coeffs.assign(wanted * keep.size(), 0);
  for (size_t s = 0; s < keep.size(); ++s) {
    plan->sources.push_back(positions[keep[s]]);
    for (size_t w = 0; w < wanted; ++w) {
      plan->coeffs[w * keep.size() + s] = rows[w * width + keep[s]];
    }
  }
}

/// dst[0, len) ^= wanted column `w` of `plan`. `srcs[t]` holds `len`
/// bytes of source t, or is nullptr for a known-zero column. One fused
/// row pass per batch of sources; no allocation.
template <GaloisField F>
void ApplyDecodePlan(const DecodePlan& plan, size_t w,
                     const uint8_t* const* srcs, size_t len, uint8_t* dst) {
  using Symbol = typename F::Symbol;
  if (len == 0) return;
  constexpr size_t kBatch = 16;  // The SIMD row kernels' table batch.
  const uint8_t* batch_srcs[kBatch];
  Symbol batch_coeffs[kBatch];
  size_t used = 0;
  const uint16_t* row = plan.row(w);
  for (size_t t = 0; t < plan.sources.size(); ++t) {
    if (srcs[t] == nullptr || row[t] == 0) continue;
    batch_srcs[used] = srcs[t];
    batch_coeffs[used] = static_cast<Symbol>(row[t]);
    if (++used == kBatch) {
      F::MulAddRow(dst, batch_srcs, batch_coeffs, used, len);
      used = 0;
    }
  }
  if (used != 0) F::MulAddRow(dst, batch_srcs, batch_coeffs, used, len);
}

}  // namespace lhrs

#endif  // LHRS_RS_DECODE_PLAN_H_
