#ifndef LHRS_RS_DECODE_PLAN_H_
#define LHRS_RS_DECODE_PLAN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/bytes.h"
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

/// One-shot use of a plan: solves every wanted column from the available
/// payloads (the list the plan was built for; `Payload` is Bytes or
/// BufferView), each padded to the longest source rounded up to whole
/// `symbol_bytes`. Empty payloads are known-zero columns; short ones are
/// zero-padded once. `apply` computes one row: apply(plan, w, srcs, len,
/// dst).
template <typename Payload, typename ApplyRow>
std::vector<Bytes> DecodeWithPlan(
    const DecodePlan& plan,
    const std::vector<std::pair<size_t, Payload>>& available,
    size_t symbol_bytes, ApplyRow&& apply) {
  size_t len = 0;
  for (uint32_t pos : plan.sources) {
    len = std::max(len, available[pos].second.size());
  }
  len = (len + symbol_bytes - 1) / symbol_bytes * symbol_bytes;
  std::vector<Bytes> padded_storage;
  std::vector<const uint8_t*> srcs(plan.sources.size(), nullptr);
  for (size_t t = 0; t < plan.sources.size(); ++t) {
    const Payload& p = available[plan.sources[t]].second;
    if (p.empty()) continue;
    if (p.size() == len) {
      srcs[t] = p.data();
    } else {
      padded_storage.push_back(PadTo(p, len));
      srcs[t] = padded_storage.back().data();
    }
  }
  std::vector<Bytes> out;
  out.reserve(plan.wanted.size());
  for (size_t w = 0; w < plan.wanted.size(); ++w) {
    Bytes rec(len, 0);
    apply(plan, w, srcs.data(), len, rec.data());
    out.push_back(std::move(rec));
  }
  return out;
}

/// The column identities of an available list, for PlanDecode.
template <typename Payload>
std::vector<uint32_t> ColumnsOf(
    const std::vector<std::pair<size_t, Payload>>& available) {
  std::vector<uint32_t> columns;
  columns.reserve(available.size());
  for (const auto& entry : available) {
    columns.push_back(static_cast<uint32_t>(entry.first));
  }
  return columns;
}

}  // namespace lhrs

#endif  // LHRS_RS_DECODE_PLAN_H_
