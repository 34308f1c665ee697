#include "replay.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "gf/gf256.h"
#include "gf/kernels.h"
#include "parity/parity_code.h"
#include "store/bucket_store.h"
#include "tracer.h"

namespace lhrs::perfbench {
namespace {

constexpr int kTrials = 7;
/// Calls per trial: enough that one trial lasts well over a millisecond.
constexpr size_t kCallsPerTrial = 20000;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Median over trials of the mean per-call time (ns) of `calls` calls.
template <typename Fn>
double NsPerCall(size_t calls, Fn&& fn) {
  std::vector<double> trials;
  for (int t = 0; t < kTrials; ++t) {
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < calls; ++i) fn(i);
    trials.push_back(SecondsBetween(start, Clock::now()) * 1e9 /
                     static_cast<double>(calls));
  }
  return Median(trials);
}

}  // namespace

StoreReplay ReplayStore(size_t occupancy, size_t value_bytes, uint64_t seed) {
  occupancy = std::max<size_t>(occupancy, 1);
  Rng rng(seed);
  std::vector<uint64_t> keys(occupancy);
  for (uint64_t& k : keys) k = rng.Next64();
  const Bytes value = rng.RandomBytes(value_bytes);
  const size_t fills = std::max<size_t>(1, kCallsPerTrial / occupancy);

  StoreReplay out;
  {
    std::vector<double> trials;
    for (int t = 0; t < kTrials; ++t) {
      Clock::duration spent{};
      for (size_t f = 0; f < fills; ++f) {
        store::BucketStore fresh;
        const Clock::time_point start = Clock::now();
        for (uint64_t k : keys) fresh.Insert(k, value);
        spent += Clock::now() - start;
        LHRS_CHECK_EQ(fresh.size(), occupancy);
      }
      trials.push_back(std::chrono::duration<double, std::nano>(spent)
                           .count() /
                       static_cast<double>(fills * occupancy));
    }
    out.insert_ns = Median(trials);
  }

  store::BucketStore filled;
  for (uint64_t k : keys) filled.Insert(k, value);
  std::vector<size_t> probes(kCallsPerTrial);
  for (size_t& p : probes) p = rng.Uniform(occupancy);
  size_t found = 0;
  out.find_ns = NsPerCall(probes.size(), [&](size_t i) {
    found += filled.Find(keys[probes[i]]) != nullptr;
  });
  LHRS_CHECK_EQ(found, probes.size() * kTrials) << "store replay lost keys";

  size_t sorted = 0;
  out.sorted_keys_us =
      NsPerCall(fills, [&](size_t) { sorted += filled.SortedKeys().size(); }) /
      1e3;
  LHRS_CHECK_EQ(sorted, fills * kTrials * occupancy);
  return out;
}

CodeReplay ReplayCodes(size_t value_bytes, uint64_t seed) {
  constexpr uint32_t kM = 4;
  constexpr uint32_t kK = 2;
  auto made = parity::MakeParityCode(parity::CodeSpec{}, kM, kK,
                                     FieldChoice::kGf256);
  LHRS_CHECK(made.ok()) << made.status();
  const parity::ParityCode& code = **made;
  Rng rng(seed);

  CodeReplay out;
  out.kernel_isa = ActiveKernels().name;

  const Bytes delta = rng.RandomBytes(value_bytes);
  Bytes parity_column(code.PaddedLength(value_bytes), 0);
  out.apply_delta_ns = NsPerCall(kCallsPerTrial, [&](size_t i) {
    code.ApplyDelta(i % kM, delta, i % kK, &parity_column);
  });

  // Encode one record group, lose data columns 0 and 1, rebuild them from
  // the two surviving data columns and both parity columns.
  std::vector<Bytes> data(kM);
  for (Bytes& d : data) d = rng.RandomBytes(value_bytes);
  std::vector<const Bytes*> ptrs;
  for (const Bytes& d : data) ptrs.push_back(&d);
  const std::vector<Bytes> parity = code.Encode(ptrs);
  const std::vector<std::pair<size_t, Bytes>> available = {
      {2, data[2]}, {3, data[3]}, {kM, parity[0]}, {kM + 1, parity[1]}};
  size_t mismatches = 0;
  const size_t decodes = std::max<size_t>(64, (8u << 20) / value_bytes / 16);
  const double decode_ns = NsPerCall(decodes, [&](size_t) {
    auto rebuilt = code.DecodeData(available, {0, 1});
    if (!rebuilt.ok() ||
        !std::equal(data[0].begin(), data[0].end(), (*rebuilt)[0].begin()) ||
        !std::equal(data[1].begin(), data[1].end(), (*rebuilt)[1].begin())) {
      ++mismatches;
    }
  });
  LHRS_CHECK_EQ(mismatches, 0u) << "RS replay decoded wrong bytes";
  out.decode_mb_per_s = 2.0 * static_cast<double>(value_bytes) / decode_ns *
                        1e9 / 1e6;

  // dst accumulates (XOR of every coefficient) * src: check it exactly.
  Bytes dst(value_bytes, 0);
  const Bytes src = rng.RandomBytes(value_bytes);
  const size_t muladds = std::max<size_t>(64, (64u << 20) / value_bytes / 16);
  uint8_t coeff_sum = 0;
  const double muladd_ns = NsPerCall(muladds, [&](size_t i) {
    const auto coeff = static_cast<uint8_t>(2 + i % 251);
    coeff_sum ^= coeff;
    ActiveKernels().mul_add_8(dst.data(), src.data(), value_bytes, coeff);
  });
  for (size_t j = 0; j < value_bytes; ++j) {
    LHRS_CHECK_EQ(dst[j], GF256::Mul(coeff_sum, src[j]))
        << "GF replay computed a wrong product";
  }
  out.muladd_gb_per_s = static_cast<double>(value_bytes) / muladd_ns;
  return out;
}

}  // namespace lhrs::perfbench
