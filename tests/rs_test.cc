// Unit and property tests for the parity layer: matrix algebra, the
// normalised-Cauchy generator matrix (MDS property), and the RS and LRC
// parity codes (encode, incremental delta updates, erasure decode, rank
// tracking, pinned parity bytes).

#include <algorithm>
#include <bit>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "gf/gf256.h"
#include "gf/gf65536.h"
#include "parity/parity_code.h"
#include "rs/generator.h"
#include "rs/matrix.h"

namespace lhrs {
namespace {

TEST(MatrixTest, IdentityInversion) {
  auto id = Matrix<GF256>::Identity(5);
  auto inv = id.Inverted();
  ASSERT_TRUE(inv.ok());
  EXPECT_TRUE(*inv == id);
}

TEST(MatrixTest, RandomInversionRoundTrip) {
  Rng rng(101);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 1 + rng.Uniform(8);
    Matrix<GF256> m(n, n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        m.Set(i, j, static_cast<uint8_t>(rng.Next64()));
      }
    }
    auto inv = m.Inverted();
    if (!inv.ok()) continue;  // Singular draw; skip.
    auto prod = m.Mul(*inv);
    EXPECT_TRUE(prod == Matrix<GF256>::Identity(n));
  }
}

TEST(MatrixTest, SingularMatrixRejected) {
  Matrix<GF256> m(2, 2);
  m.Set(0, 0, 3);
  m.Set(0, 1, 5);
  m.Set(1, 0, 3);
  m.Set(1, 1, 5);  // Equal rows.
  auto inv = m.Inverted();
  EXPECT_FALSE(inv.ok());
  EXPECT_TRUE(inv.status().IsInvalidArgument());
  EXPECT_EQ(m.Determinant(), 0);
}

TEST(MatrixTest, DeterminantMatchesInvertibility) {
  Rng rng(103);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t n = 1 + rng.Uniform(5);
    Matrix<GF256> m(n, n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        m.Set(i, j, static_cast<uint8_t>(rng.Next64()));
      }
    }
    EXPECT_EQ(m.Determinant() != 0, m.Inverted().ok());
  }
}

TEST(GeneratorTest, FirstColumnAllOnes) {
  for (uint32_t m : {1u, 2u, 4u, 8u, 16u}) {
    for (uint32_t k : {1u, 2u, 3u, 4u}) {
      auto p = BuildParityMatrix<GF256>(m, k);
      ASSERT_TRUE(p.ok());
      for (uint32_t i = 0; i < m; ++i) {
        EXPECT_EQ(p->At(i, 0), 1) << "m=" << m << " k=" << k << " i=" << i;
      }
      for (uint32_t j = 0; j < k; ++j) {
        EXPECT_EQ(p->At(0, j), 1) << "first row must be all ones";
      }
    }
  }
}

TEST(GeneratorTest, RejectsInvalidParameters) {
  EXPECT_FALSE(BuildParityMatrix<GF256>(0, 1).ok());
  EXPECT_FALSE(BuildParityMatrix<GF256>(1, 0).ok());
  EXPECT_FALSE(BuildParityMatrix<GF256>(200, 100).ok());  // m + k > 256.
  EXPECT_TRUE(BuildParityMatrix<GF256>(128, 128).ok());
}

// The central correctness property: every square submatrix of the parity
// matrix must be nonsingular, which makes the systematic code MDS.
class MdsPropertyTest
    : public ::testing::TestWithParam<std::pair<uint32_t, uint32_t>> {};

TEST_P(MdsPropertyTest, CauchyDerivedMatrixIsMds) {
  const auto [m, k] = GetParam();
  auto p = BuildParityMatrix<GF256>(m, k);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(IsMdsParityMatrix(*p)) << "m=" << m << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    AllGeometries, MdsPropertyTest,
    ::testing::Values(std::pair{2u, 1u}, std::pair{2u, 2u}, std::pair{3u, 2u},
                      std::pair{4u, 1u}, std::pair{4u, 2u}, std::pair{4u, 3u},
                      std::pair{4u, 4u}, std::pair{8u, 2u}, std::pair{8u, 3u},
                      std::pair{16u, 3u}, std::pair{16u, 4u},
                      std::pair{32u, 4u}));

TEST(MdsPropertyTest, CauchyMatrixIsMdsOverGf65536Too) {
  auto p = BuildParityMatrix<GF65536>(8, 3);
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(IsMdsParityMatrix(*p));
}

// Ablation: the naive Vandermonde-style construction alpha^(i*j) appended
// to an identity is NOT MDS in general — the reason LH*RS needs the
// Cauchy-derived generator. A 2x2 submatrix with rows {i1, i2} and columns
// {j1, j2} is singular iff (i1-i2)(j1-j2) = 0 mod 255; the smallest such
// geometry within field bounds is m = 86 (row gap 85), k = 4 (column gap
// 3), since 85 * 3 = 255.
TEST(GeneratorTest, NaiveVandermondeFailsMdsForLargeGroups) {
  auto p = BuildNaiveVandermondeParity<GF256>(86, 4);
  auto sub = p.Submatrix({0, 85}, {0, 3});
  EXPECT_EQ(sub.Determinant(), 0)
      << "expected singular submatrix in naive Vandermonde parity";
  // The Cauchy-derived matrix of the same geometry has no such defect.
  auto cauchy = BuildParityMatrix<GF256>(86, 4);
  ASSERT_TRUE(cauchy.ok());
  EXPECT_NE(cauchy->Submatrix({0, 85}, {0, 3}).Determinant(), 0);
}

// ---------------------------------------------------------------------------
// Parity code tests, typed over both fields: RS encode/decode/delta, the MDS
// any-m-subset property over random geometries, rank tracking for
// progressive repair, and the LRC code.

template <typename F>
FieldChoice FieldChoiceOf();
template <>
FieldChoice FieldChoiceOf<GF256>() {
  return FieldChoice::kGf256;
}
template <>
FieldChoice FieldChoiceOf<GF65536>() {
  return FieldChoice::kGf65536;
}

std::unique_ptr<parity::ParityCode> MakeCode(const char* name, uint32_t m,
                                             uint32_t k, FieldChoice field) {
  auto spec = parity::CodeSpec::Parse(name);
  LHRS_CHECK(spec.ok());
  auto code = parity::MakeParityCode(*spec, m, k, field);
  LHRS_CHECK(code.ok());
  return std::move(code).value();
}

template <typename F>
class GroupCoderTest : public ::testing::Test {};

using CoderFields = ::testing::Types<GF256, GF65536>;
TYPED_TEST_SUITE(GroupCoderTest, CoderFields);

TYPED_TEST(GroupCoderTest, EncodeDecodeRoundTripAllErasurePatterns) {
  const uint32_t m = 4, k = 2;
  const auto code = MakeCode("rs", m, k, FieldChoiceOf<TypeParam>());
  const parity::ParityCode& coder = *code;
  Rng rng(211);

  // Variable-length member payloads, one slot empty.
  std::vector<Bytes> data(m);
  data[0] = rng.RandomBytes(40);
  data[1] = rng.RandomBytes(17);
  data[2] = {};  // Absent member.
  data[3] = rng.RandomBytes(33);
  std::vector<const Bytes*> ptrs = {&data[0], &data[1], nullptr, &data[3]};
  std::vector<Bytes> parity = coder.Encode(ptrs);
  ASSERT_EQ(parity.size(), k);

  // Every way of losing up to k of the m+k columns must decode.
  for (uint32_t lost1 = 0; lost1 < m; ++lost1) {
    for (uint32_t lost2 = lost1 + 1; lost2 <= m + k; ++lost2) {
      std::vector<std::pair<size_t, Bytes>> available;
      for (uint32_t col = 0; col < m + k; ++col) {
        if (col == lost1 || col == lost2) continue;
        if (col < m) {
          available.emplace_back(col, data[col]);
        } else {
          available.emplace_back(col, parity[col - m]);
        }
      }
      std::vector<size_t> wanted;
      if (lost1 < m) wanted.push_back(lost1);
      if (lost2 < m) wanted.push_back(lost2);
      if (wanted.empty()) continue;
      auto decoded = coder.DecodeData(available, wanted);
      ASSERT_TRUE(decoded.ok()) << decoded.status();
      for (size_t i = 0; i < wanted.size(); ++i) {
        const Bytes& original = data[wanted[i]];
        const Bytes padded = PadTo(original, (*decoded)[i].size());
        EXPECT_EQ((*decoded)[i], padded)
            << "lost (" << lost1 << "," << lost2 << ") slot " << wanted[i];
      }
    }
  }
}

TYPED_TEST(GroupCoderTest, TooFewColumnsIsDataLoss) {
  const auto code = MakeCode("rs", 4, 2, FieldChoiceOf<TypeParam>());
  std::vector<std::pair<size_t, Bytes>> available = {
      {0, Bytes{1, 2}}, {1, Bytes{3, 4}}, {2, Bytes{5, 6}}};
  auto decoded = code->DecodeData(available, {3});
  EXPECT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsDataLoss());
}

TYPED_TEST(GroupCoderTest, DeltaUpdatesMatchFullReencode) {
  const uint32_t m = 4, k = 3;
  const auto code = MakeCode("rs", m, k, FieldChoiceOf<TypeParam>());
  const parity::ParityCode& coder = *code;
  Rng rng(223);

  std::vector<Bytes> data(m);
  std::vector<Bytes> parity(k);

  // Build the group incrementally: insert, update, delete, with varying
  // lengths; parity maintained only through ApplyDelta.
  for (int step = 0; step < 200; ++step) {
    const uint32_t slot = static_cast<uint32_t>(rng.Uniform(m));
    const int action = static_cast<int>(rng.Uniform(3));
    if (action == 0 || data[slot].empty()) {
      // Insert/overwrite with a fresh value: delta = old XOR new.
      Bytes next = rng.RandomBytes(1 + rng.Uniform(64));
      Bytes delta = data[slot];
      XorAssignPadded(delta, next);
      for (uint32_t j = 0; j < k; ++j) {
        coder.ApplyDelta(slot, delta, j, &parity[j]);
      }
      data[slot] = std::move(next);
    } else if (action == 1) {
      // Delete: delta = old value.
      for (uint32_t j = 0; j < k; ++j) {
        coder.ApplyDelta(slot, data[slot], j, &parity[j]);
      }
      data[slot].clear();
    } else {
      // In-place partial update.
      Bytes next = data[slot];
      next[rng.Uniform(next.size())] ^= static_cast<uint8_t>(rng.Next64());
      Bytes delta = data[slot];
      XorAssignPadded(delta, next);
      for (uint32_t j = 0; j < k; ++j) {
        coder.ApplyDelta(slot, delta, j, &parity[j]);
      }
      data[slot] = std::move(next);
    }
  }

  // Full re-encode must agree (modulo trailing zeros from length churn).
  std::vector<const Bytes*> ptrs;
  for (auto& d : data) ptrs.push_back(d.empty() ? nullptr : &d);
  std::vector<Bytes> fresh = coder.Encode(ptrs);
  for (uint32_t j = 0; j < k; ++j) {
    const size_t n = std::max(fresh[j].size(), parity[j].size());
    const Bytes a = PadTo(fresh[j], n);
    const Bytes b = PadTo(parity[j], n);
    EXPECT_EQ(a, b) << "parity column " << j;
  }
}

TYPED_TEST(GroupCoderTest, ParityColumnZeroIsPlainXor) {
  const uint32_t m = 4;
  const auto code = MakeCode("rs", m, 2, FieldChoiceOf<TypeParam>());
  Rng rng(227);
  std::vector<Bytes> data(m);
  for (auto& d : data) d = rng.RandomBytes(32);
  std::vector<const Bytes*> ptrs;
  for (auto& d : data) ptrs.push_back(&d);
  std::vector<Bytes> parity = code->Encode(ptrs);

  Bytes expected(32, 0);
  for (const auto& d : data) {
    for (size_t i = 0; i < 32; ++i) expected[i] ^= d[i];
  }
  EXPECT_EQ(parity[0], expected);
}

TYPED_TEST(GroupCoderTest, SingleMemberGroupDecodesFromParityAlone) {
  // The paper's "a record sole in its group is recoverable even if all
  // other buckets fail" case: decode from k parity columns + m-1 known
  // zeros.
  const uint32_t m = 4, k = 1;
  const auto code = MakeCode("rs", m, k, FieldChoiceOf<TypeParam>());
  Bytes value = BytesFromString("lonely record");
  std::vector<const Bytes*> ptrs = {nullptr, &value, nullptr, nullptr};
  std::vector<Bytes> parity = code->Encode(ptrs);

  std::vector<std::pair<size_t, Bytes>> available = {
      {0, {}}, {2, {}}, {3, {}}, {4, parity[0]}};
  auto decoded = code->DecodeData(available, {1});
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)[0], PadTo(value, (*decoded)[0].size()));
}

TEST(GroupCoderTest65536, PadsOddLengthsToWholeSymbols) {
  const auto code = MakeCode("rs", 2, 1, FieldChoice::kGf65536);
  Bytes odd = {0xAB, 0xCD, 0xEF};  // 3 bytes -> padded to 4.
  std::vector<const Bytes*> ptrs = {&odd, nullptr};
  std::vector<Bytes> parity = code->Encode(ptrs);
  ASSERT_EQ(parity[0].size(), 4u);
  EXPECT_EQ(parity[0][0], 0xAB);
  EXPECT_EQ(parity[0][3], 0x00);
}

// The MDS property, end to end: for random (m, k) geometries and random
// variable-length payloads, EVERY m-subset of the m + k codeword columns
// reconstructs every data column byte for byte.
TYPED_TEST(GroupCoderTest, AnyMSubsetReconstructsRandomGeometry) {
  Rng rng(811);
  for (int trial = 0; trial < 6; ++trial) {
    const uint32_t m = 1 + static_cast<uint32_t>(rng.Uniform(7));
    const uint32_t k = 1 + static_cast<uint32_t>(rng.Uniform(3));
    const uint32_t n = m + k;  // <= 10, so subsets enumerate exhaustively.
    auto code = MakeCode("rs", m, k, FieldChoiceOf<TypeParam>());

    std::vector<Bytes> data(m);
    std::vector<const Bytes*> ptrs(m);
    for (uint32_t i = 0; i < m; ++i) {
      data[i] = rng.RandomBytes(rng.Uniform(25));  // May be empty.
      ptrs[i] = data[i].empty() ? nullptr : &data[i];
    }
    std::vector<Bytes> parity = code->Encode(ptrs);

    for (uint32_t mask = 0; mask < (1u << n); ++mask) {
      if (std::popcount(mask) != static_cast<int>(m)) continue;
      std::vector<std::pair<size_t, Bytes>> available;
      std::vector<uint32_t> have;
      std::vector<size_t> wanted;
      for (uint32_t col = 0; col < n; ++col) {
        if (mask & (1u << col)) {
          available.emplace_back(col,
                                 col < m ? data[col] : parity[col - m]);
          have.push_back(col);
        } else if (col < m) {
          wanted.push_back(col);
        }
      }
      if (wanted.empty()) continue;
      EXPECT_TRUE(code->CanDecodeFrom(
          have, std::vector<uint32_t>(wanted.begin(), wanted.end())));
      auto decoded = code->DecodeData(available, wanted);
      ASSERT_TRUE(decoded.ok())
          << "m=" << m << " k=" << k << " mask=" << mask << ": "
          << decoded.status();
      for (size_t i = 0; i < wanted.size(); ++i) {
        EXPECT_EQ((*decoded)[i], PadTo(data[wanted[i]], (*decoded)[i].size()))
            << "m=" << m << " k=" << k << " mask=" << mask << " slot "
            << wanted[i];
      }
    }
  }
}

// The progressive-repair cases check two things over the same columns: the
// rank tracker's AddColumn/Ready answers (column identities only), and the
// bytes that DecodeData returns from exactly those columns.

TYPED_TEST(GroupCoderTest, ProgressiveDecoderFinishesEarly) {
  const uint32_t m = 4, k = 2;
  auto code = MakeCode("rs+prog", m, k, FieldChoiceOf<TypeParam>());
  Rng rng(821);
  std::vector<Bytes> data(m);
  data[0] = rng.RandomBytes(16);
  data[1] = rng.RandomBytes(16);
  std::vector<const Bytes*> ptrs = {&data[0], &data[1], nullptr, nullptr};
  std::vector<Bytes> parity = code->Encode(ptrs);

  // Slot 1 lost; slots 2 and 3 never existed (known zero). Rank m is
  // reached after only two survivor columns even though two parity
  // columns are also alive.
  auto tracker = code->NewRankTracker({1}, {2, 3});
  EXPECT_FALSE(tracker->Ready());
  EXPECT_TRUE(tracker->AddColumn(0));
  EXPECT_FALSE(tracker->Ready());
  EXPECT_TRUE(tracker->AddColumn(m + 0));
  EXPECT_TRUE(tracker->Ready());

  // Surplus survivors past full rank are redundant and must be rejected.
  EXPECT_FALSE(tracker->AddColumn(m + 1));

  // The two useful survivors plus the known-zero slots decode the slot.
  std::vector<std::pair<size_t, Bytes>> available = {
      {0, data[0]}, {m + 0, parity[0]}, {2, {}}, {3, {}}};
  auto decoded = code->DecodeData(available, {1});
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->size(), 1u);
  EXPECT_EQ((*decoded)[0], PadTo(data[1], (*decoded)[0].size()));
}

TYPED_TEST(GroupCoderTest, ProgressiveDecoderAcceptsColumnsOutOfOrder) {
  const uint32_t m = 4, k = 3;
  auto code = MakeCode("rs+prog", m, k, FieldChoiceOf<TypeParam>());
  Rng rng(823);
  std::vector<Bytes> data(m);
  std::vector<const Bytes*> ptrs(m);
  for (uint32_t i = 0; i < m; ++i) {
    data[i] = rng.RandomBytes(12);
    ptrs[i] = &data[i];
  }
  std::vector<Bytes> parity = code->Encode(ptrs);

  // All parity first, then one data column: any arrival order works.
  auto tracker = code->NewRankTracker({0, 2}, {});
  EXPECT_TRUE(tracker->AddColumn(m + 2));
  EXPECT_TRUE(tracker->AddColumn(m + 0));
  EXPECT_TRUE(tracker->AddColumn(m + 1));
  EXPECT_FALSE(tracker->Ready()) << "rank 3 of 4 cannot solve yet";
  EXPECT_TRUE(tracker->AddColumn(3));
  EXPECT_TRUE(tracker->Ready());

  std::vector<std::pair<size_t, Bytes>> available = {
      {m + 2, parity[2]}, {m + 0, parity[0]}, {m + 1, parity[1]},
      {3, data[3]}};
  auto decoded = code->DecodeData(available, {0, 2});
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0], PadTo(data[0], (*decoded)[0].size()));
  EXPECT_EQ((*decoded)[1], PadTo(data[2], (*decoded)[1].size()));
}

TYPED_TEST(GroupCoderTest, ProgressiveDecoderInsufficientRankIsDataLoss) {
  const uint32_t m = 4, k = 2;
  auto code = MakeCode("rs+prog", m, k, FieldChoiceOf<TypeParam>());
  Rng rng(827);
  std::vector<Bytes> data(m);
  std::vector<const Bytes*> ptrs(m);
  for (uint32_t i = 0; i < m; ++i) {
    data[i] = rng.RandomBytes(8);
    ptrs[i] = &data[i];
  }
  std::vector<Bytes> parity = code->Encode(ptrs);

  auto tracker = code->NewRankTracker({0, 1}, {});
  EXPECT_TRUE(tracker->AddColumn(2));
  EXPECT_TRUE(tracker->AddColumn(3));
  EXPECT_TRUE(tracker->AddColumn(m + 0));
  EXPECT_FALSE(tracker->Ready()) << "three columns cannot solve two "
                                    "unknowns + two knowns over rank four";
  std::vector<std::pair<size_t, Bytes>> available = {
      {2, data[2]}, {3, data[3]}, {m + 0, parity[0]}};
  auto decoded = code->DecodeData(available, {0, 1});
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsDataLoss());

  // The missing fourth column completes the rank.
  EXPECT_TRUE(tracker->AddColumn(m + 1));
  EXPECT_TRUE(tracker->Ready());
  available.emplace_back(m + 1, parity[1]);
  decoded = code->DecodeData(available, {0, 1});
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ((*decoded)[0], PadTo(data[0], (*decoded)[0].size()));
  EXPECT_EQ((*decoded)[1], PadTo(data[1], (*decoded)[1].size()));
}

// ---------------------------------------------------------------------------
// LRC code tests (m = 4, locality 2, k = 3: two local XORs + one global).

TYPED_TEST(GroupCoderTest, LrcLocalColumnsAreGroupXors) {
  auto code = MakeCode("lrc2", 4, 3, FieldChoiceOf<TypeParam>());
  Rng rng(829);
  std::vector<Bytes> data(4);
  std::vector<const Bytes*> ptrs(4);
  for (uint32_t i = 0; i < 4; ++i) {
    data[i] = rng.RandomBytes(32);
    ptrs[i] = &data[i];
  }
  std::vector<Bytes> parity = code->Encode(ptrs);
  ASSERT_EQ(parity.size(), 3u);
  for (uint32_t l = 0; l < 2; ++l) {
    Bytes expected(32, 0);
    for (uint32_t s = 2 * l; s < 2 * l + 2; ++s) {
      for (size_t i = 0; i < 32; ++i) expected[i] ^= data[s][i];
    }
    EXPECT_EQ(parity[l], expected) << "local parity " << l;
  }
}

TYPED_TEST(GroupCoderTest, LrcSingleLossRepairsFromLocalGroupOnly) {
  auto code = MakeCode("lrc2", 4, 3, FieldChoiceOf<TypeParam>());
  parity::RepairContext ctx;
  ctx.existing_slots = 4;
  ctx.alive_data = {1, 2, 3};
  ctx.alive_parity = {0, 1, 2};
  ctx.missing = {0};
  auto plan = code->PlanRepair(ctx);
  ASSERT_TRUE(plan.ok()) << plan.status();
  // Slot 0's local group is {0, 1} with local parity column 4: the repair
  // touches r = 2 columns, not the RS code's m = 4.
  EXPECT_EQ(plan->read_columns, (std::vector<uint32_t>{1, 4}));

  // The slot's own local parity leads the preference order.
  EXPECT_EQ(code->ParityPreference(0)[0], 0u);
  EXPECT_EQ(code->ParityPreference(3)[0], 1u);
}

TYPED_TEST(GroupCoderTest, LrcRecoversDoubleLossViaGlobalParity) {
  auto code = MakeCode("lrc2", 4, 3, FieldChoiceOf<TypeParam>());
  Rng rng(839);
  std::vector<Bytes> data(4);
  std::vector<const Bytes*> ptrs(4);
  for (uint32_t i = 0; i < 4; ++i) {
    data[i] = rng.RandomBytes(20);
    ptrs[i] = &data[i];
  }
  std::vector<Bytes> parity = code->Encode(ptrs);

  // Both members of local group 0 lost: the local XOR alone cannot split
  // them, but together with the global column the pair is determined.
  std::vector<std::pair<size_t, Bytes>> available = {
      {2, data[2]}, {3, data[3]}, {4, parity[0]}, {5, parity[1]},
      {6, parity[2]}};
  auto decoded = code->DecodeData(available, {0, 1});
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ((*decoded)[0], PadTo(data[0], (*decoded)[0].size()));
  EXPECT_EQ((*decoded)[1], PadTo(data[1], (*decoded)[1].size()));
}

TYPED_TEST(GroupCoderTest, LrcNonMdsPatternIsDataLoss) {
  auto code = MakeCode("lrc2", 4, 3, FieldChoiceOf<TypeParam>());
  // Losing both members of a local group AND its local parity leaves one
  // equation (the global) for two unknowns. An MDS code with k = 3 would
  // survive any three losses; the LRC trades that away for locality.
  EXPECT_FALSE(code->CanDecodeFrom({2, 3, 5, 6}, {0, 1}));

  parity::RepairContext ctx;
  ctx.existing_slots = 4;
  ctx.alive_data = {2, 3};
  ctx.alive_parity = {1, 2};
  ctx.missing = {0, 1, 4};
  auto plan = code->PlanRepair(ctx);
  ASSERT_FALSE(plan.ok());
  EXPECT_TRUE(plan.status().IsDataLoss());

  Rng rng(853);
  std::vector<Bytes> data(4);
  std::vector<const Bytes*> ptrs(4);
  for (uint32_t i = 0; i < 4; ++i) {
    data[i] = rng.RandomBytes(16);
    ptrs[i] = &data[i];
  }
  std::vector<Bytes> parity = code->Encode(ptrs);
  std::vector<std::pair<size_t, Bytes>> available = {
      {2, data[2]}, {3, data[3]}, {5, parity[1]}, {6, parity[2]}};
  auto decoded = code->DecodeData(available, {0, 1});
  ASSERT_FALSE(decoded.ok());
  EXPECT_TRUE(decoded.status().IsDataLoss());
}

TYPED_TEST(GroupCoderTest, LrcProgressiveDecoderStopsAtLocalGroup) {
  auto code = MakeCode("lrc2+prog", 4, 3, FieldChoiceOf<TypeParam>());
  Rng rng(857);
  std::vector<Bytes> data(4);
  std::vector<const Bytes*> ptrs(4);
  for (uint32_t i = 0; i < 4; ++i) {
    data[i] = rng.RandomBytes(24);
    ptrs[i] = &data[i];
  }
  std::vector<Bytes> parity = code->Encode(ptrs);

  // Rebuilding slot 2 needs only its sibling and the group-1 local parity:
  // Ready() fires after two columns even though full rank would need four.
  auto tracker = code->NewRankTracker({2}, {});
  EXPECT_TRUE(tracker->AddColumn(3));
  EXPECT_FALSE(tracker->Ready());
  EXPECT_TRUE(tracker->AddColumn(4 + 1));
  EXPECT_TRUE(tracker->Ready());

  // The decode reads exactly those two columns.
  auto plan = code->PlanDecode({3, 4 + 1}, {2});
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->sources.size(), 2u);
  std::vector<std::pair<size_t, Bytes>> available = {{3, data[3]},
                                                     {4 + 1, parity[1]}};
  auto decoded = code->DecodeData(available, {2});
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ((*decoded)[0], PadTo(data[2], (*decoded)[0].size()));
}

// ---------------------------------------------------------------------------
// Golden parity digests: fixed-seed groups over {rs, lrc2} x {GF(2^8),
// GF(2^16)} x m in {4, 70}, with odd-length, empty and absent members. Each
// row pins FNV-1a digests of (1) the Encode output, (2) the parity built by
// ApplyDelta alone and (3) one DecodeData result, so any change to the bytes
// the parity layer produces fails here, whatever the code path behind it.

uint64_t FoldDigest(uint64_t h, const Bytes& b) {
  constexpr uint64_t kPrime = 1099511628211ULL;
  for (int i = 0; i < 8; ++i) {
    h = (h ^ static_cast<uint8_t>(b.size() >> (8 * i))) * kPrime;
  }
  for (uint8_t byte : b) h = (h ^ byte) * kPrime;
  return h;
}

struct GoldenDigests {
  uint64_t encode = 1469598103934665603ULL;
  uint64_t delta = 1469598103934665603ULL;
  uint64_t decode = 1469598103934665603ULL;
  friend bool operator==(const GoldenDigests&,
                         const GoldenDigests&) = default;
};

GoldenDigests DigestGroup(const parity::ParityCode& code, uint64_t seed) {
  const uint32_t m = code.m(), k = code.k();
  Rng rng(seed);
  std::vector<Bytes> data(m);
  std::vector<const Bytes*> ptrs(m);
  for (uint32_t i = 0; i < m; ++i) {
    switch (i % 5) {
      case 2:  // Present but empty.
        break;
      case 3:  // Absent member: never encoded, known zero on decode.
        continue;
      case 1:  // Odd length: a half symbol of padding under GF(2^16).
        data[i] = rng.RandomBytes(1 + 2 * rng.Uniform(24));
        break;
      default:
        data[i] = rng.RandomBytes(rng.Uniform(48));
    }
    ptrs[i] = &data[i];
  }
  GoldenDigests d;

  const std::vector<Bytes> parity = code.Encode(ptrs);
  for (const Bytes& p : parity) d.encode = FoldDigest(d.encode, p);

  // Parity from deltas alone: insert every member, then overwrite slot 0
  // (delta = old XOR new).
  std::vector<Bytes> built(k);
  for (uint32_t i = 0; i < m; ++i) {
    for (uint32_t j = 0; j < k; ++j) code.ApplyDelta(i, data[i], j, &built[j]);
  }
  Bytes delta = data[0];
  XorAssignPadded(delta, rng.RandomBytes(31));
  for (uint32_t j = 0; j < k; ++j) code.ApplyDelta(0, delta, j, &built[j]);
  for (const Bytes& p : built) d.delta = FoldDigest(d.delta, p);

  // Decode data slots 0 and 1 from every other column.
  std::vector<std::pair<size_t, Bytes>> available;
  for (uint32_t col = 2; col < m + k; ++col) {
    available.emplace_back(col, col < m ? data[col] : parity[col - m]);
  }
  auto decoded = code.DecodeData(available, {0, 1});
  LHRS_CHECK(decoded.ok()) << decoded.status();
  for (const Bytes& b : *decoded) d.decode = FoldDigest(d.decode, b);
  return d;
}

TEST(ParityCodeGoldenTest, EncodeDeltaAndDecodeBytesArePinned) {
  struct Row {
    const char* code;
    FieldChoice field;
    uint32_t m;
    uint32_t k;
    GoldenDigests want;
  };
  constexpr FieldChoice k8 = FieldChoice::kGf256;
  constexpr FieldChoice k16 = FieldChoice::kGf65536;
  // lrc2 needs one local parity per slot pair: k = m/2 locals + globals.
  const Row rows[] = {
      {"rs", k8, 4, 3,
       {0x506c335711e32df2ULL, 0x90986d45e624afd0ULL, 0x9b159755a76287c7ULL}},
      {"rs", k8, 70, 3,
       {0xf81381e925c450bcULL, 0x803c0cd5b2be4c70ULL, 0x544cd74baeb95d68ULL}},
      {"rs", k16, 4, 3,
       {0x7ca337c60d368b69ULL, 0xb904711321757a07ULL, 0x02b026d71a985461ULL}},
      {"rs", k16, 70, 3,
       {0x8a371a58d252e5a5ULL, 0xa940b1e51e8a2809ULL, 0xa14aee2e3e8f584aULL}},
      {"lrc2", k8, 4, 3,
       {0x3e0bc248d8fd4e39ULL, 0xb1bc510fabceaac2ULL, 0x9b159755a76287c7ULL}},
      {"lrc2", k8, 70, 37,
       {0xe40852540761f18eULL, 0x81c1b4059e7888ebULL, 0x544cd74baeb95d68ULL}},
      {"lrc2", k16, 4, 3,
       {0x27f23b7278fb7184ULL, 0x79928ad38a48a34cULL, 0x02b026d71a985461ULL}},
      {"lrc2", k16, 70, 37,
       {0x727252f3135b8261ULL, 0x0da165dc22885a11ULL, 0xa14aee2e3e8f584aULL}},
  };
  for (const Row& row : rows) {
    auto code = MakeCode(row.code, row.m, row.k, row.field);
    const GoldenDigests got = DigestGroup(*code, 1000 + row.m);
    EXPECT_EQ(got, row.want)
        << row.code << " " << FieldChoiceName(row.field) << " m=" << row.m
        << ": {0x" << std::hex << got.encode << "ULL, 0x" << got.delta
        << "ULL, 0x" << got.decode << "ULL}";
  }
}

TEST(CodeSpecTest, NameParseRoundTrips) {
  for (const char* name : {"rs", "rs+prog", "lrc2", "lrc4+prog"}) {
    auto spec = parity::CodeSpec::Parse(name);
    ASSERT_TRUE(spec.ok()) << name;
    EXPECT_EQ(spec->Name(), name);
  }
  EXPECT_FALSE(parity::CodeSpec::Parse("raid5").ok());
  EXPECT_FALSE(parity::CodeSpec::Parse("lrc").ok());
  EXPECT_FALSE(parity::CodeSpec::Parse("lrcx").ok());
  // Localities that overflow 32 bits are rejected, not wrapped.
  EXPECT_FALSE(parity::CodeSpec::Parse("lrc4294967298").ok());
  EXPECT_FALSE(parity::CodeSpec::Parse("lrc99999999999999999999").ok());
  auto widest = parity::CodeSpec::Parse("lrc4294967295");
  ASSERT_TRUE(widest.ok());
  EXPECT_EQ(widest->locality, 4294967295u);
}

TEST(CodeSpecTest, MakeParityCodeRejectsBadGeometry) {
  auto lrc = parity::CodeSpec::Parse("lrc2");
  ASSERT_TRUE(lrc.ok());
  // m = 4, locality 2 means two local groups; k = 1 cannot cover them.
  EXPECT_FALSE(
      parity::MakeParityCode(*lrc, 4, 1, FieldChoice::kGf256).ok());
  EXPECT_TRUE(
      parity::MakeParityCode(*lrc, 4, 2, FieldChoice::kGf256).ok());
  auto rs = parity::CodeSpec::Parse("rs");
  ASSERT_TRUE(rs.ok());
  EXPECT_FALSE(
      parity::MakeParityCode(*rs, 200, 100, FieldChoice::kGf256).ok());
}

}  // namespace
}  // namespace lhrs
