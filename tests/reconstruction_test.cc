// Direct unit tests of the group-reconstruction engine (lhrs/recovery.h):
// mixed data/parity losses, partial groups, metadata propagation and both
// Galois fields — without any network in the loop.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "lhrs/recovery.h"

namespace lhrs {
namespace {

/// Builds a consistent group of `members` records over `m` slots (slot i
/// gets a record iff i < members), returns the data dumps and parity dumps
/// a recovery would read.
struct Fixture {
  uint32_t m, k;
  CoderCache coders;
  std::vector<Bytes> values;           // Per slot ("" = absent).
  std::vector<ColumnDump> data_dumps;  // One per existing slot.
  std::vector<ColumnDump> parity_dumps;

  Fixture(uint32_t m_in, uint32_t k_in, uint32_t existing, uint64_t seed,
          FieldChoice field = FieldChoice::kGf256)
      : m(m_in), k(k_in), coders(m_in, field) {
    Rng rng(seed);
    values.resize(m);
    const parity::ParityCode& coder = coders.ForK(k);
    // Three record groups (ranks 1..3) with varying occupancy.
    std::vector<std::vector<Bytes>> per_rank(3,
                                             std::vector<Bytes>(m));
    for (uint32_t slot = 0; slot < existing; ++slot) {
      ColumnDump dump;
      dump.column = slot;
      for (Rank r = 1; r <= 3; ++r) {
        if (slot + r % 2 == 0) continue;  // Some holes.
        Bytes v = rng.RandomBytes(1 + rng.Uniform(40));
        per_rank[r - 1][slot] = v;
        dump.records.push_back(RankedRecord{r, 1000 * r + slot, v});
      }
      data_dumps.push_back(std::move(dump));
    }
    for (uint32_t j = 0; j < k; ++j) {
      ColumnDump dump;
      dump.column = m + j;
      for (Rank r = 1; r <= 3; ++r) {
        WireParityRecord pr;
        pr.rank = r;
        pr.keys.resize(m);
        pr.lengths.resize(m, 0);
        bool any = false;
        for (uint32_t slot = 0; slot < m; ++slot) {
          const Bytes& v = per_rank[r - 1][slot];
          if (v.empty()) continue;
          any = true;
          pr.keys[slot] = 1000 * r + slot;
          pr.lengths[slot] = static_cast<uint32_t>(v.size());
          coder.ApplyDelta(slot, v, j, &pr.parity);
        }
        if (any) dump.parity_records.push_back(std::move(pr));
      }
      parity_dumps.push_back(std::move(dump));
    }
  }
};

TEST(ReconstructionTest, SingleDataColumn) {
  Fixture fx(4, 2, 4, 1);
  ReconstructionRequest req;
  req.m = 4;
  req.k = 2;
  req.coder = &fx.coders.ForK(2);
  req.existing_slots = 4;
  for (uint32_t s = 1; s < 4; ++s) req.survivors.push_back(fx.data_dumps[s]);
  req.survivors.push_back(fx.parity_dumps[0]);
  req.missing_columns = {0};
  auto result = ReconstructColumns(req);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 1u);
  // Compare against the original records of slot 0.
  const auto& rebuilt = (*result)[0].records;
  ASSERT_EQ(rebuilt.size(), fx.data_dumps[0].records.size());
  for (size_t i = 0; i < rebuilt.size(); ++i) {
    EXPECT_EQ(rebuilt[i].key, fx.data_dumps[0].records[i].key);
    EXPECT_EQ(rebuilt[i].value, fx.data_dumps[0].records[i].value);
  }
}

TEST(ReconstructionTest, MixedDataAndParityLoss) {
  Fixture fx(4, 3, 4, 2);
  ReconstructionRequest req;
  req.m = 4;
  req.k = 3;
  req.coder = &fx.coders.ForK(3);
  req.existing_slots = 4;
  // Lose data slots 0, 2 and parity column 1: survivors are data 1, 3 and
  // parity 0, 2.
  req.survivors = {fx.data_dumps[1], fx.data_dumps[3], fx.parity_dumps[0],
                   fx.parity_dumps[2]};
  req.missing_columns = {0, 2, 5};
  auto result = ReconstructColumns(req);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 3u);
  for (const auto& col : *result) {
    if (col.column < 4) {
      const auto& expected = fx.data_dumps[col.column].records;
      ASSERT_EQ(col.records.size(), expected.size()) << col.column;
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(col.records[i].value, expected[i].value);
      }
    } else {
      const auto& expected = fx.parity_dumps[col.column - 4].parity_records;
      ASSERT_EQ(col.parity_records.size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(col.parity_records[i].keys, expected[i].keys);
        EXPECT_EQ(col.parity_records[i].lengths, expected[i].lengths);
        const BufferView& a = col.parity_records[i].parity;
        const BufferView& b = expected[i].parity;
        const size_t n = std::max(a.size(), b.size());
        EXPECT_EQ(PadTo(a, n), PadTo(b, n));
      }
    }
  }
}

TEST(ReconstructionTest, PartialGroupUsesKnownZeroSlots) {
  // Only 2 of 4 slots exist; slot 1 lost: decode from slot 0 + 1 parity +
  // the two known-zero slots.
  Fixture fx(4, 1, 2, 3);
  ReconstructionRequest req;
  req.m = 4;
  req.k = 1;
  req.coder = &fx.coders.ForK(1);
  req.existing_slots = 2;
  req.survivors = {fx.data_dumps[0], fx.parity_dumps[0]};
  req.missing_columns = {1};
  auto result = ReconstructColumns(req);
  ASSERT_TRUE(result.ok()) << result.status();
  const auto& rebuilt = (*result)[0].records;
  ASSERT_EQ(rebuilt.size(), fx.data_dumps[1].records.size());
  for (size_t i = 0; i < rebuilt.size(); ++i) {
    EXPECT_EQ(rebuilt[i].value, fx.data_dumps[1].records[i].value);
  }
}

TEST(ReconstructionTest, WorksOverGf65536) {
  Fixture fx(4, 2, 4, 4, FieldChoice::kGf65536);
  ReconstructionRequest req;
  req.m = 4;
  req.k = 2;
  req.coder = &fx.coders.ForK(2);
  req.existing_slots = 4;
  req.survivors = {fx.data_dumps[0], fx.data_dumps[3], fx.parity_dumps[0],
                   fx.parity_dumps[1]};
  req.missing_columns = {1, 2};
  auto result = ReconstructColumns(req);
  ASSERT_TRUE(result.ok()) << result.status();
  for (const auto& col : *result) {
    const auto& expected = fx.data_dumps[col.column].records;
    ASSERT_EQ(col.records.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(col.records[i].value, expected[i].value) << col.column;
    }
  }
}

TEST(ReconstructionTest, ParityOnlyRebuildNeedsNoParitySurvivor) {
  Fixture fx(4, 2, 4, 5);
  ReconstructionRequest req;
  req.m = 4;
  req.k = 2;
  req.coder = &fx.coders.ForK(2);
  req.existing_slots = 4;
  req.survivors = {fx.data_dumps[0], fx.data_dumps[1], fx.data_dumps[2],
                   fx.data_dumps[3]};
  req.missing_columns = {4, 5};
  auto result = ReconstructColumns(req);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 2u);
  for (const auto& col : *result) {
    const auto& expected = fx.parity_dumps[col.column - 4].parity_records;
    ASSERT_EQ(col.parity_records.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      const BufferView& a = col.parity_records[i].parity;
      const BufferView& b = expected[i].parity;
      const size_t n = std::max(a.size(), b.size());
      EXPECT_EQ(PadTo(a, n), PadTo(b, n)) << "column " << col.column;
    }
  }
}

}  // namespace
}  // namespace lhrs
