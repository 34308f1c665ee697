// Oracle for the plan-based group reconstruction (lhrs/recovery.h):
// ReconstructColumns solves one decode plan per request and writes every
// rebuilt value into a per-column arena. Its output must be byte-identical
// to a straightforward per-rank reference that decodes each record group
// on its own through ParityCode::DecodeData and re-encodes lost parity
// with ApplyDelta — over RS and LRC codes, with and without progressive
// decoding, both fields, narrow and wide groups, partial last groups,
// empty/odd/2-KiB records and every mix of lost data and parity columns
// the code can repair. CI also runs this binary under
// LHRS_KERNEL_ISA=scalar and =native so each kernel tier's table builders
// see a full decode.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "lhrs/recovery.h"
#include "lhrs/shared.h"
#include "parity/parity_code.h"

namespace lhrs {
namespace {

constexpr Rank kRanks = 12;

void Shuffle(std::vector<uint32_t>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.Uniform(i)]);
  }
}

size_t ParityCount(const std::string& code, uint32_t m) {
  // lrc2 needs one local parity per pair of slots plus one global.
  return code.rfind("lrc2", 0) == 0 ? (m + 1) / 2 + 1 : 3;
}

/// One randomized bucket group: member values per rank and slot, and the
/// dumps every column would send.
struct Group {
  uint32_t m = 0;
  uint32_t k = 0;
  uint32_t existing = 0;
  // values[rank][slot]; nullopt = no member.
  std::vector<std::vector<std::optional<Bytes>>> values;
  std::vector<ColumnDump> dumps;  // Column c at index c (data, then parity).
};

Group MakeGroup(const parity::ParityCode& code, uint32_t existing, Rng& rng) {
  Group g;
  g.m = code.m();
  g.k = code.k();
  g.existing = existing;
  g.values.assign(kRanks + 1, std::vector<std::optional<Bytes>>(g.m));
  g.dumps.resize(g.m + g.k);
  for (uint32_t c = 0; c < g.m + g.k; ++c) g.dumps[c].column = c;
  for (Rank r = 1; r <= kRanks; ++r) {
    // Rank kRanks is sparse; the others are mostly full.
    const uint64_t fill = r == kRanks ? 4 : 85;
    for (uint32_t slot = 0; slot < existing; ++slot) {
      if (rng.Uniform(100) >= fill) continue;
      size_t len;
      switch (rng.Uniform(4)) {
        case 0: len = 0; break;
        case 1: len = 2 * rng.Uniform(40) + 1; break;  // Odd.
        case 2: len = 2048; break;
        default: len = rng.Uniform(2049); break;
      }
      Bytes v = rng.RandomBytes(len);
      g.dumps[slot].records.push_back(
          RankedRecord{r, (uint64_t{r} << 32) | slot, BufferView(v)});
      g.values[r][slot] = std::move(v);
    }
    for (uint32_t j = 0; j < g.k; ++j) {
      WireParityRecord pr;
      pr.rank = r;
      pr.keys.resize(g.m);
      pr.lengths.resize(g.m, 0);
      bool any = false;
      for (uint32_t slot = 0; slot < g.m; ++slot) {
        if (!g.values[r][slot].has_value()) continue;
        any = true;
        pr.keys[slot] = (uint64_t{r} << 32) | slot;
        pr.lengths[slot] =
            static_cast<uint32_t>(g.values[r][slot]->size());
        code.ApplyDelta(slot, *g.values[r][slot], j, &pr.parity);
      }
      if (any) g.dumps[g.m + j].parity_records.push_back(std::move(pr));
    }
  }
  return g;
}

/// The per-rank reference: decode each record group on its own, in the
/// column order ReconstructColumns documents (survivor data, known-zero
/// slots, survivor parity), and re-encode lost parity column by column.
std::vector<ReconstructedColumn> ReferenceReconstruct(
    const ReconstructionRequest& req) {
  const uint32_t m = req.m;
  std::vector<ReconstructedColumn> out;
  for (uint32_t col : req.missing_columns) {
    out.push_back(ReconstructedColumn{col, {}, {}});
  }
  // Per rank present in any survivor: metadata from the first parity
  // survivor holding the rank, else from the data survivors.
  for (Rank r = 0; r <= kRanks; ++r) {
    std::vector<std::optional<Key>> keys(m);
    std::vector<uint32_t> lengths(m, 0);
    bool have_parity_meta = false;
    bool present = false;
    auto payload_of = [&](const ColumnDump& s) -> BufferView {
      for (const auto& pr : s.parity_records) {
        if (pr.rank == r) return pr.parity;
      }
      for (const auto& rec : s.records) {
        if (rec.rank == r) return rec.value;
      }
      return BufferView();
    };
    for (const auto& s : req.survivors) {
      for (const auto& pr : s.parity_records) {
        if (pr.rank != r) continue;
        present = true;
        if (!have_parity_meta) {
          keys = pr.keys;
          lengths = pr.lengths;
          have_parity_meta = true;
        }
      }
    }
    for (const auto& s : req.survivors) {
      for (const auto& rec : s.records) {
        if (rec.rank != r) continue;
        present = true;
        if (!have_parity_meta) {
          keys[s.column] = rec.key;
          lengths[s.column] = static_cast<uint32_t>(rec.value.size());
        }
      }
    }
    if (!present) continue;

    std::vector<std::pair<size_t, BufferView>> available;
    for (const auto& s : req.survivors) {
      if (!s.is_parity(m)) available.emplace_back(s.column, payload_of(s));
    }
    for (uint32_t slot = req.existing_slots; slot < m; ++slot) {
      available.emplace_back(slot, BufferView());
    }
    for (const auto& s : req.survivors) {
      if (s.is_parity(m)) available.emplace_back(s.column, payload_of(s));
    }
    std::vector<size_t> wanted;
    for (uint32_t col : req.missing_columns) {
      if (col < m && keys[col].has_value()) wanted.push_back(col);
    }
    std::vector<Bytes> decoded;
    if (!wanted.empty()) {
      auto result = req.coder->DecodeData(available, wanted);
      EXPECT_TRUE(result.ok()) << result.status();
      if (!result.ok()) return {};
      decoded = std::move(result).value();
      for (size_t i = 0; i < wanted.size(); ++i) {
        decoded[i].resize(lengths[wanted[i]]);
        for (auto& col : out) {
          if (col.column == wanted[i]) {
            col.records.push_back(
                RankedRecord{r, *keys[wanted[i]], BufferView(decoded[i])});
          }
        }
      }
    }
    // Full data row for parity re-encoding.
    std::vector<Bytes> row(m);
    bool any_member = false;
    for (uint32_t slot = 0; slot < req.existing_slots; ++slot) {
      if (!keys[slot].has_value()) continue;
      any_member = true;
      auto w = std::find(wanted.begin(), wanted.end(), slot);
      if (w != wanted.end()) {
        row[slot] = decoded[w - wanted.begin()];
      } else {
        for (const auto& s : req.survivors) {
          if (s.column == slot) row[slot] = payload_of(s).ToBytes();
        }
      }
    }
    if (!any_member) continue;
    for (auto& col : out) {
      if (col.column < m) continue;
      WireParityRecord pr;
      pr.rank = r;
      pr.keys = keys;
      pr.lengths = lengths;
      Bytes parity;
      for (uint32_t slot = 0; slot < m; ++slot) {
        if (row[slot].empty()) continue;
        req.coder->ApplyDelta(slot, row[slot], col.column - m, &parity);
      }
      pr.parity = BufferView(parity);
      col.parity_records.push_back(std::move(pr));
    }
  }
  return out;
}

void ExpectSameColumns(const std::vector<ReconstructedColumn>& got,
                       const std::vector<ReconstructedColumn>& want,
                       const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t c = 0; c < got.size(); ++c) {
    const auto& g = got[c];
    const auto& w = want[c];
    ASSERT_EQ(g.column, w.column) << where;
    ASSERT_EQ(g.records.size(), w.records.size()) << where << " col "
                                                  << g.column;
    for (size_t i = 0; i < g.records.size(); ++i) {
      EXPECT_EQ(g.records[i].rank, w.records[i].rank) << where;
      EXPECT_EQ(g.records[i].key, w.records[i].key) << where;
      EXPECT_EQ(g.records[i].value, w.records[i].value)
          << where << " col " << g.column << " rank " << g.records[i].rank;
    }
    ASSERT_EQ(g.parity_records.size(), w.parity_records.size())
        << where << " col " << g.column;
    for (size_t i = 0; i < g.parity_records.size(); ++i) {
      const auto& gp = g.parity_records[i];
      const auto& wp = w.parity_records[i];
      EXPECT_EQ(gp.rank, wp.rank) << where;
      EXPECT_EQ(gp.keys, wp.keys) << where;
      EXPECT_EQ(gp.lengths, wp.lengths) << where;
      EXPECT_EQ(gp.parity, wp.parity)
          << where << " col " << g.column << " rank " << gp.rank;
    }
  }
}

using PlanParam = std::tuple<std::string, FieldChoice, uint32_t>;

class RecoveryPlanTest : public ::testing::TestWithParam<PlanParam> {};

TEST_P(RecoveryPlanTest, MatchesPerRankReference) {
  const auto& [code_name, field, m] = GetParam();
  auto spec = parity::CodeSpec::Parse(code_name);
  ASSERT_TRUE(spec.ok());
  const uint32_t k = static_cast<uint32_t>(ParityCount(code_name, m));
  auto made = parity::MakeParityCode(*spec, m, k, field);
  ASSERT_TRUE(made.ok()) << made.status();
  const parity::ParityCode& code = **made;
  Rng rng(0x91a7 + m * 31 + static_cast<uint64_t>(field) * 7 +
          code_name.size());

  constexpr int kCases = 24;
  int rebuilt = 0;
  for (int c = 0; c < kCases; ++c) {
    // Every fourth group is a partial last group.
    const uint32_t existing =
        c % 4 == 3 ? 1 + static_cast<uint32_t>(rng.Uniform(m)) : m;
    const Group g = MakeGroup(code, existing, rng);

    // Lose up to min(k, 4) columns: existing data slots and/or parity.
    std::vector<uint32_t> candidates;
    for (uint32_t s = 0; s < existing; ++s) candidates.push_back(s);
    for (uint32_t j = 0; j < k; ++j) candidates.push_back(m + j);
    Shuffle(candidates, rng);
    const size_t lost = 1 + rng.Uniform(std::min<uint32_t>(k, 4));
    std::vector<uint32_t> missing(candidates.begin(),
                                  candidates.begin() + lost);
    std::sort(missing.begin(), missing.end());

    parity::RepairContext ctx;
    ctx.existing_slots = existing;
    ctx.missing = missing;
    for (uint32_t s = 0; s < existing; ++s) {
      if (!std::binary_search(missing.begin(), missing.end(), s)) {
        ctx.alive_data.push_back(s);
      }
    }
    for (uint32_t j = 0; j < k; ++j) {
      if (!std::binary_search(missing.begin(), missing.end(), m + j)) {
        ctx.alive_parity.push_back(j);
      }
    }
    auto plan = code.PlanRepair(ctx);
    if (!plan.ok()) continue;  // Beyond what the code repairs.

    ReconstructionRequest req;
    req.m = m;
    req.k = k;
    req.coder = &code;
    req.existing_slots = existing;
    req.missing_columns = missing;
    std::vector<uint32_t> reads = plan->read_columns;
    Shuffle(reads, rng);  // Replies arrive in any order.
    for (uint32_t col : reads) req.survivors.push_back(g.dumps[col]);

    const std::string where = code_name + " m=" + std::to_string(m) +
                              " case " + std::to_string(c);
    auto got = ReconstructColumns(req);
    ASSERT_TRUE(got.ok()) << where << ": " << got.status();
    ExpectSameColumns(*got, ReferenceReconstruct(req), where);

    // And the ground truth: rebuilt data equals the original members.
    for (const auto& col : *got) {
      if (col.column >= m) continue;
      size_t members = 0;
      for (Rank r = 1; r <= kRanks; ++r) {
        members += g.values[r][col.column].has_value();
      }
      ASSERT_EQ(col.records.size(), members) << where;
      for (const auto& rec : col.records) {
        EXPECT_EQ(rec.value, BufferView(*g.values[rec.rank][col.column]))
            << where;
      }
    }
    for (const auto& col : *got) {
      if (col.column < m) continue;
      const auto& truth = g.dumps[col.column].parity_records;
      ASSERT_EQ(col.parity_records.size(), truth.size()) << where;
      for (size_t i = 0; i < truth.size(); ++i) {
        EXPECT_EQ(col.parity_records[i].parity, truth[i].parity) << where;
      }
    }
    ++rebuilt;
  }
  EXPECT_GE(rebuilt, kCases / 2) << "too few repairable loss patterns";
}

INSTANTIATE_TEST_SUITE_P(
    CodesFieldsWidths, RecoveryPlanTest,
    ::testing::Combine(::testing::Values("rs", "rs+prog", "lrc2",
                                         "lrc2+prog"),
                       ::testing::Values(FieldChoice::kGf256,
                                         FieldChoice::kGf65536),
                       ::testing::Values(4u, 70u)),
    [](const ::testing::TestParamInfo<PlanParam>& info) {
      std::string name = std::get<0>(info.param);
      std::replace(name.begin(), name.end(), '+', '_');
      return name +
             (std::get<1>(info.param) == FieldChoice::kGf256 ? "_gf8"
                                                              : "_gf16") +
             "_m" + std::to_string(std::get<2>(info.param));
    });

// A parity byte corrupted past a shorter member's recorded length decodes
// into that member's padding: the reconstruction must refuse it.
TEST(RecoveryPlanDeathTest, CorruptParityPastShortMemberTripsPaddingCheck) {
  auto made = parity::MakeParityCode(parity::CodeSpec{}, 4, 2,
                                     FieldChoice::kGf256);
  ASSERT_TRUE(made.ok());
  const parity::ParityCode& code = **made;
  Rng rng(77);
  const std::vector<Bytes> values = {rng.RandomBytes(10), rng.RandomBytes(40),
                                     rng.RandomBytes(25), rng.RandomBytes(3)};
  ReconstructionRequest req;
  req.m = 4;
  req.k = 2;
  req.coder = &code;
  req.existing_slots = 4;
  req.missing_columns = {0};
  WireParityRecord pr;
  pr.rank = 1;
  pr.keys.resize(4);
  pr.lengths.resize(4);
  for (uint32_t slot = 0; slot < 4; ++slot) {
    pr.keys[slot] = 100 + slot;
    pr.lengths[slot] = static_cast<uint32_t>(values[slot].size());
    code.ApplyDelta(slot, values[slot], 0, &pr.parity);
    if (slot == 0) continue;
    ColumnDump dump;
    dump.column = slot;
    dump.records.push_back(RankedRecord{1, 100 + slot, values[slot]});
    req.survivors.push_back(std::move(dump));
  }
  pr.parity.MutableData()[20] ^= 0x5A;  // Past slot 0's 10 bytes.
  ColumnDump parity;
  parity.column = 4;
  parity.parity_records.push_back(std::move(pr));
  req.survivors.push_back(std::move(parity));
  EXPECT_DEATH((void)ReconstructColumns(req), "non-zero padding");
}

}  // namespace
}  // namespace lhrs
