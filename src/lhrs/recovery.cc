#include "lhrs/recovery.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <utility>

#include "common/buffer.h"
#include "common/logging.h"
#include "lhrs/rank_table.h"

namespace lhrs {

namespace {

/// Everything known about one record group (one rank) during
/// reconstruction.
struct RankState {
  std::vector<std::optional<Key>> keys;     // size m; merged metadata.
  std::vector<uint32_t> lengths;            // size m.
  // Per column (data slots, then parity columns): a shared view into that
  // survivor's dump message, or null when it holds nothing at this rank —
  // collation never copies a payload byte.
  std::vector<const BufferView*> columns;
  bool have_parity_meta = false;

  RankState() = default;
  RankState(uint32_t m, size_t column_count)
      : keys(m), lengths(m, 0), columns(column_count, nullptr) {}
};

}  // namespace

Result<std::vector<ReconstructedColumn>> ReconstructColumns(
    const ReconstructionRequest& req) {
  const uint32_t m = req.m;
  LHRS_CHECK(req.coder != nullptr);
  LHRS_CHECK_LE(req.existing_slots, m);

  std::vector<uint32_t> missing_data;
  std::vector<uint32_t> missing_parity;
  for (uint32_t col : req.missing_columns) {
    (col < m ? missing_data : missing_parity).push_back(col);
  }

  // Feasibility in column-identity space: the survivors (plus known-zero
  // slots) must determine every missing data column. For an MDS code this
  // is the classic >= m columns bound; non-MDS codes rank-check.
  std::vector<uint32_t> have;
  for (const auto& s : req.survivors) have.push_back(s.column);
  for (uint32_t slot = req.existing_slots; slot < m; ++slot) {
    have.push_back(slot);
  }
  if (!req.coder->CanDecodeFrom(have, missing_data)) {
    return Status::DataLoss("group unrecoverable: " +
                            std::to_string(req.survivors.size()) +
                            " survivors + " +
                            std::to_string(m - req.existing_slots) +
                            " empty slots do not determine the lost columns");
  }
  bool have_parity_survivor = false;
  for (const auto& s : req.survivors) {
    if (s.is_parity(m)) have_parity_survivor = true;
  }
  if (!missing_data.empty() && !have_parity_survivor) {
    return Status::DataLoss(
        "data columns lost and no parity survivor holds their keys");
  }
  if (!missing_parity.empty()) {
    // Re-encoding a parity column needs every existing data slot's value:
    // as a survivor, as a freshly decoded missing column, or known-zero.
    for (uint32_t slot = 0; slot < req.existing_slots; ++slot) {
      const bool covered =
          std::find(have.begin(), have.end(), slot) != have.end() ||
          std::find(missing_data.begin(), missing_data.end(), slot) !=
              missing_data.end();
      if (!covered) {
        return Status::DataLoss(
            "parity column lost and data slot " + std::to_string(slot) +
            " is neither a survivor nor being rebuilt");
      }
    }
  }

  // Collate survivors per rank.
  size_t column_count = m + req.k;
  for (const auto& s : req.survivors) {
    column_count = std::max<size_t>(column_count, s.column + 1);
  }
  RankTable<RankState> table;
  auto rank_state = [&](Rank r) -> RankState& {
    return table.TryEmplace(r, m, column_count);
  };
  for (const auto& s : req.survivors) {
    if (s.is_parity(m)) {
      for (const auto& pr : s.parity_records) {
        RankState& st = rank_state(pr.rank);
        st.columns[s.column] = &pr.parity;
        if (!st.have_parity_meta) {
          st.keys = pr.keys;
          st.lengths = pr.lengths;
          st.have_parity_meta = true;
        }
      }
    } else {
      for (const auto& rec : s.records) {
        RankState& st = rank_state(rec.rank);
        st.columns[s.column] = &rec.value;
      }
    }
  }
  // Fold data-dump metadata in (and cross-check against parity metadata).
  for (const auto& s : req.survivors) {
    if (s.is_parity(m)) continue;
    for (const auto& rec : s.records) {
      RankState& st = *table.Find(rec.rank);
      if (st.have_parity_meta) {
        LHRS_CHECK(st.keys[s.column].has_value() &&
                   *st.keys[s.column] == rec.key)
            << "parity metadata disagrees with data column " << s.column;
      } else {
        st.keys[s.column] = rec.key;
        st.lengths[s.column] = static_cast<uint32_t>(rec.value.size());
      }
    }
  }

  std::vector<ReconstructedColumn> out;
  out.reserve(req.missing_columns.size());
  std::map<uint32_t, ReconstructedColumn*> out_by_col;
  for (uint32_t col : req.missing_columns) {
    out.push_back(ReconstructedColumn{col, {}, {}});
  }
  for (auto& col : out) out_by_col[col.column] = &col;

  const BufferView kEmpty;
  auto column = [&](const RankState& st, uint32_t col) -> const BufferView& {
    return st.columns[col] == nullptr ? kEmpty : *st.columns[col];
  };
  for (Rank rank = 0; rank < table.end_rank(); ++rank) {
    if (!table.Contains(rank)) continue;
    const RankState& st = *table.Find(rank);
    // Which of the missing data slots actually hold a member here?
    std::vector<size_t> wanted;
    for (uint32_t col : missing_data) {
      if (st.keys[col].has_value()) wanted.push_back(col);
    }

    std::vector<Bytes> decoded;
    if (!wanted.empty()) {
      std::vector<std::pair<size_t, BufferView>> available;
      // Survivor data columns (absent record == empty == zero column).
      for (const auto& s : req.survivors) {
        if (s.is_parity(m)) continue;
        available.emplace_back(s.column, column(st, s.column));
      }
      // Known-zero (non-existing) slots.
      for (uint32_t slot = req.existing_slots; slot < m; ++slot) {
        available.emplace_back(slot, kEmpty);
      }
      // Survivor parity columns (absent parity record == zero parity; only
      // consistent when the rank has no members there, checked by decode).
      for (const auto& s : req.survivors) {
        if (!s.is_parity(m)) continue;
        available.emplace_back(s.column, column(st, s.column));
      }
      if (req.progressive) {
        // Feed the code's incremental decoder column by column and stop as
        // soon as the rank suffices: the record group decodes from the
        // earliest sufficient survivor subset.
        std::vector<uint32_t> wanted32(wanted.begin(), wanted.end());
        auto decoder = req.coder->NewProgressiveDecoder(wanted32, {});
        for (const auto& [col, payload] : available) {
          if (decoder->Ready()) break;
          decoder->AddColumn(static_cast<uint32_t>(col), payload);
        }
        auto result = decoder->Decode();
        if (!result.ok()) return result.status();
        decoded = std::move(result).value();
      } else {
        auto result = req.coder->DecodeData(available, wanted);
        if (!result.ok()) return result.status();
        decoded = std::move(result).value();
      }
      // Trim each reconstructed value to its recorded length; the padding
      // beyond it must be zero, a strong end-to-end decode check.
      for (size_t i = 0; i < wanted.size(); ++i) {
        const uint32_t len = st.lengths[wanted[i]];
        LHRS_CHECK_LE(len, decoded[i].size());
        for (size_t p = len; p < decoded[i].size(); ++p) {
          LHRS_CHECK_EQ(decoded[i][p], 0)
              << "decode produced non-zero padding";
        }
        decoded[i].resize(len);
        out_by_col[wanted[i]]->records.push_back(
            RankedRecord{rank, *st.keys[wanted[i]], decoded[i]});
      }
    }

    if (!missing_parity.empty()) {
      // Assemble the full data row (survivor values + freshly decoded) and
      // re-encode the missing parity columns.
      std::vector<std::span<const uint8_t>> row(m);
      bool any_member = false;
      for (uint32_t slot = 0; slot < req.existing_slots; ++slot) {
        if (!st.keys[slot].has_value()) continue;
        any_member = true;
        if (st.columns[slot] != nullptr) {
          row[slot] = *st.columns[slot];
          continue;
        }
        auto w = std::find(wanted.begin(), wanted.end(), slot);
        LHRS_CHECK(w != wanted.end())
            << "member value for slot " << slot << " is neither a survivor "
            << "nor reconstructible";
        row[slot] = decoded[w - wanted.begin()];
      }
      if (any_member) {
        for (uint32_t col : missing_parity) {
          const uint32_t j = col - m;
          BufferView parity;
          for (uint32_t slot = 0; slot < m; ++slot) {
            if (row[slot].empty()) continue;
            req.coder->ApplyDelta(slot, row[slot], j, &parity);
          }
          WireParityRecord pr;
          pr.rank = rank;
          pr.keys = st.keys;
          pr.lengths = st.lengths;
          pr.parity = std::move(parity);
          out_by_col[col]->parity_records.push_back(std::move(pr));
        }
      }
    }
  }
  return out;
}

}  // namespace lhrs
