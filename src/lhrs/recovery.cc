#include "lhrs/recovery.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "common/buffer.h"
#include "common/logging.h"

namespace lhrs {

namespace {

/// Bump allocator over zeroed 64-KiB Buffers for one rebuilt data column:
/// each decoded value is written in place and handed on as a view of the
/// arena, so no record group allocates and the spare's store adopts the
/// values without a copy.
class ColumnArena {
 public:
  static constexpr size_t kArenaBytes = 64 * 1024;

  /// `len` zeroed, writable bytes at the arena's tail (in a fresh arena
  /// when they do not fit).
  uint8_t* Reserve(size_t len) {
    if (buffer_ == nullptr || used_ + len > buffer_->capacity()) {
      buffer_ = Buffer::Allocate(std::max(kArenaBytes, len));
      used_ = 0;
    }
    return buffer_->data() + used_;
  }

  /// Hands out the first `n` bytes of the last reservation. The rest of it
  /// must still be zero (the decode's padding check ensures it): the next
  /// reservation starts at the next word boundary after the view.
  BufferView Commit(size_t n) {
    BufferView view(buffer_, used_, n);
    used_ += (n + 7) & ~size_t{7};
    return view;
  }

 private:
  std::shared_ptr<Buffer> buffer_;
  size_t used_ = 0;
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

  // Collate survivors per rank into flat per-rank arrays (ranks are dense
  // small integers): merged key/length metadata per data slot, and per
  // column a shared view into that survivor's dump, or null when it holds
  // nothing at the rank — collation never copies a payload byte.
  size_t column_count = m + req.k;
  Rank end_rank = 0;
  for (const auto& s : req.survivors) {
    column_count = std::max<size_t>(column_count, s.column + 1);
    for (const auto& pr : s.parity_records) {
      end_rank = std::max(end_rank, pr.rank + 1);
    }
    for (const auto& rec : s.records) {
      end_rank = std::max(end_rank, rec.rank + 1);
    }
  }
  std::vector<bool> present(end_rank, false);
  std::vector<bool> have_parity_meta(end_rank, false);
  std::vector<std::optional<Key>> keys(size_t{end_rank} * m);
  std::vector<uint32_t> lengths(size_t{end_rank} * m, 0);
  std::vector<const BufferView*> columns(size_t{end_rank} * column_count,
                                         nullptr);
  for (const auto& s : req.survivors) {
    if (s.is_parity(m)) {
      for (const auto& pr : s.parity_records) {
        present[pr.rank] = true;
        columns[pr.rank * column_count + s.column] = &pr.parity;
        if (!have_parity_meta[pr.rank]) {
          LHRS_CHECK_EQ(pr.keys.size(), m);
          LHRS_CHECK_EQ(pr.lengths.size(), m);
          std::copy(pr.keys.begin(), pr.keys.end(),
                    keys.begin() + pr.rank * m);
          std::copy(pr.lengths.begin(), pr.lengths.end(),
                    lengths.begin() + pr.rank * m);
          have_parity_meta[pr.rank] = true;
        }
      }
    } else {
      for (const auto& rec : s.records) {
        present[rec.rank] = true;
        columns[rec.rank * column_count + s.column] = &rec.value;
      }
    }
  }
  // Fold data-dump metadata in (and cross-check against parity metadata).
  for (const auto& s : req.survivors) {
    if (s.is_parity(m)) continue;
    for (const auto& rec : s.records) {
      const size_t at = rec.rank * m + s.column;
      if (have_parity_meta[rec.rank]) {
        LHRS_CHECK(keys[at].has_value() && *keys[at] == rec.key)
            << "parity metadata disagrees with data column " << s.column;
      } else {
        keys[at] = rec.key;
        lengths[at] = static_cast<uint32_t>(rec.value.size());
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

  // One decode plan for the whole request: every record group has the same
  // columns in hand (survivor data columns — an absent record is a zero
  // column —, known-zero slots, then survivor parity columns), so the
  // coefficients are solved once and only the kernel passes run per rank.
  std::vector<uint32_t> available;
  for (const auto& s : req.survivors) {
    if (!s.is_parity(m)) available.push_back(s.column);
  }
  for (uint32_t slot = req.existing_slots; slot < m; ++slot) {
    available.push_back(slot);
  }
  for (const auto& s : req.survivors) {
    if (s.is_parity(m)) available.push_back(s.column);
  }
  DecodePlan plan;
  if (!missing_data.empty()) {
    auto planned = req.coder->PlanDecode(available, missing_data);
    if (!planned.ok()) return planned.status();
    plan = std::move(planned).value();
  }
  const size_t width = plan.sources.size();
  std::vector<uint32_t> source_cols(width);
  for (size_t t = 0; t < width; ++t) {
    source_cols[t] = available[plan.sources[t]];
  }
  std::vector<ColumnArena> arenas(missing_data.size());

  // Per-rank scratch, reused across ranks: no allocation per record group
  // once the longest group has been seen.
  std::vector<const uint8_t*> srcs(width);
  Bytes padding;
  std::vector<size_t> wanted;         // Indexes into plan.wanted.
  std::vector<BufferView> decoded;    // Parallel to `wanted`.
  std::vector<std::span<const uint8_t>> row(m);
  const BufferView kEmpty;
  for (Rank rank = 0; rank < end_rank; ++rank) {
    if (!present[rank]) continue;
    const std::optional<Key>* rank_keys = keys.data() + rank * m;
    const uint32_t* rank_lengths = lengths.data() + rank * m;
    const BufferView* const* rank_columns =
        columns.data() + rank * column_count;
    auto column = [&](uint32_t col) -> const BufferView& {
      return rank_columns[col] == nullptr ? kEmpty : *rank_columns[col];
    };
    // Which of the missing data slots actually hold a member here?
    wanted.clear();
    decoded.clear();
    for (size_t w = 0; w < missing_data.size(); ++w) {
      if (rank_keys[missing_data[w]].has_value()) wanted.push_back(w);
    }

    if (!wanted.empty()) {
      // Source views at this rank, zero-padded to the longest one (absent
      // parity record == zero parity; only consistent when the rank has no
      // members there, which the padding check below catches).
      size_t len = 0;
      for (uint32_t col : source_cols) {
        len = std::max(len, column(col).size());
      }
      len = req.coder->PaddedLength(len);
      if (padding.size() < width * len) padding.resize(width * len);
      for (size_t t = 0; t < width; ++t) {
        const BufferView& p = column(source_cols[t]);
        if (p.empty()) {
          srcs[t] = nullptr;
        } else if (p.size() == len) {
          srcs[t] = p.data();
        } else {
          uint8_t* pad = padding.data() + t * len;
          std::memcpy(pad, p.data(), p.size());
          std::memset(pad + p.size(), 0, len - p.size());
          srcs[t] = pad;
        }
      }
      // Decode each value straight into its column's arena, then trim it
      // to its recorded length; the padding beyond it must be zero, a
      // strong end-to-end decode check.
      for (size_t w : wanted) {
        const uint32_t slot = missing_data[w];
        const uint32_t rec_len = rank_lengths[slot];
        LHRS_CHECK_LE(rec_len, len);
        uint8_t* dst = arenas[w].Reserve(len);
        req.coder->ApplyPlan(plan, w, srcs.data(), len, dst);
        for (size_t p = rec_len; p < len; ++p) {
          LHRS_CHECK_EQ(dst[p], 0) << "decode produced non-zero padding";
        }
        decoded.push_back(arenas[w].Commit(rec_len));
        out_by_col[slot]->records.push_back(
            RankedRecord{rank, *rank_keys[slot], decoded.back()});
      }
    }

    if (!missing_parity.empty()) {
      // Assemble the full data row (survivor values + freshly decoded) and
      // re-encode the missing parity columns.
      bool any_member = false;
      for (uint32_t slot = 0; slot < m; ++slot) {
        row[slot] = {};
        if (slot >= req.existing_slots || !rank_keys[slot].has_value()) {
          continue;
        }
        any_member = true;
        if (rank_columns[slot] != nullptr) {
          row[slot] = *rank_columns[slot];
          continue;
        }
        size_t i = 0;
        while (i < wanted.size() && missing_data[wanted[i]] != slot) ++i;
        LHRS_CHECK(i < wanted.size())
            << "member value for slot " << slot << " is neither a survivor "
            << "nor reconstructible";
        row[slot] = decoded[i];
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
          pr.keys.assign(rank_keys, rank_keys + m);
          pr.lengths.assign(rank_lengths, rank_lengths + m);
          pr.parity = std::move(parity);
          out_by_col[col]->parity_records.push_back(std::move(pr));
        }
      }
    }
  }
  return out;
}

}  // namespace lhrs
