#ifndef LHRS_PARITY_LINEAR_DECODE_H_
#define LHRS_PARITY_LINEAR_DECODE_H_

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/bytes.h"
#include "common/logging.h"
#include "common/result.h"
#include "parity/parity_code.h"
#include "rs/decode_plan.h"
#include "rs/matrix.h"

namespace lhrs::parity {

/// Incremental Gauss-Jordan elimination over the m data unknowns of a
/// linear parity code, shared by the progressive decoder and the
/// feasibility/plan checks.
///
/// Every codeword column contributes one equation over the data unknowns
/// x_0..x_{m-1}: a data column i is the unit equation x_i = payload(i)
/// (known-zero slots are unit equations with an empty payload), and parity
/// column m+j is sum_i P[i][j] * x_i = payload(m+j). Equations are kept in
/// reduced row-echelon form; each row also carries the combination of
/// absorbed columns that produced it. Elimination works on column
/// identities only, so its result is a DecodePlan: solved once, applied to
/// any number of record groups.
template <GaloisField F>
class IncrementalSolver {
 public:
  using Symbol = typename F::Symbol;

  /// `pmat` is the m x k parity-coefficient matrix; it must outlive the
  /// solver.
  IncrementalSolver(const Matrix<F>* pmat, uint32_t m, uint32_t k)
      : pmat_(pmat), m_(m), k_(k), pivot_row_(m, kNoRow) {}

  uint32_t m() const { return m_; }

  /// Absorbs one codeword column. Returns true when it raised the rank,
  /// false when redundant.
  bool AddColumn(uint32_t column) {
    LHRS_CHECK_LT(column, m_ + k_);
    std::vector<Symbol> row(m_, 0);
    if (column < m_) {
      row[column] = 1;
    } else {
      for (uint32_t i = 0; i < m_; ++i) {
        row[i] = pmat_->At(i, column - m_);
      }
    }
    // New equation's combination: the unit vector on the absorbed-column
    // slot it would occupy.
    std::vector<Symbol> comb(rows_.size() + 1, 0);
    comb.back() = 1;

    // Reduce against the existing pivot rows.
    for (uint32_t c = 0; c < m_; ++c) {
      if (row[c] == 0 || pivot_row_[c] == kNoRow) continue;
      const size_t r = pivot_row_[c];
      const Symbol f = row[c];
      AddScaled(&row, rows_[r], f);
      AddScaled(&comb, combs_[r], f);
    }
    uint32_t pivot = m_;
    for (uint32_t c = 0; c < m_; ++c) {
      if (row[c] != 0) {
        pivot = c;
        break;
      }
    }
    if (pivot == m_) return false;  // Dependent on absorbed columns.

    // Normalize and back-eliminate the new pivot from every older row so
    // the system stays fully reduced.
    const Symbol inv = F::Inv(row[pivot]);
    Scale(&row, inv);
    Scale(&comb, inv);
    for (size_t r = 0; r < rows_.size(); ++r) {
      const Symbol f = rows_[r][pivot];
      if (f == 0) continue;
      AddScaled(&rows_[r], row, f);
      AddScaled(&combs_[r], comb, f);
    }
    pivot_row_[pivot] = rows_.size();
    rows_.push_back(std::move(row));
    combs_.push_back(std::move(comb));
    return true;
  }

  size_t rank() const { return rows_.size(); }

  /// True when data column `col` is fully determined: its pivot row exists
  /// and involves no other unknown.
  bool Solved(uint32_t col) const {
    LHRS_CHECK_LT(col, m_);
    if (pivot_row_[col] == kNoRow) return false;
    const auto& row = rows_[pivot_row_[col]];
    for (uint32_t c = 0; c < m_; ++c) {
      if (c != col && row[c] != 0) return false;
    }
    return true;
  }

  /// The plan that solves `wanted` (each Solved()) from the absorbed
  /// columns; `positions[i]` is where the i-th useful absorbed column sits
  /// in the caller's available list.
  DecodePlan Plan(const std::vector<uint32_t>& wanted,
                  const std::vector<uint32_t>& positions) const {
    LHRS_CHECK_EQ(positions.size(), rows_.size());
    const size_t width = positions.size();
    std::vector<uint16_t> rows(wanted.size() * width, 0);
    for (size_t w = 0; w < wanted.size(); ++w) {
      LHRS_CHECK(Solved(wanted[w]));
      const auto& comb = combs_[pivot_row_[wanted[w]]];
      std::copy(comb.begin(), comb.end(), rows.begin() + w * width);
    }
    DecodePlan plan;
    plan.wanted = wanted;
    CompactDecodePlan(positions, rows, &plan);
    return plan;
  }

 private:
  static constexpr size_t kNoRow = ~size_t{0};

  static void Scale(std::vector<Symbol>* v, Symbol f) {
    for (Symbol& x : *v) x = F::Mul(x, f);
  }
  /// v += f * w (GF(2^x): subtraction is addition), padding v with zeros
  /// when w is longer (older rows have shorter combination vectors).
  static void AddScaled(std::vector<Symbol>* v, const std::vector<Symbol>& w,
                        Symbol f) {
    if (v->size() < w.size()) v->resize(w.size(), 0);
    for (size_t i = 0; i < w.size(); ++i) {
      (*v)[i] = F::Add((*v)[i], F::Mul(f, w[i]));
    }
  }

  const Matrix<F>* pmat_;
  uint32_t m_;
  uint32_t k_;
  std::vector<size_t> pivot_row_;           // data column -> row, or kNoRow.
  std::vector<std::vector<Symbol>> rows_;   // RREF coefficient rows.
  std::vector<std::vector<Symbol>> combs_;  // absorbed-column mix per row.
};

/// ProgressiveDecoder over a concrete field and parity matrix: the solver
/// tracks the rank, the useful columns' payloads are retained (shared
/// views), and Decode applies the solver's plan to them.
template <GaloisField F>
class ProgressiveDecoderT final : public ProgressiveDecoder {
 public:
  ProgressiveDecoderT(const Matrix<F>* pmat, uint32_t m, uint32_t k,
                      std::vector<uint32_t> wanted_data,
                      std::vector<uint32_t> known_zero_data)
      : solver_(pmat, m, k), wanted_(std::move(wanted_data)) {
    for (uint32_t col : wanted_) LHRS_CHECK_LT(col, m);
    for (uint32_t col : known_zero_data) {
      if (solver_.AddColumn(col)) absorbed_.emplace_back(col, BufferView());
    }
  }

  bool AddColumn(uint32_t column, BufferView payload) override {
    if (!solver_.AddColumn(column)) return false;
    absorbed_.emplace_back(column, std::move(payload));
    ++columns_used_;
    return true;
  }

  bool Ready() const override {
    return std::all_of(wanted_.begin(), wanted_.end(),
                       [&](uint32_t col) { return solver_.Solved(col); });
  }

  size_t columns_used() const override { return columns_used_; }

  Result<std::vector<Bytes>> Decode() const override {
    if (!Ready()) {
      return Status::DataLoss(
          "progressive decode: absorbed columns do not determine every "
          "wanted column");
    }
    std::vector<uint32_t> positions(absorbed_.size());
    std::iota(positions.begin(), positions.end(), 0);
    return DecodeWithPlan(solver_.Plan(wanted_, positions), absorbed_,
                          F::kSymbolBytes, ApplyDecodePlan<F>);
  }

 private:
  IncrementalSolver<F> solver_;
  std::vector<uint32_t> wanted_;
  /// Useful columns in absorption order, with their payloads.
  std::vector<std::pair<size_t, BufferView>> absorbed_;
  size_t columns_used_ = 0;
};

/// Decode plan for non-MDS linear codes: feeds the available column
/// identities (data first, so survivor payloads are preferred over parity
/// recombination) into a solver. Fails with DataLoss when they do not
/// determine every wanted column.
template <GaloisField F>
Result<DecodePlan> PlanLinearDecode(const Matrix<F>& pmat, uint32_t m,
                                    uint32_t k,
                                    const std::vector<uint32_t>& columns,
                                    const std::vector<uint32_t>& wanted) {
  for (uint32_t col : wanted) {
    LHRS_CHECK_LT(col, m) << "only data columns can be requested";
  }
  IncrementalSolver<F> solver(&pmat, m, k);
  std::vector<uint32_t> positions;
  for (const bool data_pass : {true, false}) {
    for (size_t pos = 0; pos < columns.size(); ++pos) {
      if ((columns[pos] < m) != data_pass) continue;
      if (solver.AddColumn(columns[pos])) {
        positions.push_back(static_cast<uint32_t>(pos));
      }
    }
  }
  for (uint32_t col : wanted) {
    if (!solver.Solved(col)) {
      return Status::DataLoss(
          "unrecoverable record group: available columns do not determine "
          "data column " + std::to_string(col));
    }
  }
  return solver.Plan(wanted, positions);
}

}  // namespace lhrs::parity

#endif  // LHRS_PARITY_LINEAR_DECODE_H_
