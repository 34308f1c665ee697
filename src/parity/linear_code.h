#ifndef LHRS_PARITY_LINEAR_CODE_H_
#define LHRS_PARITY_LINEAR_CODE_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/buffer.h"
#include "common/bytes.h"
#include "common/logging.h"
#include "parity/parity_code.h"
#include "rs/decode_plan.h"
#include "rs/matrix.h"

namespace lhrs::parity {

/// The byte-level half of every parity code here: a systematic linear code
/// over GF(2^f) whose parity column j is sum_i P[i][j] * data_i for a fixed
/// m x k coefficient matrix P. Encode, both ApplyDelta forms, ApplyPlan and
/// PaddedLength depend on P alone; the RS and LRC codes differ only in P
/// and in how they plan decodes and repairs, which they supply.
///
/// Payloads are variable-length byte strings; the code semantically operates
/// on buffers zero-padded to a common length, and an absent group member is
/// an all-zero buffer. Callers therefore never need to materialise padding:
/// `ApplyDelta` grows the parity buffer on demand, and decoding pads
/// survivors internally.
template <GaloisField F>
class LinearCodeT : public ParityCode {
 public:
  using Symbol = typename F::Symbol;

  uint32_t m() const final { return static_cast<uint32_t>(pmat_.rows()); }
  uint32_t k() const final { return static_cast<uint32_t>(pmat_.cols()); }
  const CodeSpec& spec() const final { return spec_; }

  std::vector<Bytes> Encode(
      std::span<const Bytes* const> data) const final {
    LHRS_CHECK_EQ(data.size(), m());
    size_t len = 0;
    for (const Bytes* d : data) {
      if (d != nullptr) len = std::max(len, d->size());
    }
    len = PaddedLength(len);
    std::vector<Bytes> parity(k(), Bytes(len, 0));
    if (len == 0) return parity;
    // Pad each present member once (full-length members are fed to the
    // kernel in place), then fold every member into each parity column
    // with one fused row pass: one read-modify-write of the parity buffer
    // per column instead of one per member.
    std::vector<Bytes> padded_storage;
    std::vector<const uint8_t*> srcs;
    std::vector<size_t> slots;
    for (size_t i = 0; i < m(); ++i) {
      if (data[i] == nullptr || data[i]->empty()) continue;
      if (data[i]->size() == len) {
        srcs.push_back(data[i]->data());
      } else {
        padded_storage.push_back(PadTo(*data[i], len));
        srcs.push_back(padded_storage.back().data());
      }
      slots.push_back(i);
    }
    std::vector<Symbol> coeffs(srcs.size());
    for (size_t j = 0; j < k(); ++j) {
      for (size_t t = 0; t < slots.size(); ++t) {
        coeffs[t] = Coefficient(slots[t], j);
      }
      F::MulAddRow(parity[j].data(), srcs.data(), coeffs.data(),
                   srcs.size(), len);
    }
    return parity;
  }

  /// `delta` is old_payload XOR new_payload (with the shorter one
  /// zero-padded), which equals new_payload on insert and old_payload on
  /// delete.
  void ApplyDelta(size_t slot, std::span<const uint8_t> delta,
                  size_t parity_index, Bytes* parity) const final {
    LHRS_CHECK_LT(slot, m());
    LHRS_CHECK_LT(parity_index, k());
    const Symbol coeff = Coefficient(slot, parity_index);
    if (coeff == 0) return;
    const size_t len = PaddedLength(delta.size());
    if (parity->size() < len) parity->resize(len, 0);
    MulAddPadded(parity->data(), delta, len, coeff);
  }

  void ApplyDelta(size_t slot, std::span<const uint8_t> delta,
                  size_t parity_index, BufferView* parity) const final {
    LHRS_CHECK_LT(slot, m());
    LHRS_CHECK_LT(parity_index, k());
    // Zero coefficient (non-MDS layouts): the slot does not feed this
    // parity column, and the buffer must not grow for it — a local parity
    // stores only its own group's extent.
    const Symbol coeff = Coefficient(slot, parity_index);
    if (coeff == 0) return;
    const size_t len = PaddedLength(delta.size());
    uint8_t* dst = parity->MutableResized(std::max(parity->size(), len));
    MulAddPadded(dst, delta, len, coeff);
  }

  void ApplyPlan(const DecodePlan& plan, size_t w,
                 const uint8_t* const* srcs, size_t len,
                 uint8_t* dst) const final {
    ApplyDecodePlan<F>(plan, w, srcs, len, dst);
  }

  std::unique_ptr<RankTracker> NewRankTracker(
      std::vector<uint32_t> wanted_data,
      const std::vector<uint32_t>& known_zero_data) const final;

  size_t PaddedLength(size_t n) const final {
    const size_t s = F::kSymbolBytes;
    return (n + s - 1) / s * s;
  }

 protected:
  LinearCodeT(Matrix<F> parity_matrix, CodeSpec spec)
      : pmat_(std::move(parity_matrix)), spec_(spec) {}

  const Matrix<F>& parity_matrix() const { return pmat_; }

  /// Coefficient applied to data slot `i` when folding into parity `j`.
  Symbol Coefficient(size_t data_slot, size_t parity_idx) const {
    return pmat_.At(data_slot, parity_idx);
  }

 private:
  /// dst[0, len) ^= coeff * delta, `delta` zero-padded to `len`.
  static void MulAddPadded(uint8_t* dst, std::span<const uint8_t> delta,
                           size_t len, Symbol coeff) {
    if (delta.size() == len) {
      F::MulAddBuffer(dst, delta.data(), len, coeff);
    } else {
      const Bytes padded = PadTo(delta, len);
      F::MulAddBuffer(dst, padded.data(), len, coeff);
    }
  }

  Matrix<F> pmat_;
  CodeSpec spec_;
};

/// Incremental Gauss-Jordan elimination over the m data unknowns of a
/// linear parity code, shared by the rank tracker and the LRC
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
  explicit IncrementalSolver(const Matrix<F>* pmat)
      : pmat_(pmat),
        m_(static_cast<uint32_t>(pmat->rows())),
        k_(static_cast<uint32_t>(pmat->cols())),
        pivot_row_(m_, kNoRow) {}

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

  bool SolvedAll(const std::vector<uint32_t>& cols) const {
    return std::all_of(cols.begin(), cols.end(),
                       [&](uint32_t col) { return Solved(col); });
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

/// RankTracker over a concrete field and parity matrix: a solver that
/// never sees a payload.
template <GaloisField F>
class RankTrackerT final : public RankTracker {
 public:
  RankTrackerT(const Matrix<F>* pmat, std::vector<uint32_t> wanted_data,
               const std::vector<uint32_t>& known_zero_data)
      : solver_(pmat), wanted_(std::move(wanted_data)) {
    for (uint32_t col : wanted_) LHRS_CHECK_LT(col, pmat->rows());
    for (uint32_t col : known_zero_data) solver_.AddColumn(col);
  }

  bool AddColumn(uint32_t column) override {
    return solver_.AddColumn(column);
  }

  bool Ready() const override { return solver_.SolvedAll(wanted_); }

 private:
  IncrementalSolver<F> solver_;
  std::vector<uint32_t> wanted_;
};

template <GaloisField F>
std::unique_ptr<RankTracker> LinearCodeT<F>::NewRankTracker(
    std::vector<uint32_t> wanted_data,
    const std::vector<uint32_t>& known_zero_data) const {
  return std::make_unique<RankTrackerT<F>>(&pmat_, std::move(wanted_data),
                                           known_zero_data);
}

}  // namespace lhrs::parity

#endif  // LHRS_PARITY_LINEAR_CODE_H_
