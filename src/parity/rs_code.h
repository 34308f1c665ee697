#ifndef LHRS_PARITY_RS_CODE_H_
#define LHRS_PARITY_RS_CODE_H_

#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "parity/linear_code.h"
#include "parity/parity_code.h"
#include "rs/generator.h"

namespace lhrs::parity {

/// The paper's generalized Reed-Solomon code: the normalised-Cauchy parity
/// matrix (rs/generator.h) makes the code MDS, so any m of the m + k
/// columns reconstruct the group and a decode inverts one m x m matrix.
/// Parity column 0 is all ones: the first parity bucket is a plain XOR.
template <GaloisField F>
class RsCodeT final : public LinearCodeT<F> {
 public:
  /// Fails with InvalidArgument on m or k == 0, or m + k beyond the field
  /// order.
  static Result<std::unique_ptr<ParityCode>> Make(uint32_t m, uint32_t k,
                                                  CodeSpec spec) {
    auto p = BuildParityMatrix<F>(m, k);
    if (!p.ok()) return p.status();
    return std::unique_ptr<ParityCode>(
        new RsCodeT<F>(std::move(p).value(), spec));
  }

  /// Uses exactly m of the available columns, preferring data columns
  /// (they carry identity rows, keeping the decode matrix mostly trivial),
  /// and inverts their stacked generator columns once.
  Result<DecodePlan> PlanDecode(
      const std::vector<uint32_t>& columns,
      const std::vector<uint32_t>& wanted) const override {
    const uint32_t m = this->m();
    if (columns.size() < m) {
      return Status::DataLoss(
          "unrecoverable record group: " + std::to_string(columns.size()) +
          " of " + std::to_string(m) + " required columns available");
    }
    for (uint32_t col : wanted) {
      LHRS_CHECK_LT(col, m) << "only data columns can be requested";
    }
    std::vector<uint32_t> use;  // Positions in `columns`.
    use.reserve(m);
    for (size_t pos = 0; pos < columns.size() && use.size() < m; ++pos) {
      if (columns[pos] < m) use.push_back(static_cast<uint32_t>(pos));
    }
    for (size_t pos = 0; pos < columns.size() && use.size() < m; ++pos) {
      if (columns[pos] >= m) use.push_back(static_cast<uint32_t>(pos));
    }
    LHRS_CHECK_EQ(use.size(), m);

    // Codeword relation: value(col) = sum_i d_i * G[i][col] with
    // G = [I | P]. Stack the m used columns into A (m x m):
    // A[i][t] = G[i][use[t]]; then d = values * A^{-1}, so wanted column
    // w reads used column t with coefficient Ainv[t][w].
    Matrix<F> a(m, m);
    for (size_t t = 0; t < m; ++t) {
      const size_t col = columns[use[t]];
      for (size_t i = 0; i < m; ++i) {
        if (col < m) {
          a.Set(i, t, i == col ? 1 : 0);
        } else {
          a.Set(i, t, this->Coefficient(i, col - m));
        }
      }
    }
    auto inv = a.Inverted();
    if (!inv.ok()) {
      return Status::Internal("decode matrix singular — MDS violation: " +
                              inv.status().message());
    }
    DecodePlan plan;
    plan.wanted = wanted;
    std::vector<uint16_t> rows(wanted.size() * m);
    for (size_t w = 0; w < wanted.size(); ++w) {
      for (size_t t = 0; t < m; ++t) {
        rows[w * m + t] = inv->At(t, wanted[w]);
      }
    }
    CompactDecodePlan(use, rows, &plan);
    return plan;
  }

  bool CanDecodeFrom(
      const std::vector<uint32_t>& columns,
      const std::vector<uint32_t>& wanted_data) const override {
    // MDS: any m distinct columns determine the whole group. A wanted
    // column already in hand is trivially determined.
    if (columns.size() >= this->m()) return true;
    return std::all_of(
        wanted_data.begin(), wanted_data.end(), [&](uint32_t w) {
          return std::find(columns.begin(), columns.end(), w) !=
                 columns.end();
        });
  }

  std::vector<uint32_t> ParityPreference(uint32_t data_slot) const override {
    (void)data_slot;  // Any parity column serves any slot equally.
    std::vector<uint32_t> order(this->k());
    std::iota(order.begin(), order.end(), 0);
    return order;
  }

  Result<RepairPlan> PlanRepair(const RepairContext& ctx) const override {
    const uint32_t m = this->m();
    const uint32_t zero_slots = m - ctx.existing_slots;
    bool missing_has_data = false;
    for (uint32_t col : ctx.missing) missing_has_data |= (col < m);

    // Feasibility (MDS bound + key metadata: rebuilding data needs at
    // least one parity survivor, which holds the group's key directory).
    if (ctx.alive_data.size() + zero_slots + ctx.alive_parity.size() < m ||
        (missing_has_data && ctx.alive_parity.empty())) {
      return Status::DataLoss(
          "group unrecoverable: fewer than m columns survive");
    }

    RepairPlan plan;
    plan.progressive = this->spec().progressive && missing_has_data;
    // Read set: every alive data column (missing parity re-encodes from
    // the full data row), plus enough parity columns for the decode — at
    // least one when data is missing, for the key metadata. Progressive
    // mode reads every alive parity column instead, trading messages for
    // the chance to decode on the earliest sufficient subset.
    for (uint32_t slot : ctx.alive_data) plan.read_columns.push_back(slot);
    size_t parity_reads =
        m > zero_slots + ctx.alive_data.size()
            ? m - zero_slots - ctx.alive_data.size()
            : 0;
    if (missing_has_data && parity_reads == 0) parity_reads = 1;
    if (plan.progressive) parity_reads = ctx.alive_parity.size();
    LHRS_CHECK_LE(parity_reads, ctx.alive_parity.size());
    for (size_t i = 0; i < parity_reads; ++i) {
      plan.read_columns.push_back(m + ctx.alive_parity[i]);
    }
    return plan;
  }

 private:
  RsCodeT(Matrix<F> parity_matrix, CodeSpec spec)
      : LinearCodeT<F>(std::move(parity_matrix), spec) {}
};

}  // namespace lhrs::parity

#endif  // LHRS_PARITY_RS_CODE_H_
