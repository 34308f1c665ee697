#include "parity/parity_code.h"

#include <string>

#include "gf/gf256.h"
#include "gf/gf65536.h"
#include "parity/lrc_code.h"
#include "parity/rs_code.h"

namespace lhrs::parity {

std::string CodeSpec::Name() const {
  std::string name = kind == CodeKind::kRs
                         ? "rs"
                         : "lrc" + std::to_string(locality);
  if (progressive) name += "+prog";
  return name;
}

Result<CodeSpec> CodeSpec::Parse(std::string_view name) {
  CodeSpec spec;
  std::string_view rest = name;
  if (rest.size() >= 5 && rest.substr(rest.size() - 5) == "+prog") {
    spec.progressive = true;
    rest = rest.substr(0, rest.size() - 5);
  }
  if (rest == "rs") {
    spec.kind = CodeKind::kRs;
    return spec;
  }
  if (rest.substr(0, 3) == "lrc") {
    spec.kind = CodeKind::kLrc;
    rest = rest.substr(3);
    uint32_t r = 0;
    for (char c : rest) {
      if (c < '0' || c > '9') {
        return Status::InvalidArgument("bad LRC locality in code name: " +
                                       std::string(name));
      }
      r = r * 10 + static_cast<uint32_t>(c - '0');
    }
    if (r == 0) {
      return Status::InvalidArgument(
          "LRC code name needs a locality, e.g. lrc2");
    }
    spec.locality = r;
    return spec;
  }
  return Status::InvalidArgument("unknown parity code name: " +
                                 std::string(name));
}

namespace {

template <typename Payload>
Result<std::vector<Bytes>> DecodeThroughPlan(
    const ParityCode& code,
    const std::vector<std::pair<size_t, Payload>>& available,
    const std::vector<size_t>& missing_data) {
  auto plan = code.PlanDecode(
      ColumnsOf(available),
      std::vector<uint32_t>(missing_data.begin(), missing_data.end()));
  if (!plan.ok()) return plan.status();
  return DecodeWithPlan(
      *plan, available, code.PaddedLength(1) /* bytes per symbol */,
      [&code](const DecodePlan& p, size_t w, const uint8_t* const* srcs,
              size_t len, uint8_t* dst) {
        code.ApplyPlan(p, w, srcs, len, dst);
      });
}

template <GaloisField F>
Result<std::unique_ptr<ParityCode>> MakeTyped(const CodeSpec& spec,
                                              uint32_t m, uint32_t k) {
  if (m == 0 || k == 0) {
    return Status::InvalidArgument("parity code needs m >= 1 and k >= 1");
  }
  switch (spec.kind) {
    case CodeKind::kRs: {
      if (m + k > F::kOrder) {
        return Status::InvalidArgument(
            "group size m + availability k exceeds field order");
      }
      return std::unique_ptr<ParityCode>(
          std::make_unique<RsCodeT<F>>(m, k, spec));
    }
    case CodeKind::kLrc:
      return LrcCodeT<F>::Make(m, k, spec);
  }
  return Status::InvalidArgument("unknown parity code kind");
}

}  // namespace

Result<std::vector<Bytes>> ParityCode::DecodeData(
    const std::vector<std::pair<size_t, BufferView>>& available,
    const std::vector<size_t>& missing_data) const {
  return DecodeThroughPlan(*this, available, missing_data);
}

Result<std::vector<Bytes>> ParityCode::DecodeData(
    const std::vector<std::pair<size_t, Bytes>>& available,
    const std::vector<size_t>& missing_data) const {
  return DecodeThroughPlan(*this, available, missing_data);
}

Result<std::unique_ptr<ParityCode>> MakeParityCode(const CodeSpec& spec,
                                                   uint32_t m, uint32_t k,
                                                   FieldChoice field) {
  return field == FieldChoice::kGf256 ? MakeTyped<GF256>(spec, m, k)
                                      : MakeTyped<GF65536>(spec, m, k);
}

}  // namespace lhrs::parity
