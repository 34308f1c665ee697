#include "parity/parity_code.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

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
      const uint32_t digit = static_cast<uint32_t>(c - '0');
      if (c < '0' || c > '9' || r > (UINT32_MAX - digit) / 10) {
        return Status::InvalidArgument("bad LRC locality in code name: " +
                                       std::string(name));
      }
      r = r * 10 + digit;
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

/// One PlanDecode over the available column identities, then one ApplyPlan
/// per wanted column. Every source is padded to the longest one rounded up
/// to whole field symbols; empty payloads are known-zero columns and short
/// ones are zero-padded once.
template <typename Payload>
Result<std::vector<Bytes>> DecodeThroughPlan(
    const ParityCode& code,
    const std::vector<std::pair<size_t, Payload>>& available,
    const std::vector<size_t>& missing_data) {
  std::vector<uint32_t> columns;
  columns.reserve(available.size());
  for (const auto& entry : available) {
    columns.push_back(static_cast<uint32_t>(entry.first));
  }
  auto plan = code.PlanDecode(
      columns, std::vector<uint32_t>(missing_data.begin(), missing_data.end()));
  if (!plan.ok()) return plan.status();

  size_t len = 0;
  for (uint32_t pos : plan->sources) {
    len = std::max(len, available[pos].second.size());
  }
  len = code.PaddedLength(len);
  std::vector<Bytes> padded_storage;
  std::vector<const uint8_t*> srcs(plan->sources.size(), nullptr);
  for (size_t t = 0; t < plan->sources.size(); ++t) {
    const Payload& p = available[plan->sources[t]].second;
    if (p.empty()) continue;
    if (p.size() == len) {
      srcs[t] = p.data();
    } else {
      padded_storage.push_back(PadTo(p, len));
      srcs[t] = padded_storage.back().data();
    }
  }
  std::vector<Bytes> out;
  out.reserve(plan->wanted.size());
  for (size_t w = 0; w < plan->wanted.size(); ++w) {
    Bytes rec(len, 0);
    code.ApplyPlan(*plan, w, srcs.data(), len, rec.data());
    out.push_back(std::move(rec));
  }
  return out;
}

template <GaloisField F>
Result<std::unique_ptr<ParityCode>> MakeTyped(const CodeSpec& spec,
                                              uint32_t m, uint32_t k) {
  if (m == 0 || k == 0) {
    return Status::InvalidArgument("parity code needs m >= 1 and k >= 1");
  }
  switch (spec.kind) {
    case CodeKind::kRs:
      return RsCodeT<F>::Make(m, k, spec);
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
