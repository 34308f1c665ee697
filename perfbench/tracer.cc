#include "tracer.h"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace lhrs::perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kPhase: return "phase";
    case Layer::kWorkloadNext: return "workload.next";
    case Layer::kSddsSubmit: return "sdds.submit";
    case Layer::kNetStep: return "net.step";
    case Layer::kNetDrain: return "net.drain";
    case Layer::kLhrsRecover: return "lhrs.recover_all";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer::Frame::Frame(Tracer& tracer, Layer layer, uint64_t op)
    : tracer_(tracer),
      layer_(layer),
      op_(op),
      id_(tracer.next_id_++),
      parent_(tracer.stack_.empty() ? 0 : tracer.stack_.back().id) {
  tracer_.stack_.push_back({id_, 0});
  start_ns_ = tracer_.NowNs();
}

Tracer::Frame::~Frame() {
  const int64_t end_ns = tracer_.NowNs();
  const int64_t duration = end_ns - start_ns_;
  const int64_t self = duration - tracer_.stack_.back().child_ns;
  tracer_.stack_.pop_back();
  if (!tracer_.stack_.empty()) tracer_.stack_.back().child_ns += duration;
  const int64_t clamped = std::clamp<int64_t>(
      self, 0, std::numeric_limits<uint32_t>::max());
  tracer_.self_ns_[static_cast<size_t>(layer_)].push_back(
      static_cast<uint32_t>(clamped));
  if (tracer_.spans_.size() < kMaxSpans) {
    tracer_.spans_.push_back({start_ns_, end_ns, op_, id_, parent_, layer_});
  }
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                 "\"parent\":%u,\"op\":%llu}}\n",
                 i == 0 ? "" : ",", LayerName(s.layer), s.start_ns / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, s.id, s.parent,
                 static_cast<unsigned long long>(s.op));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace lhrs::perfbench
