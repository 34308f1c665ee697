#include "net/stats.h"

#include <map>
#include <sstream>

#include "telemetry/metrics.h"

namespace lhrs {

namespace {

std::map<int, std::string>& KindNames() {
  static auto* names = new std::map<int, std::string>();
  return *names;
}

}  // namespace

void RegisterMessageKindName(int kind, std::string name) {
  KindNames().emplace(kind, std::move(name));
}

std::string MessageKindName(int kind) {
  const auto& names = KindNames();
  auto it = names.find(kind);
  if (it != names.end()) return it->second;
  return "kind" + std::to_string(kind);
}

void MessageStats::ExportTo(telemetry::MetricsRegistry* registry) const {
  using telemetry::Labeled;
  for (const KindCounter& kc : per_kind_) {
    registry->GetCounter(Labeled("net.sent.messages", "kind",
                                 MessageKindName(kc.kind)))
        .Add(kc.counter.messages);
    registry->GetCounter(Labeled("net.sent.bytes", "kind",
                                 MessageKindName(kc.kind)))
        .Add(kc.counter.bytes);
  }
  for (size_t node = 0; node < sent_.size(); ++node) {
    const Counter& c = sent_[node];
    if (c.messages == 0) continue;
    registry->GetCounter(Labeled("net.node_sent.messages", "node",
                                 static_cast<int64_t>(node)))
        .Add(c.messages);
    registry->GetCounter(Labeled("net.node_sent.bytes", "node",
                                 static_cast<int64_t>(node)))
        .Add(c.bytes);
  }
  for (size_t node = 0; node < received_.size(); ++node) {
    const Counter& c = received_[node];
    if (c.messages == 0) continue;
    registry->GetCounter(Labeled("net.node_received.messages", "node",
                                 static_cast<int64_t>(node)))
        .Add(c.messages);
    registry->GetCounter(Labeled("net.node_received.bytes", "node",
                                 static_cast<int64_t>(node)))
        .Add(c.bytes);
  }
}

std::string MessageStats::ToString() const {
  std::ostringstream os;
  os << "messages=" << total_.messages << " bytes=" << total_.bytes
     << " deliveries=" << deliveries_ << " failures=" << delivery_failures_
     << "\n";
  for (const KindCounter& kc : per_kind_) {
    os << "  " << MessageKindName(kc.kind) << ": " << kc.counter.messages
       << " msgs, " << kc.counter.bytes << " B\n";
  }
  return os.str();
}

}  // namespace lhrs
