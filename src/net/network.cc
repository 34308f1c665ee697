#include "net/network.h"

#include <algorithm>
#include <utility>

namespace lhrs {

namespace {

/// Hard cap on processed events per RunUntilIdle, so a protocol bug
/// (forwarding loop, retry storm) fails a test loudly instead of hanging.
constexpr uint64_t kEventBudget = 200'000'000;

}  // namespace

Network::Network(NetworkConfig config) : config_(config) {}

telemetry::Telemetry* Network::EnableTelemetry(
    telemetry::TelemetryConfig config) {
  if (telemetry_ != nullptr) return telemetry_.get();
  telemetry_ = std::make_unique<telemetry::Telemetry>(config);
  telemetry_->set_clock([this] { return now_; });
  telemetry::MetricsRegistry& m = telemetry_->metrics();
  tm_.sent_messages = &m.GetCounter("net.sent_messages");
  tm_.sent_bytes = &m.GetCounter("net.sent_bytes");
  tm_.deliveries = &m.GetCounter("net.deliveries");
  tm_.delivery_failures = &m.GetCounter("net.delivery_failures");
  tm_.nodes_unavailable = &m.GetGauge("net.nodes_unavailable");
  tm_.delivery_latency_us = &m.GetHistogram("net.delivery_latency_us");
  return telemetry_.get();
}

NodeId Network::AddNode(std::unique_ptr<Node> node) {
  LHRS_CHECK(node != nullptr);
  LHRS_CHECK(node->network_ == nullptr) << "node already registered";
  const NodeId id = static_cast<NodeId>(nodes_.size());
  node->network_ = this;
  node->id_ = id;
  nodes_.push_back(NodeSlot{std::move(node), /*available=*/true});
  return id;
}

void Network::ReplaceNode(NodeId id, std::unique_ptr<Node> node) {
  LHRS_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size());
  LHRS_CHECK(node != nullptr);
  LHRS_CHECK(node->network_ == nullptr) << "node already registered";
  node->network_ = this;
  node->id_ = id;
  nodes_[id].node = std::move(node);  // Availability and epoch persist.
}

void Network::Send(NodeId from, NodeId to,
                   std::unique_ptr<MessageBody> body) {
  Enqueue(std::move(body), from, to, /*multicast_member=*/false);
}

void Network::Multicast(
    NodeId from,
    std::vector<std::pair<NodeId, std::unique_ptr<MessageBody>>> batch) {
  bool first = true;
  for (auto& [to, body] : batch) {
    const bool member = config_.multicast_available && !first;
    Enqueue(std::move(body), from, to, member);
    first = false;
  }
}

void Network::Push(Event event) {
  if (event.wake) ++wake_events_;
  if (event.type == EventType::kDeliver && event.message != nullptr) {
    const auto to = static_cast<size_t>(event.message->to);
    if (to >= pending_deliver_.size()) pending_deliver_.resize(to + 1, 0);
    ++pending_deliver_[to];
  }
  events_.push(std::move(event));
}

void Network::Enqueue(std::unique_ptr<MessageBody> body, NodeId from,
                      NodeId to, bool multicast_member) {
  LHRS_CHECK(body != nullptr);
  LHRS_CHECK(to >= 0 && static_cast<size_t>(to) < nodes_.size())
      << "send to unknown node " << to;
  const size_t bytes = body->ByteSize();
  stats_.RecordSend(body->kind(), bytes, !multicast_member, from);
  if (telemetry_ != nullptr) {
    tm_.sent_messages->Add();
    tm_.sent_bytes->Add(bytes);
    if (telemetry_->trace_messages()) {
      telemetry_->tracer().Record(
          {now_, telemetry::TraceEventType::kSend, from, to, body->kind(),
           -1, static_cast<int64_t>(bytes)});
    }
  }

  if (router_ != nullptr && router_->IsRemote(to)) {
    router_->RouteRemote(from, to, std::move(body));
    return;
  }

  auto msg = std::make_shared<Message>();
  msg->id = next_message_id_++;
  msg->from = from;
  msg->to = to;
  msg->send_time = now_;
  msg->multicast_member = multicast_member;
  msg->bytes = bytes;
  msg->to_epoch = nodes_[to].epoch;
  msg->body = std::move(body);

  SimTime latency = DeliveryLatency(bytes);
  if (injector_ != nullptr) {
    const FaultActions actions = injector_->OnMessage(*msg, now_);
    if (actions.latency_factor != 1.0) {
      latency = static_cast<SimTime>(static_cast<double>(latency) *
                                     actions.latency_factor);
    }
    latency += actions.extra_delay_us;
    if (actions.drop) {
      // The loss is indistinguishable from a crashed destination for the
      // sender: its RPC times out and HandleDeliveryFailure fires.
      stats_.RecordDeliveryFailure();
      if (telemetry_ != nullptr) tm_.delivery_failures->Add();
      if (msg->from != kInvalidNode) {
        Push(Event{now_ + latency + config_.timeout_us, next_seq_++,
                   EventType::kDeliveryFailure, std::move(msg)});
      }
      return;
    }
    for (uint32_t d = 0; d < actions.duplicates; ++d) {
      // Copies share the Message object: same id, same body — exactly what
      // receiver-side duplicate suppression must cope with.
      Push(Event{now_ + latency, next_seq_++, EventType::kDeliver, msg});
    }
  }

  Push(Event{now_ + latency, next_seq_++, EventType::kDeliver,
             std::move(msg)});
}

void Network::Inject(NodeId from, NodeId to,
                     std::unique_ptr<MessageBody> body) {
  LHRS_CHECK(body != nullptr);
  LHRS_CHECK(to >= 0 && static_cast<size_t>(to) < nodes_.size())
      << "inject to unknown node " << to;
  auto msg = std::make_shared<Message>();
  msg->id = next_message_id_++;
  msg->from = from;
  msg->to = to;
  msg->send_time = now_;
  msg->bytes = body->ByteSize();
  msg->to_epoch = nodes_[to].epoch;
  msg->body = std::move(body);
  // Delivered through the ordinary event path so the crash-epoch check,
  // receive statistics and tracing behave exactly as for local traffic.
  Push(Event{now_, next_seq_++, EventType::kDeliver, std::move(msg)});
}

void Network::NotifyDeliveryFailure(NodeId from, NodeId to,
                                    std::unique_ptr<MessageBody> body) {
  LHRS_CHECK(body != nullptr);
  stats_.RecordDeliveryFailure();
  if (telemetry_ != nullptr) tm_.delivery_failures->Add();
  if (from == kInvalidNode) return;
  LHRS_CHECK(static_cast<size_t>(from) < nodes_.size());
  auto msg = std::make_shared<Message>();
  msg->id = next_message_id_++;
  msg->from = from;
  msg->to = to;
  msg->send_time = now_;
  msg->bytes = body->ByteSize();
  msg->body = std::move(body);
  Push(Event{now_, next_seq_++, EventType::kDeliveryFailure,
             std::move(msg)});
}

void Network::ScheduleTimer(NodeId node, SimTime delay, uint64_t timer_id,
                            bool wake) {
  LHRS_CHECK(node >= 0 && static_cast<size_t>(node) < nodes_.size());
  Event ev{now_ + delay, next_seq_++, EventType::kTimer, nullptr};
  ev.timer_node = node;
  ev.timer_id = timer_id;
  ev.wake = wake;
  Push(std::move(ev));
}

void Network::SetAvailable(NodeId id, bool available) {
  LHRS_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size());
  if (telemetry_ != nullptr && nodes_[id].available != available) {
    telemetry_->tracer().Record({now_,
                                 available
                                     ? telemetry::TraceEventType::kRestore
                                     : telemetry::TraceEventType::kCrash,
                                 id, -1, -1, -1, 0});
    tm_.nodes_unavailable->Add(available ? -1 : 1);
  }
  if (nodes_[id].available && !available) ++nodes_[id].epoch;
  nodes_[id].available = available;
}

bool Network::available(NodeId id) const {
  LHRS_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size());
  return nodes_[id].available;
}

void Network::RunUntilIdle() {
  while (Step()) {
  }
}

bool Network::Step() {
  if (wake_events_ == 0) return false;
  LHRS_CHECK(!events_.empty());
  Event ev = std::move(const_cast<Event&>(events_.top()));
  events_.pop();
  ProcessEvent(std::move(ev));
  return true;
}

void Network::RunUntil(const std::function<bool()>& done) {
  while (!done() && Step()) {
  }
}

void Network::RunUntil(SimTime t) {
  while (!events_.empty() && events_.top().time <= t) {
    Event ev = std::move(const_cast<Event&>(events_.top()));
    events_.pop();
    ProcessEvent(std::move(ev));
  }
  now_ = std::max(now_, t);
}

void Network::ProcessEvent(Event ev) {
  LHRS_CHECK_GE(ev.time, now_);
  now_ = ev.time;
  if (ev.wake) --wake_events_;
  ++processed_events_;
  LHRS_CHECK_LT(processed_events_, kEventBudget)
      << "event budget exhausted — protocol loop?";

  if (ev.type == EventType::kTimer) {
    if (nodes_[ev.timer_node].available) {
      nodes_[ev.timer_node].node->HandleTimer(ev.timer_id);
    }
    return;
  }

  Message& msg = *ev.message;
  switch (ev.type) {
    case EventType::kDeliver: {
      if (static_cast<size_t>(msg.to) < pending_deliver_.size() &&
          pending_deliver_[msg.to] > 0) {
        --pending_deliver_[msg.to];
      }
      if (!nodes_[msg.to].available ||
          nodes_[msg.to].epoch != msg.to_epoch) {
        // Destination is down — or crashed while the message was in
        // flight (the crash lost it even if the node is back): the sender
        // times out. An unavailable sender gets nothing (it crashed too).
        stats_.RecordDeliveryFailure();
        if (telemetry_ != nullptr) tm_.delivery_failures->Add();
        if (msg.from != kInvalidNode && nodes_[msg.from].available) {
          Push(Event{now_ + config_.timeout_us, next_seq_++,
                     EventType::kDeliveryFailure, ev.message});
        }
        break;
      }
      const size_t bytes = msg.bytes;
      stats_.RecordReceive(msg.to, bytes);
      if (telemetry_ != nullptr) {
        tm_.deliveries->Add();
        tm_.delivery_latency_us->Record(now_ - msg.send_time);
        if (telemetry_->trace_messages()) {
          telemetry_->tracer().Record(
              {now_, telemetry::TraceEventType::kDeliver, msg.to, msg.from,
               msg.body->kind(), -1, static_cast<int64_t>(bytes)});
        }
      }
      nodes_[msg.to].node->HandleMessage(msg);
      break;
    }
    case EventType::kDeliveryFailure: {
      if (msg.from != kInvalidNode && nodes_[msg.from].available) {
        if (telemetry_ != nullptr && telemetry_->trace_messages()) {
          telemetry_->tracer().Record(
              {now_, telemetry::TraceEventType::kDeliveryFailure, msg.from,
               msg.to, msg.body->kind(), -1,
               static_cast<int64_t>(msg.bytes)});
        }
        nodes_[msg.from].node->HandleDeliveryFailure(msg);
      }
      break;
    }
    case EventType::kTimer:
      break;  // Handled above.
  }
}

}  // namespace lhrs
