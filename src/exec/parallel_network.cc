#include "exec/parallel_network.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace lhrs::exec {

namespace {

using std::chrono::microseconds;

/// How long a parked thread sleeps before re-checking global conditions
/// that have no dedicated wakeup (fast-forward eligibility, idle
/// detection). Pure backstop: the common wakeups are mailbox pushes.
constexpr microseconds kParkPoll{200};

/// Same safety valve as the deterministic loop: a protocol bug must fail a
/// test loudly, not spin a worker forever.
constexpr uint64_t kWorkerEventBudget = 200'000'000;

size_t HashNode(NodeId id) {
  return static_cast<size_t>(static_cast<uint64_t>(id) * 2654435761u);
}

}  // namespace

ParallelNetwork::ParallelNetwork(NetworkConfig config) : Network(config) {
  LHRS_CHECK_GE(config_.localities, size_t{1});
  LHRS_CHECK_GE(config_.max_nodes, size_t{1});
  driver_thread_ = std::this_thread::get_id();
  SetCurrentLocality(kHomeLocality);

  const size_t cap = config_.max_nodes;
  node_ptr_ = std::make_unique<std::atomic<Node*>[]>(cap);
  node_locality_ = std::make_unique<std::atomic<uint32_t>[]>(cap);
  node_available_ = std::make_unique<std::atomic<uint8_t>[]>(cap);
  node_epoch_ = std::make_unique<std::atomic<uint64_t>[]>(cap);

  workers_.reserve(config_.localities);
  for (size_t i = 1; i <= config_.localities; ++i) {
    auto w = std::make_unique<Worker>();
    w->locality = i;
    workers_.push_back(std::move(w));
  }
  // Threads start only after every Worker slot exists: a worker may look up
  // a sibling's mailbox while routing.
  for (std::unique_ptr<Worker>& w : workers_) {
    w->thread = std::thread(&ParallelNetwork::WorkerMain, this, w.get());
  }
}

ParallelNetwork::~ParallelNetwork() { Stop(); }

void ParallelNetwork::Stop() {
  if (!running_.exchange(false)) return;
  for (std::unique_ptr<Worker>& w : workers_) w->mailbox.NotifyAll();
  for (std::unique_ptr<Worker>& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

// --- Node management (driver thread) ---------------------------------------

size_t ParallelNetwork::DefaultLocality(NodeId id, const Node& node) const {
  if (workers_.empty()) return kHomeLocality;
  // Servers (anything carrying a bucket) shard across the workers; clients,
  // coordinators, the chaos controller and stubs stay home so the session
  // and control planes remain single-threaded on the driver.
  if (std::strstr(node.role(), "bucket") == nullptr) return kHomeLocality;
  return 1 + HashNode(id) % workers_.size();
}

NodeId ParallelNetwork::AddNode(std::unique_ptr<Node> node) {
  LHRS_CHECK(OnDriverThread()) << "AddNode is driver-thread-only";
  LHRS_CHECK_LT(nodes_.size(), config_.max_nodes)
      << "NetworkConfig::max_nodes capacity exhausted";
  const NodeId id = Network::AddNode(std::move(node));
  Node* ptr = nodes_[id].node.get();
  node_locality_[id].store(
      static_cast<uint32_t>(DefaultLocality(id, *ptr)),
      std::memory_order_relaxed);
  node_available_[id].store(1, std::memory_order_relaxed);
  node_epoch_[id].store(0, std::memory_order_relaxed);
  node_ptr_[id].store(ptr, std::memory_order_release);
  // The count publish is the release fence workers acquire through before
  // touching any of the per-node mirrors above.
  published_nodes_.store(static_cast<size_t>(id) + 1,
                         std::memory_order_release);
  return id;
}

void ParallelNetwork::ReplaceNode(NodeId id, std::unique_ptr<Node> node) {
  LHRS_CHECK(OnDriverThread()) << "ReplaceNode is driver-thread-only";
  Network::ReplaceNode(id, std::move(node));
  node_ptr_[id].store(nodes_[id].node.get(), std::memory_order_release);
}

size_t ParallelNetwork::LocalityOf(NodeId id) const {
  LHRS_CHECK(id >= 0 && static_cast<size_t>(id) <
                            published_nodes_.load(std::memory_order_acquire));
  return node_locality_[id].load(std::memory_order_relaxed);
}

void ParallelNetwork::SetAffinity(NodeId id, size_t locality) {
  LHRS_CHECK(OnDriverThread()) << "SetAffinity is driver-thread-only";
  LHRS_CHECK(id >= 0 && static_cast<size_t>(id) < nodes_.size());
  LHRS_CHECK_LE(locality, workers_.size());
  node_locality_[id].store(static_cast<uint32_t>(locality),
                           std::memory_order_relaxed);
}

void ParallelNetwork::SetAvailable(NodeId id, bool available) {
  LHRS_CHECK(OnDriverThread()) << "SetAvailable is driver-thread-only";
  Network::SetAvailable(id, available);
  node_epoch_[id].store(nodes_[id].epoch, std::memory_order_relaxed);
  node_available_[id].store(available ? 1 : 0, std::memory_order_release);
}

bool ParallelNetwork::available(NodeId id) const {
  LHRS_CHECK(id >= 0 && static_cast<size_t>(id) <
                            published_nodes_.load(std::memory_order_acquire));
  return node_available_[id].load(std::memory_order_acquire) != 0;
}

// --- Clocks and telemetry --------------------------------------------------

SimTime ParallelNetwork::LocalNow(size_t locality) const {
  if (locality == kHomeLocality) return now_;
  return workers_[locality - 1]->clock.load(std::memory_order_relaxed);
}

SimTime ParallelNetwork::now() const { return LocalNow(CurrentLocality()); }

MessageStats& ParallelNetwork::ShardStats(size_t locality) {
  if (locality == kHomeLocality) return stats_;
  return workers_[locality - 1]->stats;
}

MessageStats& ParallelNetwork::stats() {
  LHRS_CHECK(OnDriverThread()) << "stats() is driver-thread-only";
  // Quiescence contract: callers read stats between Steps or after the
  // workload drained, so the shards' last writes happen-before this merge
  // via the task counter's release/acquire pair.
  for (std::unique_ptr<Worker>& w : workers_) {
    stats_.MergeFrom(w->stats);
    w->stats.Reset();
  }
  if (telemetry_ != nullptr) telemetry_->MergeShards();
  return stats_;
}

telemetry::Telemetry* ParallelNetwork::EnableTelemetry(
    telemetry::TelemetryConfig config) {
  if (telemetry_ != nullptr) return telemetry_.get();
  Network::EnableTelemetry(config);
  // The virtual now() resolves per locality, so every emitter stamps its
  // own simulated clock.
  telemetry_->set_clock([this] { return now(); });
  telemetry_->EnsureShards(workers_.size());
  for (std::unique_ptr<Worker>& w : workers_) {
    w->delivery_latency_us =
        &telemetry_->shard(w->locality).GetHistogram("net.delivery_latency_us");
  }
  return telemetry_.get();
}

// --- Send path (any locality) ----------------------------------------------

void ParallelNetwork::Send(NodeId from, NodeId to,
                           std::unique_ptr<MessageBody> body) {
  EnqueueParallel(std::move(body), from, to, /*multicast_member=*/false);
}

void ParallelNetwork::Multicast(
    NodeId from,
    std::vector<std::pair<NodeId, std::unique_ptr<MessageBody>>> batch) {
  bool first = true;
  for (auto& [to, body] : batch) {
    const bool member = config_.multicast_available && !first;
    EnqueueParallel(std::move(body), from, to, member);
    first = false;
  }
}

void ParallelNetwork::Dispatch(Task task, size_t locality) {
  // The increment strictly precedes the push and the matching decrement
  // strictly follows execution, so "counter == 0" proves both queues and
  // executors are empty — the engine's idle predicate.
  tasks_in_flight_.fetch_add(1, std::memory_order_acq_rel);
  if (locality == kHomeLocality) {
    home_inbox_.Push(std::move(task));
  } else {
    workers_[locality - 1]->mailbox.Push(std::move(task));
  }
}

void ParallelNetwork::EnqueueParallel(std::unique_ptr<MessageBody> body,
                                      NodeId from, NodeId to,
                                      bool multicast_member) {
  LHRS_CHECK(body != nullptr);
  const size_t published = published_nodes_.load(std::memory_order_acquire);
  LHRS_CHECK(to >= 0 && static_cast<size_t>(to) < published)
      << "send to unknown node " << to;
  const size_t sender_locality = CurrentLocality();
  const size_t bytes = body->ByteSize();
  const SimTime send_time = LocalNow(sender_locality);

  ShardStats(sender_locality)
      .RecordSend(body->kind(), bytes, !multicast_member, from);
  if (telemetry_ != nullptr) {
    tm_.sent_messages->Add();
    tm_.sent_bytes->Add(bytes);
    if (telemetry_->trace_messages()) {
      telemetry_->tracer().Record(
          {send_time, telemetry::TraceEventType::kSend, from, to,
           body->kind(), -1, static_cast<int64_t>(bytes)});
    }
  }

  if (router_ != nullptr && router_->IsRemote(to)) {
    // Cluster egress keeps its simulator semantics; combining a remote
    // router with the parallel engine is not supported (cluster mode runs
    // localities = 0), but the branch stays for interface parity.
    router_->RouteRemote(from, to, std::move(body));
    return;
  }

  auto msg = std::make_shared<Message>();
  msg->id = next_parallel_message_id_.fetch_add(1, std::memory_order_relaxed);
  msg->from = from;
  msg->to = to;
  msg->send_time = send_time;
  msg->multicast_member = multicast_member;
  msg->bytes = bytes;
  msg->to_epoch = node_epoch_[to].load(std::memory_order_acquire);
  msg->body = std::move(body);

  SimTime latency = DeliveryLatency(bytes);
  if (injector_ != nullptr) {
    const FaultActions actions = injector_->OnMessage(*msg, send_time);
    if (actions.latency_factor != 1.0) {
      latency = static_cast<SimTime>(static_cast<double>(latency) *
                                     actions.latency_factor);
    }
    latency += actions.extra_delay_us;
    if (actions.drop) {
      ShardStats(sender_locality).RecordDeliveryFailure();
      if (telemetry_ != nullptr) tm_.delivery_failures->Add();
      if (msg->from != kInvalidNode) {
        const size_t fail_locality = LocalityOf(msg->from);
        Task task;
        task.kind = Task::Kind::kFailure;
        task.time = send_time + latency + config_.timeout_us;
        task.message = std::move(msg);
        Dispatch(std::move(task), fail_locality);
      }
      return;
    }
    for (uint32_t d = 0; d < actions.duplicates; ++d) {
      Task dup;
      dup.kind = Task::Kind::kDeliver;
      dup.time = send_time + latency;
      dup.message = msg;
      Dispatch(std::move(dup), LocalityOf(to));
    }
  }

  Task task;
  task.kind = Task::Kind::kDeliver;
  task.time = send_time + latency;
  const size_t dest_locality = LocalityOf(to);
  task.message = std::move(msg);
  Dispatch(std::move(task), dest_locality);
}

void ParallelNetwork::Inject(NodeId from, NodeId to,
                             std::unique_ptr<MessageBody> body) {
  LHRS_CHECK(body != nullptr);
  const size_t published = published_nodes_.load(std::memory_order_acquire);
  LHRS_CHECK(to >= 0 && static_cast<size_t>(to) < published)
      << "inject to unknown node " << to;
  auto msg = std::make_shared<Message>();
  msg->id = next_parallel_message_id_.fetch_add(1, std::memory_order_relaxed);
  msg->from = from;
  msg->to = to;
  msg->send_time = LocalNow(CurrentLocality());
  msg->bytes = body->ByteSize();
  msg->to_epoch = node_epoch_[to].load(std::memory_order_acquire);
  msg->body = std::move(body);
  Task task;
  task.kind = Task::Kind::kDeliver;
  task.time = msg->send_time;
  const size_t dest_locality = LocalityOf(to);
  task.message = std::move(msg);
  Dispatch(std::move(task), dest_locality);
}

void ParallelNetwork::NotifyDeliveryFailure(NodeId from, NodeId to,
                                            std::unique_ptr<MessageBody> body) {
  LHRS_CHECK(body != nullptr);
  const size_t sender_locality = CurrentLocality();
  ShardStats(sender_locality).RecordDeliveryFailure();
  if (telemetry_ != nullptr) tm_.delivery_failures->Add();
  if (from == kInvalidNode) return;
  auto msg = std::make_shared<Message>();
  msg->id = next_parallel_message_id_.fetch_add(1, std::memory_order_relaxed);
  msg->from = from;
  msg->to = to;
  msg->send_time = LocalNow(sender_locality);
  msg->bytes = body->ByteSize();
  msg->body = std::move(body);
  Task task;
  task.kind = Task::Kind::kFailure;
  task.time = msg->send_time;
  task.message = std::move(msg);
  Dispatch(std::move(task), LocalityOf(from));
}

void ParallelNetwork::ScheduleTimer(NodeId node, SimTime delay,
                                    uint64_t timer_id, bool wake) {
  const size_t published = published_nodes_.load(std::memory_order_acquire);
  LHRS_CHECK(node >= 0 && static_cast<size_t>(node) < published);
  const size_t target = node_locality_[node].load(std::memory_order_relaxed);
  if (target == kHomeLocality) {
    if (OnDriverThread()) {
      Network::ScheduleTimer(node, delay, timer_id, wake);
    } else {
      Task task;
      task.kind = Task::Kind::kTimer;
      task.time = LocalNow(CurrentLocality()) + delay;
      task.timer_node = node;
      task.timer_id = timer_id;
      task.timer_wake = wake;
      Dispatch(std::move(task), kHomeLocality);
    }
    return;
  }
  Worker* w = workers_[target - 1].get();
  if (wake) pending_wake_timers_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(w->wheel_mu);
    w->wheel.Schedule(LocalNow(CurrentLocality()) + delay, node, timer_id,
                      wake);
  }
  // A parked worker must notice the new wake timer for fast-forward.
  w->mailbox.NotifyAll();
}

// --- Driver side: home locality pump ---------------------------------------

size_t ParallelNetwork::DrainHomeInbox() {
  home_scratch_.clear();
  const size_t n = home_inbox_.PopAllNow(&home_scratch_);
  for (Task& task : home_scratch_) {
    Event ev{};
    // Stamp no earlier than the home clock: the deterministic event loop
    // requires monotone time, and a worker's clock may trail the home one.
    ev.time = std::max(task.time, now_);
    ev.seq = next_seq_++;
    switch (task.kind) {
      case Task::Kind::kDeliver:
        ev.type = EventType::kDeliver;
        ev.message = std::move(task.message);
        break;
      case Task::Kind::kFailure:
        ev.type = EventType::kDeliveryFailure;
        ev.message = std::move(task.message);
        break;
      case Task::Kind::kTimer:
        ev.type = EventType::kTimer;
        ev.timer_node = task.timer_node;
        ev.timer_id = task.timer_id;
        ev.wake = task.timer_wake;
        break;
    }
    Push(std::move(ev));
  }
  if (n > 0) {
    tasks_in_flight_.fetch_sub(static_cast<int64_t>(n),
                               std::memory_order_acq_rel);
  }
  return n;
}

bool ParallelNetwork::IdleLocked() const {
  // Sound because Dispatch increments before pushing and executors
  // decrement after finishing: reading 0 here (after a drain) proves no
  // queued or running task exists anywhere; wake timers are tracked
  // separately and wake_events_ covers the home queue.
  return wake_events_ == 0 &&
         tasks_in_flight_.load(std::memory_order_acquire) == 0 &&
         pending_wake_timers_.load(std::memory_order_acquire) == 0;
}

bool ParallelNetwork::HoldHomeEvent() const {
  // A home *timer* event must wait for worker quiescence: a reply still in
  // flight on a worker carries an earlier virtual time, and firing the
  // timer first would jump now_ past deadlines the reply was about to meet
  // (spurious client retries). The deterministic loop gets this for free
  // from global (time, seq) order; here quiescence is the substitute.
  // Deliver/failure events carry final timestamps and flow immediately.
  return !events_.empty() && events_.top().type == EventType::kTimer &&
         tasks_in_flight_.load(std::memory_order_acquire) != 0;
}

bool ParallelNetwork::Step() {
  LHRS_CHECK(OnDriverThread()) << "Step is driver-thread-only";
  for (;;) {
    DrainHomeInbox();
    if (wake_events_ > 0 && !HoldHomeEvent()) {
      LHRS_CHECK(!events_.empty());
      Event ev = std::move(const_cast<Event&>(events_.top()));
      events_.pop();
      ProcessEvent(std::move(ev));
      return true;
    }
    if (wake_events_ == 0 && IdleLocked()) return false;
    // Work is in flight on the workers (or wake timers are pending there):
    // block until something lands in the home inbox, with a poll backstop
    // for worker-only progress.
    home_scratch_.clear();
    if (home_inbox_.PopAll(&home_scratch_, kParkPoll) > 0) {
      // Re-inject what the blocking pop took; the next loop iteration
      // turns it into events.
      for (Task& task : home_scratch_) home_inbox_.Push(std::move(task));
    }
  }
}

void ParallelNetwork::RunUntil(SimTime t) {
  LHRS_CHECK(OnDriverThread()) << "RunUntil is driver-thread-only";
  for (;;) {
    bool progressed = false;
    for (;;) {
      DrainHomeInbox();
      if (events_.empty() || events_.top().time > t) break;
      if (HoldHomeEvent()) break;  // Let in-flight worker work land first.
      Event ev = std::move(const_cast<Event&>(events_.top()));
      events_.pop();
      ProcessEvent(std::move(ev));
      progressed = true;
    }
    if (tasks_in_flight_.load(std::memory_order_acquire) != 0) {
      home_scratch_.clear();
      if (home_inbox_.PopAll(&home_scratch_, kParkPoll) > 0) {
        for (Task& task : home_scratch_) home_inbox_.Push(std::move(task));
      }
      continue;
    }
    if (AdvanceWorkersTo(t)) continue;
    if (progressed) continue;
    break;
  }
  now_ = std::max(now_, t);
  for (std::unique_ptr<Worker>& w : workers_) {
    SimTime clock = w->clock.load(std::memory_order_relaxed);
    while (clock < t &&
           !w->clock.compare_exchange_weak(clock, t,
                                           std::memory_order_relaxed)) {
    }
  }
}

bool ParallelNetwork::AdvanceWorkersTo(SimTime t) {
  bool fired = false;
  std::vector<TimerEntry> due;
  for (std::unique_ptr<Worker>& w : workers_) {
    due.clear();
    {
      std::lock_guard<std::mutex> lock(w->wheel_mu);
      if (w->wheel.empty()) continue;
      w->wheel.PopDue(t, &due);
    }
    for (TimerEntry& entry : due) {
      fired = true;
      Task task;
      task.kind = Task::Kind::kTimer;
      task.time = entry.time;
      task.timer_node = entry.node;
      task.timer_id = entry.timer_id;
      task.timer_wake = entry.wake;
      Dispatch(std::move(task), w->locality);
      if (entry.wake) {
        pending_wake_timers_.fetch_sub(1, std::memory_order_acq_rel);
      }
    }
  }
  return fired;
}

// --- Worker side -----------------------------------------------------------

void ParallelNetwork::WorkerMain(Worker* w) {
  SetCurrentLocality(w->locality);
  std::vector<Task> batch;
  while (running_.load(std::memory_order_acquire)) {
    batch.clear();
    if (w->mailbox.PopAll(&batch, kParkPoll) == 0) {
      MaybeFastForward(w);
      continue;
    }
    for (const Task& task : batch) {
      ExecuteTask(w, task);
      if (tasks_in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        home_inbox_.NotifyAll();
      }
    }
  }
  // Graceful drain: execute what was already queued before the stop.
  batch.clear();
  w->mailbox.PopAllNow(&batch);
  for (const Task& task : batch) {
    ExecuteTask(w, task);
    tasks_in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

SimTime ParallelNetwork::ServiceUs(size_t bytes) const {
  return config_.service_us_per_task +
         config_.service_us_per_kb * ((bytes + 1023) / 1024);
}

void ParallelNetwork::FireTimersUpTo(Worker* w, SimTime t) {
  std::vector<TimerEntry> due;
  {
    std::lock_guard<std::mutex> lock(w->wheel_mu);
    if (w->wheel.empty()) return;
    w->wheel.PopDue(t, &due);
  }
  if (due.empty()) return;
  // Count the popped timers as in-flight tasks *before* releasing their
  // wake accounting, so the driver never observes a transient idle while a
  // handler is about to run.
  tasks_in_flight_.fetch_add(static_cast<int64_t>(due.size()),
                             std::memory_order_acq_rel);
  for (const TimerEntry& entry : due) {
    if (entry.wake) {
      pending_wake_timers_.fetch_sub(1, std::memory_order_acq_rel);
    }
  }
  for (const TimerEntry& entry : due) {
    RunTimer(w, entry);
    if (tasks_in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      home_inbox_.NotifyAll();
    }
  }
}

void ParallelNetwork::RunTimer(Worker* w, const TimerEntry& entry) {
  if (node_available_[entry.node].load(std::memory_order_acquire) == 0) {
    return;  // Timers to an unavailable node are silently dropped.
  }
  const SimTime start =
      std::max(w->clock.load(std::memory_order_relaxed), entry.time);
  w->clock.store(start + config_.service_us_per_task,
                 std::memory_order_relaxed);
  ++w->processed;
  LHRS_CHECK_LT(w->processed, kWorkerEventBudget)
      << "worker event budget exhausted — protocol loop?";
  node_ptr_[entry.node].load(std::memory_order_acquire)
      ->HandleTimer(entry.timer_id);
}

void ParallelNetwork::MaybeFastForward(Worker* w) {
  // The parallel analogue of the deterministic loop's idle time jump: only
  // when nothing is running or queued anywhere may this locality's clock
  // leap to its next wake timer. (A benign race remains — a task may be
  // dispatched right after the check — but it only skews the virtual
  // clock, never correctness, and in fault-free runs no wake timers are
  // armed on workers at all.)
  if (tasks_in_flight_.load(std::memory_order_acquire) != 0) return;
  if (pending_wake_timers_.load(std::memory_order_acquire) == 0) return;
  SimTime target;
  {
    std::lock_guard<std::mutex> lock(w->wheel_mu);
    std::optional<SimTime> next = w->wheel.NextWakeTime();
    if (!next.has_value()) return;
    target = *next;
  }
  FireTimersUpTo(w, target);
}

void ParallelNetwork::ExecuteTask(Worker* w, const Task& task) {
  switch (task.kind) {
    case Task::Kind::kTimer: {
      FireTimersUpTo(w, task.time);
      TimerEntry entry;
      entry.time = task.time;
      entry.node = task.timer_node;
      entry.timer_id = task.timer_id;
      entry.wake = task.timer_wake;
      RunTimer(w, entry);
      return;
    }
    case Task::Kind::kDeliver: {
      const Message& msg = *task.message;
      FireTimersUpTo(
          w, std::max(w->clock.load(std::memory_order_relaxed), task.time));
      if (node_available_[msg.to].load(std::memory_order_acquire) == 0 ||
          node_epoch_[msg.to].load(std::memory_order_acquire) !=
              msg.to_epoch) {
        // Destination down, or it crashed while the message was in flight:
        // bounce to the sender after the detection timeout.
        ShardStats(w->locality).RecordDeliveryFailure();
        if (telemetry_ != nullptr) tm_.delivery_failures->Add();
        if (msg.from != kInvalidNode &&
            node_available_[msg.from].load(std::memory_order_acquire) != 0) {
          Task bounce;
          bounce.kind = Task::Kind::kFailure;
          bounce.time = task.time + config_.timeout_us;
          bounce.message = task.message;
          Dispatch(std::move(bounce), LocalityOf(msg.from));
        }
        return;
      }
      const size_t bytes = msg.bytes;
      const SimTime start =
          std::max(w->clock.load(std::memory_order_relaxed), task.time);
      w->clock.store(start + ServiceUs(bytes), std::memory_order_relaxed);
      ShardStats(w->locality).RecordReceive(msg.to, bytes);
      if (telemetry_ != nullptr) {
        tm_.deliveries->Add();
        if (w->delivery_latency_us != nullptr) {
          w->delivery_latency_us->Record(start - msg.send_time);
        }
        if (telemetry_->trace_messages()) {
          telemetry_->tracer().Record(
              {start, telemetry::TraceEventType::kDeliver, msg.to, msg.from,
               msg.body->kind(), -1, static_cast<int64_t>(bytes)});
        }
      }
      ++w->processed;
      LHRS_CHECK_LT(w->processed, kWorkerEventBudget)
          << "worker event budget exhausted — protocol loop?";
      node_ptr_[msg.to].load(std::memory_order_acquire)->HandleMessage(msg);
      return;
    }
    case Task::Kind::kFailure: {
      const Message& msg = *task.message;
      FireTimersUpTo(
          w, std::max(w->clock.load(std::memory_order_relaxed), task.time));
      if (msg.from == kInvalidNode ||
          node_available_[msg.from].load(std::memory_order_acquire) == 0) {
        return;
      }
      const SimTime start =
          std::max(w->clock.load(std::memory_order_relaxed), task.time);
      w->clock.store(start + config_.service_us_per_task,
                     std::memory_order_relaxed);
      if (telemetry_ != nullptr && telemetry_->trace_messages()) {
        telemetry_->tracer().Record(
            {start, telemetry::TraceEventType::kDeliveryFailure, msg.from,
             msg.to, msg.body->kind(), -1,
             static_cast<int64_t>(msg.bytes)});
      }
      ++w->processed;
      node_ptr_[msg.from].load(std::memory_order_acquire)
          ->HandleDeliveryFailure(msg);
      return;
    }
  }
}

std::unique_ptr<Network> MakeNetwork(const NetworkConfig& config) {
  if (config.localities == 0) return std::make_unique<Network>(config);
  return std::make_unique<ParallelNetwork>(config);
}

}  // namespace lhrs::exec
