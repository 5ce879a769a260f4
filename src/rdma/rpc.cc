#include "src/rdma/rpc.h"

#include <memory>

#include "src/sim/sync.h"

namespace linefs::rdma {

namespace {

// Shared between the caller, the handler-invocation task, and the timeout
// timer; kept alive by whichever finishes last.
struct CallState {
  explicit CallState(sim::Engine* engine) : completed(engine) {}
  sim::Event completed;
  bool done = false;
  Result<std::vector<uint8_t>> response = Status::Error(ErrorCode::kTimeout, "rpc timeout");
};

sim::Task<> InvokeHandler(RpcEndpoint* endpoint, sim::Priority priority,
                          RpcEndpoint::GenericHandler* handler, std::vector<uint8_t> request,
                          Attachment attachment, std::shared_ptr<CallState> state,
                          const hw::RdmaCosts* costs) {
  // Receiver-side completion processing, then the handler body.
  co_await endpoint->cpu()->RunCycles(costs->completion_cycles, priority, endpoint->account());
  std::vector<uint8_t> response =
      co_await (*handler)(std::move(request), std::move(attachment));
  if (!state->done) {
    state->done = true;
    state->response = std::move(response);
    state->completed.Fire();
  }
}

sim::Task<> CallTimer(sim::Engine* engine, sim::Time timeout,
                      std::shared_ptr<CallState> state) {
  co_await engine->SleepFor(timeout);
  if (!state->done) {
    state->done = true;  // response stays kTimeout.
    state->completed.Fire();
  }
}

// Receiver side of a one-way Post: dispatch wakeup, completion processing,
// then the handler body. The handler's synthesized response is discarded.
sim::Task<> DeliverPosted(sim::Engine* engine, RpcEndpoint* endpoint, bool polled,
                          sim::Priority priority, RpcEndpoint::GenericHandler* handler,
                          std::vector<uint8_t> request, Attachment attachment,
                          const hw::RdmaCosts* costs) {
  if (!polled) {
    co_await engine->SleepFor(costs->event_wakeup);
  }
  co_await endpoint->cpu()->RunCycles(costs->completion_cycles, priority, endpoint->account());
  std::vector<uint8_t> response =
      co_await (*handler)(std::move(request), std::move(attachment));
  (void)response;
}

}  // namespace

RpcEndpoint::RpcEndpoint(RpcSystem* system, std::string name, MemAddr addr, sim::CpuPool* cpu,
                         int account, bool has_low_lat_poller)
    : name_(std::move(name)), addr_(addr), cpu_(cpu), account_(account),
      has_low_lat_poller_(has_low_lat_poller) {}

RpcEndpoint* RpcSystem::CreateEndpoint(std::string name, MemAddr addr, sim::CpuPool* cpu,
                                       int account, bool has_low_lat_poller) {
  auto endpoint =
      std::make_unique<RpcEndpoint>(this, name, addr, cpu, account, has_low_lat_poller);
  RpcEndpoint* raw = endpoint.get();
  endpoints_[std::move(name)] = std::move(endpoint);
  return raw;
}

RpcEndpoint* RpcSystem::Find(const std::string& name) {
  auto it = endpoints_.find(name);
  return it == endpoints_.end() ? nullptr : it->second.get();
}

void RpcSystem::DestroyEndpoint(const std::string& name) { endpoints_.erase(name); }

sim::Task<Result<std::vector<uint8_t>>> RpcSystem::CallRaw(const Initiator& caller,
                                                           MemAddr caller_addr,
                                                           const std::string& target,
                                                           Channel channel, uint32_t method,
                                                           std::vector<uint8_t> request,
                                                           sim::Time timeout,
                                                           obs::TraceContext trace_ctx,
                                                           Attachment attachment) {
  sim::Engine* engine = network_->engine();
  const hw::RdmaCosts& costs = network_->costs();
  sim::Time deadline = engine->Now() + timeout;

  // Traced calls record the whole post->completion window as an "rpc" span
  // in the caller's lane; RAII covers every exit path (drops, timeouts).
  obs::Span rpc_span;
  if (trace_ == nullptr) {
    trace_ctx = {};
  }
  if (trace_ctx.valid()) {
    rpc_span = obs::Span(trace_, "rpc", "rpc", caller_addr.node, 0,
                         /*chunk_no=*/method, trace_ctx);
  }

  // Client posts the request (send verb).
  if (caller.cpu != nullptr) {
    co_await caller.cpu->RunCycles(costs.post_cycles, caller.priority, caller.account);
  }

  RpcEndpoint* endpoint = Find(target);
  if (endpoint == nullptr || !endpoint->alive()) {
    co_await engine->SleepFor(timeout);
    co_return Status::Error(ErrorCode::kUnavailable, "rpc target down: " + target);
  }

  // Fault injection: a partitioned/lossy fabric eats the request; the caller
  // waits out its timeout, exactly as if the receiver never answered.
  if (drop_filter_ && drop_filter_(caller_addr.node, endpoint->addr().node, channel)) {
    co_await engine->SleepUntil(deadline);
    co_return Status::Error(ErrorCode::kUnavailable, "rpc request dropped: " + target);
  }

  // Request wire transfer (control-sized message).
  uint64_t wire_bytes = std::max<uint64_t>(costs.control_bytes, request.size());
  co_await network_->RawTransfer(caller_addr, endpoint->addr(), wire_bytes);

  // Receiver-side dispatch.
  sim::Priority handler_priority;
  if (channel == Channel::kLowLat && endpoint->has_low_lat_poller()) {
    // Busy poller notices the message immediately and runs it at RT priority.
    handler_priority = sim::Priority::kRealtime;
  } else {
    handler_priority = endpoint->dispatch_priority();
    co_await engine->SleepFor(costs.event_wakeup);
  }

  auto handler_it = endpoint->handlers_.find(method);
  if (handler_it == endpoint->handlers_.end()) {
    co_return Status::Error(ErrorCode::kInvalid, "unknown rpc method");
  }

  // Execute the handler, racing it against the caller's timeout: a target
  // whose host dies mid-call (e.g. the kernel worker, §3.5) must not hang the
  // caller. A handler that finishes after the timeout is harmless — shared
  // state keeps everything alive and its result is dropped.
  auto state = std::make_shared<CallState>(engine);
  engine->Spawn(InvokeHandler(endpoint, handler_priority, &handler_it->second,
                              std::move(request), std::move(attachment), state,
                              &network_->costs()));
  engine->Spawn(CallTimer(engine, timeout, state), "rpc.timer");
  co_await state->completed.Wait();
  if (!state->response.ok() && state->response.code() == ErrorCode::kTimeout) {
    co_return Status::Error(ErrorCode::kUnavailable, "rpc timed out: " + target);
  }
  std::vector<uint8_t> response = std::move(state->response.value());

  // Fault injection, response direction: the handler ran but its answer is
  // lost. The caller still burns the full call timeout before giving up.
  if (drop_filter_ && drop_filter_(endpoint->addr().node, caller_addr.node, channel)) {
    if (engine->Now() < deadline) {
      co_await engine->SleepUntil(deadline);
    }
    co_return Status::Error(ErrorCode::kUnavailable, "rpc response dropped: " + target);
  }

  // Response wire transfer.
  uint64_t resp_bytes = std::max<uint64_t>(costs.control_bytes, response.size());
  co_await network_->RawTransfer(endpoint->addr(), caller_addr, resp_bytes);

  // Client-side completion.
  if (caller.cpu != nullptr) {
    if (!caller.polls) {
      co_await engine->SleepFor(costs.event_wakeup);
    }
    co_await caller.cpu->RunCycles(costs.completion_cycles, caller.priority, caller.account);
  }
  co_return response;
}

sim::Task<Status> RpcSystem::PostRaw(const Initiator& caller, MemAddr caller_addr,
                                     const std::string& target, Channel channel,
                                     uint32_t method, std::vector<uint8_t> request,
                                     sim::Time timeout, obs::TraceContext trace_ctx,
                                     std::function<void()> on_wire, Attachment attachment) {
  sim::Engine* engine = network_->engine();
  const hw::RdmaCosts& costs = network_->costs();
  // Fires exactly once: the message crossed the wire (or the transport gave
  // up), so the QP submission slot is free even though the sender still has
  // completion processing ahead of it.
  auto submitted = [&on_wire] {
    if (on_wire) {
      auto fn = std::move(on_wire);
      on_wire = nullptr;
      fn();
    }
  };

  // Traced posts record the post->send-completion window; the receiver's
  // handler spans parent into the same trace via the message payload, not
  // through this span.
  obs::Span rpc_span;
  if (trace_ == nullptr) {
    trace_ctx = {};
  }
  if (trace_ctx.valid()) {
    rpc_span = obs::Span(trace_, "rpc", "rpc", caller_addr.node, 0,
                         /*chunk_no=*/method, trace_ctx);
  }

  // Sender posts the send verb (skipped when riding a batched doorbell).
  if (caller.cpu != nullptr && !caller.batched) {
    co_await caller.cpu->RunCycles(costs.post_cycles, caller.priority, caller.account);
  }

  RpcEndpoint* endpoint = Find(target);
  if (endpoint == nullptr || !endpoint->alive()) {
    // The reliable transport retries until its budget expires, then reports a
    // send-completion error — the only failure a one-way sender can observe.
    // The retrying WQE occupies the QP head the whole time (head-of-line
    // blocking on an ordered connection), so `on_wire` fires only afterwards.
    co_await engine->SleepFor(timeout);
    submitted();
    co_return Status::Error(ErrorCode::kUnavailable, "post target down: " + target);
  }

  // Fault injection: a lossy/partitioned fabric defeats the transport's
  // retries; the sender burns the retry budget and sees a completion error.
  if (drop_filter_ && drop_filter_(caller_addr.node, endpoint->addr().node, channel)) {
    co_await engine->SleepFor(timeout);
    submitted();
    co_return Status::Error(ErrorCode::kUnavailable, "post dropped: " + target);
  }

  // Message wire transfer (control-sized).
  uint64_t wire_bytes = std::max<uint64_t>(costs.control_bytes, request.size());
  co_await network_->RawTransfer(caller_addr, endpoint->addr(), wire_bytes);
  submitted();

  auto handler_it = endpoint->handlers_.find(method);
  if (handler_it == endpoint->handlers_.end()) {
    co_return Status::Error(ErrorCode::kInvalid, "unknown rpc method");
  }
  bool polled = channel == Channel::kLowLat && endpoint->has_low_lat_poller();
  sim::Priority priority =
      polled ? sim::Priority::kRealtime : endpoint->dispatch_priority();
  engine->Spawn(DeliverPosted(engine, endpoint, polled, priority, &handler_it->second,
                              std::move(request), std::move(attachment), &network_->costs()));

  // Sender-side send completion: the message is on the receiver's QP; handler
  // execution is invisible from here. Batched sends are swept by the batch
  // leader's CQ poll.
  if (caller.cpu != nullptr && !caller.batched) {
    if (!caller.polls) {
      co_await engine->SleepFor(costs.event_wakeup);
    }
    co_await caller.cpu->RunCycles(costs.completion_cycles, caller.priority, caller.account);
  }
  co_return Status::Ok();
}

}  // namespace linefs::rdma
