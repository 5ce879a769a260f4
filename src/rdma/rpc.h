// RPC over the RDMA network, modelled after NICFS's two-port design (§3.3.2):
//
//  - kLowLat: the receiver dedicates a pinned busy-polling thread to this
//    connection, so an arriving request starts processing with no wakeup
//    delay and runs at realtime priority (fsync notifications, leases).
//  - kHighTput: the receiver keeps an event-driven worker pool; requests pay
//    an event-wakeup latency and contend at normal priority (replication and
//    publication control traffic).
//
// Endpoints are registered by name ("nicfs/0", "kworker/2", ...) and live in a
// (node, space) memory domain so the wire path is computed from real topology.
// Messages are trivially-copyable structs serialized to bytes (a wire format,
// as between real LibFS and NICFS processes).
//
// Availability: an endpoint exposes an `alive` predicate (a kernel worker dies
// with its host OS). Calls to a dead endpoint time out with kUnavailable —
// exactly the signal NICFS's failure detector consumes (§3.5).

#ifndef SRC_RDMA_RPC_H_
#define SRC_RDMA_RPC_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/obs/trace.h"
#include "src/rdma/rdma.h"
#include "src/sim/result.h"
#include "src/sim/task.h"

namespace linefs::rdma {

enum class Channel {
  kLowLat,
  kHighTput,
};

namespace internal {

template <typename T>
std::vector<uint8_t> ToBytes(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>, "RPC messages must be PODs");
  std::vector<uint8_t> bytes(sizeof(T));
  std::memcpy(bytes.data(), &value, sizeof(T));
  return bytes;
}

template <typename T>
T FromBytes(const std::vector<uint8_t>& bytes) {
  static_assert(std::is_trivially_copyable_v<T>, "RPC messages must be PODs");
  T value{};
  std::memcpy(&value, bytes.data(), std::min(bytes.size(), sizeof(T)));
  return value;
}

}  // namespace internal

class RpcSystem;

// Bulk data that rides along with one message: the bytes its sender already
// moved with a one-sided RDMA write, whose wire cost is charged separately.
// The handler receives it as sent. It is never serialized and never counted
// in the message size, and it is lost with the message when the fabric drops
// it. The receiver knows the concrete type from the method.
using Attachment = std::shared_ptr<const void>;

// One RPC-serving identity. Handlers execute on the endpoint's CPU pool.
class RpcEndpoint {
 public:
  using GenericHandler = std::function<sim::Task<std::vector<uint8_t>>(
      std::vector<uint8_t> request, Attachment attachment)>;

  RpcEndpoint(RpcSystem* system, std::string name, MemAddr addr, sim::CpuPool* cpu, int account,
              bool has_low_lat_poller);

  // Scheduling priority of event-driven request dispatch (the service's
  // worker threads). Low-latency-polled requests always run at realtime.
  void SetDispatchPriority(sim::Priority priority) { dispatch_priority_ = priority; }
  sim::Priority dispatch_priority() const { return dispatch_priority_; }

  // Registers a typed handler for `method`; the second form also receives the
  // message's attachment (null when the sender attached nothing).
  template <typename Req, typename Resp>
  void Handle(uint32_t method, std::function<sim::Task<Resp>(Req)> handler) {
    Handle<Req, Resp>(method, std::function<sim::Task<Resp>(Req, Attachment)>(
                                  [handler = std::move(handler)](Req req, Attachment) {
                                    return handler(std::move(req));
                                  }));
  }
  template <typename Req, typename Resp>
  void Handle(uint32_t method, std::function<sim::Task<Resp>(Req, Attachment)> handler) {
    handlers_[method] = [handler = std::move(handler)](
                            std::vector<uint8_t> request,
                            Attachment attachment) -> sim::Task<std::vector<uint8_t>> {
      Req req = internal::FromBytes<Req>(request);
      Resp resp = co_await handler(std::move(req), std::move(attachment));
      co_return internal::ToBytes(resp);
    };
  }

  // Endpoint liveness (defaults to always-alive).
  void SetAlivePredicate(std::function<bool()> alive) { alive_ = std::move(alive); }
  bool alive() const { return !alive_ || alive_(); }

  const std::string& name() const { return name_; }
  MemAddr addr() const { return addr_; }
  sim::CpuPool* cpu() const { return cpu_; }
  int account() const { return account_; }
  bool has_low_lat_poller() const { return has_low_lat_poller_; }

 private:
  friend class RpcSystem;

  std::string name_;
  MemAddr addr_;
  sim::CpuPool* cpu_;
  int account_;
  bool has_low_lat_poller_;
  sim::Priority dispatch_priority_ = sim::Priority::kNormal;
  std::function<bool()> alive_;
  std::unordered_map<uint32_t, GenericHandler> handlers_;
};

class RpcSystem {
 public:
  explicit RpcSystem(Network* network) : network_(network) {}

  // Fault-injection hook (fault::Injector): consulted once for the request
  // wire direction and once for the response direction of every call, on both
  // channels. Returning true silently discards the message — the caller then
  // waits out its timeout and observes kUnavailable, exactly like a lossy or
  // partitioned RoCE fabric. Message processing is otherwise unaffected, so a
  // dropped *response* still executes the handler (the classic ambiguity that
  // replication protocols must tolerate).
  using DropFilter = std::function<bool(int src_node, int dst_node, Channel channel)>;
  void SetDropFilter(DropFilter filter) { drop_filter_ = std::move(filter); }
  void ClearDropFilter() { drop_filter_ = nullptr; }

  // Causal-tracing hook: when set, every call made with a valid TraceContext
  // records an "rpc" span (post -> completion, caller's node lane) parented
  // into the operation's trace, so wire time shows up on the critical path.
  void SetTrace(obs::TraceBuffer* trace) { trace_ = trace; }

  RpcEndpoint* CreateEndpoint(std::string name, MemAddr addr, sim::CpuPool* cpu, int account,
                              bool has_low_lat_poller);
  RpcEndpoint* Find(const std::string& name);
  void DestroyEndpoint(const std::string& name);

  // Typed call. `caller` identifies the client side (CPU costs + wire source);
  // the response is delivered after the handler completes. Returns
  // kUnavailable if the target is missing/dead past `timeout`, kInvalid for an
  // unknown method. `attachment` is handed to the handler with the request.
  template <typename Req, typename Resp>
  sim::Task<Result<Resp>> Call(const Initiator& caller, MemAddr caller_addr,
                               const std::string& target, Channel channel, uint32_t method,
                               Req request, sim::Time timeout = 10 * sim::kMillisecond,
                               obs::TraceContext trace_ctx = {}, Attachment attachment = {}) {
    std::vector<uint8_t> req_bytes = internal::ToBytes(request);
    Result<std::vector<uint8_t>> resp =
        co_await CallRaw(caller, caller_addr, target, channel, method, std::move(req_bytes),
                         timeout, trace_ctx, std::move(attachment));
    if (!resp.ok()) {
      co_return resp.status();
    }
    co_return internal::FromBytes<Resp>(resp.value());
  }

  sim::Task<Result<std::vector<uint8_t>>> CallRaw(const Initiator& caller, MemAddr caller_addr,
                                                  const std::string& target, Channel channel,
                                                  uint32_t method, std::vector<uint8_t> request,
                                                  sim::Time timeout,
                                                  obs::TraceContext trace_ctx = {},
                                                  Attachment attachment = {});

  // One-way send (no response round trip). The handler registered for
  // `method` still runs on the receiver — its synthesized response is
  // discarded — but the sender resolves as soon as its send completion
  // arrives, i.e. once the message has reached the receiver's queue pair.
  //
  // Failure semantics match a reliable-connected transport: the sender can
  // observe only send-side errors. A dead/missing endpoint or a message eaten
  // by the drop filter makes the transport retry until `timeout` expires and
  // then surface a completion error (kUnavailable); whether and when the
  // handler ran is never visible. Completion signalling, if the protocol
  // needs it, must travel as a separate one-way message in the reverse
  // direction (e.g. kRpcReplAck answering kRpcReplChunk).
  //
  // `on_wire`, if set, fires exactly once: as soon as the message has crossed
  // the wire (or, on a send failure, once the transport has given up). It
  // marks the point where the QP's submission slot frees up — a caller
  // serialising submission order (e.g. a chunk's bulk write + control send)
  // can release its order lock there and overlap its own completion
  // processing with the next submission, as a real ordered QP does.
  //
  // `attachment` reaches the handler exactly as in Call().
  template <typename Req>
  sim::Task<Status> Post(const Initiator& caller, MemAddr caller_addr, const std::string& target,
                         Channel channel, uint32_t method, Req request,
                         sim::Time timeout = 10 * sim::kMillisecond,
                         obs::TraceContext trace_ctx = {},
                         std::function<void()> on_wire = {}, Attachment attachment = {}) {
    co_return co_await PostRaw(caller, caller_addr, target, channel, method,
                               internal::ToBytes(request), timeout, trace_ctx,
                               std::move(on_wire), std::move(attachment));
  }

  sim::Task<Status> PostRaw(const Initiator& caller, MemAddr caller_addr,
                            const std::string& target, Channel channel, uint32_t method,
                            std::vector<uint8_t> request, sim::Time timeout,
                            obs::TraceContext trace_ctx = {},
                            std::function<void()> on_wire = {}, Attachment attachment = {});

  Network* network() { return network_; }

 private:
  Network* network_;
  std::unordered_map<std::string, std::unique_ptr<RpcEndpoint>> endpoints_;
  DropFilter drop_filter_;
  obs::TraceBuffer* trace_ = nullptr;
};

}  // namespace linefs::rdma

#endif  // SRC_RDMA_RPC_H_
