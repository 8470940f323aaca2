// RoutingStrategy — the swappable seam of the network layer.
//
// The paper's prototype routes with a hop-count distance-vector protocol,
// but related work varies exactly this axis (position/energy-aware metrics,
// managed flooding). A strategy owns the routing *policy*: what to do with
// a received routing beacon, how to dispatch a routed packet
// (deliver/forward/flood), how to resolve the next hop at transmit time and
// whether an origination is currently routable. Everything mechanical —
// queues, CAD/backoff, duty cycle, sessions — lives in the shared layers
// and is reused unchanged across strategies.
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "net/layer_context.h"
#include "net/link_layer.h"
#include "net/packet.h"
#include "net/routing_table.h"
#include "sim/simulator.h"
#include "support/function_ref.h"

namespace lm::net {

/// A beacon reception reads the vtable pointer and the ctx_, table_ and
/// link_ pointers: the object's first 32 bytes.
class RoutingStrategy {
 public:
  /// Hands a packet up the stack for local consumption (the facade routes
  /// it to the application or the transport layer). Non-owning: the facade
  /// binds one of its own members and outlives the strategy.
  using DeliverFn = support::FunctionRef<void(Packet)>;

  /// Pending jitter closures capture `this`; release them so they can
  /// never fire into a destroyed strategy.
  virtual ~RoutingStrategy() {
    if (ctx_ != nullptr) {
      for (sim::TimerId id : jitter_timers_) ctx_->sim.cancel(id);
    }
  }

  /// Wires the strategy into its owning stack; called exactly once by
  /// NetworkLayer before any other method.
  void attach(LayerContext& ctx, LinkLayer& link, RoutingTable& table,
              DeliverFn deliver) {
    ctx_ = &ctx;
    link_ = &link;
    table_ = &table;
    deliver_ = deliver;
  }

  /// Node powered up: start periodic control traffic (e.g. beacons).
  virtual void start() {}
  /// Node powered down: cancel the strategy's timers.
  virtual void stop() {}
  virtual const char* name() const = 0;

  /// Whether an origination toward `dst` can currently be carried. A pure
  /// query: introspection and diagnostics may call it freely.
  virtual bool has_route(Address dst) const = 0;
  /// An origination toward `dst` was refused for lack of a route (the
  /// refusal ladders call this right after has_route says no). On-demand
  /// strategies treat the refusal as the demand signal and start
  /// discovering here.
  virtual void note_demand(Address) {}
  /// Whether kBroadcast is a valid datagram destination (multi-hop flood
  /// strategies say yes; unicast routing says no).
  virtual bool allows_broadcast_destination() const { return false; }

  /// A routing-plane packet arrived (already counted in beacons_received).
  virtual void on_routing(const RoutingPacket& packet) = 0;
  /// A routed packet arrived addressed to us or broadcast: deliver, forward
  /// or flood according to policy.
  virtual void handle(Packet packet) = 0;
  /// Late next-hop resolution for queued packets with dst == kUnassigned;
  /// nullopt drops the packet at the link layer.
  virtual std::optional<Address> resolve_next_hop(const RouteHeader& route) = 0;

 protected:
  /// Registers a fire-and-forget delay timer (rebroadcast/forward jitter)
  /// so the destructor can cancel it — an untracked closure would fire
  /// into a destroyed strategy. Fired handles are pruned here, keeping the
  /// list at the pending-jitter count.
  void track_jitter(sim::TimerId id) {
    std::erase_if(jitter_timers_, [this](sim::TimerId t) {
      return !ctx_->sim.is_pending(t);
    });
    jitter_timers_.push_back(id);
  }

  LayerContext* ctx_ = nullptr;
  RoutingTable* table_ = nullptr;
  LinkLayer* link_ = nullptr;
  DeliverFn deliver_;

 private:
  std::vector<sim::TimerId> jitter_timers_;
};

}  // namespace lm::net
