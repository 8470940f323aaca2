// RoutingStrategy — the swappable seam of the network layer.
//
// The paper's prototype routes with a hop-count distance-vector protocol,
// but related work varies exactly this axis (position/energy-aware metrics,
// managed flooding). A strategy implements the routing *policy*: what to do
// with a received routing beacon, whether a packet it would forward has a
// route, which control packets it originates, how to resolve the next hop
// at transmit time and whether an origination is currently routable.
//
// The relay mechanics every policy shares are inherited, not copied: the
// TTL-expired and no-route drops, the relay step (ttl - 1, hops + 1, link
// rewrite, Forward count and trace), the jittered or immediate enqueue
// behind it and the single-hop broadcast-datagram delivery are protected
// helpers here; duplicate suppression is support::DuplicateFilter. The
// queues, CAD/backoff, duty cycle and sessions live in the shared layers
// and are reused unchanged across strategies.
#pragma once

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
  /// An origination toward `dst` was refused for lack of a route
  /// (NetworkLayer::admit calls this right after has_route says no). On-demand
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
  /// Drops `packet` if its TTL expires on this hop, counted in dropped_ttl
  /// and traced as TtlExpired; true when dropped.
  bool drop_if_ttl_expired(const Packet& packet);
  /// Drops a packet the policy found no route for, counted in
  /// dropped_no_route and traced as NoRoute.
  void drop_no_route(const Packet& packet);
  /// Relays a received routed packet one hop on: ttl - 1, hops + 1, link
  /// source rewritten to us and link destination to `link_dst` (kBroadcast
  /// for floods, kUnassigned for resolution at transmit time), counted in
  /// packets_forwarded and traced as Forward, then enqueue_jittered.
  void relay(Packet packet, Address link_dst, Duration max_jitter);
  /// Enqueues `packet` after a uniform random delay in [0, max_jitter), or
  /// at once when max_jitter is not positive. The delay is drawn only when
  /// it is used.
  void enqueue_jittered(Packet packet, Duration max_jitter);
  /// Under unicast routing a packet routed to kBroadcast is a single-hop
  /// broadcast datagram: a data packet is delivered, nothing is forwarded.
  /// True when `packet` was one (it is consumed).
  bool deliver_if_broadcast(Packet& packet);

  LayerContext* ctx_ = nullptr;
  RoutingTable* table_ = nullptr;
  LinkLayer* link_ = nullptr;
  DeliverFn deliver_;

 private:
  /// Registers a fire-and-forget delay timer so the destructor can cancel
  /// it — an untracked closure would fire into a destroyed strategy. Fired
  /// handles are pruned here, keeping the list at the pending-jitter count.
  void track_jitter(sim::TimerId id) {
    std::erase_if(jitter_timers_, [this](sim::TimerId t) {
      return !ctx_->sim.is_pending(t);
    });
    jitter_timers_.push_back(id);
  }

  std::vector<sim::TimerId> jitter_timers_;
};

}  // namespace lm::net
