#include "net/network_layer.h"

#include <cstddef>

#include "support/assert.h"

namespace lm::net {

NetworkLayer::NetworkLayer(LayerContext& ctx, LinkLayer& link,
                           std::unique_ptr<RoutingStrategy> strategy,
                           RoutingStrategy::DeliverFn deliver)
    : strategy_(std::move(strategy)),
      ctx_(ctx),
      table_(ctx.address,
             ctx.config.hello_interval *
                 static_cast<std::int64_t>(ctx.config.route_timeout_intervals),
             kInfiniteMetric, ctx.config.role),
      link_(link) {
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
  static_assert(offsetof(NetworkLayer, table_) + RoutingTable::kReceiveHotBytes <= 64);
#pragma GCC diagnostic pop
  LM_REQUIRE(strategy_ != nullptr);
  strategy_->attach(ctx_, link_, table_, std::move(deliver));
}

RouteHeader NetworkLayer::make_route(Address final_dst) {
  RouteHeader r;
  r.final_dst = final_dst;
  r.origin = ctx_.address;
  r.ttl = ctx_.config.max_ttl;
  r.hops = 0;
  r.packet_id = next_packet_id_++;
  return r;
}

bool NetworkLayer::admit(PacketType type, Address destination,
                         std::size_t bytes, bool fits, trace::DropReason* why,
                         bool single_hop) {
  using trace::DropReason;
  if (!ctx_.running) {
    return refuse(type, destination, bytes, DropReason::NotRunning, why);
  }
  if (!single_hop &&
      (destination == ctx_.address || destination == kUnassigned ||
       (destination == kBroadcast &&
        !(type == PacketType::Data && strategy_->allows_broadcast_destination())))) {
    return refuse(type, destination, bytes, DropReason::InvalidDestination, why);
  }
  if (!fits) return refuse(type, destination, bytes, DropReason::PayloadTooLarge, why);
  if (!single_hop && !strategy_->has_route(destination)) {
    strategy_->note_demand(destination);
    ctx_.stats.dropped_no_route++;
    return refuse(type, destination, bytes, DropReason::NoRoute, why);
  }
  return true;
}

bool NetworkLayer::refuse(PacketType type, Address destination,
                          std::size_t bytes, trace::DropReason reason,
                          trace::DropReason* why) {
  if (why != nullptr) *why = reason;
  ctx_.trace_refusal(type, destination, bytes, reason);
  return false;
}

bool NetworkLayer::send_datagram(Address destination,
                                 std::vector<std::uint8_t> payload,
                                 trace::DropReason* why) {
  if (!admit(PacketType::Data, destination, payload.size(),
             payload.size() <= max_datagram_payload(), why)) {
    return false;
  }
  return originate(kUnassigned, make_route(destination), payload,
                   ctx_.stats.datagrams_sent, why);
}

bool NetworkLayer::send_broadcast(std::vector<std::uint8_t> payload,
                                  trace::DropReason* why) {
  if (!admit(PacketType::Data, kBroadcast, payload.size(),
             payload.size() <= max_datagram_payload(), why, /*single_hop=*/true)) {
    return false;
  }
  RouteHeader route = make_route(kBroadcast);
  route.ttl = 1;  // single hop by design
  return originate(kBroadcast, route, payload, ctx_.stats.broadcasts_sent, why);
}

bool NetworkLayer::originate(Address link_dst, const RouteHeader& route,
                             std::span<const std::uint8_t> payload,
                             std::uint64_t& sent, trace::DropReason* why) {
  DataPacket p;
  p.link = LinkHeader{link_dst, ctx_.address};
  p.route = route;
  p.payload.assign(payload.begin(), payload.end());
  Packet packet{std::move(p)};
  ctx_.trace_packet(trace::EventKind::AppSubmit, packet);
  if (!link_.enqueue(std::move(packet), /*control=*/false)) {
    if (why != nullptr) *why = trace::DropReason::QueueFull;
    return false;
  }
  sent++;
  return true;
}

void NetworkLayer::on_packet(const Packet& packet) {
  if (const auto* routing = std::get_if<RoutingPacket>(&packet)) {
    ctx_.stats.beacons_received++;
    strategy_->on_routing(*routing);
    return;
  }
  // The one copy per reception: `packet` is the decode memo, shared by
  // every receiver of this frame, and forwarding rewrites ttl, hops and the
  // link header.
  strategy_->handle(Packet(packet));
}

}  // namespace lm::net
