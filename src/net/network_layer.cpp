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

bool NetworkLayer::send_datagram(Address destination,
                                 std::vector<std::uint8_t> payload,
                                 trace::DropReason* why) {
  const auto refuse = [&](trace::DropReason reason) {
    if (why != nullptr) *why = reason;
    if (ctx_.tracer != nullptr) {
      ctx_.trace_refusal(PacketType::Data, destination, payload.size(), reason);
    }
    return false;
  };
  if (!ctx_.running) return refuse(trace::DropReason::NotRunning);
  if (destination == ctx_.address || destination == kUnassigned ||
      (destination == kBroadcast && !strategy_->allows_broadcast_destination())) {
    return refuse(trace::DropReason::InvalidDestination);
  }
  if (payload.size() > max_datagram_payload()) {
    return refuse(trace::DropReason::PayloadTooLarge);
  }
  if (!strategy_->has_route(destination)) {
    strategy_->note_demand(destination);
    ctx_.stats.dropped_no_route++;
    return refuse(trace::DropReason::NoRoute);
  }
  DataPacket p;
  p.link = LinkHeader{kUnassigned, ctx_.address};
  p.route = make_route(destination);
  p.payload.assign(payload.begin(), payload.end());
  Packet packet{std::move(p)};
  if (ctx_.tracer != nullptr) {
    ctx_.trace_packet(trace::EventKind::AppSubmit, packet);
  }
  if (!link_.enqueue(std::move(packet), /*control=*/false)) {
    if (why != nullptr) *why = trace::DropReason::QueueFull;
    return false;
  }
  ctx_.stats.datagrams_sent++;
  return true;
}

bool NetworkLayer::send_broadcast(std::vector<std::uint8_t> payload,
                                  trace::DropReason* why) {
  const auto refuse = [&](trace::DropReason reason) {
    if (why != nullptr) *why = reason;
    if (ctx_.tracer != nullptr) {
      ctx_.trace_refusal(PacketType::Data, kBroadcast, payload.size(), reason);
    }
    return false;
  };
  if (!ctx_.running) return refuse(trace::DropReason::NotRunning);
  if (payload.size() > max_datagram_payload()) {
    return refuse(trace::DropReason::PayloadTooLarge);
  }
  DataPacket p;
  p.link = LinkHeader{kBroadcast, ctx_.address};
  p.route.final_dst = kBroadcast;
  p.route.origin = ctx_.address;
  p.route.ttl = 1;  // single hop by design
  p.route.packet_id = next_packet_id_++;
  p.payload.assign(payload.begin(), payload.end());
  Packet packet{std::move(p)};
  if (ctx_.tracer != nullptr) {
    ctx_.trace_packet(trace::EventKind::AppSubmit, packet);
  }
  if (!link_.enqueue(std::move(packet), /*control=*/false)) {
    if (why != nullptr) *why = trace::DropReason::QueueFull;
    return false;
  }
  ctx_.stats.broadcasts_sent++;
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
