#include "net/routing_strategy.h"

#include <variant>

#include "support/assert.h"

namespace lm::net {

bool RoutingStrategy::drop_if_ttl_expired(const Packet& packet) {
  const RouteHeader* route = route_of(packet);
  LM_ASSERT(route != nullptr);
  if (route->ttl > 1) return false;
  ctx_->stats.dropped_ttl++;
  ctx_->trace_packet(trace::EventKind::Drop, packet,
                     trace::DropReason::TtlExpired);
  return true;
}

void RoutingStrategy::drop_no_route(const Packet& packet) {
  ctx_->stats.dropped_no_route++;
  ctx_->trace_packet(trace::EventKind::Drop, packet,
                     trace::DropReason::NoRoute);
}

void RoutingStrategy::relay(Packet packet, Address link_dst,
                            Duration max_jitter) {
  RouteHeader* route = route_of(packet);
  LM_ASSERT(route != nullptr);
  route->ttl--;
  route->hops++;
  LinkHeader& link = link_of(packet);
  link.src = ctx_->address;
  link.dst = link_dst;
  ctx_->stats.packets_forwarded++;
  ctx_->trace_packet(trace::EventKind::Forward, packet);
  enqueue_jittered(std::move(packet), max_jitter);
}

void RoutingStrategy::enqueue_jittered(Packet packet, Duration max_jitter) {
  const bool control = is_control_plane(packet);
  if (max_jitter <= Duration::zero()) {
    link_->enqueue(std::move(packet), control);
    return;
  }
  const Duration delay =
      Duration::from_seconds(ctx_->rng.uniform(0.0, max_jitter.seconds_d()));
  track_jitter(ctx_->schedule_local(
      delay, [this, control, p = std::move(packet)]() mutable {
        if (ctx_->running) link_->enqueue(std::move(p), control);
      }));
}

bool RoutingStrategy::deliver_if_broadcast(Packet& packet) {
  const RouteHeader* route = route_of(packet);
  LM_ASSERT(route != nullptr);
  if (route->final_dst != kBroadcast) return false;
  if (std::holds_alternative<DataPacket>(packet)) deliver_(std::move(packet));
  return true;
}

}  // namespace lm::net
