#include "net/distance_vector_strategy.h"

#include <variant>

#include "support/assert.h"

namespace lm::net {

DistanceVectorStrategy::~DistanceVectorStrategy() {
  if (beacon_timer_ != 0) ctx_->sim.cancel(beacon_timer_);
}

void DistanceVectorStrategy::start() {
  schedule_next_beacon(/*first=*/true);
}

void DistanceVectorStrategy::stop() {
  if (beacon_timer_ != 0) {
    ctx_->sim.cancel(beacon_timer_);
    beacon_timer_ = 0;
  }
}

void DistanceVectorStrategy::on_routing(const RoutingPacket& packet) {
  if (ctx_->config.require_link_quality) {
    const auto margin = link_->snr_margin_db(packet.link.src);
    if (!margin || *margin < ctx_->config.min_snr_margin_db) {
      // Too weak to rely on: never let this neighbor become a next hop.
      // Existing routes through it stop being refreshed and age out.
      ctx_->stats.beacons_ignored_low_quality++;
      return;
    }
  }
  if (table_->apply_beacon(packet.link.src, packet.entries, ctx_->local_now(),
                           packet.content_id)) {
    ctx_->stats.routing_changes++;
  }
}

void DistanceVectorStrategy::handle(Packet packet) {
  const RouteHeader* route = route_of(packet);
  LM_ASSERT(route != nullptr);
  if (route->final_dst == kBroadcast) {
    // Single-hop broadcast datagram: deliver, never forward.
    if (std::holds_alternative<DataPacket>(packet)) {
      deliver_(std::move(packet));
    }
    return;
  }
  if (route->final_dst == ctx_->address) {
    deliver_(std::move(packet));
  } else {
    forward(std::move(packet));
  }
}

void DistanceVectorStrategy::forward(Packet packet) {
  RouteHeader* route = route_of(packet);
  LM_ASSERT(route != nullptr);
  if (route->ttl <= 1) {
    ctx_->stats.dropped_ttl++;
    if (ctx_->tracer != nullptr) {
      ctx_->trace_packet(trace::EventKind::Drop, packet,
                         trace::DropReason::TtlExpired);
    }
    return;
  }
  if (!table_->has_route(route->final_dst)) {
    ctx_->stats.dropped_no_route++;
    if (ctx_->tracer != nullptr) {
      ctx_->trace_packet(trace::EventKind::Drop, packet,
                         trace::DropReason::NoRoute);
    }
    return;
  }
  route->ttl--;
  route->hops++;
  LinkHeader& link = link_of(packet);
  link.src = ctx_->address;
  link.dst = kUnassigned;  // resolved at transmit time
  ctx_->stats.packets_forwarded++;
  if (ctx_->tracer != nullptr) {
    ctx_->trace_packet(trace::EventKind::Forward, packet);
  }
  const bool control = is_control_plane(packet);
  if (ctx_->config.forward_jitter > Duration::zero()) {
    const Duration delay = Duration::from_seconds(
        ctx_->rng.uniform(0.0, ctx_->config.forward_jitter.seconds_d()));
    track_jitter(ctx_->schedule_local(
        delay, [this, control, p = std::move(packet)]() mutable {
          if (ctx_->running) link_->enqueue(std::move(p), control);
        }));
  } else {
    link_->enqueue(std::move(packet), control);
  }
}

void DistanceVectorStrategy::schedule_next_beacon(bool first) {
  Duration delay;
  if (first) {
    delay = Duration::from_seconds(
        ctx_->rng.uniform(0.0, ctx_->config.hello_interval.seconds_d()));
  } else if (ctx_->config.hello_jitter > 0.0) {
    delay = ctx_->config.hello_interval *
            ctx_->rng.uniform(1.0 - ctx_->config.hello_jitter,
                              1.0 + ctx_->config.hello_jitter);
  } else {
    delay = ctx_->config.hello_interval;
  }
  beacon_timer_ = ctx_->schedule_local(delay, [this] {
    beacon_timer_ = 0;
    send_beacon();
  });
}

void DistanceVectorStrategy::send_beacon() {
  if (!ctx_->running) return;
  RoutingPacket p;
  p.link = LinkHeader{kBroadcast, ctx_->address, PacketType::Routing};
  p.entries = table_->advertisement();
  decorate_advertisement(p.entries);
  // Dwell rule: trim the advertisement (farthest destinations first — the
  // list is sorted by address, so re-trim via encoded size from the back).
  while (!p.entries.empty() &&
         kLinkHeaderSize + 1 + 4 * p.entries.size() > link_->max_frame_bytes()) {
    p.entries.pop_back();
  }
  ctx_->stats.beacons_sent++;
  link_->enqueue(Packet{std::move(p)}, /*control=*/true);
  schedule_next_beacon(/*first=*/false);
}

}  // namespace lm::net
