#include "net/distance_vector_strategy.h"

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
  if (deliver_if_broadcast(packet)) return;
  const RouteHeader& route = *route_of(packet);
  if (route.final_dst == ctx_->address) {
    deliver_(std::move(packet));
    return;
  }
  if (drop_if_ttl_expired(packet)) return;
  if (!table_->has_route(route.final_dst)) {
    drop_no_route(packet);
    return;
  }
  relay(std::move(packet), kUnassigned, ctx_->config.forward_jitter);
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
