#include "net/distance_vector_strategy.h"

#include <algorithm>

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
  const std::uint8_t penalty = advertised_penalty();
  if (beacon_.content_id == 0 || beacon_.generation != table_->generation() ||
      beacon_.penalty != penalty) {
    build_beacon(penalty);
  }
  RoutingPacket p;
  p.link = LinkHeader{kBroadcast, ctx_->address};
  p.entries = beacon_.entries;
  p.content_id = beacon_.content_id;
  ctx_->stats.beacons_sent++;
  link_->enqueue(Packet{std::move(p)}, /*control=*/true);
  schedule_next_beacon(/*first=*/false);
}

void DistanceVectorStrategy::build_beacon(std::uint8_t penalty) {
  // Dwell rule: advertise only what one capped frame carries.
  beacon_.entries =
      table_->advertisement(routing_entries_within(link_->max_frame_bytes()));
  if (penalty != 0) {
    for (RoutingEntry& entry : beacon_.entries) {
      if (entry.address == ctx_->address) continue;  // stay directly reachable
      // Saturate just below infinity: a nearly-dead relay is a last resort,
      // not a black hole (the receiving merge adds its own +1).
      entry.metric = static_cast<std::uint8_t>(
          std::min(entry.metric + penalty, kInfiniteMetric - 1));
    }
  }
  beacon_.generation = table_->generation();
  beacon_.penalty = penalty;
  beacon_.content_id = draw_content_id();
}

}  // namespace lm::net
