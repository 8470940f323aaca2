#include "net/gateway_tree_strategy.h"

#include <algorithm>
#include <variant>

#include "support/assert.h"

namespace lm::net {
namespace {

/// Each root wave after the first fires at beacon_interval * (1 ± this).
constexpr double kBeaconJitter = 0.1;
/// Settle window between a round's first beacon arriving and the node
/// electing its parent + rebroadcasting (lets sibling beacons arrive).
constexpr Duration kSettleWindow = Duration::seconds(2);
/// Random extra delay before rebroadcasting the elected wave,
/// desynchronizing sibling relays whose settle windows close together.
constexpr Duration kRebroadcastJitter = Duration::milliseconds(800);
/// Candidates this many rounds old or older are dropped at election time.
constexpr std::int16_t kCandidateMaxAgeRounds = 2;
/// A member whose round has not advanced for this many beacon intervals
/// while its root's waves still arrive, all rounds behind, holds a round
/// no root sent (a forged or corrupted wave) and restarts its tree.
constexpr int kStaleRoundIntervals = 3;

}  // namespace

GatewayTreeStrategy::GatewayTreeStrategy(GatewayTreeConfig config)
    : config_(config) {
  LM_REQUIRE(config_.beacon_interval > Duration::zero());
  LM_REQUIRE(config_.report_interval > Duration::zero());
}

GatewayTreeStrategy::~GatewayTreeStrategy() {
  if (ctx_ != nullptr) {
    if (beacon_timer_ != 0) ctx_->sim.cancel(beacon_timer_);
    if (election_timer_ != 0) ctx_->sim.cancel(election_timer_);
    if (report_timer_ != 0) ctx_->sim.cancel(report_timer_);
  }
}

void GatewayTreeStrategy::start() {
  is_root_ = (ctx_->config.role & roles::kGateway) != 0;
  if (is_root_) {
    root_ = ctx_->address;
    depth_ = 0;
    schedule_root_beacon(/*first=*/true);
  } else if (parent_.has_value()) {
    // Warm reboot with a remembered parent: resume reporting immediately.
    schedule_report(/*first=*/true);
  }
}

void GatewayTreeStrategy::stop() {
  if (beacon_timer_ != 0) {
    ctx_->sim.cancel(beacon_timer_);
    beacon_timer_ = 0;
  }
  if (election_timer_ != 0) {
    ctx_->sim.cancel(election_timer_);
    election_timer_ = 0;
  }
  if (report_timer_ != 0) {
    ctx_->sim.cancel(report_timer_);
    report_timer_ = 0;
  }
  election_scheduled_ = false;
}

bool GatewayTreeStrategy::has_route(Address dst) const {
  if (table_->has_route(dst)) return true;
  // Members carry unknown destinations up the tree; the root has nowhere
  // "up" and needs a learned downward route.
  return !is_root_ && parent_.has_value();
}

void GatewayTreeStrategy::schedule_root_beacon(bool first) {
  const Duration delay =
      first ? Duration::from_seconds(ctx_->rng.uniform(
                  0.0, config_.beacon_interval.seconds_d() * 0.25))
            : config_.beacon_interval *
                  ctx_->rng.uniform(1.0 - kBeaconJitter, 1.0 + kBeaconJitter);
  beacon_timer_ = ctx_->schedule_local(delay, [this] {
    beacon_timer_ = 0;
    send_root_beacon();
  });
}

void GatewayTreeStrategy::send_root_beacon() {
  if (!ctx_->running) return;
  round_++;
  TreeBeaconPacket p;
  p.link = LinkHeader{kBroadcast, ctx_->address};
  p.route.final_dst = kBroadcast;
  p.route.origin = ctx_->address;
  p.route.ttl = ctx_->config.max_ttl;
  p.route.hops = 0;  // the sender's depth
  p.route.packet_id = round_;
  ctx_->stats.beacons_sent++;
  link_->enqueue(Packet{p}, /*control=*/true);
  schedule_root_beacon(/*first=*/false);
}

void GatewayTreeStrategy::on_beacon(const TreeBeaconPacket& packet) {
  ctx_->stats.beacons_received++;
  const RouteHeader& route = packet.route;
  if (is_root_ || route.origin == ctx_->address) return;
  const TimePoint now = ctx_->local_now();
  if (!root_.has_value() || route.origin < *root_ ||
      (route.origin == *root_ && round_newer(round_, route.packet_id) &&
       now - round_heard_at_ >=
           config_.beacon_interval * kStaleRoundIntervals)) {
    // First root heard, a lower-address root wins (one deterministic tree
    // when several gateways are present), or our round is stale: no newer
    // wave for several intervals, yet the root's waves arrive rounds
    // behind. A member that still hears the root's fresh waves never
    // restarts, however late a queued relay of an old round arrives.
    root_ = route.origin;
    candidates_.clear();
    parent_.reset();
    depth_ = 0xFFFF;
    round_ = static_cast<std::uint16_t>(route.packet_id - 1);
    has_elected_ = false;  // a new tree: the round guard starts over
  } else if (route.origin != *root_) {
    return;  // a higher-address root's tree: ignore
  }
  Candidate c;
  c.depth = route.hops;
  c.round = route.packet_id;
  if (const auto margin = link_->snr_margin_db(packet.link.src)) {
    c.snr_margin_db = *margin;
    c.has_snr = true;
  }
  candidates_[packet.link.src] = c;
  if (round_newer(route.packet_id, round_)) {
    round_ = route.packet_id;
    round_heard_at_ = now;
  }
  if (!election_scheduled_ &&
      (!has_elected_ || round_newer(round_, last_elected_round_))) {
    // Let the round's sibling beacons arrive, then pick the best parent
    // and relay the wave exactly once. Beacons for an already-elected
    // round (deeper neighbors relaying our own wave back) only refresh
    // the candidate set for the next round.
    election_scheduled_ = true;
    election_timer_ = ctx_->schedule_local(kSettleWindow, [this] {
      election_timer_ = 0;
      elect_and_rebroadcast();
    });
  }
}

void GatewayTreeStrategy::elect_and_rebroadcast() {
  election_scheduled_ = false;
  if (!ctx_->running || !root_.has_value()) return;
  has_elected_ = true;
  last_elected_round_ = round_;
  // Drop candidates that have missed too many waves (a silent parent).
  candidates_.erase_if([this](const auto& kv) {
    return static_cast<std::int16_t>(round_ - kv.second.round) >=
           kCandidateMaxAgeRounds;
  });
  const std::pair<Address, Candidate>* best = nullptr;
  for (const auto& kv : candidates_) {
    if (best == nullptr) {
      best = &kv;
      continue;
    }
    const Candidate& a = kv.second;
    const Candidate& b = best->second;
    // Shallower parent first; break ties toward the stronger link, then
    // the lower address (fully deterministic ordering).
    const double a_snr = a.has_snr ? a.snr_margin_db : -1e9;
    const double b_snr = b.has_snr ? b.snr_margin_db : -1e9;
    if (a.depth < b.depth ||
        (a.depth == b.depth &&
         (a_snr > b_snr || (a_snr == b_snr && kv.first < best->first)))) {
      best = &kv;
    }
  }
  if (best == nullptr) {
    parent_.reset();
    depth_ = 0xFFFF;
    return;
  }
  const bool first_parent = !parent_.has_value();
  parent_ = best->first;
  depth_ = static_cast<std::uint16_t>(best->second.depth + 1);
  const TimePoint now = ctx_->local_now();
  const Role parent_role =
      (*parent_ == *root_) ? roles::kGateway : roles::kNone;
  table_->upsert(*parent_, *parent_, 1, parent_role, now);
  if (*root_ != *parent_) {
    table_->upsert(*root_, *parent_,
                   static_cast<std::uint8_t>(std::min<int>(depth_, 255)),
                   roles::kGateway, now);
  }
  // Relay the wave with our own depth so deeper nodes can join.
  if (ctx_->config.max_ttl > depth_ + 1 && depth_ < 255) {
    TreeBeaconPacket wave;
    wave.link = LinkHeader{kBroadcast, ctx_->address};
    wave.route.final_dst = kBroadcast;
    wave.route.origin = *root_;
    wave.route.ttl = static_cast<std::uint8_t>(ctx_->config.max_ttl - depth_);
    wave.route.hops = static_cast<std::uint8_t>(depth_);
    wave.route.packet_id = round_;
    beacons_relayed_++;
    ctx_->stats.beacons_sent++;
    enqueue_jittered(Packet{wave}, kRebroadcastJitter);
  }
  if (first_parent) schedule_report(/*first=*/true);
}

void GatewayTreeStrategy::schedule_report(bool first) {
  // A member that rejoins after losing its parent starts the chain over
  // with a prompt first report; two chains would double its reports.
  if (report_timer_ != 0) ctx_->sim.cancel(report_timer_);
  Duration delay;
  if (first) {
    delay = Duration::from_seconds(ctx_->rng.uniform(
        0.1 * config_.report_interval.seconds_d(),
        0.5 * config_.report_interval.seconds_d()));
  } else {
    delay = config_.report_interval * ctx_->rng.uniform(0.9, 1.1);
  }
  report_timer_ = ctx_->schedule_local(delay, [this] {
    report_timer_ = 0;
    send_report();
  });
}

void GatewayTreeStrategy::send_report() {
  if (!ctx_->running) return;
  if (parent_.has_value() && root_.has_value()) {
    TreeReportPacket p;
    p.link = LinkHeader{kUnassigned, ctx_->address};
    p.route.final_dst = *root_;
    p.route.origin = ctx_->address;
    p.route.ttl = ctx_->config.max_ttl;
    p.route.hops = 0;
    p.route.packet_id = next_report_id_++;
    p.parent = *parent_;
    reports_sent_++;
    link_->enqueue(Packet{p}, /*control=*/true);
  }
  schedule_report(/*first=*/false);
}

void GatewayTreeStrategy::learn_backward(const LinkHeader& link,
                                         const RouteHeader& route) {
  const TimePoint now = ctx_->local_now();
  const auto role_of = [this](Address a) {
    return (root_.has_value() && a == *root_) ? roles::kGateway : roles::kNone;
  };
  table_->upsert(link.src, link.src, 1, role_of(link.src), now);
  if (route.origin != ctx_->address && route.origin != link.src) {
    table_->upsert(route.origin, link.src,
                   static_cast<std::uint8_t>(std::min<int>(route.hops + 1, 255)),
                   role_of(route.origin), now);
  }
}

void GatewayTreeStrategy::handle(Packet packet) {
  // A crafted frame must not make resolve_next_hop install a default route
  // toward kUnassigned, or toward kBroadcast for a report (other
  // broadcasts are consumed by deliver_if_broadcast).
  const RouteHeader& route = *route_of(packet);
  const bool report = std::holds_alternative<TreeReportPacket>(packet);
  if (route.final_dst == kUnassigned ||
      (report && route.final_dst == kBroadcast)) {
    ctx_->trace_packet(trace::EventKind::Drop, packet,
                       trace::DropReason::Malformed);
    return;
  }
  if (const auto* beacon = std::get_if<TreeBeaconPacket>(&packet)) {
    on_beacon(*beacon);
    return;
  }
  if (report) {
    on_report(std::move(packet));
    return;
  }
  if (deliver_if_broadcast(packet)) return;
  // Any relayed unicast teaches the downward direction: the origin is
  // reachable through whoever just handed us the packet.
  learn_backward(link_of(packet), route);
  if (route.final_dst == ctx_->address) {
    deliver_(std::move(packet));
  } else {
    forward(std::move(packet));
  }
}

void GatewayTreeStrategy::on_report(Packet packet) {
  const auto* report = std::get_if<TreeReportPacket>(&packet);
  LM_ASSERT(report != nullptr);
  learn_backward(report->link, report->route);
  if (report->route.final_dst == ctx_->address) {
    // Reached the root: consumed as control state, not application data.
    reports_received_++;
    return;
  }
  forward(std::move(packet));
}

void GatewayTreeStrategy::forward(Packet packet) {
  if (drop_if_ttl_expired(packet)) return;
  if (!table_->has_route(route_of(packet)->final_dst) &&
      !(parent_.has_value() && !is_root_)) {
    drop_no_route(packet);
    return;
  }
  relay(std::move(packet), kUnassigned, ctx_->config.forward_jitter);
}

std::optional<Address> GatewayTreeStrategy::resolve_next_hop(
    const RouteHeader& route) {
  const TimePoint now = ctx_->local_now();
  if (const auto next = table_->next_hop(route.final_dst)) {
    table_->touch(route.final_dst, now);
    return next;
  }
  if (!parent_.has_value() || is_root_) return std::nullopt;
  // Unknown destination: ride the tree upward. Materialize the default
  // route as a real table entry so the flight recorder sees the
  // (destination, via) pairing before the transmission uses it; backward
  // learning replaces it with the true downward path if one exists.
  table_->upsert(route.final_dst, *parent_,
                 static_cast<std::uint8_t>(std::min<int>(depth_ + 1, 255)),
                 roles::kNone, now);
  return parent_;
}

}  // namespace lm::net
