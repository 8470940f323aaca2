#include "net/aodv_strategy.h"

#include <variant>

#include "support/assert.h"

namespace lm::net {
namespace {

/// Random delay before relaying a RouteRequest re-broadcast,
/// desynchronizing parallel relays of the discovery flood.
constexpr Duration kRreqJitter = Duration::milliseconds(500);

}  // namespace

AodvStrategy::~AodvStrategy() {
  if (ctx_ != nullptr) {
    for (auto& [dst, discovery] : pending_) {
      if (discovery.retry_timer != 0) ctx_->sim.cancel(discovery.retry_timer);
    }
  }
}

void AodvStrategy::stop() {
  for (auto& [dst, discovery] : pending_) {
    if (discovery.retry_timer != 0) ctx_->sim.cancel(discovery.retry_timer);
  }
  pending_.clear();
}

bool AodvStrategy::has_route(Address dst) const {
  return table_->has_route(dst);
}

void AodvStrategy::note_demand(Address dst) {
  // The refused origination *is* the route demand: start discovering so a
  // later origination toward `dst` finds the route installed.
  begin_discovery(dst);
}

void AodvStrategy::begin_discovery(Address dst) {
  if (!ctx_->running) return;
  if (dst == kBroadcast || dst == kUnassigned || dst == ctx_->address) return;
  if (pending_.contains(dst)) return;  // one discovery per destination
  pending_.try_emplace(dst);
  discoveries_started_++;
  send_rreq(dst);
}

void AodvStrategy::send_rreq(Address dst) {
  auto it = pending_.find(dst);
  LM_ASSERT(it != pending_.end());
  it->second.attempts++;
  own_seq_++;
  RouteRequestPacket p;
  p.link = LinkHeader{kBroadcast, ctx_->address};
  p.route.final_dst = dst;
  p.route.origin = ctx_->address;
  p.route.ttl = ctx_->config.max_ttl;
  p.route.hops = 0;
  p.route.packet_id = next_rreq_id_++;
  p.origin_seq = own_seq_;
  if (const auto known = seq_of_.find(dst); known != seq_of_.end()) {
    p.dst_seq = known->second;
    p.dst_seq_known = 1;
  }
  // Suppress our own echoes.
  seen_rreqs_.seen_before({ctx_->address, p.route.packet_id}, kRreqWindow);
  rreqs_sent_++;
  link_->enqueue(Packet{p}, /*control=*/true);
  it->second.retry_timer = ctx_->schedule_local(
      kRreqRetryTimeout, [this, dst] { on_retry_timer(dst); });
}

void AodvStrategy::on_retry_timer(Address dst) {
  auto it = pending_.find(dst);
  if (it == pending_.end()) return;
  it->second.retry_timer = 0;
  if (table_->has_route(dst) || !ctx_->running ||
      it->second.attempts >= 1 + kRreqRefloods) {
    pending_.erase(it);
    return;
  }
  send_rreq(dst);
}

void AodvStrategy::finish_discovery(Address dst) {
  auto it = pending_.find(dst);
  if (it == pending_.end()) return;
  if (it->second.retry_timer != 0) ctx_->sim.cancel(it->second.retry_timer);
  pending_.erase(it);
}

void AodvStrategy::note_seq(Address addr, std::uint16_t seq) {
  auto [it, inserted] = seq_of_.try_emplace(addr, seq);
  if (!inserted && seq_newer(seq, it->second)) it->second = seq;
}

void AodvStrategy::handle(Packet packet) {
  if (auto* rreq = std::get_if<RouteRequestPacket>(&packet)) {
    on_rreq(std::move(*rreq));
    return;
  }
  if (auto* rrep = std::get_if<RouteReplyPacket>(&packet)) {
    on_rrep(std::move(*rrep));
    return;
  }
  if (const auto* rerr = std::get_if<RouteErrorPacket>(&packet)) {
    on_rerr(*rerr);
    return;
  }
  if (deliver_if_broadcast(packet)) return;
  const RouteHeader& route = *route_of(packet);
  if (route.final_dst == ctx_->address) {
    // An active route is one data still flows over: keep the return path
    // toward the origin alive for replies.
    table_->touch(route.origin, ctx_->local_now());
    deliver_(std::move(packet));
  } else {
    forward(std::move(packet));
  }
}

void AodvStrategy::forward(Packet packet) {
  if (drop_if_ttl_expired(packet)) return;
  const RouteHeader& route = *route_of(packet);
  const TimePoint now = ctx_->local_now();
  if (!table_->has_route(route.final_dst)) {
    drop_no_route(packet);
    send_rerr(route.final_dst);
    return;
  }
  // Forwarding is what keeps an AODV route alive: refresh both directions
  // of the active path.
  table_->touch(route.final_dst, now);
  table_->touch(route.origin, now);
  relay(std::move(packet), kUnassigned, ctx_->config.forward_jitter);
}

void AodvStrategy::on_rreq(RouteRequestPacket packet) {
  const RouteHeader& route = packet.route;
  if (route.origin == ctx_->address) return;  // our own flood relayed back
  const TimePoint now = ctx_->local_now();
  // The transmitting neighbor is always a valid 1-hop route, even on a
  // duplicate copy of the flood; the reverse route to the requester is
  // installed from the first copy only (below the duplicate check).
  table_->upsert(packet.link.src, packet.link.src, 1, roles::kNone, now);
  note_seq(route.origin, packet.origin_seq);
  if (seen_rreqs_.seen_before({route.origin, route.packet_id}, kRreqWindow)) {
    ctx_->trace_packet(trace::EventKind::Drop, packet,
                       trace::DropReason::Duplicate);
    return;
  }
  if (route.origin != packet.link.src) {
    table_->upsert(route.origin, packet.link.src, hop_metric(route.hops),
                   roles::kNone, now);
  }
  if (route.final_dst == ctx_->address) {
    // Destination-only replies (no intermediate cached-route RREPs): the
    // freshest possible answer, stamped with a bumped own sequence number.
    if (packet.dst_seq_known != 0 && seq_newer(packet.dst_seq, own_seq_)) {
      own_seq_ = packet.dst_seq;
    }
    own_seq_++;
    RouteReplyPacket reply;
    reply.link = LinkHeader{kUnassigned, ctx_->address};
    reply.route.final_dst = route.origin;
    reply.route.origin = ctx_->address;
    reply.route.ttl = ctx_->config.max_ttl;
    reply.route.hops = 0;
    reply.route.packet_id = next_ctrl_id_++;
    reply.dst_seq = own_seq_;
    rreps_sent_++;
    link_->enqueue(Packet{reply}, /*control=*/true);
    return;
  }
  Packet flood{std::move(packet)};
  if (drop_if_ttl_expired(flood)) return;
  relay(std::move(flood), kBroadcast, kRreqJitter);
}

void AodvStrategy::on_rrep(RouteReplyPacket packet) {
  const RouteHeader& route = packet.route;
  if (route.origin == ctx_->address) return;
  const TimePoint now = ctx_->local_now();
  // Adopt the forward route only when the reply is at least as fresh as
  // anything we have seen from that destination (sequence-numbered route
  // freshness; metric breaks ties via unconditional adopt of equal seq).
  const auto known = seq_of_.find(route.origin);
  const bool stale =
      known != seq_of_.end() && seq_newer(known->second, packet.dst_seq);
  if (!stale) {
    note_seq(route.origin, packet.dst_seq);
    table_->upsert(packet.link.src, packet.link.src, 1, roles::kNone, now);
    if (route.origin != packet.link.src) {
      table_->upsert(route.origin, packet.link.src, hop_metric(route.hops),
                     roles::kNone, now);
    }
  }
  if (route.final_dst == ctx_->address) {
    finish_discovery(route.origin);
    return;
  }
  forward(Packet{std::move(packet)});
}

void AodvStrategy::send_rerr(Address unreachable) {
  if (!ctx_->running) return;
  // Invalidate our own entry (forwarding failure means it is already gone
  // or useless) and advertise a bumped sequence so stale replies lose.
  table_->invalidate(unreachable);
  std::uint16_t seq = 0;
  if (const auto it = seq_of_.find(unreachable); it != seq_of_.end()) {
    seq = static_cast<std::uint16_t>(it->second + 1);
    it->second = seq;
  }
  RouteErrorPacket p;
  p.link = LinkHeader{kBroadcast, ctx_->address};
  p.route.final_dst = kBroadcast;
  p.route.origin = ctx_->address;
  p.route.ttl = 1;  // single hop; dependents re-broadcast their own RERR
  p.route.hops = 0;
  p.route.packet_id = next_ctrl_id_++;
  p.unreachable = unreachable;
  p.seq = seq;
  rerrs_sent_++;
  link_->enqueue(Packet{p}, /*control=*/true);
}

void AodvStrategy::on_rerr(const RouteErrorPacket& packet) {
  if (packet.route.origin == ctx_->address) return;
  if (packet.unreachable == ctx_->address) return;
  note_seq(packet.unreachable, packet.seq);
  const auto route = table_->route_to(packet.unreachable);
  if (!route || route->via != packet.link.src) return;  // not our next hop
  // Our route ran through the broken link: drop it and pass the bad news to
  // whoever routes through us.
  table_->invalidate(packet.unreachable);
  send_rerr(packet.unreachable);
}

std::optional<Address> AodvStrategy::resolve_next_hop(const RouteHeader& route) {
  const auto next = table_->next_hop(route.final_dst);
  if (next) {
    table_->touch(route.final_dst, ctx_->local_now());
    return next;
  }
  // The route expired while the packet sat in the queue. Our own stuck
  // origination is a live demand: re-discover for the retry.
  if (route.origin == ctx_->address) begin_discovery(route.final_dst);
  return std::nullopt;
}

}  // namespace lm::net
