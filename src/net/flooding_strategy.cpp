#include "net/flooding_strategy.h"

#include "support/assert.h"

namespace lm::net {
namespace {

/// Random delay before relaying, desynchronizing parallel relays (the
/// dominant collision source in flooding).
constexpr Duration kRebroadcastJitter = Duration::milliseconds(500);

}  // namespace

void FloodingStrategy::handle(Packet packet) {
  const RouteHeader* route = route_of(packet);
  LM_ASSERT(route != nullptr);
  if (route->origin == ctx_->address) return;  // our own flood relayed back
  if (seen_.seen_before({route->origin, route->packet_id}, kDedupWindow)) {
    duplicates_suppressed_++;
    ctx_->trace_packet(trace::EventKind::Drop, packet,
                       trace::DropReason::Duplicate);
    return;
  }
  if (route->final_dst == ctx_->address) {
    deliver_(std::move(packet));  // unicast reached its target: stop here
    return;
  }
  if (route->final_dst == kBroadcast) {
    deliver_(Packet{packet});  // deliver a copy, then keep flooding
  }
  if (drop_if_ttl_expired(packet)) return;
  relay(std::move(packet), kBroadcast, kRebroadcastJitter);
}

}  // namespace lm::net
