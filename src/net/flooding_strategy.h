// FloodingStrategy — controlled flooding over the shared layer stack.
//
// The natural alternative to distance-vector routing on tiny LoRa nodes:
// every node rebroadcasts every new packet once (TTL-limited,
// duplicate-suppressed, with random relay jitter to break relay
// synchronization). No routing state or beacons, paid for in airtime —
// exactly the trade-off E4 quantifies against LoRaMesher. It plugs into
// MeshNode through ScenarioConfig::strategy_factory, so E4, the strategy
// matrix and the tests all flood over the same stack as the mesh.
//
// Caveat shared with real managed-flood networks (e.g. Meshtastic): the
// (origin, packet_id) dedup cache also suppresses end-to-end
// *retransmissions* that reuse their packet_id, so the ARQ transports are
// only useful over flooding within direct range.
#pragma once

#include <cstdint>
#include <utility>

#include "net/routing_strategy.h"
#include "support/duplicate_filter.h"

namespace lm::net {

class FloodingStrategy final : public RoutingStrategy {
 public:
  /// Remembered (origin, packet_id) pairs for duplicate suppression.
  static constexpr std::size_t kDedupWindow = 512;

  const char* name() const override { return "flooding"; }

  /// Flooding reaches whoever is reachable; there is nothing to know ahead
  /// of time, so originations are always admitted.
  bool has_route(Address) const override { return true; }
  bool allows_broadcast_destination() const override { return true; }

  /// No routing plane: beacons from distance-vector nodes sharing the
  /// channel are ignored.
  void on_routing(const RoutingPacket&) override {}
  void handle(Packet packet) override;
  std::optional<Address> resolve_next_hop(const RouteHeader&) override {
    return kBroadcast;  // every transmission is a local broadcast
  }

  std::uint64_t duplicates_suppressed() const { return duplicates_suppressed_; }

 private:
  std::uint64_t duplicates_suppressed_ = 0;
  support::DuplicateFilter<std::pair<Address, std::uint16_t>> seen_;
};

}  // namespace lm::net
