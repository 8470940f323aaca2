// DistanceVectorStrategy — the LoRaMesher prototype's routing protocol:
// periodic full-table broadcast beacons (jittered, optionally SNR-gated),
// RIP-style merge into the shared RoutingTable, and hop-by-hop unicast
// forwarding with TTL accounting and late next-hop resolution.
//
// A converged node's beacon repeats its previous one, so the strategy keeps
// the last beacon it built and sends it again while neither the table's
// generation() nor the advertised penalty has moved; a rebuilt beacon gets
// a fresh content id (DESIGN.md, "Beacon send path").
#pragma once

#include <cstdint>

#include "net/routing_strategy.h"
#include "sim/simulator.h"

namespace lm::net {

class DistanceVectorStrategy : public RoutingStrategy {
 public:
  ~DistanceVectorStrategy() override;

  void start() override;
  void stop() override;
  const char* name() const override { return "distance-vector"; }

  bool has_route(Address dst) const override { return table_->has_route(dst); }

  void on_routing(const RoutingPacket& packet) override;
  void handle(Packet packet) override;
  std::optional<Address> resolve_next_hop(const RouteHeader& route) override {
    return table_->next_hop(route.final_dst);
  }

  /// Hops added to every entry of the next beacon except the node's own
  /// metric-0 entry, saturating at kInfiniteMetric - 1. 0 here; the
  /// energy-aware variant raises it as its battery drains.
  virtual std::uint8_t advertised_penalty() const { return 0; }

  /// Content id of the last beacon built; 0 before the first.
  std::uint32_t beacon_content_id() const { return beacon_.content_id; }

 private:
  // The last beacon built and the table generation and penalty it was
  // built from.
  struct Beacon {
    support::PooledVector<RoutingEntry> entries;  // decorated and capped
    std::uint64_t generation = 0;
    std::uint32_t content_id = 0;  // 0: none built yet
    std::uint8_t penalty = 0;
  };

  void schedule_next_beacon(bool first);
  void send_beacon();
  void build_beacon(std::uint8_t penalty);

  sim::TimerId beacon_timer_ = 0;
  Beacon beacon_;
};

}  // namespace lm::net
