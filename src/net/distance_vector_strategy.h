// DistanceVectorStrategy — the LoRaMesher prototype's routing protocol:
// periodic full-table broadcast beacons (jittered, optionally SNR-gated),
// RIP-style merge into the shared RoutingTable, and hop-by-hop unicast
// forwarding with TTL accounting and late next-hop resolution.
#pragma once

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

 protected:
  /// Subclass hook: rewrite the beacon entries before the dwell trim (the
  /// energy-aware variant inflates relayed metrics on a low battery).
  /// Entries stay sorted by (metric, address) under any uniform rewrite.
  virtual void decorate_advertisement(support::PooledVector<RoutingEntry>&) {}

 private:
  void schedule_next_beacon(bool first);
  void send_beacon();

  sim::TimerId beacon_timer_ = 0;
};

}  // namespace lm::net
