// NetworkLayer — origination, routing-table ownership and routed-packet
// dispatch, with the routing policy delegated to a pluggable
// RoutingStrategy (distance-vector by default, controlled flooding for the
// baseline).
//
// Owns the node's single packet-id counter: every originated route header —
// datagrams, broadcasts, ARQ control from the transport layer — is minted
// here, so id sequences are identical to the pre-split monolith.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/layer_context.h"
#include "net/link_layer.h"
#include "net/packet.h"
#include "net/routing_strategy.h"
#include "net/routing_table.h"
#include "trace/trace_event.h"

namespace lm::net {

/// Cache-line aligned: the strategy and context pointers and the routing
/// table's receive-hot head share the first line (network_layer.cpp).
class alignas(64) NetworkLayer {
 public:
  NetworkLayer(LayerContext& ctx, LinkLayer& link,
               std::unique_ptr<RoutingStrategy> strategy,
               RoutingStrategy::DeliverFn deliver);

  NetworkLayer(const NetworkLayer&) = delete;
  NetworkLayer& operator=(const NetworkLayer&) = delete;

  // --- Lifecycle -------------------------------------------------------------
  void start() { strategy_->start(); }
  void stop() { strategy_->stop(); }

  // --- Origination -----------------------------------------------------------
  /// A fresh route header originated here and bound for `final_dst`.
  RouteHeader make_route(Address final_dst);
  bool send_datagram(Address destination, std::vector<std::uint8_t> payload,
                     trace::DropReason* why);
  bool send_broadcast(std::vector<std::uint8_t> payload,
                      trace::DropReason* why);
  /// Largest application payload one routed datagram may carry.
  std::size_t max_datagram_payload() const {
    return link_.max_frame_bytes() - kLinkHeaderSize - kRouteHeaderSize;
  }

  // --- RX dispatch (from the link layer) --------------------------------------
  void on_packet(const Packet& packet);
  std::optional<Address> resolve_next_hop(const RouteHeader& route) {
    return strategy_->resolve_next_hop(route);
  }

  // --- Introspection ---------------------------------------------------------
  /// Whether the strategy can currently carry an origination to `dst`
  /// (the transport layer's refusal ladders ask before queuing).
  bool has_route(Address dst) const { return strategy_->has_route(dst); }
  /// Refusal-site companion to has_route: tells an on-demand strategy an
  /// origination toward `dst` just went unserved.
  void note_demand(Address dst) { strategy_->note_demand(dst); }
  RoutingTable& table() { return table_; }
  const RoutingTable& table() const { return table_; }
  RoutingStrategy& strategy() { return *strategy_; }
  const RoutingStrategy& strategy() const { return *strategy_; }

 private:
  std::unique_ptr<RoutingStrategy> strategy_;
  LayerContext& ctx_;
  RoutingTable table_;
  LinkLayer& link_;
  std::uint16_t next_packet_id_ = 1;
};

}  // namespace lm::net
