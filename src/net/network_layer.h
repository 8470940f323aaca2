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
#include <span>
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
  /// The refusal ladder every application send passes before it builds a
  /// packet, checked in this order: the node is running; the destination
  /// is neither this node nor kUnassigned, nor kBroadcast unless `type` is
  /// DATA and the strategy floods; the payload `fits`; the strategy has a
  /// route (if not, it hears the demand — AODV starts a discovery — and
  /// dropped_no_route counts the refusal). A `single_hop` send (the
  /// one-hop broadcast) skips the destination and route checks.
  bool admit(PacketType type, Address destination, std::size_t bytes,
             bool fits, trace::DropReason* why, bool single_hop = false);
  /// Records a refused send of `bytes` payload bytes: sets *why (when
  /// non-null) and traces the Drop. Returns false.
  bool refuse(PacketType type, Address destination, std::size_t bytes,
              trace::DropReason reason, trace::DropReason* why);
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
  RoutingTable& table() { return table_; }
  const RoutingTable& table() const { return table_; }
  RoutingStrategy& strategy() { return *strategy_; }
  const RoutingStrategy& strategy() const { return *strategy_; }

 private:
  /// Queues an admitted DATA packet; counts it in `sent` once queued.
  bool originate(Address link_dst, const RouteHeader& route,
                 std::span<const std::uint8_t> payload, std::uint64_t& sent,
                 trace::DropReason* why);

  std::unique_ptr<RoutingStrategy> strategy_;
  LayerContext& ctx_;
  RoutingTable table_;
  LinkLayer& link_;
  std::uint16_t next_packet_id_ = 1;
};

}  // namespace lm::net
