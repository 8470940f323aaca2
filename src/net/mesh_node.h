// MeshNode — the LoRaMesher node: a thin facade over the layered protocol
// stack that makes a set of LoRa devices behave as a mesh.
//
// The stack mirrors the cooperating pieces of the library the paper
// demonstrates:
//  * LinkLayer — the service loop arbitrating one half-duplex radio:
//    RX-default, CAD listen-before-talk with exponential backoff, the
//    two-priority transmit queue, the sliding-window duty-cycle budget,
//    the US915-style dwell cap and duty-cycled listening (rx_duty);
//  * NetworkLayer — origination, routing table and routed-packet dispatch
//    behind a pluggable RoutingStrategy (default: the prototype's
//    hop-count distance-vector beacons; alternative: controlled flooding);
//  * TransportLayer — end-to-end machinery: acked datagrams (NEED_ACK)
//    and reliable large-payload transfers (SYNC/FRAGMENT/LOST/DONE
//    sessions via ReliableSender / ReliableReceiver).
//
// The facade owns the shared LayerContext (one RNG, one stats block, one
// config, one tracer hook), wires the layers together, runs the
// maintenance loop and routes deliveries to the application handlers. Its
// public API is unchanged from the pre-split monolith.
//
// Threading model: none. Everything runs as events on the owning Simulator,
// mirroring how the original runs as FreeRTOS tasks woken by radio IRQs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "net/address.h"
#include "net/config.h"
#include "net/duty_cycle.h"
#include "net/layer_context.h"
#include "net/link_layer.h"
#include "net/network_layer.h"
#include "net/packet.h"
#include "net/packet_sink.h"
#include "net/routing_strategy.h"
#include "net/routing_table.h"
#include "net/transport_layer.h"
#include "radio/radio_interface.h"
#include "sim/simulator.h"
#include "support/rng.h"
#include "trace/trace_sink.h"

namespace lm::net {

class MeshNode final : public PacketSink {
 public:
  /// (origin, payload, radio links traversed) — routed datagram reached us.
  /// A direct neighbor's datagram reports 1 hop.
  using DatagramHandler =
      std::function<void(Address origin, const std::vector<std::uint8_t>& payload,
                         std::uint8_t hops)>;
  /// (origin, payload) — single-hop broadcast from a neighbor.
  using BroadcastHandler =
      std::function<void(Address origin, const std::vector<std::uint8_t>& payload)>;
  /// (origin, payload) — reliable transfer fully reassembled.
  using PayloadHandler =
      std::function<void(Address origin, std::vector<std::uint8_t> payload)>;
  /// Transfer outcome for send_reliable.
  using SendCallback = std::function<void(bool success)>;

  /// The node installs itself as the radio's listener. `seed` drives all of
  /// this node's randomness (jitter, backoff). A null `strategy` selects
  /// the default hop-count distance-vector routing.
  MeshNode(sim::Simulator& sim, radio::Radio& radio, Address address,
           MeshConfig config, std::uint64_t seed,
           std::unique_ptr<RoutingStrategy> strategy = nullptr);
  ~MeshNode() override;

  MeshNode(const MeshNode&) = delete;
  MeshNode& operator=(const MeshNode&) = delete;

  // --- Lifecycle -------------------------------------------------------------
  /// Powers up: enters receive, schedules the first beacon at a random
  /// offset within one hello interval (desynchronizing simultaneous boots).
  void start();
  /// Powers down: stops timers, drops queued traffic, fails outstanding
  /// transfers, and puts the radio to sleep (after any in-flight TX/CAD).
  void stop();
  bool running() const { return ctx_.running; }

  // --- Application API ---------------------------------------------------------
  /// Sends an unreliable routed datagram (payload <= kMaxDataPayload).
  /// Returns false — without queuing — when stopped, the destination is
  /// unknown to the routing table, or the queue is full. When `why` is
  /// non-null it receives the refusal cause on failure.
  bool send_datagram(Address destination, std::vector<std::uint8_t> payload,
                     trace::DropReason* why = nullptr);

  /// Sends a single-hop broadcast to whoever hears it (never forwarded).
  bool send_broadcast(std::vector<std::uint8_t> payload,
                      trace::DropReason* why = nullptr);

  /// Sends one datagram with an end-to-end ACK and automatic
  /// retransmission (the original library's NEED_ACK path): two frames per
  /// hop in the common case, against the four of a 1-fragment reliable
  /// transfer. `done` fires exactly once. Duplicates caused by retries are
  /// suppressed at the receiver; the handler sees the payload once.
  bool send_acked(Address destination, std::vector<std::uint8_t> payload,
                  SendCallback done, trace::DropReason* why = nullptr);

  /// Starts a reliable transfer of an arbitrary-size payload. `done` fires
  /// exactly once with the outcome. Returns false when stopped, payload is
  /// empty/too large, no route exists, or no session slot is free.
  bool send_reliable(Address destination, std::vector<std::uint8_t> payload,
                     SendCallback done, trace::DropReason* why = nullptr);

  void set_datagram_handler(DatagramHandler handler) { datagram_handler_ = std::move(handler); }
  void set_broadcast_handler(BroadcastHandler handler) { broadcast_handler_ = std::move(handler); }
  void set_reliable_handler(PayloadHandler handler) { reliable_handler_ = std::move(handler); }

  // --- Introspection -------------------------------------------------------------
  Address address() const { return ctx_.address; }
  Role role() const { return ctx_.config.role; }
  const RoutingTable& routing_table() const { return network_.table(); }
  /// The routing policy in effect (strategy_test swaps this seam).
  const RoutingStrategy& routing_strategy() const { return network_.strategy(); }
  /// The closest node advertising all bits of `role_mask` (e.g. the nearest
  /// gateway), if any is known.
  std::optional<RouteEntry> nearest_with_role(Role role_mask) const {
    return network_.table().nearest_with_role(role_mask);
  }
  /// Smoothed SNR margin (dB above the demodulation floor) of frames heard
  /// from `neighbor`; nullopt before the first frame.
  std::optional<double> neighbor_snr_margin_db(Address neighbor) const {
    return link_.snr_margin_db(neighbor);
  }
  /// Largest application payload one routed datagram may carry —
  /// kMaxDataPayload unless max_dwell_time caps the frame size.
  std::size_t max_datagram_payload() const {
    return network_.max_datagram_payload();
  }
  const MeshConfig& config() const { return ctx_.config; }
  const NodeStats& stats() const { return ctx_.stats; }
  /// True time of the armed maintenance tick (route expiry and session
  /// sweep); nullopt while stopped.
  std::optional<TimePoint> next_maintenance_at() const {
    if (maintenance_timer_ == 0) return std::nullopt;
    return maintenance_tick_time(maintenance_tick_);
  }

  /// Attaches the flight recorder: every lifecycle step of every packet this
  /// node touches is reported. Null detaches; when detached each
  /// instrumentation site costs a single pointer compare.
  void set_tracer(trace::Tracer* tracer);
  /// Exposes the node's live battery (owned by the testbed) to the routing
  /// layer; null = unmetered. Strategies read state of charge from it.
  void set_energy_model(const radio::EnergyModel* energy) {
    ctx_.energy = energy;
  }
  const DutyCycleLimiter& duty_cycle() const { return link_.duty_cycle(); }
  radio::Radio& radio() { return radio_; }
  std::size_t queued_packets() const { return link_.queued_packets(); }
  std::size_t rx_sessions() const { return transport_.rx_sessions(); }

  // --- PacketSink (also used by tests to inject protocol packets) -------------
  void submit_control(Packet packet) override;
  void submit_data(Packet packet) override;
  Address self_address() const override { return ctx_.address; }
  RouteHeader make_route(Address final_dst) override;

 private:
  // FunctionRef targets for the layer upcalls. The layers hold non-owning
  // references bound to these members, so they must stay member functions of
  // the facade (which outlives every layer it owns).
  std::optional<Address> resolve_next_hop_cb(const RouteHeader& route);
  void on_link_packet(const Packet& packet);
  void on_link_sent(const Packet& packet);
  void on_link_dropped(const Packet& packet);
  /// Points the link layer's receive hint at what a beacon touches above it.
  void register_receive_hint();
  void deliver_acked_datagram(Address origin,
                              std::span<const std::uint8_t> payload,
                              std::uint8_t hops);
  void deliver_reliable(Address origin, std::vector<std::uint8_t> payload);

  /// Routed-packet delivery from the network layer: plain datagrams and
  /// broadcasts go to the application, everything else to the transport.
  void deliver(Packet packet);
  // Deadline-armed maintenance on the fixed tick grid (see mesh_node.cpp).
  TimePoint maintenance_tick_time(std::int64_t tick) const;
  std::int64_t next_maintenance_tick(std::int64_t after) const;
  void arm_maintenance(std::int64_t tick);
  /// Pulls the armed tick in to the next grid tick once a session exists.
  void rearm_maintenance_for_sessions();

  // Small members first: they fill the line before the (cache-line
  // aligned) context instead of padding.
  radio::Radio& radio_;
  sim::TimerId maintenance_timer_ = 0;
  TimePoint maintenance_anchor_;   // true time of start(): tick 0
  Duration maintenance_period_;    // maintenance_interval in true time
  std::int64_t maintenance_tick_ = 0;  // grid index of the armed tick
  LayerContext ctx_;
  LinkLayer link_;
  NetworkLayer network_;
  TransportLayer transport_;

  DatagramHandler datagram_handler_;
  BroadcastHandler broadcast_handler_;
  PayloadHandler reliable_handler_;
  // Reused scratch for handing pooled payloads to the `const std::vector&`
  // application handlers without a fresh allocation per delivery.
  std::vector<std::uint8_t> handler_payload_;
};

}  // namespace lm::net
