// TransportLayer — end-to-end delivery machinery above routing: acked
// datagrams (NEED_ACK: end-to-end ACK + retransmission + dedup) and
// reliable large-payload transfers (the paper's "XL packets":
// SYNC/SYNC_ACK/FRAGMENT/LOST/DONE/POLL), with ReliableSender /
// ReliableReceiver instances managed in one session table.
//
// Implements PacketSink so sessions emit through it: control and data
// packets go straight to the link queues, route headers are minted by the
// network layer (keeping the node's packet-id sequence global).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "net/layer_context.h"
#include "net/link_layer.h"
#include "net/network_layer.h"
#include "net/packet.h"
#include "net/packet_sink.h"
#include "net/reliable_receiver.h"
#include "net/reliable_sender.h"
#include "sim/simulator.h"
#include "support/duplicate_filter.h"
#include "support/flat_map.h"
#include "support/function_ref.h"
#include "trace/trace_event.h"

namespace lm::net {

class TransportLayer final : public PacketSink {
 public:
  /// Transfer/send outcome callback.
  using SendCallback = std::function<void(bool success)>;

  /// Application-facing delivery upcalls, wired by the facade (non-owning:
  /// the facade outlives the layer).
  struct Delivery {
    /// An acked datagram was consumed here (deduplicated). The payload view
    /// is only valid for the duration of the call.
    support::FunctionRef<void(Address origin,
                              std::span<const std::uint8_t> payload,
                              std::uint8_t hops)>
        datagram;
    /// A reliable transfer fully reassembled.
    support::FunctionRef<void(Address origin, std::vector<std::uint8_t> payload)>
        reliable;
  };

  /// Concurrent reliable-transfer receive sessions. Each session holds
  /// fragment buffers and timers, so an attacker (or a bug) spraying SYNCs
  /// with fresh (origin, seq) pairs must hit a wall instead of exhausting
  /// a 520 KB-RAM microcontroller.
  static constexpr std::size_t kMaxRxSessions = 8;

  TransportLayer(LayerContext& ctx, LinkLayer& link, NetworkLayer& network,
                 Delivery delivery);
  ~TransportLayer() override;

  TransportLayer(const TransportLayer&) = delete;
  TransportLayer& operator=(const TransportLayer&) = delete;

  // --- Origination -----------------------------------------------------------
  bool send_acked(Address destination, std::vector<std::uint8_t> payload,
                  SendCallback done, trace::DropReason* why);
  bool send_reliable(Address destination, std::vector<std::uint8_t> payload,
                     SendCallback done, trace::DropReason* why);

  // --- RX (routed packets addressed to us, from the network layer) ------------
  /// Consumes any non-DATA routed packet (ARQ control, fragments, acked
  /// datagrams). Plain DATA delivery stays in the facade.
  void on_deliver(Packet packet);

  // --- Link-layer progress hooks ----------------------------------------------
  /// A fragment left the air (or was dropped): unblock its sender session.
  void notify_fragment_progress(const Packet& packet);
  /// Reaps finished/expired sessions.
  void gc_sessions();
  /// True while any reliable-transfer session (either direction) is held,
  /// i.e. while gc_sessions() may have work.
  bool has_sessions() const {
    return !tx_sessions_.empty() || !rx_sessions_.empty();
  }
  /// Receive sessions held; never more than kMaxRxSessions.
  std::size_t rx_sessions() const { return rx_sessions_.size(); }

  /// Facade stop(): aborts transmit sessions, drops receive sessions and
  /// fails every pending acked datagram.
  void shutdown();

  // --- PacketSink (for reliable sessions) --------------------------------------
  void submit_control(Packet packet) override;
  void submit_data(Packet packet) override;
  Address self_address() const override { return ctx_.address; }
  RouteHeader make_route(Address final_dst) override {
    return network_.make_route(final_dst);
  }

 private:
  using SessionKey = std::pair<Address, std::uint8_t>;  // (peer, seq)

  struct PendingAck {
    AckedDataPacket packet;  // link.dst left unresolved for each attempt
    int attempts = 0;
    sim::TimerId timer = 0;
    SendCallback done;
  };

  void dispatch_to_sender(Address peer, std::uint8_t seq,
                          const std::function<void(ReliableSender&)>& fn);
  void transmit_acked_attempt(std::uint16_t packet_id);
  void on_acked_timeout(std::uint16_t packet_id);
  void finish_acked(std::uint16_t packet_id, bool success);

  LayerContext& ctx_;
  LinkLayer& link_;
  NetworkLayer& network_;
  Delivery delivery_;

  std::uint8_t next_transfer_seq_ = 0;
  support::FlatMap<SessionKey, std::unique_ptr<ReliableSender>> tx_sessions_;
  support::FlatMap<SessionKey, std::unique_ptr<ReliableReceiver>> rx_sessions_;
  support::FlatMap<std::uint16_t, PendingAck> pending_acks_;  // by our packet_id
  /// (origin, packet_id) pairs of delivered acked datagrams remembered, so
  /// a retransmission is re-acked but not delivered twice.
  static constexpr std::size_t kAckedWindow = 64;
  support::DuplicateFilter<std::pair<Address, std::uint16_t>> acked_seen_;
};

}  // namespace lm::net
