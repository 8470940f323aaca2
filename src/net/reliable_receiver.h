// Receiver side of the reliable large-payload transfer.
//
// Created on the first SYNC from (origin, seq). Acknowledges the SYNC,
// collects fragments, and drives repair: when the fragment stream goes
// silent while pieces are missing, it sends a LOST packet listing (a prefix
// of) the missing indices; when everything arrived it sends DONE and hands
// the reassembled payload up. DONE is re-sent in response to POLLs and
// duplicate fragments, because the sender may have missed it. The session
// lingers after completion so late POLLs still get DONE instead of
// resurrecting a transfer.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/config.h"
#include "net/layer_context.h"
#include "net/packet.h"
#include "net/packet_sink.h"
#include "sim/simulator.h"

namespace lm::net {

class ReliableReceiver {
 public:
  /// Delivery callback: the reassembled payload from `origin`.
  using Delivery = std::function<void(Address origin, std::vector<std::uint8_t> payload)>;

  /// `ctx` is the owning node's context: config, local-clock timers and
  /// the flight recorder, to which the session reports its start and every
  /// LOST repair request.
  ReliableReceiver(LayerContext& ctx, PacketSink& sink, Address origin,
                   const SyncPacket& sync, Delivery delivery);
  ~ReliableReceiver();

  ReliableReceiver(const ReliableReceiver&) = delete;
  ReliableReceiver& operator=(const ReliableReceiver&) = delete;

  // --- Events fed by the owning node ---------------------------------------
  void on_sync(const SyncPacket& sync);  // duplicate SYNC (ack was lost)
  void on_fragment(const FragmentPacket& fragment);
  void on_poll();

  // --- Introspection ---------------------------------------------------------
  /// True once the session should be garbage-collected (completed and
  /// lingered out, or abandoned).
  bool expired() const { return expired_; }
  bool complete() const { return received_count_ == fragment_count_; }
  Address origin() const { return origin_; }
  std::uint8_t seq() const { return seq_; }
  std::uint16_t fragment_count() const { return fragment_count_; }
  std::uint16_t received_count() const { return received_count_; }
  std::uint64_t duplicate_fragments() const { return duplicate_fragments_; }
  std::uint64_t lost_requests_sent() const { return lost_requests_sent_; }

 private:
  void send_sync_ack();
  void send_done();
  void send_lost();
  void restart_gap_timer();
  void on_gap_timeout();
  void on_session_timeout();
  void complete_transfer();

  LayerContext* ctx_;  // never null
  PacketSink& sink_;
  const Address origin_;
  const std::uint8_t seq_;
  std::uint16_t fragment_count_ = 0;
  std::uint32_t total_bytes_ = 0;

  std::vector<std::vector<std::uint8_t>> fragments_;
  std::vector<bool> have_;
  std::uint16_t received_count_ = 0;
  bool delivered_ = false;
  bool expired_ = false;
  std::uint64_t duplicate_fragments_ = 0;
  std::uint64_t lost_requests_sent_ = 0;

  sim::TimerId gap_timer_ = 0;
  sim::TimerId session_timer_ = 0;
  Delivery delivery_;
};

}  // namespace lm::net
