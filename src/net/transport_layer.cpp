#include "net/transport_layer.h"

#include <variant>

#include "support/assert.h"

namespace lm::net {

namespace {
// Retransmissions of an acked datagram before reporting failure.
constexpr int kAckedMaxRetries = 3;
}  // namespace

TransportLayer::TransportLayer(LayerContext& ctx, LinkLayer& link,
                               NetworkLayer& network, Delivery delivery)
    : ctx_(ctx), link_(link), network_(network), delivery_(std::move(delivery)) {}

TransportLayer::~TransportLayer() {
  for (auto& [id, pending] : pending_acks_) {
    if (pending.timer != 0) ctx_.sim.cancel(pending.timer);
  }
}

void TransportLayer::shutdown() {
  // Outstanding sends fail now; receive sessions just disappear (their
  // senders will give up after their poll budget).
  for (auto& [key, sender] : tx_sessions_) sender->abort();
  tx_sessions_.clear();
  rx_sessions_.clear();
  while (!pending_acks_.empty()) {
    finish_acked(pending_acks_.begin()->first, false);
  }
}

// --- PacketSink -------------------------------------------------------------------

void TransportLayer::submit_control(Packet packet) {
  link_.enqueue(std::move(packet), /*control=*/true);
}

void TransportLayer::submit_data(Packet packet) {
  // enqueue() reports a dropped fragment back to its sender session
  // (notify_fragment_progress), so a full queue cannot deadlock the
  // sender's pacing loop; end-to-end repair recovers the payload.
  link_.enqueue(std::move(packet), /*control=*/false);
}

// --- Acked datagrams --------------------------------------------------------------

bool TransportLayer::send_acked(Address destination,
                                std::vector<std::uint8_t> payload,
                                SendCallback done, trace::DropReason* why) {
  if (!network_.admit(PacketType::AckedData, destination, payload.size(),
                      payload.size() <= network_.max_datagram_payload(), why)) {
    return false;
  }
  AckedDataPacket p;
  p.link = LinkHeader{kUnassigned, ctx_.address};
  p.route = network_.make_route(destination);
  p.payload.assign(payload.begin(), payload.end());
  const std::uint16_t id = p.route.packet_id;
  LM_ASSERT(!pending_acks_.contains(id));  // 16-bit id space, tiny windows
  ctx_.trace_packet(trace::EventKind::AppSubmit, p);
  PendingAck pending;
  pending.packet = std::move(p);
  pending.done = std::move(done);
  pending_acks_.try_emplace(id, std::move(pending));
  ctx_.stats.acked_sent++;
  transmit_acked_attempt(id);
  return true;
}

void TransportLayer::transmit_acked_attempt(std::uint16_t packet_id) {
  const auto it = pending_acks_.find(packet_id);
  LM_ASSERT(it != pending_acks_.end());
  it->second.attempts++;
  // Fresh copy per attempt: the queue owns (and resolves) its own instance.
  link_.enqueue(Packet{it->second.packet}, /*control=*/false);
  // Jittered retry: simultaneous senders must not retransmit in lockstep.
  it->second.timer = ctx_.schedule_local(
      ctx_.config.acked_retry_timeout * ctx_.rng.uniform(0.9, 1.4),
      [this, packet_id] { on_acked_timeout(packet_id); });
}

void TransportLayer::on_acked_timeout(std::uint16_t packet_id) {
  const auto it = pending_acks_.find(packet_id);
  if (it == pending_acks_.end()) return;
  it->second.timer = 0;
  if (it->second.attempts > kAckedMaxRetries) {
    finish_acked(packet_id, false);
    return;
  }
  ctx_.stats.acked_retransmissions++;
  ctx_.trace_packet(trace::EventKind::AckedRetry, it->second.packet,
                    trace::DropReason::None, it->second.attempts);
  transmit_acked_attempt(packet_id);
}

void TransportLayer::finish_acked(std::uint16_t packet_id, bool success) {
  const auto it = pending_acks_.find(packet_id);
  if (it == pending_acks_.end()) return;
  if (it->second.timer != 0) ctx_.sim.cancel(it->second.timer);
  ctx_.trace_packet(
      success ? trace::EventKind::AckedConfirmed : trace::EventKind::Drop,
      it->second.packet,
      success ? trace::DropReason::None : trace::DropReason::RetriesExhausted);
  SendCallback done = std::move(it->second.done);
  pending_acks_.erase(it);
  if (success) {
    ctx_.stats.acked_confirmed++;
  } else {
    ctx_.stats.acked_failed++;
  }
  if (done) done(success);
}

// --- Reliable transfers -----------------------------------------------------------

bool TransportLayer::send_reliable(Address destination,
                                   std::vector<std::uint8_t> payload,
                                   SendCallback done, trace::DropReason* why) {
  const std::size_t capacity = fragment_payload_within(link_.max_frame_bytes());
  if (!network_.admit(PacketType::Sync, destination, payload.size(),
                      !payload.empty() && payload.size() <= capacity * 0xFFFFULL,
                      why)) {
    return false;
  }
  // Allocate a transfer sequence number free for this destination.
  std::optional<std::uint8_t> seq;
  for (int i = 0; i < 256; ++i) {
    const std::uint8_t candidate = next_transfer_seq_++;
    if (!tx_sessions_.contains({destination, candidate})) {
      seq = candidate;
      break;
    }
  }
  // 256 concurrent transfers to one peer exhausts the sequence space.
  if (!seq) {
    return network_.refuse(PacketType::Sync, destination, payload.size(),
                           trace::DropReason::SessionLimit, why);
  }
  ctx_.stats.transfers_started++;
  ctx_.trace_transfer(trace::EventKind::TransferStart, ctx_.address, destination,
                      *seq, payload.size());
  auto completion = [this, done = std::move(done)](bool success) {
    if (success) {
      ctx_.stats.transfers_completed++;
    } else {
      ctx_.stats.transfers_failed++;
    }
    if (done) done(success);
  };
  tx_sessions_.try_emplace(
      SessionKey{destination, *seq},
      std::make_unique<ReliableSender>(ctx_, *this, destination, *seq,
                                       std::move(payload), std::move(completion),
                                       ctx_.rng.next_u64(), capacity));
  return true;
}

void TransportLayer::dispatch_to_sender(
    Address peer, std::uint8_t seq,
    const std::function<void(ReliableSender&)>& fn) {
  const auto it = tx_sessions_.find({peer, seq});
  if (it == tx_sessions_.end()) return;  // stale control for a finished transfer
  fn(*it->second);
  // Sweep only when this dispatch could have finished the session; `fn` may
  // mutate the map reentrantly (completion callbacks can start transfers),
  // so re-find instead of trusting the iterator.
  const auto after = tx_sessions_.find({peer, seq});
  if (after != tx_sessions_.end() && after->second->finished()) gc_sessions();
}

void TransportLayer::notify_fragment_progress(const Packet& packet) {
  const auto* fragment = std::get_if<FragmentPacket>(&packet);
  if (fragment == nullptr || fragment->route.origin != ctx_.address) return;
  const auto it = tx_sessions_.find({fragment->route.final_dst, fragment->seq});
  if (it != tx_sessions_.end()) {
    it->second->on_fragment_transmitted(fragment->index);
  }
}

void TransportLayer::gc_sessions() {
  for (auto it = tx_sessions_.begin(); it != tx_sessions_.end();) {
    if (it->second->finished()) {
      // Final accounting before the session disappears.
      ctx_.stats.fragments_retransmitted += it->second->fragments_retransmitted();
      it = tx_sessions_.erase(it);
    } else {
      ++it;
    }
  }
  rx_sessions_.erase_if([](const auto& kv) { return kv.second->expired(); });
}

// --- RX dispatch ------------------------------------------------------------------

void TransportLayer::on_deliver(Packet packet) {
  std::visit(
      [this, &packet](auto& p) {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, SyncPacket>) {
          const SessionKey key{p.route.origin, p.seq};
          auto it = rx_sessions_.find(key);
          if (it != rx_sessions_.end() && it->second->expired()) {
            rx_sessions_.erase(it);
            it = rx_sessions_.end();
          }
          if (it != rx_sessions_.end()) {
            it->second->on_sync(p);
            return;
          }
          if (p.fragment_count == 0) return;  // malformed announcement
          if (rx_sessions_.size() >= kMaxRxSessions) {
            gc_sessions();  // expired sessions may be holding slots
          }
          if (rx_sessions_.size() >= kMaxRxSessions) {
            ctx_.stats.rx_sessions_rejected++;
            ctx_.trace_packet(trace::EventKind::Drop, packet,
                              trace::DropReason::SessionLimit);
            return;  // no SYNC_ACK: the sender will retry and may find room
          }
          auto delivery = [this, seq = p.seq](Address origin,
                                              std::vector<std::uint8_t> payload) {
            ctx_.stats.transfers_received++;
            ctx_.trace_transfer(trace::EventKind::Deliver, origin, ctx_.address,
                                seq, payload.size());
            if (delivery_.reliable) delivery_.reliable(origin, std::move(payload));
          };
          rx_sessions_.try_emplace(
              key, std::make_unique<ReliableReceiver>(ctx_, *this, p.route.origin,
                                                      p, std::move(delivery)));
        } else if constexpr (std::is_same_v<T, FragmentPacket>) {
          const auto it = rx_sessions_.find(SessionKey{p.route.origin, p.seq});
          if (it != rx_sessions_.end()) it->second->on_fragment(p);
        } else if constexpr (std::is_same_v<T, PollPacket>) {
          const auto it = rx_sessions_.find(SessionKey{p.route.origin, p.seq});
          if (it != rx_sessions_.end()) it->second->on_poll();
        } else if constexpr (std::is_same_v<T, SyncAckPacket>) {
          dispatch_to_sender(p.route.origin, p.seq,
                             [](ReliableSender& s) { s.on_sync_ack(); });
        } else if constexpr (std::is_same_v<T, LostPacket>) {
          dispatch_to_sender(p.route.origin, p.seq,
                             [&p](ReliableSender& s) { s.on_lost(p.missing); });
        } else if constexpr (std::is_same_v<T, DonePacket>) {
          dispatch_to_sender(p.route.origin, p.seq,
                             [](ReliableSender& s) { s.on_done(); });
        } else if constexpr (std::is_same_v<T, AckedDataPacket>) {
          // Acknowledge first — even duplicates, since a duplicate means
          // our previous ACK was lost somewhere on the way back.
          AckPacket ack;
          ack.link = LinkHeader{kUnassigned, ctx_.address};
          ack.route = network_.make_route(p.route.origin);
          ack.acked_id = p.route.packet_id;
          ctx_.stats.acks_sent++;
          ctx_.trace_packet(trace::EventKind::AckSent, packet);
          submit_control(Packet{ack});
          if (acked_seen_.seen_before({p.route.origin, p.route.packet_id},
                                      kAckedWindow)) {
            ctx_.stats.acked_duplicates++;
            ctx_.trace_packet(trace::EventKind::DuplicateDeliver, packet,
                              trace::DropReason::Duplicate);
            return;
          }
          ctx_.stats.acked_delivered++;
          ctx_.trace_packet(trace::EventKind::Deliver, packet);
          if (delivery_.datagram) {
            delivery_.datagram(p.route.origin, p.payload,
                               static_cast<std::uint8_t>(p.route.hops + 1));
          }
        } else if constexpr (std::is_same_v<T, AckPacket>) {
          const auto it = pending_acks_.find(p.acked_id);
          if (it != pending_acks_.end() &&
              it->second.packet.route.final_dst == p.route.origin) {
            finish_acked(p.acked_id, true);
          }
        } else if constexpr (std::is_same_v<T, DataPacket> ||
                             std::is_same_v<T, RoutingPacket>) {
          LM_ASSERT(false);  // handled before on_deliver()
        }
      },
      packet);
}

}  // namespace lm::net
