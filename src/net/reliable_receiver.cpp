#include "net/reliable_receiver.h"

#include "support/assert.h"
#include "support/log.h"

namespace lm::net {

ReliableReceiver::ReliableReceiver(LayerContext& ctx, PacketSink& sink,
                                   Address origin, const SyncPacket& sync,
                                   Delivery delivery)
    : ctx_(&ctx),
      sink_(sink),
      origin_(origin),
      seq_(sync.seq),
      fragment_count_(sync.fragment_count),
      total_bytes_(sync.total_bytes),
      delivery_(std::move(delivery)) {
  LM_REQUIRE(fragment_count_ > 0);
  fragments_.resize(fragment_count_);
  have_.assign(fragment_count_, false);
  session_timer_ = ctx_->schedule_local(ctx_->config.receiver_session_timeout,
                                        [this] { on_session_timeout(); });
  ctx_->trace_transfer(trace::EventKind::TransferRxStart, origin_, ctx_->address,
                       seq_, fragment_count_);
  send_sync_ack();
  restart_gap_timer();
}

ReliableReceiver::~ReliableReceiver() {
  if (gap_timer_ != 0) ctx_->sim.cancel(gap_timer_);
  if (session_timer_ != 0) ctx_->sim.cancel(session_timer_);
}

void ReliableReceiver::send_sync_ack() {
  SyncAckPacket p;
  p.link.src = sink_.self_address();
  p.route = sink_.make_route(origin_);
  p.seq = seq_;
  sink_.submit_control(Packet{p});
}

void ReliableReceiver::on_sync(const SyncPacket& sync) {
  if (expired_) return;
  // The sender retried: our SYNC_ACK was lost. Sanity-check consistency —
  // a mismatching retry is a stale/confused sender and is ignored.
  if (sync.fragment_count != fragment_count_ || sync.total_bytes != total_bytes_) {
    LM_WARN("reliable", "inconsistent SYNC retry from %s (seq %u)",
            to_string(origin_).c_str(), seq_);
    return;
  }
  send_sync_ack();
  restart_gap_timer();
}

void ReliableReceiver::on_fragment(const FragmentPacket& fragment) {
  if (expired_) return;
  if (fragment.index >= fragment_count_) {
    LM_WARN("reliable", "fragment index %u out of range (count %u)",
            fragment.index, fragment_count_);
    return;
  }
  if (delivered_) {
    // Late duplicate after completion: the sender missed our DONE.
    send_done();
    return;
  }
  if (have_[fragment.index]) {
    ++duplicate_fragments_;
    restart_gap_timer();
    return;
  }
  have_[fragment.index] = true;
  fragments_[fragment.index].assign(fragment.payload.begin(),
                                    fragment.payload.end());
  ++received_count_;
  if (complete()) {
    complete_transfer();
  } else {
    restart_gap_timer();
  }
}

void ReliableReceiver::on_poll() {
  if (expired_) return;
  if (delivered_) {
    send_done();
    return;
  }
  send_lost();
  restart_gap_timer();
}

void ReliableReceiver::restart_gap_timer() {
  if (gap_timer_ != 0) ctx_->sim.cancel(gap_timer_);
  gap_timer_ = ctx_->schedule_local(ctx_->config.receiver_gap_timeout,
                                    [this] { on_gap_timeout(); });
}

void ReliableReceiver::on_gap_timeout() {
  gap_timer_ = 0;
  if (expired_ || delivered_) return;
  // The stream went quiet with fragments missing: request repair. The
  // sender's POLL serves the same purpose from the other side; whichever
  // timer fires first drives the exchange.
  send_lost();
  restart_gap_timer();
}

void ReliableReceiver::send_lost() {
  ++lost_requests_sent_;
  LostPacket p;
  p.link.src = sink_.self_address();
  p.route = sink_.make_route(origin_);
  p.seq = seq_;
  for (std::uint16_t i = 0; i < fragment_count_ && p.missing.size() < kMaxLostIndices;
       ++i) {
    if (!have_[i]) p.missing.push_back(i);  // a prefix of the missing indices
  }
  ctx_->trace_transfer(trace::EventKind::LostRequest, origin_, ctx_->address, seq_,
                       p.missing.size());
  sink_.submit_control(Packet{std::move(p)});
}

void ReliableReceiver::send_done() {
  DonePacket p;
  p.link.src = sink_.self_address();
  p.route = sink_.make_route(origin_);
  p.seq = seq_;
  sink_.submit_control(Packet{p});
}

void ReliableReceiver::complete_transfer() {
  LM_ASSERT(complete());
  delivered_ = true;
  if (gap_timer_ != 0) {
    ctx_->sim.cancel(gap_timer_);
    gap_timer_ = 0;
  }
  send_done();
  std::vector<std::uint8_t> payload;
  payload.reserve(total_bytes_);
  for (const auto& frag : fragments_) {
    payload.insert(payload.end(), frag.begin(), frag.end());
  }
  if (payload.size() != total_bytes_) {
    LM_WARN("reliable", "reassembled %zu bytes, SYNC announced %u",
            payload.size(), total_bytes_);
  }
  // Keep the session alive (delivered_ state) until the session timer
  // expires, so late POLLs and duplicate fragments still draw a DONE.
  if (delivery_) delivery_(origin_, std::move(payload));
}

void ReliableReceiver::on_session_timeout() {
  session_timer_ = 0;
  expired_ = true;
  if (!delivered_) {
    LM_DEBUG("reliable", "receive session from %s (seq %u) abandoned at %u/%u",
             to_string(origin_).c_str(), seq_, received_count_, fragment_count_);
  }
}

}  // namespace lm::net
