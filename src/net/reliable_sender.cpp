#include "net/reliable_sender.h"

#include <algorithm>

#include "support/assert.h"
#include "support/log.h"

namespace lm::net {

ReliableSender::ReliableSender(LayerContext& ctx, PacketSink& sink,
                               Address destination, std::uint8_t seq,
                               std::vector<std::uint8_t> payload,
                               Completion completion, std::uint64_t seed,
                               std::size_t fragment_capacity)
    : ctx_(&ctx),
      sink_(sink),
      destination_(destination),
      seq_(seq),
      payload_(std::move(payload)),
      fragment_capacity_(fragment_capacity),
      completion_(std::move(completion)),
      rng_(seed) {
  LM_REQUIRE(!payload_.empty());
  LM_REQUIRE(destination_ != kBroadcast && destination_ != kUnassigned);
  LM_REQUIRE(fragment_capacity_ >= 1 && fragment_capacity_ <= kMaxFragmentPayload);
  const std::size_t count =
      (payload_.size() + fragment_capacity_ - 1) / fragment_capacity_;
  LM_REQUIRE(count <= 0xFFFF);
  fragment_count_ = static_cast<std::uint16_t>(count);
  send_sync();
}

ReliableSender::~ReliableSender() { cancel_timer(); }

void ReliableSender::arm_timer(Duration timeout, void (ReliableSender::*handler)()) {
  cancel_timer();
  timer_ = ctx_->schedule_local(timeout, [this, handler] { (this->*handler)(); });
}

void ReliableSender::cancel_timer() {
  if (timer_ != 0) {
    ctx_->sim.cancel(timer_);
    timer_ = 0;
  }
}

Duration ReliableSender::jittered_retry_timeout() {
  // Randomized retransmission timers: two senders that start (or lose
  // frames) simultaneously must not keep retrying in lockstep.
  return ctx_->config.reliable_retry_timeout * rng_.uniform(0.9, 1.4);
}

void ReliableSender::send_sync() {
  ++sync_attempts_;
  if (sync_attempts_ > 1) {
    ctx_->trace_transfer(trace::EventKind::TransferSyncRetry, ctx_->address,
                         destination_, seq_, static_cast<std::size_t>(sync_attempts_));
  }
  SyncPacket p;
  p.link.src = sink_.self_address();
  p.route = sink_.make_route(destination_);
  p.seq = seq_;
  p.fragment_count = fragment_count_;
  p.total_bytes = static_cast<std::uint32_t>(payload_.size());
  sink_.submit_control(Packet{p});
  arm_timer(jittered_retry_timeout(), &ReliableSender::on_sync_timeout);
}

void ReliableSender::on_sync_timeout() {
  timer_ = 0;
  LM_ASSERT(state_ == State::WaitSyncAck);
  if (sync_attempts_ >= ctx_->config.sync_max_retries) {
    LM_DEBUG("reliable", "sync to %s gave up after %d attempts",
             to_string(destination_).c_str(), sync_attempts_);
    finish(false);
    return;
  }
  send_sync();
}

void ReliableSender::abort() {
  if (state_ != State::Finished) finish(false);
}

void ReliableSender::on_sync_ack() {
  if (state_ != State::WaitSyncAck) return;  // duplicate ack
  cancel_timer();
  state_ = State::Streaming;
  pending_.clear();
  for (std::uint16_t i = 0; i < fragment_count_; ++i) pending_.push_back(i);
  send_next_fragment();
}

FragmentPacket ReliableSender::make_fragment(std::uint16_t index) {
  FragmentPacket p;
  p.link.src = sink_.self_address();
  p.route = sink_.make_route(destination_);
  p.seq = seq_;
  p.index = index;
  const std::size_t begin = static_cast<std::size_t>(index) * fragment_capacity_;
  const std::size_t end = std::min(begin + fragment_capacity_, payload_.size());
  LM_ASSERT(begin < payload_.size());
  p.payload.assign(payload_.begin() + static_cast<std::ptrdiff_t>(begin),
                   payload_.begin() + static_cast<std::ptrdiff_t>(end));
  return p;
}

void ReliableSender::send_next_fragment() {
  LM_ASSERT(state_ == State::Streaming);
  if (pending_.empty()) {
    state_ = State::WaitStatus;
    poll_attempts_ = 0;
    arm_timer(jittered_retry_timeout(), &ReliableSender::on_status_timeout);
    return;
  }
  if (fragment_in_flight_) return;  // wait for on_fragment_transmitted
  const std::uint16_t index = pending_.front();
  pending_.pop_front();
  fragment_in_flight_ = true;
  ++fragments_sent_;
  sink_.submit_data(Packet{make_fragment(index)});
}

void ReliableSender::on_fragment_transmitted(std::uint16_t /*index*/) {
  if (state_ == State::Finished) return;
  fragment_in_flight_ = false;
  if (state_ != State::Streaming) return;
  if (ctx_->config.fragment_spacing.is_zero()) {
    send_next_fragment();
    return;
  }
  // Randomized pacing (0.5x..1.5x): deterministic spacing phase-locks two
  // hidden senders behind a shared relay into colliding at it every round.
  const Duration delay = ctx_->config.fragment_spacing * rng_.uniform(0.5, 1.5);
  arm_timer(delay, &ReliableSender::send_next_fragment);
}

void ReliableSender::on_lost(std::span<const std::uint16_t> missing) {
  if (state_ == State::Finished || state_ == State::WaitSyncAck) return;
  cancel_timer();
  poll_attempts_ = 0;
  for (std::uint16_t idx : missing) {
    if (idx >= fragment_count_) continue;  // malformed request
    if (std::find(pending_.begin(), pending_.end(), idx) == pending_.end()) {
      pending_.push_back(idx);
      ++fragments_retransmitted_;
    }
  }
  state_ = State::Streaming;
  send_next_fragment();
}

void ReliableSender::on_done() {
  if (state_ == State::Finished) return;
  finish(true);
}

void ReliableSender::on_status_timeout() {
  timer_ = 0;
  LM_ASSERT(state_ == State::WaitStatus);
  if (poll_attempts_ >= ctx_->config.poll_max_retries) {
    LM_DEBUG("reliable", "transfer %u to %s gave up after %d polls", seq_,
             to_string(destination_).c_str(), poll_attempts_);
    finish(false);
    return;
  }
  send_poll();
}

void ReliableSender::send_poll() {
  ++poll_attempts_;
  ctx_->trace_transfer(trace::EventKind::TransferPoll, ctx_->address, destination_,
                       seq_, static_cast<std::size_t>(poll_attempts_));
  PollPacket p;
  p.link.src = sink_.self_address();
  p.route = sink_.make_route(destination_);
  p.seq = seq_;
  sink_.submit_control(Packet{p});
  arm_timer(jittered_retry_timeout(), &ReliableSender::on_status_timeout);
}

void ReliableSender::finish(bool success) {
  cancel_timer();
  state_ = State::Finished;
  ctx_->trace_transfer(trace::EventKind::TransferEnd, ctx_->address, destination_,
                       seq_, success ? 1U : 0U);
  if (completion_) {
    // Move out first: the callback may destroy this session.
    Completion cb = std::move(completion_);
    completion_ = nullptr;
    cb(success);
  }
}

}  // namespace lm::net
