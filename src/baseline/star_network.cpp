#include "baseline/star_network.h"

#include <algorithm>

#include "phy/airtime.h"
#include "support/assert.h"
#include "support/byte_codec.h"

namespace lm::baseline {

GatewayNode::GatewayNode(radio::Radio& radio, UplinkHandler handler)
    : radio_(radio), handler_(std::move(handler)) {
  radio_.set_listener(this);
}

GatewayNode::~GatewayNode() { radio_.set_listener(nullptr); }

void GatewayNode::on_frame_received(std::span<const std::uint8_t> frame,
                                    const radio::FrameMeta& meta) {
  (void)meta;
  ByteReader r(frame);
  const net::Address device = r.u16();
  const std::uint16_t seq = r.u16();
  if (!r.ok()) {
    malformed_frames_++;
    return;
  }
  const std::vector<std::uint8_t> payload = r.rest();
  uplinks_received_++;
  if (handler_) handler_(device, seq, payload);
}

EndDeviceNode::EndDeviceNode(sim::Simulator& sim, radio::Radio& radio,
                             net::Address address, EndDeviceConfig config,
                             std::uint64_t seed)
    : sim_(sim),
      radio_(radio),
      address_(address),
      config_(config),
      rng_(seed),
      duty_(config.duty_cycle_limit, config.duty_cycle_window) {
  LM_REQUIRE(address != net::kUnassigned && address != net::kBroadcast);
  radio_.set_listener(this);
}

EndDeviceNode::~EndDeviceNode() {
  if (timer_ != 0) sim_.cancel(timer_);
  radio_.set_listener(nullptr);
}

void EndDeviceNode::stop() {
  running_ = false;
  queue_.clear();
  // A cancelled dither/duty wait would never reach transmit_now(); a frame
  // already on the air still clears busy_ in on_tx_done().
  if (timer_ != 0) {
    sim_.cancel(timer_);
    timer_ = 0;
    busy_ = false;
  }
}

bool EndDeviceNode::send_uplink(std::vector<std::uint8_t> payload) {
  if (!running_) return false;
  if (payload.size() > kMaxUplinkPayload) return false;
  if (queue_.size() >= config_.max_queue) {
    dropped_queue_full_++;
    return false;
  }
  queue_.push_back(std::move(payload));
  pump();
  return true;
}

void EndDeviceNode::pump() {
  if (!running_ || busy_ || queue_.empty()) return;
  busy_ = true;
  const Duration airtime =
      phy::time_on_air(radio_.modulation(), 4 + queue_.front().size());
  const TimePoint now = sim_.now();
  Duration wait = Duration::from_seconds(
      rng_.uniform(0.0, std::max(config_.tx_dither.seconds_d(), 1e-4)));
  if (!duty_.allowed(now + wait, airtime)) {
    const TimePoint allowed = duty_.next_allowed(now, airtime);
    if (allowed > now + wait) wait = allowed - now;
  }
  timer_ = sim_.schedule_after(wait, [this] {
    timer_ = 0;
    transmit_now();
  });
}

void EndDeviceNode::transmit_now() {
  if (!running_) {
    busy_ = false;
    return;
  }
  LM_ASSERT(!queue_.empty());
  if (radio_.state() == radio::RadioState::Sleep) radio_.standby();
  ByteWriter w;
  w.u16(address_);
  w.u16(next_seq_++);
  w.bytes(queue_.front());
  queue_.pop_front();
  std::vector<std::uint8_t> frame = w.take();
  const Duration airtime = phy::time_on_air(radio_.modulation(), frame.size());
  duty_.record(sim_.now(), airtime);
  uplinks_sent_++;
  const bool started = radio_.transmit(frame);
  LM_ASSERT(started);
}

void EndDeviceNode::on_tx_done() {
  busy_ = false;
  if (queue_.empty()) radio_.sleep();
  // Queued traffic keeps us awake and transmitting.
  pump();
}

}  // namespace lm::baseline
