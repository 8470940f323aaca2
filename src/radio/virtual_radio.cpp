#include "radio/virtual_radio.h"

#include <cstddef>

#include "phy/airtime.h"
#include "radio/energy.h"
#include "support/assert.h"
#include "support/log.h"

namespace lm::radio {

const char* to_string(RadioState s) {
  switch (s) {
    case RadioState::Sleep: return "Sleep";
    case RadioState::Standby: return "Standby";
    case RadioState::Rx: return "Rx";
    case RadioState::Tx: return "Tx";
    case RadioState::Cad: return "Cad";
  }
  return "?";
}

VirtualRadio::VirtualRadio(sim::Simulator& sim, Channel& channel, RadioId id,
                           phy::Position position, RadioConfig config)
    : state_entered_(sim.now()),
      id_(id),
      config_(config),
      position_(position),
      sim_(sim),
      channel_(channel) {
  // A member edit must not push receive-hot state out of the first line,
  // nor split the configuration fields a reception reads over two.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
  constexpr std::size_t kLine = 64;
  static_assert(alignof(VirtualRadio) == kLine);
  static_assert(offsetof(VirtualRadio, listener_) + sizeof(listener_) <= kLine);
  static_assert(offsetof(VirtualRadio, state_entered_) + sizeof(state_entered_) <= kLine);
  static_assert(offsetof(VirtualRadio, id_) + sizeof(id_) <= kLine);
  static_assert(offsetof(VirtualRadio, state_) + sizeof(state_) <= kLine);
  static_assert(offsetof(VirtualRadio, channel_ordinal_) +
                    sizeof(channel_ordinal_) <= kLine);
  static_assert(offsetof(VirtualRadio, stats_) + offsetof(RadioStats, rx_bytes) +
                    sizeof(RadioStats::rx_bytes) <= kLine);
  static_assert(offsetof(RadioStats, rx_frames) < offsetof(RadioStats, rx_bytes));
  static_assert(offsetof(VirtualRadio, config_) / kLine ==
                (offsetof(VirtualRadio, config_) + offsetof(RadioConfig, antenna_gain_db) +
                 sizeof(RadioConfig::antenna_gain_db) - 1) / kLine);
  // Four lines (the last has 40 bytes free): a line more is one per node.
  static_assert(sizeof(VirtualRadio) == 4 * kLine);
#pragma GCC diagnostic pop
  channel_.register_radio(*this);
}

VirtualRadio::~VirtualRadio() {
  if (energy_ != nullptr) energy_->detach_radio();
  channel_.unregister_radio(*this);
}

void VirtualRadio::enter(RadioState next) {
  if (state_ == next) return;
  const TimePoint now = sim_.now();
  const RadioState from = state_;
  const Duration stretch = now - state_entered_;
  state_time_[static_cast<std::size_t>(from)] += stretch;
  state_entered_ = now;
  state_ = next;
  if (energy_ != nullptr) energy_->on_state_change(from, next, stretch);
}

Duration VirtualRadio::time_in_state(RadioState state) const {
  Duration total = state_time_[static_cast<std::size_t>(state)];
  if (state == state_) total += sim_.now() - state_entered_;
  return total;
}

void VirtualRadio::start_receive() {
  LM_REQUIRE(state_ != RadioState::Tx && state_ != RadioState::Cad);
  enter(RadioState::Rx);
}

void VirtualRadio::standby() {
  LM_REQUIRE(state_ != RadioState::Tx && state_ != RadioState::Cad);
  enter(RadioState::Standby);
}

void VirtualRadio::sleep() {
  LM_REQUIRE(state_ != RadioState::Tx && state_ != RadioState::Cad);
  enter(RadioState::Sleep);
}

bool VirtualRadio::transmit(std::span<const std::uint8_t> frame) {
  LM_REQUIRE(!frame.empty());
  LM_REQUIRE(frame.size() <= phy::kMaxPhyPayload);
  if (state_ == RadioState::Tx || state_ == RadioState::Cad ||
      state_ == RadioState::Sleep) {
    return false;
  }
  enter(RadioState::Tx);
  stats_.tx_frames++;
  stats_.tx_bytes += frame.size();
  channel_.begin_tx(*this, frame);
  return true;
}

bool VirtualRadio::start_cad() {
  if (state_ == RadioState::Tx || state_ == RadioState::Cad ||
      state_ == RadioState::Sleep) {
    return false;
  }
  enter(RadioState::Cad);
  stats_.cad_runs++;
  // The SX127x CAD integrates over its whole window: a transmission present
  // at any point during the ~1.5 symbols is detected. Evaluate at window
  // end so frames starting mid-window are caught too.
  const TimePoint window_start = sim_.now();
  sim_.schedule_after(
      phy::cad_time(config_.modulation), [this, window_start] {
        LM_ASSERT(state_ == RadioState::Cad);
        const bool busy = channel_.carrier_sensed_during(*this, window_start);
        if (busy) stats_.cad_busy++;
        if (tracer_ != nullptr) {
          trace::TraceEvent e;
          e.t_us = sim_.now().us();
          e.node = id_;
          e.kind = trace::EventKind::CadDone;
          e.bytes = busy ? 1 : 0;
          tracer_->emit(e);
        }
        enter(RadioState::Standby);
        if (listener_ != nullptr) listener_->on_cad_done(busy);
      });
  return true;
}

bool VirtualRadio::medium_busy() const {
  return channel_.carrier_sensed_by(*this);
}

void VirtualRadio::set_position(phy::Position p) {
  const phy::Position old = position_;
  position_ = p;
  channel_.radio_moved(*this, old);
}

bool VirtualRadio::listening_since(TimePoint t) const {
  return state_ == RadioState::Rx && state_entered_ <= t;
}

void VirtualRadio::deliver(std::span<const std::uint8_t> frame,
                           const FrameMeta& meta) {
  LM_ASSERT(state_ == RadioState::Rx);
  stats_.rx_frames++;
  stats_.rx_bytes += frame.size();
  if (listener_ != nullptr) listener_->on_frame_received(frame, meta);
}

void VirtualRadio::finish_tx() {
  LM_ASSERT(state_ == RadioState::Tx);
  enter(RadioState::Standby);
  if (listener_ != nullptr) listener_->on_tx_done();
}

}  // namespace lm::radio
