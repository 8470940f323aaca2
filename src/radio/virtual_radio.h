// A virtual half-duplex LoRa transceiver.
//
// Mirrors the driver semantics the original LoRaMesher sees from an SX127x
// through RadioLib: explicit states, continuous receive, asynchronous
// transmit completion, and channel-activity detection (CAD). The protocol
// stack above is written only against this interface plus the simulator
// clock, which is what makes the stack logic hardware-shaped even though the
// medium is simulated.
//
// State rules (enforced with preconditions, as the real driver would fail):
//  * transmit() is legal from Standby or Rx (it preempts reception — any
//    frame currently in the air toward this radio is lost);
//  * start_cad() is legal from Standby or Rx; the radio cannot decode frames
//    while the CAD runs; it lands in Standby when the result is delivered;
//  * a frame is only received if the radio was in Rx continuously from the
//    frame's first preamble symbol to its end (the demodulator must lock on
//    the preamble).
#pragma once

#include <cstdint>
#include <span>

#include "phy/geometry.h"
#include "radio/channel.h"
#include "radio/radio_interface.h"
#include "radio/radio_types.h"
#include "sim/simulator.h"
#include "support/time.h"

namespace lm::radio {

class EnergyModel;

/// Cumulative per-radio counters.
struct RadioStats {
  // The receive counters lead: VirtualRadio keeps them in its hot line.
  std::uint64_t rx_frames = 0;  // frames delivered to the listener
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_frames = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t cad_runs = 0;
  std::uint64_t cad_busy = 0;   // CAD runs that reported an active channel
};

/// Cache-line aligned: the first line holds the state a reception reads
/// or writes, the second the configuration fields it reads (modulation,
/// frequency, antenna gain), and the position follows (see the member
/// list), so the channel warms a receiver with three prefetches.
class alignas(64) VirtualRadio final : public Radio {
 public:
  /// Registers with `channel`; the radio starts in Standby.
  VirtualRadio(sim::Simulator& sim, Channel& channel, RadioId id,
               phy::Position position, RadioConfig config);
  ~VirtualRadio() override;

  VirtualRadio(const VirtualRadio&) = delete;
  VirtualRadio& operator=(const VirtualRadio&) = delete;

  // -- Radio interface (semantics documented in radio_interface.h) -----------
  void set_listener(RadioListener* listener) override { listener_ = listener; }
  void start_receive() override;
  void standby() override;
  void sleep() override;
  bool transmit(std::span<const std::uint8_t> frame) override;
  bool start_cad() override;
  RadioState state() const override { return state_; }
  bool medium_busy() const override;
  const phy::Modulation& modulation() const override {
    return config_.modulation;
  }

  // -- Identity, geometry, configuration -------------------------------------
  RadioId id() const { return id_; }
  const RadioConfig& config() const { return config_; }

  /// Dense registration index assigned by the owning Channel, stable for the
  /// radio's lifetime. Orders the spatial delivery sweep identically to the
  /// brute-force walk and keys the channel's link tables.
  std::uint32_t channel_ordinal() const { return channel_ordinal_; }

  phy::Position position() const { return position_; }

  /// Moves the radio (mobility support) and re-buckets it in the channel's
  /// spatial index. Takes effect for frames that start after the move; a
  /// frame already in flight toward this radio is evaluated against the
  /// position at its end (propagation within one frame is negligible).
  void set_position(phy::Position p);

  const RadioStats& stats() const { return stats_; }

  /// Attaches the flight recorder. Null detaches; the untraced path costs
  /// one branch per event site.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  /// Cumulative time spent in `state` since construction, including the
  /// currently running stretch; time_in_state(Tx) is the airtime. The one
  /// clock every charge is derived from (radio/energy.h).
  Duration time_in_state(RadioState state) const;

  /// Hooks a live battery model (radio/energy.h) into every power-state
  /// transition. Null detaches. A model destroyed first detaches itself;
  /// a radio destroyed first tells its model (EnergyModel::detach_radio).
  void attach_energy(EnergyModel* energy) { energy_ = energy; }

  // -- Channel-facing internals (not for protocol code) -----------------------
  /// True when the radio has been in Rx continuously since `t` (inclusive).
  bool listening_since(TimePoint t) const;
  /// Delivers a decoded frame (called by Channel at frame end).
  void deliver(std::span<const std::uint8_t> frame, const FrameMeta& meta);
  /// Ends the current transmission (called by Channel).
  void finish_tx();
  /// Prefetches what evaluating a reception at this radio reads: the hot
  /// line, the configuration and the position.
  void prefetch_hot_lines() const {
    __builtin_prefetch(this);
    __builtin_prefetch(&config_);
    __builtin_prefetch(&position_);
  }
  /// Prefetches the listener object's first line, and the spans it
  /// registered as its receive hint (radio_types.h). The channel calls
  /// these two and one receivers ahead of deliver().
  void prefetch_listener() const {
    if (listener_ != nullptr) __builtin_prefetch(listener_);
  }
  void prefetch_receive_hint() const {
    if (listener_ == nullptr) return;
    for (const void* span : listener_->receive_hint()) {
      if (span == nullptr) continue;
      const auto* bytes = static_cast<const char*>(span);
      for (std::size_t at = 0; at < RadioListener::kReceiveHintSpanBytes; at += 64) {
        __builtin_prefetch(bytes + at);
      }
    }
  }

 private:
  friend class Channel;  // assigns channel_ordinal_ at registration

  void enter(RadioState next);

  // Receive-hot line (pinned by static_asserts in virtual_radio.cpp):
  // after the vtable pointer, what Channel::evaluate_reception and
  // deliver() write, and the state they test.
  RadioListener* listener_ = nullptr;
  TimePoint state_entered_;    // when state_ last changed
  const RadioId id_;
  RadioState state_ = RadioState::Standby;
  std::uint32_t channel_ordinal_ = 0;
  RadioStats stats_;           // rx_frames and rx_bytes end the hot line
  // The rest of stats_ fills the second line's head, the configuration
  // follows, and position_ opens the third.
  RadioConfig config_;
  alignas(64) phy::Position position_;
  sim::Simulator& sim_;
  Channel& channel_;
  EnergyModel* energy_ = nullptr;
  trace::Tracer* tracer_ = nullptr;
  Duration state_time_[5];    // closed stretches per RadioState (by value)
};

}  // namespace lm::radio
