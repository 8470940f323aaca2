// Shared vocabulary types for the virtual radio layer.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "phy/lora_params.h"
#include "support/time.h"

namespace lm::radio {

/// Identifies a radio within a Channel. Distinct from the mesh-layer
/// Address: the radio layer knows nothing about mesh addressing.
using RadioId = std::uint32_t;

/// SX127x-style operating states. Exactly one is active at a time; the
/// device is half-duplex.
enum class RadioState : std::uint8_t {
  Sleep,    // powered down; hears nothing
  Standby,  // idle, ready to change state; hears nothing
  Rx,       // continuous receive
  Tx,       // transmitting a frame
  Cad,      // channel-activity detection in progress
};

const char* to_string(RadioState s);

/// Per-frame reception metadata, mirroring what an SX127x driver reports.
struct FrameMeta {
  double rssi_dbm = 0.0;
  double snr_db = 0.0;
  TimePoint start;            // frame start on air
  TimePoint end;              // frame end on air (== delivery time)
  RadioId transmitter = 0;    // ground truth, for tests/metrics only
};

/// Static configuration of one radio.
struct RadioConfig {
  phy::Modulation modulation;
  double frequency_hz = 868.1e6;
  double tx_power_dbm = 14.0;   // EU868 ERP limit
  double antenna_gain_db = 0.0; // applied on both TX and RX
};

/// Callbacks from the radio to the protocol stack. All callbacks fire from
/// simulator events; implementations may call back into the radio.
class RadioListener {
 public:
  virtual ~RadioListener() = default;

  /// A frame fully received and decoded. The radio stays in Rx. The view is
  /// only valid for the duration of the callback; copy to keep the bytes.
  virtual void on_frame_received(std::span<const std::uint8_t> frame,
                                 const FrameMeta& meta) = 0;

  /// The frame passed to transmit() finished; radio is now in Standby.
  virtual void on_tx_done() {}

  /// CAD completed; `channel_active` is true when a same-modulation
  /// transmission was detectable. Radio is now in Standby.
  virtual void on_cad_done(bool channel_active) { (void)channel_active; }

  /// Memory a frame delivery to this listener touches besides the
  /// listener object's own first line: each entry starts a span of up to
  /// two adjacent cache lines (kReceiveHintSpanBytes). The channel
  /// prefetches them a receiver ahead of the delivery (and the listener
  /// object two ahead), so a frame's receivers do not each wait on memory
  /// in turn. Purely a hint: null entries are skipped and nothing is read
  /// through them.
  static constexpr std::size_t kReceiveHintSpans = 6;
  static constexpr std::size_t kReceiveHintSpanBytes = 128;
  using ReceiveHint = std::array<const void*, kReceiveHintSpans>;
  const ReceiveHint& receive_hint() const { return receive_hint_; }

 protected:
  /// Registers the spans receive_hint() reports. They must stay valid
  /// addresses for the listener's lifetime (prefetching a stale one is
  /// harmless, but pointless).
  void set_receive_hint(const ReceiveHint& spans) { receive_hint_ = spans; }

 private:
  // Follows the vtable pointer, in the listener's first line.
  ReceiveHint receive_hint_{};
};

}  // namespace lm::radio
