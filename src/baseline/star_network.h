// LoRaWAN-style single-gateway star baseline.
//
// The paper motivates mesh networking against the standard LoRaWAN
// deployment, where every end device talks directly to a gateway. This
// module models that architecture's data plane at the fidelity the
// comparison needs: end devices transmit unconfirmed uplinks (pure ALOHA —
// LoRaWAN does no carrier sensing) under the same duty-cycle rules, and a
// gateway in permanent receive hands uplinks to the application. A device
// out of direct radio range of the gateway simply cannot deliver — the
// effect E7 measures against the mesh.
//
// Uplink frame: dev:u16 seq:u16 payload...
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "net/address.h"
#include "net/duty_cycle.h"
#include "radio/radio_interface.h"
#include "sim/simulator.h"
#include "support/rng.h"

namespace lm::baseline {

constexpr std::size_t kMaxUplinkPayload = 255 - 4;

/// Always-listening gateway.
class GatewayNode final : public radio::RadioListener {
 public:
  /// (device, seq, payload) — an uplink decoded at the gateway.
  using UplinkHandler = std::function<void(net::Address device, std::uint16_t seq,
                                           const std::vector<std::uint8_t>& payload)>;

  GatewayNode(radio::Radio& radio, UplinkHandler handler);
  ~GatewayNode() override;

  void start() { radio_.start_receive(); }

  std::uint64_t uplinks_received() const { return uplinks_received_; }
  std::uint64_t malformed_frames() const { return malformed_frames_; }

  void on_frame_received(std::span<const std::uint8_t> frame,
                         const radio::FrameMeta& meta) override;

 private:
  radio::Radio& radio_;
  UplinkHandler handler_;
  std::uint64_t uplinks_received_ = 0;
  std::uint64_t malformed_frames_ = 0;
};

struct EndDeviceConfig {
  /// Random pre-transmission dither, as LoRaWAN stacks apply to decorrelate
  /// periodic sensors.
  Duration tx_dither = Duration::milliseconds(200);
  std::size_t max_queue = 16;
  double duty_cycle_limit = 0.01;
  Duration duty_cycle_window = Duration::hours(1);
};

/// Class-A-style end device: fire-and-forget uplinks, no listen-before-talk.
/// The radio sleeps whenever no uplink is pending (the energy story
/// LoRaWAN is built on; see radio/energy.h).
class EndDeviceNode final : public radio::RadioListener {
 public:
  EndDeviceNode(sim::Simulator& sim, radio::Radio& radio,
                net::Address address, EndDeviceConfig config, std::uint64_t seed);
  ~EndDeviceNode() override;

  void start() { running_ = true; }
  void stop();

  /// Queues one uplink. Returns false when stopped or the queue is full.
  bool send_uplink(std::vector<std::uint8_t> payload);

  net::Address address() const { return address_; }
  std::uint64_t uplinks_sent() const { return uplinks_sent_; }
  std::uint64_t dropped_queue_full() const { return dropped_queue_full_; }
  std::uint16_t last_seq() const { return next_seq_; }

  void on_tx_done() override;
  void on_frame_received(std::span<const std::uint8_t>,
                         const radio::FrameMeta&) override {}

 private:
  void pump();
  void transmit_now();

  sim::Simulator& sim_;
  radio::Radio& radio_;
  const net::Address address_;
  EndDeviceConfig config_;
  Rng rng_;
  net::DutyCycleLimiter duty_;

  bool running_ = false;
  bool busy_ = false;  // dithering, duty-waiting, or transmitting
  std::deque<std::vector<std::uint8_t>> queue_;
  std::uint16_t next_seq_ = 0;
  std::uint64_t uplinks_sent_ = 0;
  std::uint64_t dropped_queue_full_ = 0;
  sim::TimerId timer_ = 0;
};

}  // namespace lm::baseline
