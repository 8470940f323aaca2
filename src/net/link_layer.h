// LinkLayer — the radio-facing half of the node, the paper's "service loop"
// arbitrating one half-duplex LoRa transceiver.
//
// Owns everything between a queued Packet and the antenna:
//  * the two-priority transmit queue (control before data);
//  * soft carrier sense + CAD listen-before-talk with exponential random
//    backoff, and the forced transmission after max_cad_retries;
//  * the sliding-window duty-cycle budget (DutyCycleLimiter) that defers
//    over-budget transmissions;
//  * the US915-style dwell cap on frame size;
//  * RX-default radio control, including duty-cycled listening (rx_duty);
//  * per-neighbor smoothed SNR margin, fed by every decoded frame.
//
// The layer knows nothing about routing or sessions: next hops are resolved
// through Callbacks::resolve_next_hop and inbound packets are handed up via
// Callbacks::on_packet, keeping all includes pointing downward.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "net/duty_cycle.h"
#include "net/layer_context.h"
#include "net/packet.h"
#include "radio/radio_interface.h"
#include "sim/simulator.h"
#include "support/flat_map.h"
#include "support/function_ref.h"
#include "support/sliding_queue.h"

namespace lm::net {

/// decode() once per transmission. The channel hands one frame's bytes to
/// every receiver in turn, so this thread remembers the last frame and its
/// decoded packet: byte-equal input returns that same packet (decode is a
/// pure function of the bytes). The result points into the thread-local
/// memo, is nullptr for a malformed frame, and stays valid until the next
/// call on this thread; a caller that keeps or edits the packet copies it
/// first. A freshly decoded Routing frame is interned per link.src: it keeps
/// the sender's previous content id while its entries are unchanged and
/// otherwise draws a new one with draw_content_id(). Senders draw their
/// own beacons' ids from the same counter, so ids are never reused and
/// equal ids mean equal entries on every thread. RoutingTable::apply_beacon
/// keys its repeat memo on the receive-side id.
const Packet* decode_shared(std::span<const std::uint8_t> frame);

/// A beacon content id never handed out before, from one process-wide
/// counter shared by every thread, PDES worker and ParallelRunner job, and
/// by senders and receivers alike. 0 (unknown) once the counter has passed
/// 32 bits, rather than a reused id.
std::uint32_t draw_content_id();

class LinkLayer final : public radio::RadioListener {
 public:
  /// Upcalls into the rest of the stack. Non-owning FunctionRefs (rather
  /// than an interface or std::function) let the facade wire layers together
  /// without upward includes and without an ownership hop on the per-packet
  /// path; the facade outlives the layers it binds, and all four are invoked
  /// on the simulator thread only.
  struct Callbacks {
    /// A decoded, addressed-to-us (or broadcast) packet arrived. The
    /// reference is decode_shared's memo: valid for the call only. First,
    /// so it shares a line with the rest of the receive path's state.
    support::FunctionRef<void(const Packet&)> on_packet;
    /// Late next-hop resolution for packets queued with dst == kUnassigned.
    /// nullopt drops the packet (route lost while queued).
    support::FunctionRef<std::optional<Address>(const RouteHeader&)>
        resolve_next_hop;
    /// A frame finished transmitting (fragment pacing, session GC).
    support::FunctionRef<void(const Packet&)> on_sent;
    /// A queued packet was dropped before the air (queue full, route lost).
    support::FunctionRef<void(const Packet&)> on_dropped;
  };

  /// Installs itself as the radio's listener; derives the max_dwell_time
  /// frame cap (max_frame_bytes).
  LinkLayer(LayerContext& ctx, radio::Radio& radio, Callbacks callbacks);
  ~LinkLayer() override;

  LinkLayer(const LinkLayer&) = delete;
  LinkLayer& operator=(const LinkLayer&) = delete;

  /// Registers the receive hint (radio_types.h): this layer's own spans
  /// plus `above`, the spans the layers above touch for a delivered beacon.
  static constexpr std::size_t kHintSpansAbove = kReceiveHintSpans - 2;
  void set_receive_hint_above(const std::array<const void*, kHintSpansAbove>& above);

  // --- Lifecycle (driven by the owning facade) -------------------------------
  /// Opens the receive window and starts listening.
  void enter_receive();
  /// Starts the duty-cycled listening alternation (no-op at rx_duty == 1).
  void schedule_rx_cycle();
  /// Cancels pipeline/rx-cycle timers (facade stop()).
  void cancel_timers();
  /// Drops all queued traffic (facade stop()).
  void clear_queues();
  /// Parks the radio after stop(): mid-TX/CAD radios settle in their
  /// completion callbacks instead.
  void settle_radio();

  // --- TX entry point --------------------------------------------------------
  /// Queues one packet with the given priority. False when stopped or the
  /// queue is full (the drop is traced and reported via on_dropped).
  bool enqueue(Packet packet, bool control);

  // --- Introspection ---------------------------------------------------------
  std::size_t queued_packets() const {
    return control_queue_.size() + data_queue_.size();
  }
  /// Dwell-capped frame size (kMaxPhyPayload when no dwell limit is set).
  std::size_t max_frame_bytes() const { return max_frame_bytes_; }
  const DutyCycleLimiter& duty_cycle() const { return duty_; }
  /// Smoothed SNR margin (dB above the demodulation floor) of frames heard
  /// from `neighbor`; nullopt before the first frame.
  std::optional<double> snr_margin_db(Address neighbor) const;

  // --- RadioListener ---------------------------------------------------------
  void on_frame_received(std::span<const std::uint8_t> frame,
                         const radio::FrameMeta& meta) override;
  void on_tx_done() override;
  void on_cad_done(bool channel_active) override;

 private:
  enum class TxPhase : std::uint8_t {
    Idle,         // nothing being transmitted
    WaitingDuty,  // head-of-line packet deferred by the duty-cycle limiter
    Cad,          // listen-before-talk in progress
    Backoff,      // channel was busy; waiting a random interval
    Transmitting, // frame on the air
  };

  struct Outgoing {
    Packet packet;
    int cad_attempts = 0;
    // Airtime of `packet` at this link's modulation, computed once on the
    // first pump. Duty defers and CAD backoffs re-enter pump() for the same
    // packet; the frame size and modulation cannot change while it waits
    // (late next-hop resolution rewrites the dst, not the length).
    Duration airtime{};
  };

  void pump();
  void channel_busy_backoff();
  void transmit_now();
  void resume_radio();

  // Receive path: the end of the first line, after the RadioListener
  // base, and the second (pinned by static_asserts in link_layer.cpp).
  LayerContext& ctx_;
  radio::Radio& radio_;
  // EWMA, dB above floor. Holds room for a few neighbours from the start,
  // so its entries share the node's allocation neighbourhood and keep a
  // stable address for the receive hint.
  support::FlatMap<Address, double> neighbor_snr_margin_;
  Callbacks callbacks_;

  DutyCycleLimiter duty_;

  TxPhase tx_phase_ = TxPhase::Idle;
  support::SlidingQueue<Packet> control_queue_;
  support::SlidingQueue<Packet> data_queue_;
  std::optional<Outgoing> current_;
  sim::TimerId pipeline_timer_ = 0;  // duty-wait or backoff wakeup
  sim::TimerId rx_cycle_timer_ = 0;  // duty-cycled listening toggles
  bool rx_window_open_ = true;       // whether the schedule says "listen"
  // Content id of the beacon tx_frame_ holds the encoding of; 0 when it
  // holds anything else. A repeat of that beacon is sent without encoding.
  std::uint32_t tx_frame_beacon_ = 0;
  std::size_t max_frame_bytes_ = 255;  // dwell-capped frame size

  FrameBuffer tx_frame_;  // reused encode buffer: one pooled block per node
};

}  // namespace lm::net
