// Tunables of a mesh node. Defaults follow the LoRaMesher prototype's
// behaviour on the paper's testbed (SF7/125 kHz, periodic full-table
// beacons) scaled where the original hard-codes ESP32-specific values.
#pragma once

#include <cstddef>
#include <cstdint>

#include "net/role.h"
#include "sim/node_clock.h"
#include "support/time.h"

namespace lm::net {

struct MeshConfig {
  /// Role bits this node advertises with its beacons (see net/role.h);
  /// other nodes can then discover e.g. the nearest gateway.
  Role role = roles::kNone;

  // --- Distance-vector protocol ---------------------------------------------
  /// Period between routing beacons. The demo uses ~60 s; the released
  /// library defaults to 120 s.
  Duration hello_interval = Duration::seconds(60);
  /// Each beacon fires at hello_interval * (1 ± hello_jitter), desynchronizing
  /// neighbors that booted together.
  double hello_jitter = 0.15;
  /// Routes expire after this many silent beacon periods.
  int route_timeout_intervals = 10;
  /// TTL stamped on originated packets; also bounds forwarding loops.
  std::uint8_t max_ttl = 16;

  // --- Link-quality gating (LoRaMesher v2's received-SNR tracking) -----------
  /// When enabled, beacons from neighbors whose smoothed SNR margin sits
  /// below min_snr_margin_db are ignored, so marginal links never become
  /// next hops: hop count stops preferring a flaky 1-hop shortcut over a
  /// solid 2-hop path. Disabled by default (the demo prototype's behaviour).
  bool require_link_quality = false;
  /// Minimum smoothed margin (dB above the SF's demodulation floor).
  double min_snr_margin_db = 3.0;

  // --- Channel access --------------------------------------------------------
  /// Listen-before-talk via CAD. Disabled = ALOHA (E9 ablation).
  bool use_cad = true;
  /// CAD-busy retries before transmitting anyway (channel saturated).
  int max_cad_retries = 8;
  /// First backoff window; doubles per busy CAD, capped at backoff_max.
  Duration backoff_base = Duration::milliseconds(100);
  Duration backoff_max = Duration::seconds(4);
  /// Random extra delay before relaying a forwarded packet, desynchronizing
  /// parallel relays.
  Duration forward_jitter = Duration::milliseconds(100);

  // --- Duty cycle -------------------------------------------------------------
  /// Fraction of airtime the regional regulation allows (EU868: 1 %).
  /// >= 1.0 disables enforcement.
  double duty_cycle_limit = 0.01;
  /// Sliding window over which the limit is accounted.
  Duration duty_cycle_window = Duration::hours(1);
  /// Per-transmission airtime cap (US915-style dwell rule; FCC 15.247
  /// allows 400 ms). Zero disables. Frames that would exceed it are
  /// rejected at submission, never silently truncated; reliable transfers
  /// shrink their fragments to fit (fragment_payload_within, net/packet.h).
  Duration max_dwell_time = Duration::zero();

  // --- Receiver duty-cycling (the paper's future-work lever) ------------------
  /// Fraction of idle time the receiver listens. 1.0 (default) is the
  /// prototype's always-on behaviour; below 1.0 the node alternates
  /// unsynchronized listen/sleep windows of rx_cycle_period — the naive
  /// version of duty-cycled listening. Saves energy proportionally but
  /// drops every frame arriving in a sleep window (E10 quantifies the
  /// trade; making this work without losing frames needs synchronized
  /// wake-ups or wake-up radios).
  double rx_duty = 1.0;
  Duration rx_cycle_period = Duration::seconds(10);

  // --- Queueing ----------------------------------------------------------------
  /// Packets buffered for transmission (control + data each); overflow drops
  /// the newest data packet (control packets evict the oldest data packet).
  std::size_t max_queue = 64;

  // --- Reliable transfers ------------------------------------------------------
  /// SYNC retransmissions before giving up on an unresponsive receiver.
  int sync_max_retries = 4;
  /// Status polls after the last fragment before declaring failure.
  int poll_max_retries = 6;
  /// Sender wait for SYNC_ACK / DONE / LOST before retrying.
  Duration reliable_retry_timeout = Duration::seconds(15);
  /// Receiver-side silence gap after which missing fragments are requested.
  Duration receiver_gap_timeout = Duration::seconds(20);
  /// Receiver session lifetime without any progress.
  Duration receiver_session_timeout = Duration::minutes(5);
  /// Pause between successive fragments (lets relays drain and shares the
  /// channel); the duty-cycle limiter adds more when needed.
  Duration fragment_spacing = Duration::milliseconds(100);

  // --- Acked datagrams ("NEED_ACK") ------------------------------------------
  /// Wait for the end-to-end ACK before each retransmission.
  Duration acked_retry_timeout = Duration::seconds(10);

  /// Route-table housekeeping period (expiry sweep).
  Duration maintenance_interval = Duration::seconds(10);

  /// The node's oscillator (skew + drift over the true simulation clock).
  /// Every protocol timer above runs on this local timebase; the identity
  /// default reproduces legacy behavior bit for bit.
  sim::ClockProfile clock;
};

}  // namespace lm::net
