// LayerContext — the per-node state shared by every layer of the protocol
// stack (link / network / transport) and the MeshNode facade that owns them.
//
// The stack is deliberately built around ONE context object instead of
// per-layer copies: a node has exactly one RNG stream (so jitter and backoff
// draws interleave deterministically regardless of which layer draws), one
// stats block, one config, one running flag and one tracer hook. Splitting
// any of these per layer would change RNG draw order or stats attribution
// and break byte-identical replay against the golden traces.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "net/address.h"
#include "net/config.h"
#include "net/packet.h"
#include "sim/node_clock.h"
#include "sim/simulator.h"
#include "support/rng.h"
#include "trace/trace_sink.h"

namespace lm::radio {
class EnergyModel;
}

namespace lm::net {

/// Cumulative per-node protocol counters. The last three are the ones a
/// frame reception writes; LayerContext keeps them in its hot lines.
struct NodeStats {
  // Control plane.
  std::uint64_t beacons_sent = 0;
  // Data plane.
  std::uint64_t datagrams_sent = 0;       // originated here
  std::uint64_t datagrams_delivered = 0;  // consumed here as final destination
  std::uint64_t broadcasts_sent = 0;
  std::uint64_t broadcasts_delivered = 0;
  std::uint64_t packets_forwarded = 0;
  std::uint64_t dropped_no_route = 0;
  std::uint64_t dropped_ttl = 0;
  std::uint64_t dropped_queue_full = 0;
  std::uint64_t malformed_frames = 0;
  std::uint64_t beacons_ignored_low_quality = 0;  // link-quality gating
  // Channel access.
  std::uint64_t cad_busy_events = 0;
  std::uint64_t forced_transmissions = 0;  // CAD retries exhausted
  std::uint64_t duty_cycle_delays = 0;
  // Byte/airtime accounting, split by plane (E3 overhead decomposition):
  // control = ROUTING + ARQ control; data = DATA + FRAGMENT.
  std::uint64_t control_bytes_sent = 0;
  std::uint64_t data_bytes_sent = 0;
  Duration control_airtime;
  Duration data_airtime;
  // Acked datagrams.
  std::uint64_t acked_sent = 0;          // originated here
  std::uint64_t acked_confirmed = 0;     // ACK came back
  std::uint64_t acked_failed = 0;        // retries exhausted
  std::uint64_t acked_retransmissions = 0;
  std::uint64_t acked_delivered = 0;     // consumed here (deduplicated)
  std::uint64_t acked_duplicates = 0;    // retransmissions we had already seen
  std::uint64_t acks_sent = 0;
  // Reliable transfers.
  std::uint64_t transfers_started = 0;
  std::uint64_t transfers_completed = 0;
  std::uint64_t transfers_failed = 0;
  std::uint64_t transfers_received = 0;
  std::uint64_t rx_sessions_rejected = 0;  // SYNCs refused at the session cap
  std::uint64_t fragments_sent = 0;
  std::uint64_t fragments_retransmitted = 0;
  // Receive path.
  std::uint64_t foreign_frames = 0;  // overheard unicast for someone else
  std::uint64_t beacons_received = 0;
  std::uint64_t routing_changes = 0;  // beacons that changed the table

  /// Field-wise sum (scenario totals).
  NodeStats& operator+=(const NodeStats& o) {
    beacons_sent += o.beacons_sent;
    beacons_received += o.beacons_received;
    routing_changes += o.routing_changes;
    datagrams_sent += o.datagrams_sent;
    datagrams_delivered += o.datagrams_delivered;
    broadcasts_sent += o.broadcasts_sent;
    broadcasts_delivered += o.broadcasts_delivered;
    packets_forwarded += o.packets_forwarded;
    dropped_no_route += o.dropped_no_route;
    dropped_ttl += o.dropped_ttl;
    dropped_queue_full += o.dropped_queue_full;
    malformed_frames += o.malformed_frames;
    foreign_frames += o.foreign_frames;
    beacons_ignored_low_quality += o.beacons_ignored_low_quality;
    cad_busy_events += o.cad_busy_events;
    forced_transmissions += o.forced_transmissions;
    duty_cycle_delays += o.duty_cycle_delays;
    control_bytes_sent += o.control_bytes_sent;
    data_bytes_sent += o.data_bytes_sent;
    control_airtime += o.control_airtime;
    data_airtime += o.data_airtime;
    acked_sent += o.acked_sent;
    acked_confirmed += o.acked_confirmed;
    acked_failed += o.acked_failed;
    acked_retransmissions += o.acked_retransmissions;
    acked_delivered += o.acked_delivered;
    acked_duplicates += o.acked_duplicates;
    acks_sent += o.acks_sent;
    transfers_started += o.transfers_started;
    transfers_completed += o.transfers_completed;
    transfers_failed += o.transfers_failed;
    transfers_received += o.transfers_received;
    rx_sessions_rejected += o.rx_sessions_rejected;
    fragments_sent += o.fragments_sent;
    fragments_retransmitted += o.fragments_retransmitted;
    return *this;
  }
};
// 35 fields, each summed in operator+=: a new one must be added there too.
static_assert(sizeof(NodeStats) == 35 * 8);

/// Cache-line aligned, and laid out so that everything a beacon reception
/// reads or writes here sits in two adjacent lines (receive_hot_lines()):
/// the receive counters that end `stats`, the fields up to `running`, and
/// the head of `config` (require_link_quality, min_snr_margin_db).
/// layer_context.cpp pins this with static_asserts.
struct alignas(64) LayerContext {
  LayerContext(sim::Simulator& loop, Address self, MeshConfig node_config,
               Rng stream);

  NodeStats stats{};
  /// The owning event loop, fixed for the node's lifetime.
  sim::Simulator& sim;
  /// Flight recorder; null = detached. Only the trace helpers below read
  /// it: each tests it inline, so an untraced call costs one compare.
  trace::Tracer* tracer = nullptr;
  /// The node's oscillator (config.clock). Identity by default, in which
  /// case every conversion below is bit-exact passthrough.
  sim::NodeClock clock{};
  const Address address;
  bool running = false;
  /// Owned copy, read by every layer.
  MeshConfig config;
  /// The node's single randomness stream (jitter, backoff, retry fuzz,
  /// session seeds). All layers draw from here, in event order.
  Rng rng;
  /// Live battery, owned by the testbed; null = unmetered (infinite).
  /// Routing strategies read state of charge for energy-aware metrics.
  const radio::EnergyModel* energy = nullptr;

  /// The first of the two cache lines holding the receive-hot fields.
  const void* receive_hot_lines() const;

  // --- Clock seam -------------------------------------------------------------
  // Protocol code reads time and arms timers ONLY through these helpers
  // (scripts/check_layering.sh lints for direct Simulator access in
  // src/net/*). Protocol timers — beacons, backoff, retries, session
  // timeouts — run on the node's LOCAL clock: a fast crystal beacons more
  // often in true time, exactly like real hardware. Regulatory duty-cycle
  // bookkeeping and every trace timestamp stay on TRUE simulation time;
  // the true_* names make such sites deliberate and greppable.

  /// The node's local clock reading. Feeds route timestamps/expiry and any
  /// protocol-visible "now".
  TimePoint local_now() const { return clock.to_local(sim.now()); }
  /// True simulation time: duty-cycle regulation and trace stamps only.
  TimePoint true_now() const { return sim.now(); }
  /// Arms a timer that fires when the LOCAL clock has advanced by `delay`.
  sim::TimerId schedule_local(Duration delay, std::function<void()> fn) {
    return sim.schedule_after(clock.to_true(delay), std::move(fn));
  }
  /// Arms a timer at an absolute TRUE instant (duty-cycle windows reopen
  /// in regulatory time regardless of the node's crystal).
  sim::TimerId schedule_at_true(TimePoint when, std::function<void()> fn) {
    return sim.schedule_at(when, std::move(fn));
  }

  // --- Flight-recorder seam ---------------------------------------------------
  // Every trace event src/net emits goes through one of these helpers
  // (scripts/check_layering.sh lints for tracer tests and hand-built events
  // elsewhere). Each tests `tracer` inline and builds its event only when
  // traced; callers pass values they hold anyway. Events are stamped with
  // true time and this node's address.

  /// A packet's lifecycle step. `packet` is a Packet or one of its
  /// alternatives; an alternative is copied into a Packet only when traced.
  template <class P>
  void trace_packet(trace::EventKind kind, const P& packet,
                    trace::DropReason reason = trace::DropReason::None,
                    std::int64_t aux_us = 0, double value = 0.0) {
    if (tracer != nullptr) emit_packet(kind, packet, reason, aux_us, value);
  }
  /// An application send refused before a packet was built.
  void trace_refusal(PacketType type, Address dst, std::size_t bytes,
                     trace::DropReason reason) {
    if (tracer != nullptr) {
      emit({.kind = trace::EventKind::Drop, .reason = reason,
            .packet_type = static_cast<std::uint8_t>(type), .origin = address,
            .final_dst = dst, .bytes = static_cast<std::uint32_t>(bytes)});
    }
  }
  /// A step of the reliable transfer `seq` from `origin` to `final_dst`.
  void trace_transfer(trace::EventKind kind, Address origin, Address final_dst,
                      std::uint8_t seq, std::size_t bytes) {
    if (tracer != nullptr) {
      emit({.kind = kind,
            .packet_type = static_cast<std::uint8_t>(PacketType::Sync),
            .origin = origin, .final_dst = final_dst, .packet_id = seq,
            .bytes = static_cast<std::uint32_t>(bytes)});
    }
  }
  /// NodeUp / NodeDown lifecycle marks.
  void trace_lifecycle(trace::EventKind kind) {
    if (tracer != nullptr) emit({.kind = kind});
  }
  /// The routing table adopted or updated the route to `dst`.
  void trace_route_add(Address dst, Address via, std::uint8_t metric) {
    if (tracer != nullptr) {
      emit({.kind = trace::EventKind::RouteAdd, .final_dst = dst, .via = via,
            .bytes = metric});
    }
  }
  /// A received frame of `bytes` bytes that does not decode.
  void trace_malformed(std::size_t bytes) {
    if (tracer != nullptr) {
      emit({.kind = trace::EventKind::Drop,
            .reason = trace::DropReason::Malformed,
            .bytes = static_cast<std::uint32_t>(bytes)});
    }
  }

 private:
  void emit_packet(trace::EventKind kind, const Packet& packet,
                   trace::DropReason reason, std::int64_t aux_us, double value);
  /// Stamps time and node on `e` and hands it to the tracer.
  void emit(trace::TraceEvent e);
};

}  // namespace lm::net
