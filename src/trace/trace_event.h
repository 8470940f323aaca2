// Flight-recorder vocabulary: one flat event per packet-lifecycle step.
//
// Every instrumented layer (MeshNode, VirtualRadio, Channel, the reliable
// sessions) emits TraceEvents through a Tracer when a sink is attached.
// Events are deliberately a flat POD of integers: the trace layer depends
// only on lm_support, so mesh addresses and radio ids arrive as raw
// uint16/uint32 values (in a MeshScenario both are index + 1, so they
// coincide). The `value` double carries layer-specific analog data
// (RSSI dBm, duty-cycle utilization, a success flag) and is excluded from
// the canonical text rendering so golden traces never depend on
// floating-point formatting.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace lm::trace {

/// What happened. Grouped by layer: application/queueing, channel access,
/// the radio medium, reception/forwarding, ARQ, reliable transfers,
/// routing-table and lifecycle bookkeeping.
enum class EventKind : std::uint8_t {
  // Application + TX queue (MeshNode).
  AppSubmit = 1,    // application handed a packet to the node
  Enqueue,          // packet accepted into a TX queue
  QueueDrop,        // TX queue full; packet dropped at submission
  DutyDefer,        // head-of-line TX deferred by the duty-cycle limiter
  CadBusy,          // CAD/carrier sense found the channel busy; backing off
  ForcedTx,         // CAD retries exhausted; transmitting anyway
  MeshTx,           // node handed a resolved frame to its radio
  // Radio medium (Channel / VirtualRadio).
  TxStart,          // transmission entered the air
  TxEnd,            // transmission left the air
  CadDone,          // CAD window closed (value: 1 busy, 0 clear)
  ChannelDeliver,   // one receiver decoded the frame (value: RSSI dBm)
  ChannelDrop,      // one reception opportunity lost (reason says why)
  // Reception + forwarding (MeshNode).
  RxFrame,          // frame decoded and accepted by the mesh layer
  Forward,          // packet re-queued toward its final destination
  Deliver,          // payload handed to the application at final_dst
  DuplicateDeliver, // duplicate suppressed at the receiver (ARQ dedup)
  Drop,             // terminal drop inside the mesh layer (reason says why)
  // Acked datagrams (NEED_ACK).
  AckSent,          // receiver emitted the end-to-end ACK
  AckedRetry,       // sender retransmitted after an ACK timeout
  AckedConfirmed,   // sender matched the ACK; transfer confirmed
  // Reliable large-payload transfers.
  TransferStart,    // sender session created (packet_id = transfer seq)
  TransferSyncRetry,// SYNC retransmitted (bytes = attempt count)
  TransferPoll,     // sender polled the receiver for status
  TransferEnd,      // sender session finished (value: 1 success, 0 failure)
  TransferRxStart,  // receiver session created from the first SYNC
  LostRequest,      // receiver requested missing fragments (bytes = count)
  // Routing + lifecycle.
  RouteAdd,         // routing table adopted/updated a route (bytes = metric)
  NodeUp,           // node started
  NodeDown,         // node stopped
  // Energy (radio/energy.h EnergyModel; emitted only when live energy
  // modeling is enabled, so legacy traces never see these kinds).
  EnergyState,      // radio left a power state (bytes = state, aux_us = time
                    // spent in it, value = residual/consumed mAh)
  Brownout,         // finite battery hit 0 mAh (bytes = state at depletion)
};

/// Why a packet (or one reception opportunity) was lost. The first block
/// is produced by the mesh layer, the second by the channel model; the
/// same enum feeds PacketTracker's per-cause refusal accounting.
enum class DropReason : std::uint8_t {
  None = 0,
  // Mesh-layer refusals and terminal drops.
  NotRunning,        // node stopped
  InvalidDestination,// self / unassigned / broadcast where not allowed
  PayloadTooLarge,
  NoRoute,
  QueueFull,
  TtlExpired,
  Malformed,         // frame failed to decode
  SessionLimit,      // reliable RX session cap reached
  RetriesExhausted,  // ARQ gave up
  Duplicate,
  // Channel-model reception losses.
  NotListening,
  BlockedLink,       // scripted block or extra-loss draw
  ModulationMismatch,
  BelowSensitivity,
  SnrDecode,         // interference-free decode Bernoulli failed
  Collision,
  OutOfRange,        // culled by the spatial index (counted in bulk)
};

const char* to_string(EventKind k);
const char* to_string(DropReason r);

/// One lifecycle step. Identity fields are zero when not applicable; a
/// packet journey is keyed by (origin, packet_id, packet_type).
struct TraceEvent {
  std::int64_t t_us = 0;         // simulation time, microseconds
  std::uint32_t node = 0;        // mesh address / radio id of the actor
  EventKind kind = EventKind::Drop;
  DropReason reason = DropReason::None;
  std::uint8_t packet_type = 0;  // raw net::PacketType; 0 = not applicable
  std::uint8_t hops = 0;
  std::uint8_t ttl = 0;
  std::uint16_t origin = 0;      // route origin address
  std::uint16_t final_dst = 0;   // route final destination
  std::uint16_t via = 0;         // resolved next hop / route via
  std::uint16_t packet_id = 0;   // route packet_id or transfer seq
  std::uint32_t bytes = 0;       // frame/payload size, count, or metric
  std::uint64_t tx_seq = 0;      // channel transmission sequence number
  std::int64_t aux_us = 0;       // airtime or wait duration, microseconds
  double value = 0.0;            // RSSI / utilization / flag (not canonical)

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// The name of each raw net::PacketType value, indexed by the type byte
/// ("-" at 0: not applicable). The one list of packet names: lm_trace sits
/// below lm_net, so net::to_string(PacketType) reads it from here, and
/// net/packet.cpp checks that it names every packet alternative.
inline constexpr std::array<const char*, 16> kPacketTypeNames = {
    "-",     "ROUTING", "DATA", "SYNC", "SYNC_ACK", "FRAGMENT", "LOST",        "DONE",
    "POLL",  "ACKED_DATA", "ACK", "RREQ", "RREP", "RERR", "TREE_BEACON", "TREE_REPORT"};

/// Name of a raw PacketType value ("DATA", "ROUTING", ...); unknown values
/// render as "T<n>".
std::string packet_type_name(std::uint8_t raw);

/// One-line JSON rendering (JSONL sinks, docs). Includes `value`.
std::string to_jsonl(const TraceEvent& e);

/// Canonical single-line rendering: every integral field, no floats, no
/// pointers — byte-identical across runs and thread counts whenever the
/// simulation is deterministic. The golden-trace tests diff exactly this.
std::string canonical_line(const TraceEvent& e);

}  // namespace lm::trace
