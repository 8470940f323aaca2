#include "trace/trace_event.h"

#include <cinttypes>
#include <cstdio>

namespace lm::trace {

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::AppSubmit: return "app_submit";
    case EventKind::Enqueue: return "enqueue";
    case EventKind::QueueDrop: return "queue_drop";
    case EventKind::DutyDefer: return "duty_defer";
    case EventKind::CadBusy: return "cad_busy";
    case EventKind::ForcedTx: return "forced_tx";
    case EventKind::MeshTx: return "mesh_tx";
    case EventKind::TxStart: return "tx_start";
    case EventKind::TxEnd: return "tx_end";
    case EventKind::CadDone: return "cad_done";
    case EventKind::ChannelDeliver: return "chan_deliver";
    case EventKind::ChannelDrop: return "chan_drop";
    case EventKind::RxFrame: return "rx_frame";
    case EventKind::Forward: return "forward";
    case EventKind::Deliver: return "deliver";
    case EventKind::DuplicateDeliver: return "dup_deliver";
    case EventKind::Drop: return "drop";
    case EventKind::AckSent: return "ack_sent";
    case EventKind::AckedRetry: return "acked_retry";
    case EventKind::AckedConfirmed: return "acked_confirmed";
    case EventKind::TransferStart: return "transfer_start";
    case EventKind::TransferSyncRetry: return "transfer_sync_retry";
    case EventKind::TransferPoll: return "transfer_poll";
    case EventKind::TransferEnd: return "transfer_end";
    case EventKind::TransferRxStart: return "transfer_rx_start";
    case EventKind::LostRequest: return "lost_request";
    case EventKind::RouteAdd: return "route_add";
    case EventKind::NodeUp: return "node_up";
    case EventKind::NodeDown: return "node_down";
    case EventKind::EnergyState: return "energy_state";
    case EventKind::Brownout: return "brownout";
  }
  return "?";
}

const char* to_string(DropReason r) {
  switch (r) {
    case DropReason::None: return "none";
    case DropReason::NotRunning: return "not_running";
    case DropReason::InvalidDestination: return "invalid_destination";
    case DropReason::PayloadTooLarge: return "payload_too_large";
    case DropReason::NoRoute: return "no_route";
    case DropReason::QueueFull: return "queue_full";
    case DropReason::TtlExpired: return "ttl_expired";
    case DropReason::Malformed: return "malformed";
    case DropReason::SessionLimit: return "session_limit";
    case DropReason::RetriesExhausted: return "retries_exhausted";
    case DropReason::Duplicate: return "duplicate";
    case DropReason::NotListening: return "not_listening";
    case DropReason::BlockedLink: return "blocked_link";
    case DropReason::ModulationMismatch: return "modulation_mismatch";
    case DropReason::BelowSensitivity: return "below_sensitivity";
    case DropReason::SnrDecode: return "snr_decode";
    case DropReason::Collision: return "collision";
    case DropReason::OutOfRange: return "out_of_range";
  }
  return "?";
}

std::string packet_type_name(std::uint8_t raw) {
  if (raw < kPacketTypeNames.size()) return kPacketTypeNames[raw];
  return "T" + std::to_string(raw);
}

std::string to_jsonl(const TraceEvent& e) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"t_us\":%" PRId64 ",\"node\":%u,\"kind\":\"%s\",\"reason\":\"%s\","
      "\"type\":\"%s\",\"origin\":%u,\"dst\":%u,\"id\":%u,\"via\":%u,"
      "\"hops\":%u,\"ttl\":%u,\"bytes\":%u,\"tx_seq\":%" PRIu64
      ",\"aux_us\":%" PRId64 ",\"value\":%.3f}",
      e.t_us, e.node, to_string(e.kind), to_string(e.reason),
      packet_type_name(e.packet_type).c_str(), e.origin, e.final_dst,
      e.packet_id, e.via, e.hops, e.ttl, e.bytes, e.tx_seq, e.aux_us, e.value);
  return buf;
}

std::string canonical_line(const TraceEvent& e) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "t=%" PRId64 " n=%u k=%s r=%s pt=%s o=%u d=%u id=%u via=%u h=%u ttl=%u "
      "b=%u seq=%" PRIu64 " aux=%" PRId64,
      e.t_us, e.node, to_string(e.kind), to_string(e.reason),
      packet_type_name(e.packet_type).c_str(), e.origin, e.final_dst,
      e.packet_id, e.via, e.hops, e.ttl, e.bytes, e.tx_seq, e.aux_us);
  return buf;
}

}  // namespace lm::trace
