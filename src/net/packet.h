// The LoRaMesher over-the-air packet family.
//
// Every frame starts with a 5-byte link header addressing the next hop and
// naming the packet type. Unicast packets additionally carry an 8-byte route
// header addressing the final destination, so intermediate nodes can forward
// without touching the payload. The reliable large-payload machinery (paper:
// "XL packets") adds small control packets: SYNC announces a transfer,
// SYNC_ACK accepts it, FRAGMENT carries one piece, LOST requests
// retransmissions, DONE confirms completion and POLL asks the receiver for
// its status.
//
// Wire layout (little-endian):
//   link header:  link_dst:u16  link_src:u16  type:u8
//   RouteHeader:  final_dst:u16 origin:u16 ttl:u8 hops:u8 packet_id:u16
// then each type's fields as listed in the wire table (kLayout) below.
//
// Frame size is capped by the SX127x 255-byte FIFO; kMaxDataPayload /
// kMaxFragmentPayload expose the resulting application MTUs.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "net/address.h"
#include "net/role.h"
#include "support/pool.h"

namespace lm::net {

/// Packet field storage recycles fixed-size blocks through the thread-local
/// pool (support/pool.h): every field below fits one 256-byte block, so the
/// forwarding hot path allocates nothing once the pool is warm.
using PayloadBytes = support::PooledBytes;
/// Encoded on-air frames (<= 255 B) share the same pool.
using FrameBuffer = support::PooledBytes;

enum class PacketType : std::uint8_t {
  Routing = 1,    // broadcast distance-vector table
  Data = 2,       // unreliable routed datagram
  Sync = 3,       // reliable transfer: announcement
  SyncAck = 4,    // reliable transfer: receiver ready
  Fragment = 5,   // reliable transfer: one payload piece
  Lost = 6,       // reliable transfer: retransmission request
  Done = 7,       // reliable transfer: completion confirmation
  Poll = 8,       // reliable transfer: sender status query
  AckedData = 9,  // single datagram wanting an end-to-end ACK ("NEED_ACK")
  Ack = 10,       // end-to-end acknowledgment of one AckedData
  // On-demand discovery (AODV-style, net/aodv_strategy.h).
  RouteRequest = 11,  // broadcast route discovery (RREQ)
  RouteReply = 12,    // unicast discovery answer (RREP)
  RouteError = 13,    // broken-route notification (RERR)
  // Gateway-rooted tree (net/gateway_tree_strategy.h).
  TreeBeacon = 14,  // root-seeded, depth-stamped tree construction wave
  TreeReport = 15,  // member -> root liveness report (teaches downward routes)
};

const char* to_string(PacketType t);

/// Addresses the next hop on the air. The default dst is kUnassigned
/// ("route me"): MeshNode resolves it to the next hop at transmit time.
/// Broadcast must be requested explicitly — a defaulted header that leaks
/// to the air as broadcast makes every neighbor forward the packet. The
/// type byte that follows it on the air comes from the packet's kind
/// (type_of).
struct LinkHeader {
  Address dst = kUnassigned;  // next hop, kBroadcast, or kUnassigned
  Address src = kUnassigned;  // transmitting node

  friend bool operator==(const LinkHeader&, const LinkHeader&) = default;
};

/// Addresses the end-to-end path; present on every unicast packet.
struct RouteHeader {
  Address final_dst = kUnassigned;
  Address origin = kUnassigned;
  std::uint8_t ttl = 0;        // decremented per hop; 0 is dropped
  std::uint8_t hops = 0;       // incremented per hop (metrics/diagnostics)
  std::uint16_t packet_id = 0; // origin-scoped, for duplicate suppression

  friend bool operator==(const RouteHeader&, const RouteHeader&) = default;
};

constexpr std::size_t kLinkHeaderSize = 5;  // dst, src and the type byte
constexpr std::size_t kRouteHeaderSize = 8;

/// Application MTU of an unreliable datagram.
constexpr std::size_t kMaxDataPayload = 255 - kLinkHeaderSize - kRouteHeaderSize;  // 242
/// Payload bytes one reliable-transfer fragment of at most `frame_bytes`
/// bytes can carry: both headers, then seq:u8 index:u16.
constexpr std::size_t fragment_payload_within(std::size_t frame_bytes) {
  return frame_bytes - kLinkHeaderSize - kRouteHeaderSize - 3;
}
constexpr std::size_t kMaxFragmentPayload = fragment_payload_within(255);  // 239
/// Fragment indices one LOST packet can carry.
constexpr std::size_t kMaxLostIndices = (kMaxDataPayload - 2) / 2;  // 120

/// One advertised route in a routing beacon. The sender also advertises
/// itself (metric 0) so its role propagates.
struct RoutingEntry {
  Address address = kUnassigned;
  std::uint8_t metric = 0;  // hop count; >= kInfiniteMetric means unreachable
  Role role = roles::kNone;

  friend bool operator==(const RoutingEntry&, const RoutingEntry&) = default;
};

/// Entries a routing beacon of at most `frame_bytes` bytes can carry: a
/// link header, a count byte and 4 B per entry.
constexpr std::size_t routing_entries_within(std::size_t frame_bytes) {
  return (frame_bytes - kLinkHeaderSize - 1) / 4;
}
/// Entries one full-size routing beacon can carry.
constexpr std::size_t kMaxRoutingEntries = routing_entries_within(255);  // 62

// --- Packet bodies ----------------------------------------------------------

struct RoutingPacket {
  LinkHeader link;  // link.dst == kBroadcast
  support::PooledVector<RoutingEntry> entries;
  /// Not on the wire: a name for this exact entry list. The sender draws
  /// one per distinct beacon it builds (DistanceVectorStrategy), the
  /// receive path one per distinct list it interns (net/link_layer.h
  /// decode_shared), both from one process-wide counter, so two packets
  /// with one non-zero id carry identical entries; 0 means unknown.
  /// encode, decode and == ignore it.
  std::uint32_t content_id = 0;

  friend bool operator==(const RoutingPacket& a, const RoutingPacket& b) {
    return a.link == b.link && a.entries == b.entries;
  }
};

struct DataPacket {
  LinkHeader link;
  RouteHeader route;
  PayloadBytes payload;

  friend bool operator==(const DataPacket&, const DataPacket&) = default;
};

struct SyncPacket {
  LinkHeader link;
  RouteHeader route;
  std::uint8_t seq = 0;
  std::uint16_t fragment_count = 0;
  std::uint32_t total_bytes = 0;

  friend bool operator==(const SyncPacket&, const SyncPacket&) = default;
};

struct SyncAckPacket {
  LinkHeader link;
  RouteHeader route;
  std::uint8_t seq = 0;

  friend bool operator==(const SyncAckPacket&, const SyncAckPacket&) = default;
};

struct FragmentPacket {
  LinkHeader link;
  RouteHeader route;
  std::uint8_t seq = 0;
  std::uint16_t index = 0;
  PayloadBytes payload;

  friend bool operator==(const FragmentPacket&, const FragmentPacket&) = default;
};

struct LostPacket {
  LinkHeader link;
  RouteHeader route;
  std::uint8_t seq = 0;
  support::PooledVector<std::uint16_t> missing;  // <= kMaxLostIndices

  friend bool operator==(const LostPacket&, const LostPacket&) = default;
};

struct DonePacket {
  LinkHeader link;
  RouteHeader route;
  std::uint8_t seq = 0;

  friend bool operator==(const DonePacket&, const DonePacket&) = default;
};

struct PollPacket {
  LinkHeader link;
  RouteHeader route;
  std::uint8_t seq = 0;

  friend bool operator==(const PollPacket&, const PollPacket&) = default;
};

/// A single datagram that wants an end-to-end ACK; the route header's
/// packet_id identifies it for the acknowledgment and for duplicate
/// suppression at the receiver (the sender retries with the same id).
struct AckedDataPacket {
  LinkHeader link;
  RouteHeader route;
  PayloadBytes payload;

  friend bool operator==(const AckedDataPacket&, const AckedDataPacket&) = default;
};

struct AckPacket {
  LinkHeader link;
  RouteHeader route;
  std::uint16_t acked_id = 0;  // packet_id of the AckedData being confirmed

  friend bool operator==(const AckPacket&, const AckPacket&) = default;
};

/// AODV route discovery. The route header is reused for discovery state:
/// final_dst is the sought destination, origin the requester, packet_id the
/// requester-scoped RREQ id (duplicate suppression at relays), ttl bounds
/// the flood and hops accumulates the reverse-route metric.
struct RouteRequestPacket {
  LinkHeader link;  // link.dst == kBroadcast
  RouteHeader route;
  std::uint16_t origin_seq = 0;  // requester's sequence number
  std::uint16_t dst_seq = 0;     // last known seq of the destination
  std::uint8_t dst_seq_known = 0;  // 0: dst_seq is meaningless

  friend bool operator==(const RouteRequestPacket&, const RouteRequestPacket&) = default;
};

/// AODV discovery answer, unicast hop-by-hop back along the reverse route:
/// origin is the answering destination, final_dst the original requester,
/// hops accumulates the forward-route metric.
struct RouteReplyPacket {
  LinkHeader link;
  RouteHeader route;
  std::uint16_t dst_seq = 0;  // the destination's sequence number

  friend bool operator==(const RouteReplyPacket&, const RouteReplyPacket&) = default;
};

/// AODV broken-route notification, single-hop broadcast by the node that
/// failed to forward; receivers routing `unreachable` via the sender
/// invalidate and re-broadcast, so the bad news walks the dependent chain.
struct RouteErrorPacket {
  LinkHeader link;  // link.dst == kBroadcast
  RouteHeader route;
  std::uint16_t unreachable = 0;  // destination that became unreachable
  std::uint16_t seq = 0;          // its invalidating sequence number

  friend bool operator==(const RouteErrorPacket&, const RouteErrorPacket&) = default;
};

/// Gateway-tree construction wave. route.origin is the root, route.hops the
/// *sender's* depth (0 at the root), route.packet_id the root's round
/// counter (members rebroadcast once per round, depth-incremented).
struct TreeBeaconPacket {
  LinkHeader link;  // link.dst == kBroadcast
  RouteHeader route;

  friend bool operator==(const TreeBeaconPacket&, const TreeBeaconPacket&) = default;
};

/// Member -> root liveness report, unicast up the tree. Every hop learns a
/// downward route to route.origin from the link source, which is what makes
/// root -> member traffic routable.
struct TreeReportPacket {
  LinkHeader link;
  RouteHeader route;
  Address parent = kUnassigned;  // the reporter's current parent

  friend bool operator==(const TreeReportPacket&, const TreeReportPacket&) = default;
};

using Packet =
    std::variant<RoutingPacket, DataPacket, SyncPacket, SyncAckPacket,
                 FragmentPacket, LostPacket, DonePacket, PollPacket,
                 AckedDataPacket, AckPacket, RouteRequestPacket,
                 RouteReplyPacket, RouteErrorPacket, TreeBeaconPacket,
                 TreeReportPacket>;

// --- Wire table -------------------------------------------------------------
//
// The one statement of the wire format. A frame is the link header's
// fields, the type byte, then the fields of its packet type's row, in
// order. encode, decode and encoded_size (net/packet.cpp) all walk these
// lists, and a field's C++ type picks how it goes on the air:
//   std::uint8_t / uint16_t / uint32_t  little-endian integer
//   LinkHeader, RouteHeader, RoutingEntry  their kFields, in order
//   PooledVector<T>                     u8 count, then the elements
//   PayloadBytes                        the rest of the frame
// decode accepts a frame only when it holds exactly its row's fields.

enum class Plane : bool { Data, Control };

/// One packet type's row.
template <class... Fields>
struct PacketLayout {
  PacketType type;  // the type byte: the Packet alternative's index + 1
  Plane plane;      // queue priority: control jumps the data queue
  std::tuple<Fields...> fields;  // member pointers, in wire order
};

template <class... Fields>
constexpr PacketLayout<Fields...> layout(PacketType type, Plane plane,
                                         Fields... fields) {
  return {type, plane, {fields...}};
}

template <class P>
inline constexpr auto kLayout = nullptr;  // not a packet
template <>
inline constexpr auto kLayout<RoutingPacket> =
    layout(PacketType::Routing, Plane::Control, &RoutingPacket::entries);
template <>
inline constexpr auto kLayout<DataPacket> =
    layout(PacketType::Data, Plane::Data, &DataPacket::route, &DataPacket::payload);
template <>
inline constexpr auto kLayout<SyncPacket> =
    layout(PacketType::Sync, Plane::Control, &SyncPacket::route, &SyncPacket::seq,
           &SyncPacket::fragment_count, &SyncPacket::total_bytes);
template <>
inline constexpr auto kLayout<SyncAckPacket> = layout(
    PacketType::SyncAck, Plane::Control, &SyncAckPacket::route, &SyncAckPacket::seq);
template <>
inline constexpr auto kLayout<FragmentPacket> =
    layout(PacketType::Fragment, Plane::Data, &FragmentPacket::route,
           &FragmentPacket::seq, &FragmentPacket::index, &FragmentPacket::payload);
template <>
inline constexpr auto kLayout<LostPacket> =
    layout(PacketType::Lost, Plane::Control, &LostPacket::route, &LostPacket::seq,
           &LostPacket::missing);
template <>
inline constexpr auto kLayout<DonePacket> =
    layout(PacketType::Done, Plane::Control, &DonePacket::route, &DonePacket::seq);
template <>
inline constexpr auto kLayout<PollPacket> =
    layout(PacketType::Poll, Plane::Control, &PollPacket::route, &PollPacket::seq);
template <>
inline constexpr auto kLayout<AckedDataPacket> =
    layout(PacketType::AckedData, Plane::Data, &AckedDataPacket::route,
           &AckedDataPacket::payload);
template <>
inline constexpr auto kLayout<AckPacket> =
    layout(PacketType::Ack, Plane::Control, &AckPacket::route, &AckPacket::acked_id);
template <>
inline constexpr auto kLayout<RouteRequestPacket> =
    layout(PacketType::RouteRequest, Plane::Control, &RouteRequestPacket::route,
           &RouteRequestPacket::origin_seq, &RouteRequestPacket::dst_seq,
           &RouteRequestPacket::dst_seq_known);
template <>
inline constexpr auto kLayout<RouteReplyPacket> =
    layout(PacketType::RouteReply, Plane::Control, &RouteReplyPacket::route,
           &RouteReplyPacket::dst_seq);
template <>
inline constexpr auto kLayout<RouteErrorPacket> =
    layout(PacketType::RouteError, Plane::Control, &RouteErrorPacket::route,
           &RouteErrorPacket::unreachable, &RouteErrorPacket::seq);
template <>
inline constexpr auto kLayout<TreeBeaconPacket> =
    layout(PacketType::TreeBeacon, Plane::Control, &TreeBeaconPacket::route);
template <>
inline constexpr auto kLayout<TreeReportPacket> =
    layout(PacketType::TreeReport, Plane::Control, &TreeReportPacket::route,
           &TreeReportPacket::parent);

/// The members a struct puts on the air, in wire order: a packet's row, or
/// the list of a struct nested in frames.
template <class S>
inline constexpr auto kFields = kLayout<S>.fields;
template <>
inline constexpr auto kFields<LinkHeader> = std::tuple{&LinkHeader::dst, &LinkHeader::src};
template <>
inline constexpr auto kFields<RouteHeader> =
    std::tuple{&RouteHeader::final_dst, &RouteHeader::origin, &RouteHeader::ttl,
               &RouteHeader::hops, &RouteHeader::packet_id};
template <>
inline constexpr auto kFields<RoutingEntry> =
    std::tuple{&RoutingEntry::address, &RoutingEntry::metric, &RoutingEntry::role};

// decode finds a type byte's alternative at index type - 1.
template <std::size_t... I>
constexpr bool type_is_index_plus_one(std::index_sequence<I...>) {
  return ((kLayout<std::variant_alternative_t<I, Packet>>.type ==
           static_cast<PacketType>(I + 1)) && ...);
}
static_assert(type_is_index_plus_one(std::make_index_sequence<std::variant_size_v<Packet>>{}));

/// A packet's type, taken from its alternative.
constexpr PacketType type_of(const Packet& packet) {
  return static_cast<PacketType>(packet.index() + 1);
}

// --- Codec ------------------------------------------------------------------

/// Serializes any packet into the caller's buffer, which must hold at least
/// encoded_size(packet) bytes; returns the frame length. This is the
/// hot-path codec — the link layer reuses one pooled buffer per node, so
/// steady-state transmission allocates nothing. Throws ContractViolation
/// when the frame would exceed 255 bytes (caller bug).
std::size_t encode_into(const Packet& packet, std::span<std::uint8_t> out);

/// Convenience wrapper: sizes `out` to the frame and encodes into it,
/// reusing the buffer's capacity.
void encode_into(const Packet& packet, FrameBuffer& out);

/// Serializes any packet to a freshly allocated frame. Thin wrapper over
/// encode_into for tests and cold paths; internal callers use encode_into.
std::vector<std::uint8_t> encode(const Packet& packet);

/// Parses an on-air frame. Returns nullopt for malformed frames (over 255
/// bytes, wrong length, unknown type, truncated fields) — corrupted radio
/// input is an expected condition, never an exception.
std::optional<Packet> decode(std::span<const std::uint8_t> frame);

/// The link header an on-air frame starts with; nullopt when it is shorter.
std::optional<LinkHeader> decode_link(std::span<const std::uint8_t> frame);

/// Link header of any packet.
const LinkHeader& link_of(const Packet& packet);
LinkHeader& link_of(Packet& packet);

/// Route header access; nullptr for RoutingPacket (which has none).
const RouteHeader* route_of(const Packet& packet);
RouteHeader* route_of(Packet& packet);

/// Encoded size in bytes without materializing the frame.
std::size_t encoded_size(const Packet& packet);

/// One-line human rendering for traces.
std::string describe(const Packet& packet);

/// Queue priority: the packet's row says Plane::Control (everything except
/// DATA / FRAGMENT / ACKED_DATA: beacons and ARQ control jump the data queue).
bool is_control_plane(const Packet& packet);

}  // namespace lm::net
