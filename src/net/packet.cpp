#include "net/packet.h"

#include <cstdio>

#include "support/assert.h"
#include "support/byte_codec.h"

namespace lm::net {

namespace {

template <class Writer>
void put_link(Writer& w, const LinkHeader& h) {
  w.u16(h.dst);
  w.u16(h.src);
  w.u8(static_cast<std::uint8_t>(h.type));
}

template <class Writer>
void put_route(Writer& w, const RouteHeader& h) {
  w.u16(h.final_dst);
  w.u16(h.origin);
  w.u8(h.ttl);
  w.u8(h.hops);
  w.u16(h.packet_id);
}

RouteHeader get_route(ByteReader& r) {
  RouteHeader h;
  h.final_dst = r.u16();
  h.origin = r.u16();
  h.ttl = r.u8();
  h.hops = r.u8();
  h.packet_id = r.u16();
  return h;
}

}  // namespace

std::string role_to_string(Role role) {
  if (role == roles::kNone) return "-";
  std::string out;
  auto append = [&out](const char* name) {
    if (!out.empty()) out += '|';
    out += name;
  };
  if (role & roles::kGateway) append("gateway");
  if (role & roles::kSink) append("sink");
  if (role & roles::kRelayOnly) append("relay-only");
  return out;
}

std::string to_string(Address a) {
  if (a == kBroadcast) return "BCAST";
  char buf[8];
  std::snprintf(buf, sizeof buf, "0x%04X", a);
  return buf;
}

const char* to_string(PacketType t) {
  switch (t) {
    case PacketType::Routing: return "ROUTING";
    case PacketType::Data: return "DATA";
    case PacketType::Sync: return "SYNC";
    case PacketType::SyncAck: return "SYNC_ACK";
    case PacketType::Fragment: return "FRAGMENT";
    case PacketType::Lost: return "LOST";
    case PacketType::Done: return "DONE";
    case PacketType::Poll: return "POLL";
    case PacketType::AckedData: return "ACKED_DATA";
    case PacketType::Ack: return "ACK";
    case PacketType::RouteRequest: return "RREQ";
    case PacketType::RouteReply: return "RREP";
    case PacketType::RouteError: return "RERR";
    case PacketType::TreeBeacon: return "TREE_BEACON";
    case PacketType::TreeReport: return "TREE_REPORT";
  }
  return "UNKNOWN";
}

namespace {

template <class Writer>
void encode_to(Writer& w, const Packet& packet) {
  std::visit(
      [&w](const auto& p) {
        using T = std::decay_t<decltype(p)>;
        put_link(w, p.link);
        if constexpr (std::is_same_v<T, RoutingPacket>) {
          LM_REQUIRE(p.entries.size() <= kMaxRoutingEntries);
          w.u8(static_cast<std::uint8_t>(p.entries.size()));
          for (const RoutingEntry& e : p.entries) {
            w.u16(e.address);
            w.u8(e.metric);
            w.u8(e.role);
          }
        } else if constexpr (std::is_same_v<T, DataPacket>) {
          LM_REQUIRE(p.payload.size() <= kMaxDataPayload);
          put_route(w, p.route);
          w.bytes(p.payload);
        } else if constexpr (std::is_same_v<T, SyncPacket>) {
          put_route(w, p.route);
          w.u8(p.seq);
          w.u16(p.fragment_count);
          w.u32(p.total_bytes);
        } else if constexpr (std::is_same_v<T, SyncAckPacket> ||
                             std::is_same_v<T, DonePacket> ||
                             std::is_same_v<T, PollPacket>) {
          put_route(w, p.route);
          w.u8(p.seq);
        } else if constexpr (std::is_same_v<T, FragmentPacket>) {
          LM_REQUIRE(p.payload.size() <= kMaxFragmentPayload);
          put_route(w, p.route);
          w.u8(p.seq);
          w.u16(p.index);
          w.bytes(p.payload);
        } else if constexpr (std::is_same_v<T, LostPacket>) {
          LM_REQUIRE(p.missing.size() <= kMaxLostIndices);
          put_route(w, p.route);
          w.u8(p.seq);
          w.u8(static_cast<std::uint8_t>(p.missing.size()));
          for (std::uint16_t idx : p.missing) w.u16(idx);
        } else if constexpr (std::is_same_v<T, AckedDataPacket>) {
          LM_REQUIRE(p.payload.size() <= kMaxDataPayload);
          put_route(w, p.route);
          w.bytes(p.payload);
        } else if constexpr (std::is_same_v<T, AckPacket>) {
          put_route(w, p.route);
          w.u16(p.acked_id);
        } else if constexpr (std::is_same_v<T, RouteRequestPacket>) {
          put_route(w, p.route);
          w.u16(p.origin_seq);
          w.u16(p.dst_seq);
          w.u8(p.dst_seq_known);
        } else if constexpr (std::is_same_v<T, RouteReplyPacket>) {
          put_route(w, p.route);
          w.u16(p.dst_seq);
        } else if constexpr (std::is_same_v<T, RouteErrorPacket>) {
          put_route(w, p.route);
          w.u16(p.unreachable);
          w.u16(p.seq);
        } else if constexpr (std::is_same_v<T, TreeBeaconPacket>) {
          put_route(w, p.route);
        } else if constexpr (std::is_same_v<T, TreeReportPacket>) {
          put_route(w, p.route);
          w.u16(p.parent);
        } else {
          static_assert(!sizeof(T*), "unhandled packet type");
        }
      },
      packet);
  LM_ASSERT(w.size() <= 255);
}

}  // namespace

std::size_t encode_into(const Packet& packet, std::span<std::uint8_t> out) {
  SpanWriter w(out);
  encode_to(w, packet);
  return w.size();
}

void encode_into(const Packet& packet, FrameBuffer& out) {
  out.resize(encoded_size(packet));  // shrink keeps capacity: no realloc
  const std::size_t n = encode_into(packet, std::span<std::uint8_t>(out));
  LM_ASSERT(n == out.size());
}

std::vector<std::uint8_t> encode(const Packet& packet) {
  std::vector<std::uint8_t> out(encoded_size(packet));
  const std::size_t n = encode_into(packet, out);
  LM_ASSERT(n == out.size());
  return out;
}

std::optional<Packet> decode(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  LinkHeader link;
  link.dst = r.u16();
  link.src = r.u16();
  const std::uint8_t raw_type = r.u8();
  if (!r.ok()) return std::nullopt;
  if (raw_type < static_cast<std::uint8_t>(PacketType::Routing) ||
      raw_type > static_cast<std::uint8_t>(PacketType::TreeReport)) {
    return std::nullopt;
  }
  link.type = static_cast<PacketType>(raw_type);

  switch (link.type) {
    case PacketType::Routing: {
      RoutingPacket p;
      p.link = link;
      const std::uint8_t n = r.u8();
      // Exactly n 4-byte entries must follow. Checking that first lets one
      // reservation hold the whole list, and a crafted count that the frame
      // cannot back allocates nothing.
      if (!r.ok() || r.remaining() != 4 * std::size_t{n}) return std::nullopt;
      p.entries.reserve(n);
      for (std::uint8_t i = 0; i < n; ++i) {
        RoutingEntry e;
        e.address = r.u16();
        e.metric = r.u8();
        e.role = r.u8();
        p.entries.push_back(e);
      }
      if (!r.exhausted()) return std::nullopt;
      return Packet{std::move(p)};
    }
    case PacketType::Data: {
      DataPacket p;
      p.link = link;
      p.route = get_route(r);
      if (!r.ok()) return std::nullopt;
      { const auto rest = r.view_rest(); p.payload.assign(rest.begin(), rest.end()); }
      return Packet{std::move(p)};
    }
    case PacketType::Sync: {
      SyncPacket p;
      p.link = link;
      p.route = get_route(r);
      p.seq = r.u8();
      p.fragment_count = r.u16();
      p.total_bytes = r.u32();
      if (!r.exhausted()) return std::nullopt;
      return Packet{p};
    }
    case PacketType::SyncAck: {
      SyncAckPacket p;
      p.link = link;
      p.route = get_route(r);
      p.seq = r.u8();
      if (!r.exhausted()) return std::nullopt;
      return Packet{p};
    }
    case PacketType::Fragment: {
      FragmentPacket p;
      p.link = link;
      p.route = get_route(r);
      p.seq = r.u8();
      p.index = r.u16();
      if (!r.ok()) return std::nullopt;
      { const auto rest = r.view_rest(); p.payload.assign(rest.begin(), rest.end()); }
      return Packet{std::move(p)};
    }
    case PacketType::Lost: {
      LostPacket p;
      p.link = link;
      p.route = get_route(r);
      p.seq = r.u8();
      const std::uint8_t n = r.u8();
      for (std::uint8_t i = 0; i < n; ++i) p.missing.push_back(r.u16());
      if (!r.exhausted()) return std::nullopt;
      return Packet{std::move(p)};
    }
    case PacketType::Done: {
      DonePacket p;
      p.link = link;
      p.route = get_route(r);
      p.seq = r.u8();
      if (!r.exhausted()) return std::nullopt;
      return Packet{p};
    }
    case PacketType::Poll: {
      PollPacket p;
      p.link = link;
      p.route = get_route(r);
      p.seq = r.u8();
      if (!r.exhausted()) return std::nullopt;
      return Packet{p};
    }
    case PacketType::AckedData: {
      AckedDataPacket p;
      p.link = link;
      p.route = get_route(r);
      if (!r.ok()) return std::nullopt;
      { const auto rest = r.view_rest(); p.payload.assign(rest.begin(), rest.end()); }
      return Packet{std::move(p)};
    }
    case PacketType::Ack: {
      AckPacket p;
      p.link = link;
      p.route = get_route(r);
      p.acked_id = r.u16();
      if (!r.exhausted()) return std::nullopt;
      return Packet{p};
    }
    case PacketType::RouteRequest: {
      RouteRequestPacket p;
      p.link = link;
      p.route = get_route(r);
      p.origin_seq = r.u16();
      p.dst_seq = r.u16();
      p.dst_seq_known = r.u8();
      if (!r.exhausted()) return std::nullopt;
      return Packet{p};
    }
    case PacketType::RouteReply: {
      RouteReplyPacket p;
      p.link = link;
      p.route = get_route(r);
      p.dst_seq = r.u16();
      if (!r.exhausted()) return std::nullopt;
      return Packet{p};
    }
    case PacketType::RouteError: {
      RouteErrorPacket p;
      p.link = link;
      p.route = get_route(r);
      p.unreachable = r.u16();
      p.seq = r.u16();
      if (!r.exhausted()) return std::nullopt;
      return Packet{p};
    }
    case PacketType::TreeBeacon: {
      TreeBeaconPacket p;
      p.link = link;
      p.route = get_route(r);
      if (!r.exhausted()) return std::nullopt;
      return Packet{p};
    }
    case PacketType::TreeReport: {
      TreeReportPacket p;
      p.link = link;
      p.route = get_route(r);
      p.parent = r.u16();
      if (!r.exhausted()) return std::nullopt;
      return Packet{p};
    }
  }
  return std::nullopt;
}

const LinkHeader& link_of(const Packet& packet) {
  return std::visit([](const auto& p) -> const LinkHeader& { return p.link; }, packet);
}

LinkHeader& link_of(Packet& packet) {
  return std::visit([](auto& p) -> LinkHeader& { return p.link; }, packet);
}

const RouteHeader* route_of(const Packet& packet) {
  return std::visit(
      [](const auto& p) -> const RouteHeader* {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, RoutingPacket>) {
          return nullptr;
        } else {
          return &p.route;
        }
      },
      packet);
}

RouteHeader* route_of(Packet& packet) {
  return const_cast<RouteHeader*>(route_of(static_cast<const Packet&>(packet)));
}

std::size_t encoded_size(const Packet& packet) {
  return std::visit(
      [](const auto& p) -> std::size_t {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, RoutingPacket>) {
          return kLinkHeaderSize + 1 + 4 * p.entries.size();
        } else if constexpr (std::is_same_v<T, DataPacket>) {
          return kLinkHeaderSize + kRouteHeaderSize + p.payload.size();
        } else if constexpr (std::is_same_v<T, SyncPacket>) {
          return kLinkHeaderSize + kRouteHeaderSize + 7;
        } else if constexpr (std::is_same_v<T, FragmentPacket>) {
          return kLinkHeaderSize + kRouteHeaderSize + 3 + p.payload.size();
        } else if constexpr (std::is_same_v<T, LostPacket>) {
          return kLinkHeaderSize + kRouteHeaderSize + 2 + 2 * p.missing.size();
        } else if constexpr (std::is_same_v<T, AckedDataPacket>) {
          return kLinkHeaderSize + kRouteHeaderSize + p.payload.size();
        } else if constexpr (std::is_same_v<T, AckPacket>) {
          return kLinkHeaderSize + kRouteHeaderSize + 2;
        } else if constexpr (std::is_same_v<T, RouteRequestPacket>) {
          return kLinkHeaderSize + kRouteHeaderSize + 5;
        } else if constexpr (std::is_same_v<T, RouteReplyPacket> ||
                             std::is_same_v<T, TreeReportPacket>) {
          return kLinkHeaderSize + kRouteHeaderSize + 2;
        } else if constexpr (std::is_same_v<T, RouteErrorPacket>) {
          return kLinkHeaderSize + kRouteHeaderSize + 4;
        } else if constexpr (std::is_same_v<T, TreeBeaconPacket>) {
          return kLinkHeaderSize + kRouteHeaderSize;
        } else {
          // SyncAck / Done / Poll carry route header + seq.
          return kLinkHeaderSize + kRouteHeaderSize + 1;
        }
      },
      packet);
}

std::string describe(const Packet& packet) {
  const LinkHeader& l = link_of(packet);
  const RouteHeader* r = route_of(packet);
  char buf[160];
  if (r != nullptr) {
    std::snprintf(buf, sizeof buf, "%s %s->%s (end-to-end %s->%s ttl=%u id=%u) %zuB",
                  to_string(l.type), to_string(l.src).c_str(),
                  to_string(l.dst).c_str(), to_string(r->origin).c_str(),
                  to_string(r->final_dst).c_str(), r->ttl, r->packet_id,
                  encoded_size(packet));
  } else {
    std::snprintf(buf, sizeof buf, "%s %s->broadcast %zuB", to_string(l.type),
                  to_string(l.src).c_str(), encoded_size(packet));
  }
  return buf;
}

bool is_control_plane(const Packet& packet) {
  const PacketType t = link_of(packet).type;
  return t != PacketType::Data && t != PacketType::Fragment &&
         t != PacketType::AckedData;
}

}  // namespace lm::net
