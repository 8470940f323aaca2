#include "net/packet.h"

#include <array>
#include <cstdio>

#include "support/assert.h"
#include "support/byte_codec.h"
#include "trace/trace_event.h"

namespace lm::net {

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

namespace {

// The field codec: one branch per field kind of the wire table
// (packet.h), walked by encode, decode and encoded_size alike.

template <class T>
constexpr bool kIsList = false;
template <class T>
constexpr bool kIsList<support::PooledVector<T>> = true;  // PayloadBytes is matched first

// A writer that only counts: encoded_size runs the encoder over it.
struct SizeCounter {
  std::size_t n = 0;
  constexpr void u8(std::uint8_t) { n += 1; }
  constexpr void u16(std::uint16_t) { n += 2; }
  constexpr void u32(std::uint32_t) { n += 4; }
  constexpr void bytes(std::span<const std::uint8_t> b) { n += b.size(); }
  constexpr std::size_t size() const { return n; }
};

template <class Writer, class F>
constexpr void put(Writer& w, const F& f) {
  if constexpr (std::is_same_v<F, std::uint8_t>) {
    w.u8(f);
  } else if constexpr (std::is_same_v<F, std::uint16_t>) {
    w.u16(f);
  } else if constexpr (std::is_same_v<F, std::uint32_t>) {
    w.u32(f);
  } else if constexpr (std::is_same_v<F, PayloadBytes>) {
    w.bytes(f);
  } else if constexpr (kIsList<F>) {
    w.u8(static_cast<std::uint8_t>(f.size()));
    for (const auto& e : f) put(w, e);
  } else {
    std::apply([&](auto... m) { (put(w, f.*m), ...); }, kFields<F>);
  }
}

// Wire bytes of one list element (every element type is fixed-size).
template <class T>
constexpr std::size_t kElementSize = [] {
  SizeCounter c;
  put(c, T{});
  return c.size();
}();

template <class F>
void get(ByteReader& r, F& f) {
  if constexpr (std::is_same_v<F, std::uint8_t>) {
    f = r.u8();
  } else if constexpr (std::is_same_v<F, std::uint16_t>) {
    f = r.u16();
  } else if constexpr (std::is_same_v<F, std::uint32_t>) {
    f = r.u32();
  } else if constexpr (std::is_same_v<F, PayloadBytes>) {
    const auto rest = r.view_rest();
    f.assign(rest.begin(), rest.end());
  } else if constexpr (kIsList<F>) {
    // Claiming the elements' bytes first lets one allocation hold the whole
    // list, and a count the frame cannot back poisons the reader before
    // anything is allocated.
    const std::size_t n = r.u8();
    ByteReader items(r.view(n * kElementSize<typename F::value_type>));
    if (!r.ok()) return;
    f.resize(n);
    for (auto& e : f) get(items, e);
  } else {
    std::apply([&](auto... m) { (get(r, f.*m), ...); }, kFields<F>);
  }
}

template <class Writer>
void encode_to(Writer& w, const Packet& packet) {
  std::visit(
      [&w](const auto& p) {
        put(w, p.link);
        w.u8(static_cast<std::uint8_t>(kLayout<std::decay_t<decltype(p)>>.type));
        put(w, p);
      },
      packet);
}

template <std::size_t I>
std::optional<Packet> decode_as(const LinkHeader& link, ByteReader& r) {
  std::optional<Packet> out(std::in_place, std::in_place_index<I>);
  auto& p = std::get<I>(*out);
  p.link = link;
  get(r, p);
  if (!r.exhausted()) out.reset();
  return out;  // one named return: NRVO builds it in the caller's slot
}

template <std::size_t... I>
constexpr auto per_alternative(std::index_sequence<I...>) {
  struct Row {
    Plane plane;
    std::optional<Packet> (*decode)(const LinkHeader&, ByteReader&);
  };
  return std::array{
      Row{kLayout<std::variant_alternative_t<I, Packet>>.plane, &decode_as<I>}...};
}

// Indexed by type byte - 1.
constexpr auto kRows = per_alternative(std::make_index_sequence<std::variant_size_v<Packet>>{});
// trace::kPacketTypeNames names every type byte (and 0).
static_assert(trace::kPacketTypeNames.size() == kRows.size() + 1);

}  // namespace

const char* to_string(PacketType t) {
  const auto i = static_cast<std::size_t>(t);
  return i >= 1 && i <= kRows.size() ? trace::kPacketTypeNames[i] : "UNKNOWN";
}

std::size_t encode_into(const Packet& packet, std::span<std::uint8_t> out) {
  SpanWriter w(out);
  encode_to(w, packet);
  LM_REQUIRE(w.size() <= 255);
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
  if (frame.size() > 255) return std::nullopt;  // encode refuses it too
  ByteReader r(frame);
  LinkHeader link;
  get(r, link);
  const std::size_t index = std::size_t{r.u8()} - 1;  // wraps for type byte 0
  if (!r.ok() || index >= kRows.size()) return std::nullopt;
  return kRows[index].decode(link, r);
}

std::optional<LinkHeader> decode_link(std::span<const std::uint8_t> frame) {
  ByteReader r(frame);
  LinkHeader link;
  get(r, link);
  if (!r.ok()) return std::nullopt;
  return link;
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
  SizeCounter c;
  encode_to(c, packet);
  return c.size();
}

std::string describe(const Packet& packet) {
  const LinkHeader& l = link_of(packet);
  const RouteHeader* r = route_of(packet);
  const char* type = to_string(type_of(packet));
  char buf[160];
  if (r != nullptr) {
    std::snprintf(buf, sizeof buf, "%s %s->%s (end-to-end %s->%s ttl=%u id=%u) %zuB",
                  type, to_string(l.src).c_str(), to_string(l.dst).c_str(),
                  to_string(r->origin).c_str(), to_string(r->final_dst).c_str(), r->ttl,
                  r->packet_id, encoded_size(packet));
  } else {
    std::snprintf(buf, sizeof buf, "%s %s->broadcast %zuB", type,
                  to_string(l.src).c_str(), encoded_size(packet));
  }
  return buf;
}

bool is_control_plane(const Packet& packet) {
  return kRows[packet.index()].plane == Plane::Control;
}

}  // namespace lm::net
