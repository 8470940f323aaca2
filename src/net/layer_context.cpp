#include "net/layer_context.h"

namespace lm::net {

void LayerContext::trace_packet(trace::EventKind kind, const Packet& packet,
                                trace::DropReason reason, std::int64_t aux_us,
                                double value) {
  trace::TraceEvent e;
  e.t_us = sim.now().us();
  e.node = address;
  e.kind = kind;
  e.reason = reason;
  const LinkHeader& link = link_of(packet);
  e.packet_type = static_cast<std::uint8_t>(link.type);
  e.via = link.dst;
  if (const RouteHeader* route = route_of(packet)) {
    e.origin = route->origin;
    e.final_dst = route->final_dst;
    e.hops = route->hops;
    e.ttl = route->ttl;
    e.packet_id = route->packet_id;
  } else {
    e.origin = link.src;  // routing beacons carry no route header
  }
  e.bytes = static_cast<std::uint32_t>(encoded_size(packet));
  e.aux_us = aux_us;
  e.value = value;
  tracer->emit(e);
}

void LayerContext::trace_refusal(PacketType type, Address dst,
                                 std::size_t bytes, trace::DropReason reason) {
  trace::TraceEvent e;
  e.t_us = sim.now().us();
  e.node = address;
  e.kind = trace::EventKind::Drop;
  e.reason = reason;
  e.packet_type = static_cast<std::uint8_t>(type);
  e.origin = address;
  e.final_dst = dst;
  e.bytes = static_cast<std::uint32_t>(bytes);
  tracer->emit(e);
}

void LayerContext::trace_lifecycle(trace::EventKind kind) {
  trace::TraceEvent e;
  e.t_us = sim.now().us();
  e.node = address;
  e.kind = kind;
  tracer->emit(e);
}

}  // namespace lm::net
