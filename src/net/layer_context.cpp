#include "net/layer_context.h"

#include <cstddef>

namespace lm::net {

namespace {

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"

constexpr std::size_t kLine = 64;
// The line the first receive counter sits in.
constexpr std::size_t kHotLine =
    (offsetof(LayerContext, stats) + offsetof(NodeStats, foreign_frames)) / kLine;

constexpr bool in_hot_lines(std::size_t offset, std::size_t size) {
  return offset / kLine >= kHotLine && (offset + size - 1) / kLine <= kHotLine + 1;
}

#define LM_HOT(member) in_hot_lines(offsetof(LayerContext, member), \
                                    sizeof(LayerContext::member))
#define LM_HOT_IN(outer, type, member)                                   \
  in_hot_lines(offsetof(LayerContext, outer) + offsetof(type, member), \
               sizeof(type::member))

// A member edit must not spread the receive-hot fields over more lines.
static_assert(alignof(LayerContext) == kLine);
static_assert(LM_HOT_IN(stats, NodeStats, foreign_frames));
static_assert(LM_HOT_IN(stats, NodeStats, beacons_received));
static_assert(LM_HOT_IN(stats, NodeStats, routing_changes));
static_assert(in_hot_lines(offsetof(LayerContext, sim), sizeof(void*)));
static_assert(LM_HOT(tracer) && LM_HOT(clock) && LM_HOT(address) &&
              LM_HOT(running));
static_assert(LM_HOT_IN(config, MeshConfig, require_link_quality));
static_assert(LM_HOT_IN(config, MeshConfig, min_snr_margin_db));

#undef LM_HOT
#undef LM_HOT_IN
#pragma GCC diagnostic pop

}  // namespace

LayerContext::LayerContext(sim::Simulator& loop, Address self,
                           MeshConfig node_config, Rng stream)
    : sim(loop),
      address(self),
      config(std::move(node_config)),
      rng(std::move(stream)) {}

const void* LayerContext::receive_hot_lines() const {
  return reinterpret_cast<const char*>(this) + kHotLine * kLine;
}

void LayerContext::emit_packet(trace::EventKind kind, const Packet& packet,
                               trace::DropReason reason, std::int64_t aux_us,
                               double value) {
  const LinkHeader& link = link_of(packet);
  trace::TraceEvent e{.kind = kind,
                      .reason = reason,
                      .packet_type = static_cast<std::uint8_t>(type_of(packet)),
                      .origin = link.src,  // routing beacons carry no route header
                      .via = link.dst,
                      .bytes = static_cast<std::uint32_t>(encoded_size(packet)),
                      .aux_us = aux_us,
                      .value = value};
  if (const RouteHeader* route = route_of(packet)) {
    e.origin = route->origin;
    e.final_dst = route->final_dst;
    e.hops = route->hops;
    e.ttl = route->ttl;
    e.packet_id = route->packet_id;
  }
  emit(e);
}

void LayerContext::emit(trace::TraceEvent e) {
  e.t_us = sim.now().us();
  e.node = address;
  tracer->emit(e);
}

}  // namespace lm::net
