#include "net/mesh_node.h"

#include <algorithm>
#include <utility>
#include <variant>

#include "net/distance_vector_strategy.h"
#include "support/assert.h"

namespace lm::net {

// No hot-line assert sees the node's size: one more 64-byte line costs the
// 4,900-node city field 0.3 MB of peak RSS. Grow it only on purpose: the
// node is 25 lines (GCC, x86-64), so any member that adds a line fails here.
static_assert(sizeof(MeshNode) <= 1600);

namespace {

// Contract checks run before any layer construction (the link layer's dwell
// fit assumes a sane config).
MeshConfig validated(const MeshConfig& config, Address address) {
  LM_REQUIRE(address != kUnassigned && address != kBroadcast);
  LM_REQUIRE(config.hello_interval > Duration::zero());
  LM_REQUIRE(config.maintenance_interval > Duration::zero());
  LM_REQUIRE(config.route_timeout_intervals >= 2);
  LM_REQUIRE(config.rx_duty > 0.0 && config.rx_duty <= 1.0);
  LM_REQUIRE(config.rx_cycle_period > Duration::zero());
  return config;
}

std::unique_ptr<RoutingStrategy> default_strategy(
    std::unique_ptr<RoutingStrategy> strategy) {
  if (strategy != nullptr) return strategy;
  return std::make_unique<DistanceVectorStrategy>();
}

}  // namespace

MeshNode::MeshNode(sim::Simulator& sim, radio::Radio& radio, Address address,
                   MeshConfig config, std::uint64_t seed,
                   std::unique_ptr<RoutingStrategy> strategy)
    : radio_(radio),
      ctx_(sim, address, validated(config, address), Rng(seed)),
      // The callbacks bind member functions of this facade: FunctionRef is
      // non-owning, so the targets must outlive the layers — which they do,
      // because the facade owns every layer below.
      link_(ctx_, radio,
            LinkLayer::Callbacks{
                decltype(LinkLayer::Callbacks::on_packet)::bind<
                    &MeshNode::on_link_packet>(*this),
                decltype(LinkLayer::Callbacks::resolve_next_hop)::bind<
                    &MeshNode::resolve_next_hop_cb>(*this),
                decltype(LinkLayer::Callbacks::on_sent)::bind<
                    &MeshNode::on_link_sent>(*this),
                decltype(LinkLayer::Callbacks::on_dropped)::bind<
                    &MeshNode::on_link_dropped>(*this)}),
      network_(ctx_, link_, default_strategy(std::move(strategy)),
               RoutingStrategy::DeliverFn::bind<&MeshNode::deliver>(*this)),
      transport_(ctx_, link_, network_,
                 TransportLayer::Delivery{
                     decltype(TransportLayer::Delivery::datagram)::bind<
                         &MeshNode::deliver_acked_datagram>(*this),
                     decltype(TransportLayer::Delivery::reliable)::bind<
                         &MeshNode::deliver_reliable>(*this)}) {
  // The oscillator is part of the validated config; an identity profile
  // (the default) makes every local-clock conversion bit-exact passthrough.
  ctx_.clock = sim::NodeClock(ctx_.config.clock);
  register_receive_hint();
}

void MeshNode::register_receive_hint() {
  // What a delivered beacon touches above the link layer, for the channel
  // to prefetch (radio_types.h).
  link_.set_receive_hint_above({ctx_.receive_hot_lines(), &network_,
                                &network_.strategy(),
                                network_.table().memo_storage()});
}

std::optional<Address> MeshNode::resolve_next_hop_cb(const RouteHeader& route) {
  return network_.resolve_next_hop(route);
}

void MeshNode::on_link_packet(const Packet& packet) {
  network_.on_packet(packet);
  // A node that hears more neighbours than the memo list reserved room for
  // moves the list; the hint follows it.
  if (link_.receive_hint().back() != network_.table().memo_storage()) {
    register_receive_hint();
  }
}

void MeshNode::on_link_sent(const Packet& packet) {
  transport_.notify_fragment_progress(packet);
  transport_.gc_sessions();
}

void MeshNode::on_link_dropped(const Packet& packet) {
  transport_.notify_fragment_progress(packet);
}

void MeshNode::deliver_acked_datagram(Address origin,
                                      std::span<const std::uint8_t> payload,
                                      std::uint8_t hops) {
  if (!datagram_handler_) return;
  handler_payload_.assign(payload.begin(), payload.end());
  datagram_handler_(origin, handler_payload_, hops);
}

void MeshNode::deliver_reliable(Address origin,
                                std::vector<std::uint8_t> payload) {
  if (reliable_handler_) reliable_handler_(origin, std::move(payload));
}

MeshNode::~MeshNode() {
  if (maintenance_timer_ != 0) ctx_.sim.cancel(maintenance_timer_);
}

// --- Lifecycle ----------------------------------------------------------------

void MeshNode::start() {
  LM_REQUIRE(!ctx_.running);
  ctx_.running = true;
  link_.enter_receive();
  network_.start();
  maintenance_anchor_ = ctx_.true_now();
  maintenance_period_ = ctx_.clock.to_true(ctx_.config.maintenance_interval);
  arm_maintenance(next_maintenance_tick(0));
  link_.schedule_rx_cycle();
  ctx_.trace_lifecycle(trace::EventKind::NodeUp);
}

void MeshNode::stop() {
  if (!ctx_.running) return;
  ctx_.running = false;
  ctx_.trace_lifecycle(trace::EventKind::NodeDown);
  network_.stop();
  if (maintenance_timer_ != 0) {
    ctx_.sim.cancel(maintenance_timer_);
    maintenance_timer_ = 0;
  }
  link_.cancel_timers();
  link_.clear_queues();
  transport_.shutdown();
  link_.settle_radio();
}

// --- Maintenance ------------------------------------------------------------------
//
// Maintenance ticks sit on a fixed true-time grid, anchor + k * period, where
// the period is one maintenance_interval of the node's local clock. Only the
// next tick that can have work is armed: a tick whose local reading is below
// the routing table's deadline bound finds expire() a no-op, and with no
// session held gc_sessions() has nothing to reap, so such a tick would draw
// no randomness, emit no trace and change no state. Skipping it leaves every
// expiry and every session sweep on the microsecond it always had.

TimePoint MeshNode::maintenance_tick_time(std::int64_t tick) const {
  return maintenance_anchor_ + maintenance_period_ * tick;
}

std::int64_t MeshNode::next_maintenance_tick(std::int64_t after) const {
  const std::int64_t next = after + 1;
  const RoutingTable& table = network_.table();
  if (table.size() == 0 || transport_.has_sessions()) return next;
  // First tick whose local reading reaches the deadline bound: estimate the
  // index through the clock's inverse rate, then step to the exact tick
  // (rounding in the conversions can leave the estimate one off).
  const TimePoint deadline = table.next_expiry();
  const auto reaches = [&](std::int64_t k) {
    return ctx_.clock.to_local(maintenance_tick_time(k)) >= deadline;
  };
  const std::int64_t span_us =
      ctx_.clock.to_true(deadline - ctx_.clock.to_local(maintenance_anchor_))
          .us();
  const std::int64_t period_us = maintenance_period_.us();
  std::int64_t k = span_us <= 0 ? next : (span_us + period_us - 1) / period_us;
  k = std::max(k, next);
  while (k > next && reaches(k - 1)) --k;
  while (!reaches(k)) ++k;
  return k;
}

void MeshNode::arm_maintenance(std::int64_t tick) {
  maintenance_tick_ = tick;
  maintenance_timer_ =
      ctx_.schedule_at_true(maintenance_tick_time(tick), [this] {
        maintenance_timer_ = 0;
        if (!ctx_.running) return;
        network_.table().expire(ctx_.local_now());
        transport_.gc_sessions();
        arm_maintenance(next_maintenance_tick(maintenance_tick_));
      });
}

void MeshNode::rearm_maintenance_for_sessions() {
  if (maintenance_timer_ == 0 || !transport_.has_sessions()) return;
  // Sessions are swept on every tick: pull the armed tick in to the first
  // one after now. (A skipped tick at exactly now would have found the new
  // session fresh, so it has nothing to do either.)
  const std::int64_t due =
      (ctx_.true_now() - maintenance_anchor_).us() / maintenance_period_.us() +
      1;
  if (due >= maintenance_tick_) return;
  ctx_.sim.cancel(maintenance_timer_);
  arm_maintenance(due);
}

void MeshNode::set_tracer(trace::Tracer* tracer) {
  ctx_.tracer = tracer;
  if (tracer == nullptr) {
    network_.table().set_observer(nullptr);
    return;
  }
  network_.table().set_observer([this](const RouteEntry& entry) {
    ctx_.trace_route_add(entry.destination, entry.via, entry.metric);
  });
}

// --- Application API ------------------------------------------------------------

RouteHeader MeshNode::make_route(Address final_dst) {
  return network_.make_route(final_dst);
}

bool MeshNode::send_datagram(Address destination,
                             std::vector<std::uint8_t> payload,
                             trace::DropReason* why) {
  return network_.send_datagram(destination, std::move(payload), why);
}

bool MeshNode::send_broadcast(std::vector<std::uint8_t> payload,
                              trace::DropReason* why) {
  return network_.send_broadcast(std::move(payload), why);
}

bool MeshNode::send_acked(Address destination, std::vector<std::uint8_t> payload,
                          SendCallback done, trace::DropReason* why) {
  return transport_.send_acked(destination, std::move(payload), std::move(done),
                               why);
}

bool MeshNode::send_reliable(Address destination,
                             std::vector<std::uint8_t> payload,
                             SendCallback done, trace::DropReason* why) {
  const bool started = transport_.send_reliable(
      destination, std::move(payload), std::move(done), why);
  rearm_maintenance_for_sessions();
  return started;
}

// --- PacketSink -------------------------------------------------------------------

void MeshNode::submit_control(Packet packet) {
  transport_.submit_control(std::move(packet));
}

void MeshNode::submit_data(Packet packet) {
  transport_.submit_data(std::move(packet));
}

// --- Delivery dispatch ------------------------------------------------------------

void MeshNode::deliver(Packet packet) {
  if (const auto* data = std::get_if<DataPacket>(&packet)) {
    if (data->route.final_dst == kBroadcast) {
      ctx_.stats.broadcasts_delivered++;
      ctx_.trace_packet(trace::EventKind::Deliver, packet);
      if (broadcast_handler_) {
        handler_payload_.assign(data->payload.begin(), data->payload.end());
        broadcast_handler_(data->route.origin, handler_payload_);
      }
    } else {
      ctx_.stats.datagrams_delivered++;
      ctx_.trace_packet(trace::EventKind::Deliver, packet);
      if (datagram_handler_) {
        handler_payload_.assign(data->payload.begin(), data->payload.end());
        // route.hops counts forwards; the app sees links traversed.
        datagram_handler_(data->route.origin, handler_payload_,
                          static_cast<std::uint8_t>(data->route.hops + 1));
      }
    }
    return;
  }
  transport_.on_deliver(std::move(packet));
  rearm_maintenance_for_sessions();  // a SYNC may have opened a session
}

}  // namespace lm::net
