#include "net/link_layer.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <limits>
#include <unordered_map>

#include "phy/airtime.h"
#include "support/assert.h"
#include "support/log.h"

namespace lm::net {

namespace {
constexpr const char* kTag = "mesh";

// Neighbours whose SNR entries fit the table's first block: the eight
// grid neighbours of a dense field.
constexpr std::size_t kSnrReserve = 8;
// EWMA weight of each new SNR sample.
constexpr double kSnrEwmaAlpha = 0.25;

bool is_node(Address a) { return a != kUnassigned && a != kBroadcast; }

// Whether the link source and, for a routed packet, the route origin are
// node addresses.
bool names_nodes(const Packet& packet) {
  const RouteHeader* route = route_of(packet);
  return is_node(link_of(packet).src) &&
         (route == nullptr || is_node(route->origin));
}

// Content ids are drawn from one process-wide counter, so an id names a
// single entry list on every thread, PDES worker and ParallelRunner job.
std::atomic<std::uint64_t> next_content_id{1};

struct DecodeMemo {
  // The cached packet holds pooled blocks; touching the pool first makes
  // this thread's pool outlive the memo.
  DecodeMemo() { (void)support::BlockPool::stats(); }

  bool valid = false;
  FrameBuffer frame;
  std::optional<Packet> packet;
  // Each sender's last advertised entry list, stored inline, and its id.
  struct Interned {
    std::uint32_t id = 0;
    std::uint8_t count = 0;
    std::array<RoutingEntry, kMaxRoutingEntries> entries;
  };
  std::unordered_map<Address, Interned> beacons;
};

DecodeMemo& decode_memo() {
  static thread_local DecodeMemo memo;
  return memo;
}

std::uint32_t intern(DecodeMemo& memo, const RoutingPacket& beacon) {
  if (beacon.entries.size() > kMaxRoutingEntries) return 0;
  DecodeMemo::Interned& slot = memo.beacons[beacon.link.src];
  const auto held = std::span(slot.entries).first(slot.count);
  if (slot.id == 0 || !std::ranges::equal(held, beacon.entries)) {
    slot.id = draw_content_id();
    slot.count = static_cast<std::uint8_t>(beacon.entries.size());
    std::ranges::copy(beacon.entries, slot.entries.begin());
  }
  return slot.id;
}

}  // namespace

std::uint32_t draw_content_id() {
  const std::uint64_t id = next_content_id.fetch_add(1, std::memory_order_relaxed);
  return id <= std::numeric_limits<std::uint32_t>::max()
             ? static_cast<std::uint32_t>(id)
             : 0;
}

const Packet* decode_shared(std::span<const std::uint8_t> frame) {
  DecodeMemo& memo = decode_memo();
  if (!memo.valid || !std::ranges::equal(frame, memo.frame)) {
    memo.packet = decode(frame);
    memo.frame.assign(frame.begin(), frame.end());
    memo.valid = true;
    if (memo.packet) {
      if (auto* beacon = std::get_if<RoutingPacket>(&*memo.packet)) {
        beacon->content_id = intern(memo, *beacon);
      }
    }
  }
  return memo.packet ? &*memo.packet : nullptr;
}

LinkLayer::LinkLayer(LayerContext& ctx, radio::Radio& radio,
                     Callbacks callbacks)
    : ctx_(ctx),
      radio_(radio),
      callbacks_(std::move(callbacks)),
      duty_(ctx.config.duty_cycle_limit, ctx.config.duty_cycle_window) {
  // A member edit must not spread the receive path over another line.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
  constexpr std::size_t kLine = 64;
  static_assert(offsetof(LinkLayer, ctx_) + sizeof(void*) <= kLine);
  static_assert(offsetof(LinkLayer, callbacks_) + offsetof(Callbacks, on_packet) +
                    sizeof(Callbacks::on_packet) <= 2 * kLine);
#pragma GCC diagnostic pop
  neighbor_snr_margin_.reserve(kSnrReserve);
  // US915-style dwell rule: cap the frame size so every transmission fits
  // (reliable transfers size their fragments from it).
  max_frame_bytes_ = phy::kMaxPhyPayload;
  if (ctx_.config.max_dwell_time > Duration::zero()) {
    std::size_t fit = 0;
    for (std::size_t bytes = phy::kMaxPhyPayload;; --bytes) {
      if (phy::time_on_air(radio_.modulation(), bytes) <=
          ctx_.config.max_dwell_time) {
        fit = bytes;
        break;
      }
      if (bytes == 0) break;
    }
    LM_REQUIRE(fit >= kLinkHeaderSize + kRouteHeaderSize + 4 &&
               "max_dwell_time leaves no usable frame at this modulation");
    max_frame_bytes_ = fit;
  }
  radio_.set_listener(this);
}

void LinkLayer::set_receive_hint_above(
    const std::array<const void*, kHintSpansAbove>& above) {
  ReceiveHint hint{};
  hint[0] = reinterpret_cast<const char*>(this) + 64;  // radio_ .. on_packet
  hint[1] = neighbor_snr_margin_.data();
  std::ranges::copy(above, hint.begin() + 2);
  set_receive_hint(hint);
}

LinkLayer::~LinkLayer() {
  if (pipeline_timer_ != 0) ctx_.sim.cancel(pipeline_timer_);
  if (rx_cycle_timer_ != 0) ctx_.sim.cancel(rx_cycle_timer_);
  radio_.set_listener(nullptr);
}

// --- Lifecycle ----------------------------------------------------------------

void LinkLayer::enter_receive() {
  rx_window_open_ = true;
  radio_.start_receive();
}

void LinkLayer::resume_radio() {
  // After TX/CAD/drops, return to whatever the receiver schedule says:
  // listening, or (in a sleep window of duty-cycled listening) sleeping.
  if (!ctx_.running) return;
  if (rx_window_open_) {
    if (radio_.state() == radio::RadioState::Standby ||
        radio_.state() == radio::RadioState::Sleep) {
      radio_.start_receive();
    }
  } else if (radio_.state() == radio::RadioState::Standby ||
             radio_.state() == radio::RadioState::Rx) {
    radio_.sleep();
  }
}

void LinkLayer::schedule_rx_cycle() {
  if (ctx_.config.rx_duty >= 1.0) return;
  const Duration on = ctx_.config.rx_cycle_period * ctx_.config.rx_duty;
  const Duration off = ctx_.config.rx_cycle_period - on;
  const Duration next = rx_window_open_ ? on : off;
  rx_cycle_timer_ = ctx_.schedule_local(next, [this] {
    rx_cycle_timer_ = 0;
    if (!ctx_.running) return;
    rx_window_open_ = !rx_window_open_;
    // Never interrupt an active TX/CAD; resume_radio applies the schedule
    // when they complete.
    if (tx_phase_ == TxPhase::Idle || tx_phase_ == TxPhase::Backoff ||
        tx_phase_ == TxPhase::WaitingDuty) {
      resume_radio();
    }
    schedule_rx_cycle();
  });
}

void LinkLayer::cancel_timers() {
  for (sim::TimerId* t : {&pipeline_timer_, &rx_cycle_timer_}) {
    if (*t != 0) {
      ctx_.sim.cancel(*t);
      *t = 0;
    }
  }
}

void LinkLayer::clear_queues() {
  control_queue_.clear();
  data_queue_.clear();
}

void LinkLayer::settle_radio() {
  if (tx_phase_ != TxPhase::Transmitting) {
    current_.reset();
    tx_phase_ = TxPhase::Idle;
  }
  // Mid-TX and mid-CAD radios settle in on_tx_done / on_cad_done.
  const radio::RadioState s = radio_.state();
  if (s == radio::RadioState::Rx || s == radio::RadioState::Standby) {
    radio_.sleep();
  }
}

// --- TX pipeline ------------------------------------------------------------------

bool LinkLayer::enqueue(Packet packet, bool control) {
  if (!ctx_.running) return false;
  support::SlidingQueue<Packet>& queue = control ? control_queue_ : data_queue_;
  if (queue.size() >= ctx_.config.max_queue) {
    ctx_.stats.dropped_queue_full++;
    ctx_.trace_packet(trace::EventKind::QueueDrop, packet,
                      trace::DropReason::QueueFull);
    callbacks_.on_dropped(packet);
    return false;
  }
  ctx_.trace_packet(trace::EventKind::Enqueue, packet);
  queue.push_back(std::move(packet));
  pump();
  return true;
}

void LinkLayer::pump() {
  if (!ctx_.running || tx_phase_ != TxPhase::Idle) return;
  if (!current_) {
    if (!control_queue_.empty()) {
      current_ = Outgoing{std::move(control_queue_.front()), 0};
      control_queue_.pop_front();
    } else if (!data_queue_.empty()) {
      current_ = Outgoing{std::move(data_queue_.front()), 0};
      data_queue_.pop_front();
    } else {
      return;
    }
  }
  if (current_->airtime.us() == 0) {
    current_->airtime = phy::time_on_air(radio_.modulation(),
                                         encoded_size(current_->packet));
  }
  const Duration airtime = current_->airtime;
  const TimePoint now = ctx_.true_now();
  if (!duty_.allowed(now, airtime)) {
    ctx_.stats.duty_cycle_delays++;
    tx_phase_ = TxPhase::WaitingDuty;
    const TimePoint when = duty_.next_allowed(now, airtime);
    ctx_.trace_packet(trace::EventKind::DutyDefer, current_->packet,
                      trace::DropReason::None, (when - now).us(),
                      duty_.utilization(now));
    pipeline_timer_ = ctx_.schedule_at_true(when, [this] {
      pipeline_timer_ = 0;
      tx_phase_ = TxPhase::Idle;
      pump();
    });
    return;
  }
  if (radio_.state() == radio::RadioState::Sleep) radio_.standby();
  if (ctx_.config.use_cad) {
    // Soft carrier sense first: if a frame is already inbound, starting CAD
    // would abort its reception (the SX127x cannot CAD and receive at
    // once). Back off without leaving Rx instead.
    if (radio_.medium_busy()) {
      channel_busy_backoff();
      return;
    }
    tx_phase_ = TxPhase::Cad;
    const bool started = radio_.start_cad();
    LM_ASSERT(started);
  } else {
    transmit_now();
  }
}

void LinkLayer::channel_busy_backoff() {
  LM_ASSERT(current_.has_value());
  ctx_.stats.cad_busy_events++;
  current_->cad_attempts++;
  ctx_.trace_packet(trace::EventKind::CadBusy, current_->packet,
                    trace::DropReason::None, current_->cad_attempts);
  if (current_->cad_attempts > ctx_.config.max_cad_retries) {
    // The channel never cleared; transmitting anyway beats starving, and the
    // capture effect may still save one of the colliding frames.
    ctx_.stats.forced_transmissions++;
    ctx_.trace_packet(trace::EventKind::ForcedTx, current_->packet);
    transmit_now();
    return;
  }
  tx_phase_ = TxPhase::Backoff;
  resume_radio();  // keep listening (schedule permitting) while backing off
  const int exponent = std::min(current_->cad_attempts, 6);
  Duration window = ctx_.config.backoff_base * (std::int64_t{1} << exponent);
  if (window > ctx_.config.backoff_max) window = ctx_.config.backoff_max;
  const Duration delay = Duration::from_seconds(
      ctx_.rng.uniform(0.0, std::max(window.seconds_d(), 1e-4)));
  pipeline_timer_ = ctx_.schedule_local(delay, [this] {
    pipeline_timer_ = 0;
    tx_phase_ = TxPhase::Idle;
    pump();
  });
}

void LinkLayer::on_cad_done(bool channel_active) {
  if (!ctx_.running) {
    radio_.sleep();
    return;
  }
  LM_ASSERT(tx_phase_ == TxPhase::Cad);
  LM_ASSERT(current_.has_value());
  if (!channel_active) {
    transmit_now();
    return;
  }
  channel_busy_backoff();
}

void LinkLayer::transmit_now() {
  LM_ASSERT(current_.has_value());
  Packet& packet = current_->packet;
  LinkHeader& link = link_of(packet);
  if (link.dst == kUnassigned) {
    // Late next-hop resolution: routes may have changed while queued.
    const RouteHeader* route = route_of(packet);
    LM_ASSERT(route != nullptr);
    const auto next = callbacks_.resolve_next_hop(*route);
    if (!next) {
      ctx_.stats.dropped_no_route++;
      ctx_.trace_packet(trace::EventKind::Drop, packet,
                        trace::DropReason::NoRoute);
      callbacks_.on_dropped(packet);
      current_.reset();
      tx_phase_ = TxPhase::Idle;
      resume_radio();
      pump();
      return;
    }
    link.dst = *next;
  }
  // A beacon repeats while its entries do, and equal non-zero ids mean
  // equal entries: the frame of its last send is still its encoding unless
  // another frame was encoded since.
  const auto* beacon = std::get_if<RoutingPacket>(&packet);
  const std::uint32_t beacon_id = beacon != nullptr ? beacon->content_id : 0;
  if (beacon_id == 0 || beacon_id != tx_frame_beacon_ ||
      decode_link(tx_frame_) != link) {
    encode_into(packet, tx_frame_);  // reused pooled buffer: no allocation
    tx_frame_beacon_ = beacon_id;
  }
  // pump() cached the airtime before admitting the packet (encoded_size ==
  // the encoded frame size by codec contract); recompute only if somehow
  // unset.
  const Duration airtime =
      current_->airtime.us() != 0
          ? current_->airtime
          : phy::time_on_air(radio_.modulation(), tx_frame_.size());
  if (is_control_plane(packet)) {
    ctx_.stats.control_bytes_sent += tx_frame_.size();
    ctx_.stats.control_airtime += airtime;
  } else {
    ctx_.stats.data_bytes_sent += tx_frame_.size();
    ctx_.stats.data_airtime += airtime;
    if (std::holds_alternative<FragmentPacket>(packet)) {
      ctx_.stats.fragments_sent++;
    }
  }
  duty_.record(ctx_.true_now(), airtime);
  tx_phase_ = TxPhase::Transmitting;
  if (Logger::instance().enabled(LogLevel::Trace)) {
    LM_TRACE(kTag, "%s tx %s", to_string(ctx_.address).c_str(),
             describe(packet).c_str());
  }
  // MeshTx must directly precede the radio handoff: the channel emits
  // TxStart at the same timestamp, and the analyzer pairs the two adjacent
  // events to map tx_seq onto the packet identity.
  ctx_.trace_packet(trace::EventKind::MeshTx, packet,
                    trace::DropReason::None, airtime.us());
  const bool started = radio_.transmit(tx_frame_);
  LM_ASSERT(started);
}

void LinkLayer::on_tx_done() {
  LM_ASSERT(tx_phase_ == TxPhase::Transmitting);
  LM_ASSERT(current_.has_value());
  tx_phase_ = TxPhase::Idle;
  const Outgoing sent = std::move(*current_);
  current_.reset();
  if (!ctx_.running) {
    radio_.sleep();
    return;
  }
  resume_radio();
  callbacks_.on_sent(sent.packet);
  pump();
}

// --- RX pipeline -------------------------------------------------------------------

std::optional<double> LinkLayer::snr_margin_db(Address neighbor) const {
  const auto it = neighbor_snr_margin_.find(neighbor);
  if (it == neighbor_snr_margin_.end()) return std::nullopt;
  return it->second;
}

void LinkLayer::on_frame_received(std::span<const std::uint8_t> frame,
                                  const radio::FrameMeta& meta) {
  if (!ctx_.running) return;
  const Packet* decoded = decode_shared(frame);
  // No node sends from, or originates a route at, the broadcast or
  // unassigned address: such a frame is crafted, and must not reach a
  // routing table as a neighbor or a destination.
  if (decoded == nullptr || !names_nodes(*decoded)) {
    ctx_.stats.malformed_frames++;
    ctx_.trace_malformed(frame.size());
    return;
  }
  const LinkHeader& link = link_of(*decoded);
  if (link.src == ctx_.address) return;  // own echo; cannot happen on real radios

  // Smoothed per-neighbor link quality, fed by every frame we decode from
  // them (the receive-side SNR the SX127x reports per packet).
  const double margin = meta.snr_db - phy::snr_floor_db(radio_.modulation().sf);
  const auto it = neighbor_snr_margin_.find(link.src);
  if (it == neighbor_snr_margin_.end()) {
    neighbor_snr_margin_.try_emplace(link.src, margin);
    if (receive_hint()[1] != neighbor_snr_margin_.data()) {
      ReceiveHint hint = receive_hint();  // the entries moved
      hint[1] = neighbor_snr_margin_.data();
      set_receive_hint(hint);
    }
  } else {
    it->second += kSnrEwmaAlpha * (margin - it->second);
  }
  if (link.dst != ctx_.address && link.dst != kBroadcast) {
    ctx_.stats.foreign_frames++;  // overheard unicast addressed elsewhere
    return;
  }
  if (Logger::instance().enabled(LogLevel::Trace)) {
    LM_TRACE(kTag, "%s rx %s", to_string(ctx_.address).c_str(),
             describe(*decoded).c_str());
  }
  ctx_.trace_packet(trace::EventKind::RxFrame, *decoded,
                    trace::DropReason::None, 0, meta.snr_db);
  callbacks_.on_packet(*decoded);
}

}  // namespace lm::net
