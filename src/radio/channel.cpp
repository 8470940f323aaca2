#include "radio/channel.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "phy/airtime.h"
#include "phy/reception.h"
#include "radio/virtual_radio.h"
#include "support/assert.h"
#include "support/log.h"

namespace lm::radio {

namespace {

std::pair<RadioId, RadioId> link_key(RadioId a, RadioId b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Stream tags keeping shadowing and fading draws on disjoint substreams.
constexpr std::uint64_t kShadowingTag = 0x5AD0'00D1;
constexpr std::uint64_t kFadingTag = 0xFAD3'00D2;

// Shadowing/fading samples are clamped to ±4 sigma. This bounds the
// strongest possible stochastic boost, which is what lets the spatial index
// derive a hard maximum decodable range (P(|z| > 4) ~ 6e-5 of the
// distribution is folded onto the clamp — far below every other modeling
// error in a log-normal channel).
constexpr double kSigmaClamp = 4.0;

}  // namespace

PropagationConfig PropagationConfig::campus() {
  PropagationConfig c;
  c.path_loss = phy::make_log_distance(3.0, 40.0);
  c.shadowing_sigma_db = 3.0;
  c.fading_sigma_db = 1.5;
  return c;
}

PropagationConfig PropagationConfig::free_space() {
  PropagationConfig c;
  c.path_loss = phy::make_free_space();
  c.shadowing_sigma_db = 0.0;
  c.fading_sigma_db = 0.0;
  return c;
}

PropagationConfig PropagationConfig::ideal() { return free_space(); }

Channel::Channel(sim::Simulator& sim, PropagationConfig config,
                 std::uint64_t seed)
    : Channel(sim, std::move(config), ChannelConfig{}, seed) {}

Channel::Channel(sim::Simulator& sim, PropagationConfig config,
                 ChannelConfig policy, std::uint64_t seed)
    : Channel(sim, std::move(config), policy, seed, seed) {}

Channel::Channel(sim::Simulator& sim, PropagationConfig config,
                 ChannelConfig policy, std::uint64_t seed,
                 std::uint64_t draw_seed)
    : sim_(sim),
      config_(std::move(config)),
      policy_(policy),
      seed_(seed),
      rng_(draw_seed) {
  LM_REQUIRE(config_.path_loss != nullptr);
  LM_REQUIRE(config_.shadowing_sigma_db >= 0.0);
  LM_REQUIRE(config_.fading_sigma_db >= 0.0);
  LM_REQUIRE(policy_.cell_size_m >= 0.0);
}

Channel::~Channel() = default;

void Channel::register_radio(VirtualRadio& radio) {
  LM_REQUIRE(!by_id_.contains(radio.id()));
  radio.channel_ordinal_ = static_cast<std::uint32_t>(next_ordinal_++);
  radios_.push_back({radio.channel_ordinal_, &radio});
  by_id_.emplace(radio.id(), &radio);
  max_radio_eirp_dbm_ =
      std::max(max_radio_eirp_dbm_,
               radio.config().tx_power_dbm + radio.config().antenna_gain_db);
  max_rx_gain_db_ = std::max(max_rx_gain_db_, radio.config().antenna_gain_db);
  min_mod_sensitivity_dbm_ = std::min(
      min_mod_sensitivity_dbm_,
      phy::sensitivity_dbm(radio.modulation().sf, radio.modulation().bw));
  if (grids_ready_) radio_grid_.insert(&radio, radio.position());
  ++radio_epoch_;
}

void Channel::unregister_radio(VirtualRadio& radio) {
  const auto it = std::ranges::lower_bound(radios_, radio.channel_ordinal(), {},
                                           &Registered::ordinal);
  if (it != radios_.end() && it->radio == &radio) {
    it->radio = nullptr;
    if (++dead_radios_ * 2 > radios_.size()) {
      std::erase_if(radios_, [](const Registered& r) { return r.radio == nullptr; });
      dead_radios_ = 0;
    }
  }
  if (by_id_.erase(radio.id()) > 0 && grids_ready_) {
    radio_grid_.remove(&radio, radio.position());
  }
  if (radio.channel_ordinal() < link_tables_.size()) {
    link_tables_[radio.channel_ordinal()] = LinkTable{};
  }
  ++radio_epoch_;
}

void Channel::radio_moved(VirtualRadio& radio, const phy::Position& old_position) {
  ++position_changes_;
  ++radio_epoch_;
  if (grids_ready_) radio_grid_.move(&radio, old_position, radio.position());
}

double Channel::derive_cell_size_m() const {
  // The widest query any frame can issue: the interference-relevance radius
  // for the strongest registered transmitter against the most sensitive
  // modulation in play, with every stochastic term at its clamp and the
  // 6 dB co-SF capture allowance. Half of it balances bucket occupancy
  // against the number of cells a query touches.
  const double margin_db = kSigmaClamp * (config_.shadowing_sigma_db +
                                          config_.fading_sigma_db);
  const double budget_db = max_radio_eirp_dbm_ + max_rx_gain_db_ + margin_db -
                           (min_mod_sensitivity_dbm_ - 6.0);
  const double range = config_.path_loss->max_range_m(budget_db);
  return std::max(range / 2.0, 1.0);
}

void Channel::ensure_grids() const {
  if (!policy_.spatial_index || grids_ready_) return;
  const double cell =
      policy_.cell_size_m > 0.0 ? policy_.cell_size_m : derive_cell_size_m();
  radio_grid_.reset(cell);
  for (const Registered& r : radios_) {
    if (r.radio != nullptr) radio_grid_.insert(r.radio, r.radio->position());
  }
  // Transmissions are few (those on the air or recently ended) while every
  // sweep over them spans decode plus interference range, so at the
  // receivers' cell nearly every probed cell is empty. Twice the edge
  // probes about a third as many cells per sweep; queries stay
  // conservative and their callers are order-free existence checks, so
  // outcomes are exact.
  tx_grid_.reset(2.0 * cell);
  for (Transmission* t : active_) tx_grid_.insert(t, t->tx_pos);
  grids_ready_ = true;
}

double Channel::decode_radius_m(const Transmission& t) const {
  const double margin_db = kSigmaClamp * (config_.shadowing_sigma_db +
                                          config_.fading_sigma_db);
  const double budget_db = t.tx_power_dbm + t.antenna_gain_db +
                           max_rx_gain_db_ + margin_db -
                           phy::sensitivity_dbm(t.mod.sf, t.mod.bw);
  return cached_max_range_m(budget_db);
}

double Channel::interference_budget_db(double rx_gain_db, double rssi_dbm,
                                       phy::SpreadingFactor sf) const {
  // The budget varies with the (fading-dependent) rssi, so memoizing the
  // range exactly would never hit. Rounding it up to the next whole dB keeps
  // the key set tiny and only ever *enlarges* the search radius: the extra
  // ring holds transmissions that provably fail the SIR test, and the
  // collision probe is an existence check with derived (order-free) RNG,
  // no stats and no trace per candidate — so the outcome is unchanged.
  const double floor_dbm = rssi_dbm - phy::max_sir_threshold_db(sf);
  const double margin_db = kSigmaClamp * (config_.shadowing_sigma_db +
                                          config_.fading_sigma_db);
  return std::ceil(max_radio_eirp_dbm_ + rx_gain_db + margin_db - floor_dbm);
}

TimePoint Channel::vulnerable_start(const Transmission& t) {
  const TimePoint from =
      t.start + phy::preamble_time(t.mod) - 5 * t.mod.symbol_time();
  return from < t.start ? t.start : from;
}

void Channel::collect_interferers(const Transmission& t, double decode_radius) {
  // A receiver only reaches the collision test when the frame decodes above
  // sensitivity there, so it lies inside decode_radius_m(t); the widest
  // noise-relevance radius any such receiver can ask for takes the most
  // sensitive case (rssi at sensitivity, the largest antenna gain), and the
  // budget is monotone in both, rounded up the same way. By the triangle
  // inequality every transmission that can collide at any receiver is then
  // within the sum of the two radii of the transmitter. Frames a delivery
  // starts while the list is in use begin at t.end and cannot overlap.
  interferers_.clear();
  const double widest_m = cached_max_range_m(interference_budget_db(
      max_rx_gain_db_, phy::sensitivity_dbm(t.mod.sf, t.mod.bw), t.mod.sf));
  const TimePoint vulnerable_from = vulnerable_start(t);
  tx_grid_.for_each_within(
      t.tx_pos, decode_radius + widest_m, [&](Transmission* o) {
        if (o->seq != t.seq && o->frequency_hz == t.frequency_hz &&
            o->start < t.end && o->end > vulnerable_from) {
          interferers_.push_back(o);
        }
      });
}

double Channel::cached_max_range_m(double budget_db) const {
  // Exact-bit memoization: two budgets share an entry only when they are the
  // same double, so a hit returns precisely what the direct call would.
  // max_rx_gain_db_ growing on a later registration simply produces a new
  // budget value, i.e. a new key — no invalidation needed.
  const auto key = std::bit_cast<std::uint64_t>(budget_db);
  auto it = max_range_cache_.find(key);
  if (it == max_range_cache_.end()) {
    it = max_range_cache_
             .try_emplace(key, config_.path_loss->max_range_m(budget_db))
             .first;
  }
  return it->second;
}

double Channel::derived_normal_db(std::uint64_t tag, std::uint64_t a,
                                  std::uint64_t b, double sigma) const {
  if (sigma == 0.0) return 0.0;
  Rng stream(splitmix64(seed_ ^ splitmix64(tag ^ splitmix64(a ^ splitmix64(b)))));
  return std::clamp(stream.normal(0.0, sigma), -kSigmaClamp * sigma,
                    kSigmaClamp * sigma);
}

Channel::Transmission& Channel::acquire_transmission() {
  if (!spare_.empty()) {
    Transmission* t = spare_.back();
    spare_.pop_back();
    return *t;
  }
  return slab_.emplace_back();
}

void Channel::begin_tx(VirtualRadio& radio, std::span<const std::uint8_t> frame) {
  ensure_grids();
  Transmission& t = acquire_transmission();
  t.seq = next_seq_++;
  t.tx_id = radio.id();
  t.tx_ordinal = radio.channel_ordinal();
  t.tx_pos = radio.position();
  t.tx_power_dbm = radio.config().tx_power_dbm;
  t.antenna_gain_db = radio.config().antenna_gain_db;
  t.frequency_hz = radio.config().frequency_hz;
  t.mod = radio.modulation();
  t.start = sim_.now();
  const Duration airtime = phy::time_on_air(t.mod, frame.size());
  t.end = t.start + airtime;
  t.frame.assign(frame.begin(), frame.end());
  t.ended = false;
  t.ghost = false;  // the record may be a recycled ghost
  if (airtime > longest_airtime_) longest_airtime_ = airtime;
  stats_.frames_transmitted++;
  if (tracer_ != nullptr) {
    trace::TraceEvent e;
    e.t_us = t.start.us();
    e.node = t.tx_id;
    e.kind = trace::EventKind::TxStart;
    e.bytes = static_cast<std::uint32_t>(t.frame.size());
    e.tx_seq = t.seq;
    e.aux_us = airtime.us();
    tracer_->emit(e);
  }

  active_.push_back(&t);
  ++in_flight_n_;
  if (grids_ready_) tx_grid_.insert(&t, t.tx_pos);

  if (tx_observer_) {
    TxSnapshot s;
    s.seq = t.seq;
    s.tx_id = t.tx_id;
    s.tx_pos = t.tx_pos;
    s.tx_power_dbm = t.tx_power_dbm;
    s.antenna_gain_db = t.antenna_gain_db;
    s.frequency_hz = t.frequency_hz;
    s.mod = t.mod;
    s.frame = std::span<const std::uint8_t>(t.frame.data(), t.frame.size());
    s.start = t.start;
    s.end = t.end;
    tx_observer_(s);
  }

  // The slab address is stable and the record cannot be recycled before this
  // timer fires (recycling requires `ended`, which only this call sets), so
  // the end-of-frame event can carry the pointer instead of re-finding the
  // record by seq in active_.
  Transmission* tp = &t;
  sim_.schedule_at(t.end, [this, tp] { finish_tx(*tp); });
}

void Channel::inject_ghost(const TxSnapshot& snapshot) {
  LM_REQUIRE(snapshot.end >= sim_.now());
  ensure_grids();
  Transmission& t = acquire_transmission();
  t.seq = snapshot.seq;
  t.tx_id = snapshot.tx_id;
  // First ghost from this transmitter claims a fresh local ordinal so its
  // link table can never alias a registered radio's (the home-region
  // ordinal is meaningless here).
  auto [it, inserted] = foreign_ordinal_.try_emplace(snapshot.tx_id, 0);
  if (inserted) it->second = static_cast<std::uint32_t>(next_ordinal_++);
  t.tx_ordinal = it->second;
  t.tx_pos = snapshot.tx_pos;
  t.tx_power_dbm = snapshot.tx_power_dbm;
  t.antenna_gain_db = snapshot.antenna_gain_db;
  t.frequency_hz = snapshot.frequency_hz;
  t.mod = snapshot.mod;
  t.start = snapshot.start;
  t.end = snapshot.end;
  t.frame.assign(snapshot.frame.begin(), snapshot.frame.end());
  t.ended = false;
  t.ghost = true;
  const Duration airtime = t.end - t.start;
  if (airtime > longest_airtime_) longest_airtime_ = airtime;
  // A foreign transmitter may out-power every local radio; fold it into the
  // monotone maxima so interference-search radii stay conservative. (The
  // grid cell size, if already frozen, is a perf knob only.)
  max_radio_eirp_dbm_ =
      std::max(max_radio_eirp_dbm_, t.tx_power_dbm + t.antenna_gain_db);
  min_mod_sensitivity_dbm_ = std::min(
      min_mod_sensitivity_dbm_, phy::sensitivity_dbm(t.mod.sf, t.mod.bw));

  active_.push_back(&t);
  ++in_flight_n_;
  if (grids_ready_) tx_grid_.insert(&t, t.tx_pos);
  Transmission* tp = &t;
  sim_.schedule_at(t.end, [this, tp] { finish_tx(*tp); });
}

void Channel::set_seq_base(std::uint64_t base) {
  LM_REQUIRE(next_seq_ == 1);  // before any traffic
  next_seq_ = base + 1;
}

void Channel::finish_tx(Transmission& frame) {
  LM_ASSERT(!frame.ended);
  frame.ended = true;
  --in_flight_n_;
  // A ghost's TxEnd trace and transmitter callback belong to its home
  // region's channel; here the frame only exists to be received.
  if (tracer_ != nullptr && !frame.ghost) {
    trace::TraceEvent e;
    e.t_us = sim_.now().us();
    e.node = frame.tx_id;
    e.kind = trace::EventKind::TxEnd;
    e.bytes = static_cast<std::uint32_t>(frame.frame.size());
    e.tx_seq = frame.seq;
    tracer_->emit(e);
  }

  // Return the transmitter to Standby first so its stack can re-arm; a frame
  // it starts *now* cannot overlap the one that just ended.
  if (!frame.ghost) {
    if (const auto tx_it = by_id_.find(frame.tx_id); tx_it != by_id_.end()) {
      tx_it->second->finish_tx();
    }
  }

  if (policy_.spatial_index) {
    ensure_grids();
    // Every radio outside the link table lies beyond the provable maximum
    // decodable range; those are tallied in bulk. A destroyed transmitter
    // (or a ghost's, registered in another region) is no longer one of
    // the radios, so only a registered transmitter is subtracted.
    const std::size_t others_total =
        by_id_.size() - (by_id_.contains(frame.tx_id) ? 1 : 0);
    const double radius = decode_radius_m(frame);
    // Deliveries may trigger immediate responses that register, unregister
    // or move radios, so the sweep walks a copy of the table. After such a
    // change the copied losses may be stale, and the rest of the sweep
    // computes them directly.
    links_scratch_ = link_table(frame, radius).links;
    const std::uint64_t epoch = radio_epoch_;
    collect_interferers(frame, radius);
    // A frame's receivers sit all over the heap, and each one's state is
    // a few scattered lines. Warm them ahead of the evaluation in three
    // steps, each reading only what the previous step brought in: the
    // radio's hot line three receivers ahead, its listener's first line
    // two ahead, and the spans the listener registered one ahead.
    const std::size_t n = links_scratch_.size();
    for (std::size_t k = 0; k < std::min<std::size_t>(n, 3); ++k) {
      links_scratch_[k].rx->prefetch_hot_lines();
    }
    for (std::size_t k = 0; k < n; ++k) {
      if (k + 3 < n) links_scratch_[k + 3].rx->prefetch_hot_lines();
      if (k + 2 < n) links_scratch_[k + 2].rx->prefetch_listener();
      if (k + 1 < n) links_scratch_[k + 1].rx->prefetch_receive_hint();
      const Link& link = links_scratch_[k];
      evaluate_reception(frame, *link.rx,
                         radio_epoch_ == epoch
                             ? link.loss_db
                             : link_loss_db(frame.tx_pos, frame.tx_id, *link.rx));
    }
    const std::size_t culled = others_total - links_scratch_.size();
    stats_.dropped_out_of_range += culled;
    if (tracer_ != nullptr && culled > 0) {
      // Culled receivers are tallied in bulk, matching the stats counter:
      // one event, `bytes` carrying how many opportunities it covers.
      trace::TraceEvent e;
      e.t_us = sim_.now().us();
      e.kind = trace::EventKind::ChannelDrop;
      e.reason = trace::DropReason::OutOfRange;
      e.bytes = static_cast<std::uint32_t>(culled);
      e.tx_seq = frame.seq;
      tracer_->emit(e);
    }
  } else {
    // Snapshot the radio list: deliveries may trigger immediate responses,
    // and those must not invalidate this iteration. The scratch vector is
    // reused so the steady state stays allocation-free.
    receivers_scratch_.clear();
    for (const Registered& r : radios_) {
      if (r.radio != nullptr) receivers_scratch_.push_back(r.radio);
    }
    for (VirtualRadio* rx : receivers_scratch_) {
      if (rx->id() != frame.tx_id) {
        evaluate_reception(frame, *rx,
                           link_loss_db(frame.tx_pos, frame.tx_id, *rx));
      }
    }
  }
  prune_history();
}

double Channel::link_shadowing_db(RadioId a, RadioId b) const {
  // Derived (not sequential) draw: the value depends only on the link and
  // the channel seed, so whether or when the spatial index visits this link
  // cannot shift any other draw.
  const auto key = link_key(a, b);
  return derived_normal_db(kShadowingTag, key.first, key.second,
                           config_.shadowing_sigma_db);
}

double Channel::link_loss_db(const phy::Position& tx_pos, RadioId tx_id,
                             const VirtualRadio& rx) const {
  return config_.path_loss->path_loss_db(phy::distance_m(tx_pos, rx.position())) +
         link_shadowing_db(tx_id, rx.id());
}

const Channel::LinkTable& Channel::link_table(const Transmission& t,
                                              double decode_radius) {
  if (link_tables_.size() <= t.tx_ordinal) {
    link_tables_.resize(static_cast<std::size_t>(t.tx_ordinal) + 1);
  }
  LinkTable& table = link_tables_[t.tx_ordinal];
  if (table.epoch == radio_epoch_ && table.tx_pos == t.tx_pos &&
      table.radius_m == decode_radius) {
    return table;
  }
  ++link_table_builds_;
  table.epoch = radio_epoch_;
  table.tx_pos = t.tx_pos;
  table.radius_m = decode_radius;
  table.links.clear();
  radio_grid_.for_each_within(t.tx_pos, decode_radius, [&](VirtualRadio* r) {
    if (r->id() != t.tx_id) table.links.push_back({r->channel_ordinal(), r, 0.0});
  });
  // Registration order = brute-force evaluation order; keeps the
  // sequential extra-loss/decode RNG draws bit-identical to brute force.
  std::sort(table.links.begin(), table.links.end(),
            [](const Link& a, const Link& b) { return a.rx_ordinal < b.rx_ordinal; });
  for (Link& link : table.links) {
    link.loss_db = link_loss_db(t.tx_pos, t.tx_id, *link.rx);
  }
  return table;
}

double Channel::propagation_loss_db(const Transmission& t,
                                    const VirtualRadio& rx) const {
  // Interferer and carrier-sense links: the transmitter's table holds the
  // loss when it is current and covers `rx`. Positions cannot have changed
  // since the build (any move bumps the epoch), and ordinals are never
  // reused, so a hit is exactly the direct value.
  if (t.tx_ordinal < link_tables_.size()) {
    const LinkTable& table = link_tables_[t.tx_ordinal];
    if (table.epoch == radio_epoch_ && table.tx_pos == t.tx_pos) {
      const auto it = std::lower_bound(
          table.links.begin(), table.links.end(), rx.channel_ordinal(),
          [](const Link& l, std::uint32_t ordinal) { return l.rx_ordinal < ordinal; });
      if (it != table.links.end() && it->rx_ordinal == rx.channel_ordinal()) {
        return it->loss_db;
      }
    }
  }
  return link_loss_db(t.tx_pos, t.tx_id, rx);
}

double Channel::rssi_with_fading(const Transmission& t, const VirtualRadio& rx,
                                 double loss_db) const {
  return t.tx_power_dbm + t.antenna_gain_db + rx.config().antenna_gain_db -
         loss_db +
         derived_normal_db(kFadingTag, t.seq, rx.id(), config_.fading_sigma_db);
}

void Channel::trace_reception(const Transmission& t, const VirtualRadio& rx,
                              trace::DropReason reason, double rssi_dbm) const {
  trace::TraceEvent e;
  e.t_us = sim_.now().us();
  e.node = rx.id();
  e.kind = reason == trace::DropReason::None ? trace::EventKind::ChannelDeliver
                                             : trace::EventKind::ChannelDrop;
  e.reason = reason;
  e.bytes = static_cast<std::uint32_t>(t.frame.size());
  e.tx_seq = t.seq;
  e.value = rssi_dbm;
  tracer_->emit(e);
}

void Channel::evaluate_reception(Transmission& t, VirtualRadio& rx,
                                 double loss_db) {
  // Different carrier: radios on other channels neither decode nor suffer
  // interference (channel spacing gives effectively complete rejection).
  if (rx.config().frequency_hz != t.frequency_hz) return;

  if (is_blocked(t.tx_id, rx.id())) {
    stats_.dropped_blocked_link++;
    if (tracer_ != nullptr) {
      trace_reception(t, rx, trace::DropReason::BlockedLink, 0.0);
    }
    return;
  }

  if (rx.modulation().sf != t.mod.sf || rx.modulation().bw != t.mod.bw) {
    stats_.dropped_modulation_mismatch++;
    if (tracer_ != nullptr) {
      trace_reception(t, rx, trace::DropReason::ModulationMismatch, 0.0);
    }
    return;
  }

  // Cheap state checks before any propagation math: a radio that was not in
  // continuous RX for the whole frame cannot decode it no matter the RSSI,
  // so skip the path-loss/fading work entirely.
  if (!rx.listening_since(t.start)) {
    stats_.dropped_not_listening++;
    if (tracer_ != nullptr) {
      trace_reception(t, rx, trace::DropReason::NotListening, 0.0);
    }
    return;
  }

  const double rssi = rssi_with_fading(t, rx, loss_db);
  if (rssi < phy::sensitivity_dbm(t.mod.sf, t.mod.bw)) {
    stats_.dropped_below_sensitivity++;
    if (tracer_ != nullptr) {
      trace_reception(t, rx, trace::DropReason::BelowSensitivity, rssi);
    }
    return;
  }

  const auto loss_it = extra_loss_.find(link_key(t.tx_id, rx.id()));
  if (loss_it != extra_loss_.end() && rng_.bernoulli(loss_it->second)) {
    stats_.dropped_blocked_link++;
    if (tracer_ != nullptr) {
      trace_reception(t, rx, trace::DropReason::BlockedLink, rssi);
    }
    return;
  }

  // Collision check over the vulnerable window: the receiver tolerates
  // interference that dies out before the last 5 preamble symbols (it can
  // still lock), but not during sync/payload.
  auto collides_with = [&](Transmission& o) {
    const double o_rssi = rssi_with_fading(o, rx, propagation_loss_db(o, rx));
    return rssi - o_rssi < phy::sir_threshold_db(t.mod.sf, o.mod.sf);
  };

  bool collided = false;
  if (!policy_.spatial_index) {
    const TimePoint vulnerable_from = vulnerable_start(t);
    for (Transmission* o : active_) {
      if (o->seq == t.seq || o->tx_id == rx.id()) continue;
      if (o->frequency_hz != t.frequency_hz) continue;
      if (!(o->start < t.end && o->end > vulnerable_from)) continue;
      if (collides_with(*o)) {
        collided = true;
        break;
      }
    }
  } else if (!interferers_.empty()) {
    // Noise-relevance culling: an interferer weaker at rx than
    // rssi - max SIR threshold can never destroy this frame, so only
    // interferers within this receiver's noise-relevance radius of it are
    // probed — out of the frame's overlapping list, which provably holds
    // every one of them (see collect_interferers). Collision is an
    // existence check with no sequential RNG, so visit order is free. A
    // frame nothing overlapped skips the radius.
    const double radius =
        cached_max_range_m(interference_budget_db(rx.config().antenna_gain_db,
                                                  rssi, t.mod.sf));
    for (Transmission* o : interferers_) {
      if (o->tx_id == rx.id()) continue;
      if (phy::distance_m(o->tx_pos, rx.position()) > radius) continue;
      if (collides_with(*o)) {
        collided = true;
        break;
      }
    }
  }
  if (collided) {
    stats_.dropped_collision++;
    if (tracer_ != nullptr) {
      trace_reception(t, rx, trace::DropReason::Collision, rssi);
    }
    return;
  }

  const double snr = phy::snr_db(rssi, t.mod.bw);
  if (!rng_.bernoulli(phy::decode_probability(snr, t.mod.sf))) {
    stats_.dropped_snr++;
    if (tracer_ != nullptr) {
      trace_reception(t, rx, trace::DropReason::SnrDecode, rssi);
    }
    return;
  }

  FrameMeta meta;
  meta.rssi_dbm = rssi;
  meta.snr_db = snr;
  meta.start = t.start;
  meta.end = t.end;
  meta.transmitter = t.tx_id;
  stats_.receptions_delivered++;
  if (tracer_ != nullptr) {
    trace_reception(t, rx, trace::DropReason::None, rssi);
  }
  rx.deliver(t.frame, meta);
}

bool Channel::detectable_by(const Transmission& t,
                            const VirtualRadio& listener) const {
  if (t.tx_id == listener.id()) return false;
  if (t.frequency_hz != listener.config().frequency_hz) return false;
  // SX127x CAD correlates against the configured SF only.
  if (t.mod.sf != listener.modulation().sf ||
      t.mod.bw != listener.modulation().bw) {
    return false;
  }
  if (is_blocked(t.tx_id, listener.id())) return false;
  const double mean_rssi = t.tx_power_dbm + t.antenna_gain_db +
                           listener.config().antenna_gain_db -
                           propagation_loss_db(t, listener);
  return mean_rssi >= phy::sensitivity_dbm(t.mod.sf, t.mod.bw);
}

bool Channel::carrier_sensed_by(const VirtualRadio& listener) const {
  return carrier_sensed_during(listener, sim_.now());
}

bool Channel::carrier_sensed_during(const VirtualRadio& listener,
                                    TimePoint since) const {
  // On-air transmissions overlap [since, now] by construction; an ended one
  // only counts when it was still on the air after `since`.
  auto in_window = [&](const Transmission& t) {
    return !t.ended || t.end > since;
  };
  if (policy_.spatial_index) {
    ensure_grids();
    // Detection needs mean RSSI (no fading) at or above the listener-SF
    // sensitivity; the shadowing clamp bounds the reachable distance.
    const double radius = cached_max_range_m(
        max_radio_eirp_dbm_ + listener.config().antenna_gain_db +
        kSigmaClamp * config_.shadowing_sigma_db -
        phy::sensitivity_dbm(listener.modulation().sf,
                             listener.modulation().bw));
    bool sensed = false;
    tx_grid_.for_each_within(
        listener.position(), radius, [&](Transmission* t) {
          if (!sensed && in_window(*t) && detectable_by(*t, listener)) {
            sensed = true;
          }
        });
    return sensed;
  }
  for (const Transmission* t : active_) {
    if (in_window(*t) && detectable_by(*t, listener)) return true;
  }
  return false;
}

void Channel::block_link(RadioId a, RadioId b) { blocked_[link_key(a, b)] = true; }

void Channel::unblock_link(RadioId a, RadioId b) { blocked_.erase(link_key(a, b)); }

bool Channel::is_blocked(RadioId a, RadioId b) const {
  const auto it = blocked_.find(link_key(a, b));
  return it != blocked_.end() && it->second;
}

void Channel::set_link_extra_loss(RadioId a, RadioId b, double loss_probability) {
  LM_REQUIRE(loss_probability >= 0.0 && loss_probability <= 1.0);
  if (loss_probability == 0.0) {
    extra_loss_.erase(link_key(a, b));
  } else {
    extra_loss_[link_key(a, b)] = loss_probability;
  }
}

double Channel::mean_rssi_dbm(const VirtualRadio& tx, const VirtualRadio& rx) const {
  return tx.config().tx_power_dbm + tx.config().antenna_gain_db +
         rx.config().antenna_gain_db - link_loss_db(tx.position(), tx.id(), rx);
}

double Channel::link_quality(const VirtualRadio& tx, const VirtualRadio& rx) const {
  if (is_blocked(tx.id(), rx.id())) return 0.0;
  if (tx.config().frequency_hz != rx.config().frequency_hz) return 0.0;
  if (tx.modulation().sf != rx.modulation().sf ||
      tx.modulation().bw != rx.modulation().bw) {
    return 0.0;
  }
  const double rssi = mean_rssi_dbm(tx, rx);
  const auto& mod = tx.modulation();
  if (rssi < phy::sensitivity_dbm(mod.sf, mod.bw)) return 0.0;
  double quality = phy::decode_probability(phy::snr_db(rssi, mod.bw), mod.sf);
  const auto loss_it = extra_loss_.find(link_key(tx.id(), rx.id()));
  if (loss_it != extra_loss_.end()) quality *= 1.0 - loss_it->second;
  return quality;
}

void Channel::prune_history() {
  // A record can still matter in two ways: as an interferer for a frame
  // currently in flight (that frame started at most longest_airtime_ ago, and
  // a record only overlaps its vulnerable window if it ended after the
  // frame's start), or as a carrier for a CAD window (which is always shorter
  // than any same-SF frame's airtime). Both bounds retire anything that
  // ended more than one longest-frame-airtime ago. An on-air frame at the
  // front cannot block anything prunable behind it: everything scheduled
  // after it started inside the horizon too.
  const TimePoint horizon = sim_.now() - longest_airtime_;
  while (!active_.empty() && active_.front()->ended &&
         active_.front()->end < horizon) {
    Transmission* retired = active_.front();
    if (grids_ready_) tx_grid_.remove(retired, retired->tx_pos);
    active_.pop_front();
    spare_.push_back(retired);  // keeps frame/fading capacity for reuse
  }
}

}  // namespace lm::radio
