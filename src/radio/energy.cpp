#include "radio/energy.h"

#include <utility>

#include "radio/virtual_radio.h"
#include "support/assert.h"
#include "trace/trace_event.h"

namespace lm::radio {
namespace {

/// Residual charge below this is rounding noise from the double-precision
/// ledger, not usable energy: the depletion check treats it as empty.
constexpr double kResidualEpsilonMah = 1e-9;

constexpr double hours_of(Duration d) { return d.seconds_d() / 3600.0; }

constexpr std::size_t state_index(RadioState s) {
  return static_cast<std::size_t>(s);
}

}  // namespace

double EnergyProfile::current_for(RadioState state) const {
  switch (state) {
    case RadioState::Sleep: return sleep_ma;
    case RadioState::Standby: return standby_ma;
    case RadioState::Rx: return rx_ma;
    case RadioState::Tx: return tx_ma;
    case RadioState::Cad: return cad_ma;
  }
  LM_ASSERT(false);
}

double charge_consumed_mah(const VirtualRadio& radio, const EnergyProfile& profile) {
  double mah = 0.0;
  for (RadioState state : {RadioState::Sleep, RadioState::Standby, RadioState::Rx,
                           RadioState::Tx, RadioState::Cad}) {
    const double hours = radio.time_in_state(state).seconds_d() / 3600.0;
    mah += profile.current_for(state) * hours;
  }
  return mah;
}

double average_current_ma(const VirtualRadio& radio, const EnergyProfile& profile) {
  Duration total = Duration::zero();
  for (RadioState state : {RadioState::Sleep, RadioState::Standby, RadioState::Rx,
                           RadioState::Tx, RadioState::Cad}) {
    total += radio.time_in_state(state);
  }
  if (total.is_zero()) return 0.0;
  return charge_consumed_mah(radio, profile) / (total.seconds_d() / 3600.0);
}

double battery_life_days(double average_ma, double capacity_mah) {
  LM_REQUIRE(average_ma > 0.0);
  LM_REQUIRE(capacity_mah > 0.0);
  return capacity_mah / average_ma / 24.0;
}

// --- EnergyModel -------------------------------------------------------------

EnergyModel::EnergyModel(sim::Simulator& sim, const EnergyConfig& config,
                         std::uint16_t node)
    : sim_(sim), config_(config), node_(node) {
  residual_mah_ = config_.battery.initial();
}

EnergyModel::~EnergyModel() {
  if (depletion_timer_ != 0) sim_.cancel(depletion_timer_);
  if (radio_ != nullptr) radio_->attach_energy(nullptr);
}

void EnergyModel::attach(VirtualRadio& radio) {
  LM_REQUIRE(radio_ == nullptr);  // one radio per model
  radio_ = &radio;
  radio.attach_energy(this);
  state_ = radio.state();
  attached_at_ = sim_.now();
  last_transition_ = attached_at_;
  settled_at_ = attached_at_;
  arm_depletion_timer();
}

void EnergyModel::on_state_change(RadioState from, RadioState to) {
  LM_ASSERT(from == state_);
  const TimePoint now = sim_.now();
  settle(now);
  const Duration in_state = now - last_transition_;
  trace_state_change(from, in_state);
  state_ = to;
  last_transition_ = now;
  arm_depletion_timer();
}

double EnergyModel::residual_mah() const {
  settle(sim_.now());
  return config_.battery.finite() ? residual_mah_ : 0.0;
}

double EnergyModel::soc() const {
  if (!config_.battery.finite()) return 1.0;
  settle(sim_.now());
  return residual_mah_ / config_.battery.capacity_mah;
}

double EnergyModel::consumed_mah() const {
  settle(sim_.now());
  return consumed_total_mah_;
}

double EnergyModel::consumed_mah(RadioState state) const {
  settle(sim_.now());
  return consumed_by_state_mah_[state_index(state)];
}

double EnergyModel::harvested_mah() const {
  settle(sim_.now());
  return harvested_banked_mah_;
}

double EnergyModel::average_current_ma() const {
  settle(sim_.now());
  const Duration elapsed = settled_at_ - attached_at_;
  if (elapsed.is_zero()) return 0.0;
  return consumed_total_mah_ / hours_of(elapsed);
}

double EnergyModel::harvest_ma_at(TimePoint t) const {
  const HarvestingProfile& h = config_.harvesting;
  if (!h.enabled()) return 0.0;
  const std::int64_t period = h.period.us();
  std::int64_t pos = ((t - TimePoint::origin()) - h.phase).us() % period;
  if (pos < 0) pos += period;
  return pos < h.on_time.us() ? h.charge_ma : 0.0;
}

Duration EnergyModel::until_harvest_edge(TimePoint t) const {
  const HarvestingProfile& h = config_.harvesting;
  const std::int64_t period = h.period.us();
  std::int64_t pos = ((t - TimePoint::origin()) - h.phase).us() % period;
  if (pos < 0) pos += period;
  const std::int64_t next =
      pos < h.on_time.us() ? h.on_time.us() : period;
  return Duration::microseconds(next - pos);
}

void EnergyModel::settle(TimePoint now) const {
  const bool harvesting = config_.harvesting.enabled();
  const double draw = config_.profile.current_for(state_);
  while (settled_at_ < now) {
    TimePoint seg_end = now;
    if (harvesting) {
      const TimePoint edge = settled_at_ + until_harvest_edge(settled_at_);
      if (edge < seg_end) seg_end = edge;
    }
    const double hours = hours_of(seg_end - settled_at_);
    consumed_total_mah_ += draw * hours;
    consumed_by_state_mah_[state_index(state_)] += draw * hours;
    if (config_.battery.finite() && !depleted_) {
      const double before = residual_mah_;
      double next = before + (harvest_ma_at(settled_at_) - draw) * hours;
      if (next > config_.battery.capacity_mah) next = config_.battery.capacity_mah;
      if (next < 0.0) next = 0.0;
      residual_mah_ = next;
      // Banked harvest = what actually raised the ledger: the capacity
      // clamp discards panel surplus, and conservation (invariant 6) holds
      // as residual_delta == banked - consumed segment by segment.
      harvested_banked_mah_ += (next - before) + draw * hours;
    }
    settled_at_ = seg_end;
  }
}

void EnergyModel::arm_depletion_timer() {
  if (depletion_timer_ != 0) {
    sim_.cancel(depletion_timer_);
    depletion_timer_ = 0;
  }
  if (!config_.battery.finite() || depleted_) return;
  const bool harvesting = config_.harvesting.enabled();
  const double draw = config_.profile.current_for(state_);
  const double capacity = config_.battery.capacity_mah;
  TimePoint t = settled_at_;
  double charge = residual_mah_;
  // Walk the piecewise-constant net current forward looking for the zero
  // crossing. The horizon is bounded; a battery that provably outlasts it
  // (e.g. daytime harvest exceeds the nightly drain) gets a cheap
  // re-evaluation timer at the horizon instead of a depletion event.
  for (int i = 0; i < 64; ++i) {
    const Duration seg =
        harvesting ? until_harvest_edge(t) : Duration::hours(24 * 365);
    const double net = harvest_ma_at(t) - draw;
    if (net < 0.0) {
      // Compare in double microseconds: charge / draw can exceed the
      // Duration range for near-sleep currents.
      const double to_zero_us = (charge / -net) * 3600.0 * 1e6;
      if (to_zero_us <= static_cast<double>(seg.us())) {
        // Land strictly AFTER the crossing: a timer rounded even half a
        // microsecond early leaves a sliver of charge above the residual
        // epsilon, and the re-armed timer rounds to a zero-delay event at
        // the same timestamp — a livelock. One microsecond late merely
        // clamps the ledger at 0.
        const Duration to_zero =
            Duration::microseconds(static_cast<std::int64_t>(to_zero_us) + 1);
        depletion_timer_ =
            sim_.schedule_at(t + to_zero, [this] { on_depletion_check(); });
        return;
      }
    }
    charge += net * hours_of(seg);
    if (charge > capacity) charge = capacity;
    t = t + seg;
  }
  depletion_timer_ = sim_.schedule_at(t, [this] { on_depletion_check(); });
}

void EnergyModel::on_depletion_check() {
  depletion_timer_ = 0;
  const TimePoint now = sim_.now();
  settle(now);
  if (residual_mah_ > kResidualEpsilonMah) {
    arm_depletion_timer();
    return;
  }
  residual_mah_ = 0.0;
  depleted_ = true;
  depleted_at_ = now;
  if (tracer_ != nullptr && tracer_->on()) {
    trace::TraceEvent e;
    e.t_us = now.us();
    e.kind = trace::EventKind::Brownout;
    e.node = node_;
    e.bytes = static_cast<std::uint32_t>(state_index(state_));
    e.value = 0.0;
    tracer_->emit(e);
  }
  if (brownout_) brownout_();
}

void EnergyModel::trace_state_change(RadioState from, Duration in_state) {
  if (tracer_ == nullptr || !tracer_->on()) return;
  trace::TraceEvent e;
  e.t_us = settled_at_.us();
  e.kind = trace::EventKind::EnergyState;
  e.node = node_;
  e.bytes = static_cast<std::uint32_t>(state_index(from));
  e.aux_us = in_state.us();
  e.value = config_.battery.finite() ? residual_mah_ : consumed_total_mah_;
  tracer_->emit(e);
}

}  // namespace lm::radio
