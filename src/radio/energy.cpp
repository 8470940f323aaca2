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

constexpr std::uint32_t state_index(RadioState s) {
  return static_cast<std::uint32_t>(s);
}

constexpr RadioState kStates[] = {RadioState::Sleep, RadioState::Standby,
                                  RadioState::Rx, RadioState::Tx, RadioState::Cad};

/// Simulated time the radio has spent in any state.
Duration lifetime(const VirtualRadio& radio) {
  Duration total = Duration::zero();
  for (RadioState state : kStates) total += radio.time_in_state(state);
  return total;
}

/// Position of `t` within the harvesting period, in [0, period) µs.
std::int64_t harvest_phase_us(const HarvestingProfile& h, TimePoint t) {
  return (t - TimePoint::origin()).us() % h.period.us();
}

/// Panel current (mA) flowing at `t`.
double harvest_ma_at(const HarvestingProfile& h, TimePoint t) {
  if (!h.enabled()) return 0.0;
  return harvest_phase_us(h, t) < h.on_time.us() ? h.charge_ma : 0.0;
}

/// True-time distance from `t` to the next harvest on/off edge.
Duration until_harvest_edge(const HarvestingProfile& h, TimePoint t) {
  const std::int64_t pos = harvest_phase_us(h, t);
  const std::int64_t next = pos < h.on_time.us() ? h.on_time.us() : h.period.us();
  return Duration::microseconds(next - pos);
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

double charge_consumed_mah(const VirtualRadio& radio, RadioState state) {
  return kSx1276.current_for(state) * hours_of(radio.time_in_state(state));
}

double charge_consumed_mah(const VirtualRadio& radio) {
  double mah = 0.0;
  for (RadioState state : kStates) mah += charge_consumed_mah(radio, state);
  return mah;
}

double average_current_ma(const VirtualRadio& radio) {
  const Duration total = lifetime(radio);
  if (total.is_zero()) return 0.0;
  return charge_consumed_mah(radio) / hours_of(total);
}

double battery_life_days(double average_ma, double capacity_mah) {
  LM_REQUIRE(average_ma > 0.0);
  LM_REQUIRE(capacity_mah > 0.0);
  return capacity_mah / average_ma / 24.0;
}

// --- EnergyModel -------------------------------------------------------------

// The config, the brownout callback and nine words: nothing the radio knows.
static_assert(sizeof(EnergyModel) ==
              sizeof(EnergyConfig) + sizeof(EnergyModel::BrownoutCallback) + 9 * 8);

EnergyModel::EnergyModel(sim::Simulator& sim, const EnergyConfig& config,
                         std::uint16_t node)
    : sim_(sim), config_(config), node_(node),
      residual_mah_(config.battery.initial()) {}

EnergyModel::~EnergyModel() {
  if (depletion_timer_ != 0) sim_.cancel(depletion_timer_);
  if (radio_ != nullptr) radio_->attach_energy(nullptr);
}

void EnergyModel::attach(VirtualRadio& radio) {
  LM_REQUIRE(radio_ == nullptr);  // one radio per model
  LM_REQUIRE(lifetime(radio).is_zero());  // its clock is the whole ledger
  radio_ = &radio;
  radio.attach_energy(this);
  settled_at_ = sim_.now();
  arm_depletion_timer(radio.state());
}

void EnergyModel::detach_radio() {
  if (depletion_timer_ != 0) sim_.cancel(depletion_timer_);
  depletion_timer_ = 0;
  radio_ = nullptr;
}

void EnergyModel::on_state_change(RadioState from, RadioState to,
                                  Duration in_state) {
  settle(sim_.now(), from);
  if (tracer_ != nullptr && tracer_->on()) {
    trace::TraceEvent e;
    e.t_us = sim_.now().us();
    e.kind = trace::EventKind::EnergyState;
    e.node = node_;
    e.bytes = state_index(from);
    e.aux_us = in_state.us();
    e.value = config_.battery.finite() ? residual_mah_
                                       : charge_consumed_mah(*radio_);
    tracer_->emit(e);
  }
  arm_depletion_timer(to);
}

const VirtualRadio& EnergyModel::settled_radio() const {
  LM_REQUIRE(radio_ != nullptr);
  settle(sim_.now(), radio_->state());
  return *radio_;
}

double EnergyModel::residual_mah() const {
  settled_radio();
  return config_.battery.finite() ? residual_mah_ : 0.0;
}

double EnergyModel::soc() const {
  if (!config_.battery.finite()) return 1.0;
  settled_radio();
  return residual_mah_ / config_.battery.capacity_mah;
}

double EnergyModel::consumed_mah() const {
  return charge_consumed_mah(settled_radio());
}

double EnergyModel::consumed_mah(RadioState state) const {
  return charge_consumed_mah(settled_radio(), state);
}

double EnergyModel::harvested_mah() const {
  settled_radio();
  return harvested_banked_mah_;
}

double EnergyModel::average_current_ma() const {
  return radio::average_current_ma(settled_radio());
}

void EnergyModel::settle(TimePoint now, RadioState state) const {
  if (!config_.battery.finite() || depleted_) return;
  const HarvestingProfile& h = config_.harvesting;
  const double draw = kSx1276.current_for(state);
  while (settled_at_ < now) {
    TimePoint seg_end = now;
    if (h.enabled()) {
      const TimePoint edge = settled_at_ + until_harvest_edge(h, settled_at_);
      if (edge < seg_end) seg_end = edge;
    }
    const double hours = hours_of(seg_end - settled_at_);
    const double before = residual_mah_;
    double next = before + (harvest_ma_at(h, settled_at_) - draw) * hours;
    if (next > config_.battery.capacity_mah) next = config_.battery.capacity_mah;
    if (next < 0.0) next = 0.0;
    residual_mah_ = next;
    // Banked harvest = what actually raised the ledger: the capacity
    // clamp discards panel surplus, and conservation (invariant 6) holds
    // as residual_delta == banked - consumed segment by segment.
    harvested_banked_mah_ += (next - before) + draw * hours;
    settled_at_ = seg_end;
  }
}

void EnergyModel::arm_depletion_timer(RadioState state) {
  if (depletion_timer_ != 0) sim_.cancel(depletion_timer_);
  depletion_timer_ = 0;
  if (!config_.battery.finite() || depleted_) return;
  const HarvestingProfile& h = config_.harvesting;
  const double draw = kSx1276.current_for(state);
  const double capacity = config_.battery.capacity_mah;
  TimePoint t = settled_at_;
  double charge = residual_mah_;
  // Walk the piecewise-constant net current forward looking for the zero
  // crossing. The horizon is bounded; a battery that provably outlasts it
  // (e.g. daytime harvest exceeds the nightly drain) gets a cheap
  // re-evaluation timer at the horizon instead of a depletion event.
  for (int i = 0; i < 64; ++i) {
    const Duration seg =
        h.enabled() ? until_harvest_edge(h, t) : Duration::hours(24 * 365);
    const double net = harvest_ma_at(h, t) - draw;
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
  const RadioState state = radio_->state();
  settle(now, state);
  if (residual_mah_ > kResidualEpsilonMah) {
    arm_depletion_timer(state);
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
    e.bytes = state_index(state);
    e.value = 0.0;
    tracer_->emit(e);
  }
  if (brownout_) brownout_();
}

}  // namespace lm::radio
