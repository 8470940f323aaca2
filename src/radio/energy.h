// Energy model for the virtual radio.
//
// LoRaMesher's target devices are battery-powered, and the protocol keeps
// the radio in continuous receive between transmissions — unlike LoRaWAN
// class A, a mesh router must always listen.
//
// One ledger: VirtualRadio::time_in_state is the only integrator of radio
// time, and every charge is kSx1276.current_for(s) × time_in_state(s),
// computed in charge_consumed_mah alone (SX1276 draws: band 1, PA_BOOST at
// +13 dBm, LnaBoost off). EnergyModel is a live per-node battery on top of
// that clock; it keeps only what the clock cannot give: a finite battery's
// residual charge, the banked day/night harvest, the depletion timer and a
// brownout callback the testbed wires into node failure (NodeDown). It
// traces every power-state transition, and residual charge reaches the
// routing layer (LayerContext::energy) so strategies can penalize
// low-battery relays.
#pragma once

#include <cstdint>
#include <functional>

#include "radio/radio_types.h"
#include "sim/simulator.h"
#include "support/time.h"
#include "trace/trace_sink.h"

namespace lm::radio {

class VirtualRadio;

/// Current draw (mA) per radio state.
struct EnergyProfile {
  double sleep_ma;
  double standby_ma;
  double rx_ma;
  double tx_ma;
  double cad_ma;

  double current_for(RadioState state) const;
};

/// SX1276 datasheet values (table 10), the radio in the paper's testbed.
inline constexpr EnergyProfile kSx1276{
    .sleep_ma = 0.0002,  // 0.2 uA register-retention sleep
    .standby_ma = 1.6,   // crystal running
    .rx_ma = 11.5,       // RxContinuous, band 1
    .tx_ma = 28.0,       // +13 dBm on PA_BOOST
    .cad_ma = 11.5,      // receiver path active
};

/// Charge `radio` has drawn in `state` since construction, in mAh: the one
/// place a charge is computed.
double charge_consumed_mah(const VirtualRadio& radio, RadioState state);

/// Charge consumed by `radio` since construction, in mAh.
double charge_consumed_mah(const VirtualRadio& radio);

/// Average current over the radio's lifetime so far, in mA.
double average_current_ma(const VirtualRadio& radio);

/// Days a battery of `capacity_mah` lasts at `average_ma` constant draw.
double battery_life_days(double average_ma, double capacity_mah);

/// The node's charge store. capacity_mah <= 0 models an infinite supply
/// (mains / bench PSU): consumption is still metered, but state of charge
/// pins at 1.0 and brownout never fires.
struct BatteryConfig {
  double capacity_mah = 0.0;
  /// Charge at power-up; negative means "full".
  double initial_mah = -1.0;

  bool finite() const { return capacity_mah > 0.0; }
  double initial() const {
    if (!finite()) return 0.0;
    if (initial_mah < 0.0) return capacity_mah;
    return initial_mah < capacity_mah ? initial_mah : capacity_mah;
  }
};

/// Periodic square-wave charging (a solar panel's day/night cycle, smart-
/// campus style): `charge_ma` flows into the battery during the first
/// `on_time` of every `period`, counted from simulated time zero. Surplus
/// beyond the battery's capacity is discarded (the charge controller clamps).
struct HarvestingProfile {
  double charge_ma = 0.0;  // 0 disables harvesting
  Duration period = Duration::hours(24);
  Duration on_time = Duration::hours(12);

  bool enabled() const {
    return charge_ma > 0.0 && on_time > Duration::zero() &&
           period > Duration::zero();
  }
};

/// Everything the testbed needs to switch live energy modeling on.
struct EnergyConfig {
  bool enabled = false;
  BatteryConfig battery;
  HarvestingProfile harvesting;
};

/// Live per-node battery over one radio's per-state clock.
///
/// Consumption is read from the radio's clock, never stored. A finite
/// battery's residual is lazy: stored as of the last settlement and
/// integrated forward on demand — state changes, introspection and the
/// depletion timer all settle first. All arithmetic depends only on this
/// node's own transition instants, so a PDES decomposition that reproduces
/// the event trace byte-identically reproduces the energy ledger too.
class EnergyModel {
 public:
  using BrownoutCallback = std::function<void()>;

  EnergyModel(sim::Simulator& sim, const EnergyConfig& config,
              std::uint16_t node);
  ~EnergyModel();

  EnergyModel(const EnergyModel&) = delete;
  EnergyModel& operator=(const EnergyModel&) = delete;

  /// Starts metering `radio`, which must not have spent simulated time yet:
  /// its clock from construction on is the model's whole ledger.
  void attach(VirtualRadio& radio);

  /// Called by VirtualRadio on every power-state transition, after `from`
  /// lasted `in_state`. Settles at the old state's draw, emits an
  /// EnergyState trace event, and re-arms the depletion timer.
  void on_state_change(RadioState from, RadioState to, Duration in_state);

  /// Fires once, the first time a finite battery reaches 0 mAh. The
  /// callback runs inside the simulation event that detected depletion —
  /// the testbed uses it to stop the node (NodeDown path).
  void set_brownout(BrownoutCallback callback) {
    brownout_ = std::move(callback);
  }
  /// Attaches the flight recorder (EnergyState / Brownout events).
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }
  /// Called by a VirtualRadio destroyed before its model: cancels the
  /// depletion timer; the model refuses reads from then on.
  void detach_radio();

  // --- Introspection (requires an attached radio; settles to now) -----------
  /// Remaining charge in mAh; 0 for an infinite battery.
  double residual_mah() const;
  /// State of charge in [0, 1]; an infinite battery reads 1.0.
  double soc() const;
  bool depleted() const { return depleted_; }
  /// Instant the battery hit zero; meaningless unless depleted().
  TimePoint depleted_at() const { return depleted_at_; }
  /// Lifetime draw (harvesting not subtracted), in mAh.
  double consumed_mah() const;
  /// Draw attributed to one radio state, in mAh.
  double consumed_mah(RadioState state) const;
  /// Harvested charge actually banked (after the capacity clamp), in mAh.
  double harvested_mah() const;
  /// Lifetime-average draw in mA; 0.0 before any time has elapsed.
  double average_current_ma() const;

  const EnergyConfig& config() const { return config_; }
  std::uint16_t node() const { return node_; }

 private:
  /// The attached radio, with the ledger settled to now.
  const VirtualRadio& settled_radio() const;
  /// Integrates a finite, live battery forward to `now` at `state`'s draw.
  void settle(TimePoint now, RadioState state) const;
  void arm_depletion_timer(RadioState state);
  void on_depletion_check();

  sim::Simulator& sim_;
  const EnergyConfig config_;
  const std::uint16_t node_;
  bool depleted_ = false;
  VirtualRadio* radio_ = nullptr;
  TimePoint depleted_at_;
  sim::TimerId depletion_timer_ = 0;
  BrownoutCallback brownout_;
  trace::Tracer* tracer_ = nullptr;

  // A finite battery's lazy ledger, settled as of settled_at_ (mutable:
  // const introspection settles on demand).
  mutable TimePoint settled_at_;
  mutable double residual_mah_ = 0.0;
  mutable double harvested_banked_mah_ = 0.0;
};

}  // namespace lm::radio
