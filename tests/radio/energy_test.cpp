#include "radio/energy.h"

#include <gtest/gtest.h>

#include "phy/airtime.h"
#include "radio/channel.h"
#include "radio/virtual_radio.h"
#include "sim/simulator.h"
#include "support/assert.h"

namespace lm::radio {
namespace {

class EnergyTest : public ::testing::Test {
 protected:
  EnergyTest() : channel_(sim_, PropagationConfig::free_space(), 1) {}

  sim::Simulator sim_;
  Channel channel_;
};

TEST_F(EnergyTest, TimeAccrualPerState) {
  VirtualRadio r(sim_, channel_, 1, {0, 0}, {});
  // Standby from t=0.
  sim_.run_for(Duration::seconds(10));
  r.start_receive();
  sim_.run_for(Duration::seconds(30));
  r.sleep();
  sim_.run_for(Duration::seconds(60));

  EXPECT_EQ(r.time_in_state(RadioState::Standby), Duration::seconds(10));
  EXPECT_EQ(r.time_in_state(RadioState::Rx), Duration::seconds(30));
  EXPECT_EQ(r.time_in_state(RadioState::Sleep), Duration::seconds(60));
  EXPECT_EQ(r.time_in_state(RadioState::Tx), Duration::zero());
}

TEST_F(EnergyTest, CurrentStateAccruesLive) {
  VirtualRadio r(sim_, channel_, 1, {0, 0}, {});
  r.start_receive();
  sim_.run_for(Duration::seconds(5));
  EXPECT_EQ(r.time_in_state(RadioState::Rx), Duration::seconds(5));
  sim_.run_for(Duration::seconds(5));
  EXPECT_EQ(r.time_in_state(RadioState::Rx), Duration::seconds(10));
}

TEST_F(EnergyTest, TxTimeMatchesAirtime) {
  VirtualRadio r(sim_, channel_, 1, {0, 0}, {});
  r.transmit(std::vector<std::uint8_t>(20, 1));
  sim_.run_for(Duration::seconds(2));
  EXPECT_EQ(r.time_in_state(RadioState::Tx),
            phy::time_on_air(r.modulation(), 20));
}

TEST_F(EnergyTest, CadTimeAccrues) {
  VirtualRadio r(sim_, channel_, 1, {0, 0}, {});
  r.start_cad();
  sim_.run_for(Duration::seconds(1));
  EXPECT_EQ(r.time_in_state(RadioState::Cad), phy::cad_time(r.modulation()));
}

TEST_F(EnergyTest, ChargeComputation) {
  VirtualRadio r(sim_, channel_, 1, {0, 0}, {});
  r.start_receive();
  sim_.run_for(Duration::hours(1));
  // One hour of RX at 11.5 mA = 11.5 mAh.
  EXPECT_NEAR(charge_consumed_mah(r), 11.5, 1e-6);
  EXPECT_NEAR(average_current_ma(r), 11.5, 1e-6);
}

TEST_F(EnergyTest, MixedStateCharge) {
  VirtualRadio r(sim_, channel_, 1, {0, 0}, {});
  r.sleep();
  sim_.run_for(Duration::minutes(30));
  r.start_receive();
  sim_.run_for(Duration::minutes(30));
  const double mah = charge_consumed_mah(r);
  // 0.5 h sleep (~0) + 0.5 h RX (5.75 mAh).
  EXPECT_NEAR(mah, 5.75, 0.01);
  EXPECT_NEAR(average_current_ma(r), 5.75, 0.01);
}

TEST_F(EnergyTest, RxDominatesAnAlwaysOnNode) {
  // A quiet listening node spends essentially everything on RX — the
  // structural energy cost of mesh routing vs class-A LoRaWAN.
  VirtualRadio r(sim_, channel_, 1, {0, 0}, {});
  r.start_receive();
  for (int i = 0; i < 24; ++i) {
    sim_.run_for(Duration::hours(1) - Duration::seconds(1));
    r.transmit(std::vector<std::uint8_t>(30, 1));  // one beacon-ish frame
    sim_.run_for(Duration::seconds(1));
    r.start_receive();
  }
  const double total = charge_consumed_mah(r);
  const double rx_part = kSx1276.rx_ma *
                         r.time_in_state(RadioState::Rx).seconds_d() / 3600.0;
  EXPECT_GT(rx_part / total, 0.99);
}

TEST_F(EnergyTest, ProfileCurrents) {
  const EnergyProfile& p = kSx1276;
  EXPECT_DOUBLE_EQ(p.current_for(RadioState::Rx), p.rx_ma);
  EXPECT_DOUBLE_EQ(p.current_for(RadioState::Tx), p.tx_ma);
  EXPECT_GT(p.tx_ma, p.rx_ma);
  EXPECT_GT(p.rx_ma, p.standby_ma);
  EXPECT_GT(p.standby_ma, p.sleep_ma);
}

TEST_F(EnergyTest, BatteryLife) {
  // 2500 mAh at 11.5 mA ≈ 9.05 days.
  EXPECT_NEAR(battery_life_days(11.5, 2500.0), 9.06, 0.01);
  EXPECT_THROW(battery_life_days(0.0, 2500.0), ContractViolation);
  EXPECT_THROW(battery_life_days(1.0, 0.0), ContractViolation);
}

// --- Live EnergyModel --------------------------------------------------------

TEST_F(EnergyTest, LiveModelMatchesPostHocAccounting) {
  VirtualRadio r(sim_, channel_, 1, {0, 0}, {});
  EnergyConfig cfg;  // infinite battery: pure metering
  cfg.enabled = true;
  EnergyModel model(sim_, cfg, 1);
  model.attach(r);

  r.sleep();
  sim_.run_for(Duration::minutes(30));
  r.start_receive();
  sim_.run_for(Duration::minutes(29));
  r.transmit(std::vector<std::uint8_t>(20, 1));
  sim_.run_for(Duration::minutes(1));

  // One ledger: the model reads the radio's per-state clock.
  EXPECT_EQ(model.consumed_mah(), charge_consumed_mah(r));
  EXPECT_EQ(model.average_current_ma(), average_current_ma(r));
  EXPECT_NEAR(model.consumed_mah(RadioState::Tx),
              kSx1276.tx_ma *
                  r.time_in_state(RadioState::Tx).seconds_d() / 3600.0,
              1e-9);
  EXPECT_DOUBLE_EQ(model.soc(), 1.0);  // infinite battery pins at full
  EXPECT_FALSE(model.depleted());
}

TEST_F(EnergyTest, ConsumptionDoesNotDependOnWhenTheModelIsRead) {
  // Two radios run the same script; one model is read every simulated
  // second, the other only at the end. Reads must not split the ledger.
  VirtualRadio polled_radio(sim_, channel_, 1, {0, 0}, {});
  VirtualRadio idle_radio(sim_, channel_, 2, {0, 5000}, {});
  EnergyConfig cfg;  // infinite battery, as campus and strategy_matrix run it
  cfg.enabled = true;
  EnergyModel polled(sim_, cfg, 1);
  EnergyModel idle(sim_, cfg, 2);
  polled.attach(polled_radio);
  idle.attach(idle_radio);

  // Every 7.3 s: listen, then transmit after 5.1 s, then a CAD 1.7 s later.
  for (int cycle = 0; cycle < 500; ++cycle) {
    const Duration at = Duration::milliseconds(7300) * cycle;
    for (VirtualRadio* r : {&polled_radio, &idle_radio}) {
      sim_.schedule_after(at, [r] { r->start_receive(); });
      sim_.schedule_after(at + Duration::milliseconds(5100), [r] {
        r->transmit(std::vector<std::uint8_t>(20, 1));
      });
      sim_.schedule_after(at + Duration::milliseconds(6800),
                          [r] { r->start_cad(); });
    }
  }
  for (int second = 0; second < 3700; ++second) {
    sim_.run_for(Duration::seconds(1));
    (void)polled.consumed_mah();
  }
  EXPECT_GT(polled.consumed_mah(), 0.0);
  EXPECT_EQ(polled.consumed_mah(), idle.consumed_mah());
  for (RadioState state : {RadioState::Sleep, RadioState::Standby,
                           RadioState::Rx, RadioState::Tx, RadioState::Cad}) {
    EXPECT_EQ(polled.consumed_mah(state), idle.consumed_mah(state));
  }
}

TEST_F(EnergyTest, AttachRequiresARadioThatHasSpentNoTime) {
  VirtualRadio r(sim_, channel_, 1, {0, 0}, {});
  r.start_receive();  // transitions at the attach instant are fine
  EnergyConfig cfg;
  cfg.enabled = true;
  EnergyModel fresh(sim_, cfg, 1);
  EXPECT_NO_THROW(fresh.attach(r));

  VirtualRadio late(sim_, channel_, 2, {0, 0}, {});
  EnergyModel model(sim_, cfg, 2);
  sim_.run_for(Duration::seconds(1));
  EXPECT_THROW(model.attach(late), ContractViolation);
}

TEST_F(EnergyTest, RadioDestroyedFirstCancelsDepletionAndRefusesReads) {
  EnergyConfig cfg;
  cfg.enabled = true;
  cfg.battery.capacity_mah = kSx1276.rx_ma * 2.0 / 3600.0;
  EnergyModel model(sim_, cfg, 1);
  int brownouts = 0;
  model.set_brownout([&] { ++brownouts; });
  {
    VirtualRadio r(sim_, channel_, 1, {0, 0}, {});
    model.attach(r);
    r.start_receive();  // arms depletion 2 s out
    sim_.run_for(Duration::seconds(1));
  }
  sim_.run_for(Duration::minutes(1));
  EXPECT_EQ(brownouts, 0);
  EXPECT_FALSE(model.depleted());
  EXPECT_THROW((void)model.consumed_mah(), ContractViolation);
  EXPECT_THROW((void)model.soc(), ContractViolation);
}

TEST_F(EnergyTest, ConservationHoldsUnderHarvestingAndClamp) {
  // Invariant: residual == initial + banked_harvest - consumed, segment by
  // segment, even while the charge controller clamps panel surplus at
  // capacity. 25 mA of panel for 6 h of every 12 h against an 11.5 mA RX
  // draw: the battery fills (clamp discards surplus), then sags overnight.
  VirtualRadio r(sim_, channel_, 1, {0, 0}, {});
  EnergyConfig cfg;
  cfg.enabled = true;
  cfg.battery.capacity_mah = 50.0;
  cfg.battery.initial_mah = 40.0;
  cfg.harvesting.charge_ma = 25.0;
  cfg.harvesting.period = Duration::hours(12);
  cfg.harvesting.on_time = Duration::hours(6);
  EnergyModel model(sim_, cfg, 1);
  model.attach(r);
  r.start_receive();

  for (int hour = 1; hour <= 36; ++hour) {
    sim_.run_for(Duration::hours(1));
    if (model.depleted()) break;
    EXPECT_NEAR(model.residual_mah(),
                40.0 + model.harvested_mah() - model.consumed_mah(), 1e-6)
        << "ledger leaked at hour " << hour;
    EXPECT_LE(model.residual_mah(), 50.0 + 1e-9);  // clamped at capacity
  }
  // 6 h of +13.5 mA net fills the 10 mAh headroom in under an hour; the
  // clamp must have discarded most of the 150 mAh the panel offered.
  EXPECT_LT(model.harvested_mah(), 25.0 * 18.0);
  EXPECT_GT(model.harvested_mah(), 0.0);
}

TEST_F(EnergyTest, BrownoutFiresMidTransmitAtExactlyZero) {
  VirtualRadio r(sim_, channel_, 1, {0, 0}, {});
  const EnergyProfile& p = kSx1276;
  const Duration airtime = phy::time_on_air(r.modulation(), 20);
  // Charge for exactly 1 s of RX plus half the frame's worth of TX: the
  // battery hits zero mid-transmission, not at a state boundary.
  EnergyConfig cfg;
  cfg.enabled = true;
  cfg.battery.capacity_mah =
      (p.rx_ma * 1.0 + p.tx_ma * airtime.seconds_d() / 2.0) / 3600.0;
  EnergyModel model(sim_, cfg, 1);
  model.attach(r);

  int brownouts = 0;
  model.set_brownout([&] { ++brownouts; });
  r.start_receive();
  sim_.run_for(Duration::seconds(1));
  ASSERT_FALSE(model.depleted());
  ASSERT_TRUE(r.transmit(std::vector<std::uint8_t>(20, 1)));
  sim_.run_for(Duration::seconds(2));

  EXPECT_EQ(brownouts, 1);
  EXPECT_TRUE(model.depleted());
  EXPECT_DOUBLE_EQ(model.residual_mah(), 0.0);
  EXPECT_DOUBLE_EQ(model.soc(), 0.0);
  const Duration died_after = model.depleted_at() - TimePoint::origin();
  EXPECT_GT(died_after, Duration::seconds(1));
  EXPECT_LT(died_after, Duration::seconds(1) + airtime);
  // Consumption keeps metering past the brownout; the battery does not.
  sim_.run_for(Duration::hours(1));
  EXPECT_DOUBLE_EQ(model.residual_mah(), 0.0);
  EXPECT_EQ(brownouts, 1);
}

TEST_F(EnergyTest, DeadRadioRefusesTransmit) {
  VirtualRadio r(sim_, channel_, 1, {0, 0}, {});
  const EnergyProfile& p = kSx1276;
  EnergyConfig cfg;
  cfg.enabled = true;
  cfg.battery.capacity_mah = p.rx_ma * 2.0 / 3600.0;  // 2 s of RX
  EnergyModel model(sim_, cfg, 1);
  model.attach(r);
  // The brownout handler powers the radio down (what MeshNode::stop does
  // through the testbed wiring).
  model.set_brownout([&r] { r.sleep(); });
  r.start_receive();
  sim_.run_for(Duration::minutes(1));

  ASSERT_TRUE(model.depleted());
  EXPECT_EQ(r.state(), RadioState::Sleep);
  EXPECT_FALSE(r.transmit(std::vector<std::uint8_t>(8, 1)));
  EXPECT_EQ(r.time_in_state(RadioState::Tx), Duration::zero());
}

TEST_F(EnergyTest, HarvestingKeepsNetPositiveNodeAliveForever) {
  // Panel beats the draw during the day and the battery rides out the
  // night: the depletion scanner must re-arm across its horizon instead of
  // predicting a death that never comes.
  VirtualRadio r(sim_, channel_, 1, {0, 0}, {});
  EnergyConfig cfg;
  cfg.enabled = true;
  cfg.battery.capacity_mah = 200.0;
  cfg.harvesting.charge_ma = 30.0;  // vs 11.5 mA RX: +18.5 day, -11.5 night
  EnergyModel model(sim_, cfg, 1);
  model.attach(r);
  int brownouts = 0;
  model.set_brownout([&] { ++brownouts; });
  r.start_receive();
  sim_.run_for(Duration::hours(24 * 30));

  EXPECT_EQ(brownouts, 0);
  EXPECT_FALSE(model.depleted());
  EXPECT_GT(model.residual_mah(), 0.0);
  // Nightly sag: 12 h at 11.5 mA = 138 mAh of the 200 mAh capacity.
  EXPECT_GT(model.consumed_mah(), 11.5 * 24 * 30 - 1.0);
}

}  // namespace
}  // namespace lm::radio
