#include <gtest/gtest.h>

#include <vector>

#include "phy/airtime.h"
#include "radio/channel.h"
#include "radio/virtual_radio.h"
#include "sim/simulator.h"
#include "support/assert.h"

namespace lm::radio {
namespace {

struct Capture : RadioListener {
  struct Rx {
    std::vector<std::uint8_t> frame;
    FrameMeta meta;
  };
  std::vector<Rx> frames;
  int tx_done = 0;
  std::vector<bool> cad_results;

  void on_frame_received(std::span<const std::uint8_t> frame,
                         const FrameMeta& meta) override {
    frames.push_back({{frame.begin(), frame.end()}, meta});
  }
  void on_tx_done() override { ++tx_done; }
  void on_cad_done(bool busy) override { cad_results.push_back(busy); }
};

class RadioTest : public ::testing::Test {
 protected:
  RadioTest() : channel_(sim_, PropagationConfig::free_space(), 42) {}

  VirtualRadio& make_radio(RadioId id, double x, RadioConfig cfg = {}) {
    radios_.push_back(
        std::make_unique<VirtualRadio>(sim_, channel_, id, phy::Position{x, 0}, cfg));
    return *radios_.back();
  }

  std::vector<std::uint8_t> frame(std::size_t n = 20) {
    return std::vector<std::uint8_t>(n, 0xA5);
  }

  sim::Simulator sim_;
  Channel channel_;
  std::vector<std::unique_ptr<VirtualRadio>> radios_;
};

TEST_F(RadioTest, DeliversFrameBetweenNearbyRadios) {
  auto& a = make_radio(1, 0);
  auto& b = make_radio(2, 100);
  Capture rx;
  b.set_listener(&rx);
  b.start_receive();

  const auto payload = frame(20);
  EXPECT_TRUE(a.transmit(payload));
  EXPECT_EQ(a.state(), RadioState::Tx);
  sim_.run_for(Duration::seconds(1));

  ASSERT_EQ(rx.frames.size(), 1u);
  EXPECT_EQ(rx.frames[0].frame, payload);
  EXPECT_EQ(rx.frames[0].meta.transmitter, 1u);
  EXPECT_EQ(channel_.stats().receptions_delivered, 1u);
  EXPECT_EQ(a.state(), RadioState::Standby);
}

TEST_F(RadioTest, DeliveryHappensExactlyAtFrameEnd) {
  auto& a = make_radio(1, 0);
  auto& b = make_radio(2, 100);
  Capture rx;
  b.set_listener(&rx);
  b.start_receive();

  a.transmit(frame(20));
  const Duration toa = phy::time_on_air(a.modulation(), 20);
  sim_.run_for(toa - Duration::microseconds(1));
  EXPECT_TRUE(rx.frames.empty());
  sim_.run_for(Duration::microseconds(1));
  ASSERT_EQ(rx.frames.size(), 1u);
  EXPECT_EQ(rx.frames[0].meta.end, TimePoint::origin() + toa);
}

TEST_F(RadioTest, TxDoneFiresAndAirtimeAccumulates) {
  auto& a = make_radio(1, 0);
  Capture tx;
  a.set_listener(&tx);
  a.transmit(frame(20));
  sim_.run_for(Duration::seconds(1));
  EXPECT_EQ(tx.tx_done, 1);
  EXPECT_EQ(a.stats().tx_frames, 1u);
  EXPECT_EQ(a.stats().tx_bytes, 20u);
  EXPECT_EQ(a.time_in_state(RadioState::Tx), phy::time_on_air(a.modulation(), 20));
}

TEST_F(RadioTest, NotListeningMissesFrame) {
  auto& a = make_radio(1, 0);
  auto& b = make_radio(2, 100);
  Capture rx;
  b.set_listener(&rx);
  // b stays in Standby.
  a.transmit(frame());
  sim_.run_for(Duration::seconds(1));
  EXPECT_TRUE(rx.frames.empty());
  EXPECT_EQ(channel_.stats().dropped_not_listening, 1u);
}

TEST_F(RadioTest, LateReceiverMissesFrame) {
  auto& a = make_radio(1, 0);
  auto& b = make_radio(2, 100);
  Capture rx;
  b.set_listener(&rx);

  a.transmit(frame());
  // b wakes up mid-preamble: too late to lock.
  sim_.schedule_after(Duration::milliseconds(5), [&] { b.start_receive(); });
  sim_.run_for(Duration::seconds(1));
  EXPECT_TRUE(rx.frames.empty());
  EXPECT_EQ(channel_.stats().dropped_not_listening, 1u);
}

TEST_F(RadioTest, SleepingRadioHearsNothing) {
  auto& a = make_radio(1, 0);
  auto& b = make_radio(2, 100);
  Capture rx;
  b.set_listener(&rx);
  b.sleep();
  a.transmit(frame());
  sim_.run_for(Duration::seconds(1));
  EXPECT_TRUE(rx.frames.empty());
}

TEST_F(RadioTest, TransmitterDoesNotHearItself) {
  auto& a = make_radio(1, 0);
  Capture cap;
  a.set_listener(&cap);
  a.start_receive();
  a.transmit(frame());
  sim_.run_for(Duration::seconds(1));
  EXPECT_TRUE(cap.frames.empty());
  EXPECT_EQ(cap.tx_done, 1);
}

TEST_F(RadioTest, OutOfRangeFrameIsDropped) {
  auto& a = make_radio(1, 0);
  auto& b = make_radio(2, 200'000);  // 200 km
  Capture rx;
  b.set_listener(&rx);
  b.start_receive();
  a.transmit(frame());
  sim_.run_for(Duration::seconds(1));
  EXPECT_TRUE(rx.frames.empty());
  EXPECT_EQ(channel_.stats().dropped_below_sensitivity, 1u);
}

TEST_F(RadioTest, BlockedLinkDropsBothDirections) {
  auto& a = make_radio(1, 0);
  auto& b = make_radio(2, 100);
  Capture rxa, rxb;
  a.set_listener(&rxa);
  b.set_listener(&rxb);
  channel_.block_link(1, 2);

  b.start_receive();
  a.transmit(frame());
  sim_.run_for(Duration::seconds(1));
  a.start_receive();
  b.transmit(frame());
  sim_.run_for(Duration::seconds(1));
  EXPECT_TRUE(rxa.frames.empty());
  EXPECT_TRUE(rxb.frames.empty());
  EXPECT_EQ(channel_.stats().dropped_blocked_link, 2u);

  channel_.unblock_link(1, 2);
  b.start_receive();
  a.standby();
  a.transmit(frame());
  sim_.run_for(Duration::seconds(1));
  EXPECT_EQ(rxb.frames.size(), 1u);
}

TEST_F(RadioTest, ExtraLossAlwaysDropsAtProbabilityOne) {
  auto& a = make_radio(1, 0);
  auto& b = make_radio(2, 100);
  Capture rx;
  b.set_listener(&rx);
  channel_.set_link_extra_loss(1, 2, 1.0);
  b.start_receive();
  for (int i = 0; i < 5; ++i) {
    a.transmit(frame());
    sim_.run_for(Duration::seconds(1));
  }
  EXPECT_TRUE(rx.frames.empty());
  channel_.set_link_extra_loss(1, 2, 0.0);
  a.transmit(frame());
  sim_.run_for(Duration::seconds(1));
  EXPECT_EQ(rx.frames.size(), 1u);
}

TEST_F(RadioTest, EqualPowerCollisionDestroysBoth) {
  auto& a = make_radio(1, -100);
  auto& b = make_radio(2, 0);  // receiver in the middle
  auto& c = make_radio(3, 100);
  Capture rx;
  b.set_listener(&rx);
  b.start_receive();

  a.transmit(frame(50));
  c.transmit(frame(50));  // exact overlap, equal distance and power
  sim_.run_for(Duration::seconds(2));
  EXPECT_TRUE(rx.frames.empty());
  EXPECT_EQ(channel_.stats().dropped_collision, 2u);
}

TEST_F(RadioTest, CaptureEffectSavesTheMuchStrongerFrame) {
  auto& a = make_radio(1, 5000);  // far: weak at b
  auto& b = make_radio(2, 0);
  auto& c = make_radio(3, 50);  // near: strong at b
  Capture rx;
  b.set_listener(&rx);
  b.start_receive();

  a.transmit(frame(50));
  c.transmit(frame(50));
  sim_.run_for(Duration::seconds(2));
  ASSERT_EQ(rx.frames.size(), 1u);
  EXPECT_EQ(rx.frames[0].meta.transmitter, 3u);
  EXPECT_EQ(channel_.stats().dropped_collision, 1u);  // a's frame died
}

TEST_F(RadioTest, InterferenceOnlyDuringPreambleIsTolerated) {
  // Interferer i finishes before the signal's last-5-preamble-symbols
  // window opens: the receiver can still lock onto the signal.
  auto& a = make_radio(1, -100);  // signal source
  auto& b = make_radio(2, 0);     // receiver
  auto& c = make_radio(3, 100);   // interferer
  Capture rx;
  b.set_listener(&rx);
  b.start_receive();

  // Interferer: 1-byte frame ~= 25.9 ms on air, starting at t=0.
  c.transmit(frame(1));
  // Signal starts at 20 ms; its vulnerable window opens at
  // 20 ms + 12.544 ms - 5 * 1.024 ms = 27.42 ms > 25.9 ms.
  sim_.schedule_after(Duration::milliseconds(20), [&] { a.transmit(frame(50)); });
  sim_.run_for(Duration::seconds(2));

  ASSERT_EQ(rx.frames.size(), 1u);
  EXPECT_EQ(rx.frames[0].meta.transmitter, 1u);
}

TEST_F(RadioTest, InterferenceDuringPayloadDestroys) {
  auto& a = make_radio(1, -100);
  auto& b = make_radio(2, 0);
  auto& c = make_radio(3, 100);
  Capture rx;
  b.set_listener(&rx);
  b.start_receive();

  a.transmit(frame(50));  // ~100 ms on air
  sim_.schedule_after(Duration::milliseconds(50),
                      [&] { c.transmit(frame(1)); });  // hits the payload
  sim_.run_for(Duration::seconds(2));
  EXPECT_TRUE(rx.frames.empty());
  EXPECT_GE(channel_.stats().dropped_collision, 1u);
}

TEST_F(RadioTest, DifferentFrequencyDoesNotInteract) {
  RadioConfig other_freq;
  other_freq.frequency_hz = 869.5e6;
  auto& a = make_radio(1, 0, other_freq);
  auto& b = make_radio(2, 100);  // default 868.1 MHz
  Capture rx;
  b.set_listener(&rx);
  b.start_receive();
  a.transmit(frame());
  sim_.run_for(Duration::seconds(1));
  EXPECT_TRUE(rx.frames.empty());
  // Not even counted as a drop: different channel entirely.
  EXPECT_EQ(channel_.stats().dropped_below_sensitivity, 0u);
  EXPECT_EQ(channel_.stats().dropped_not_listening, 0u);
}

TEST_F(RadioTest, ModulationMismatchCannotDecode) {
  RadioConfig sf9;
  sf9.modulation.sf = phy::SpreadingFactor::SF9;
  auto& a = make_radio(1, 0);  // SF7
  auto& b = make_radio(2, 100, sf9);
  Capture rx;
  b.set_listener(&rx);
  b.start_receive();
  a.transmit(frame());
  sim_.run_for(Duration::seconds(1));
  EXPECT_TRUE(rx.frames.empty());
  EXPECT_EQ(channel_.stats().dropped_modulation_mismatch, 1u);
}

TEST_F(RadioTest, CrossSfInterferenceAppliesQuasiOrthogonality) {
  // SF9 signal; SF7 interferer 30 dB stronger at the receiver: exceeds the
  // cross-SF rejection threshold, so the SF9 frame dies.
  RadioConfig sf9;
  sf9.modulation.sf = phy::SpreadingFactor::SF9;
  auto& a = make_radio(1, 10'000, sf9);  // weak SF9 signal
  auto& b = make_radio(2, 0, sf9);
  auto& c = make_radio(3, 30);  // loud SF7 interferer right next to b
  Capture rx;
  b.set_listener(&rx);
  b.start_receive();

  a.transmit(frame(50));
  sim_.schedule_after(Duration::milliseconds(100), [&] { c.transmit(frame(100)); });
  sim_.run_for(Duration::seconds(5));
  EXPECT_TRUE(rx.frames.empty());
  EXPECT_GE(channel_.stats().dropped_collision, 1u);
}

TEST_F(RadioTest, CadDetectsOngoingSameSfTransmission) {
  auto& a = make_radio(1, 0);
  auto& b = make_radio(2, 100);
  Capture cad;
  b.set_listener(&cad);

  a.transmit(frame(100));
  sim_.schedule_after(Duration::milliseconds(10), [&] {
    EXPECT_TRUE(b.start_cad());
    EXPECT_EQ(b.state(), RadioState::Cad);
  });
  sim_.run_for(Duration::seconds(1));
  ASSERT_EQ(cad.cad_results.size(), 1u);
  EXPECT_TRUE(cad.cad_results[0]);
  EXPECT_EQ(b.state(), RadioState::Standby);
  EXPECT_EQ(b.stats().cad_runs, 1u);
  EXPECT_EQ(b.stats().cad_busy, 1u);
}

TEST_F(RadioTest, CadCatchesFrameStartingMidWindow) {
  // The detector integrates over the whole ~1.5-symbol window: a preamble
  // beginning after CAD start is still caught (this is what makes CSMA
  // close the race between two nodes arming transmissions microseconds
  // apart).
  auto& a = make_radio(1, 0);
  auto& b = make_radio(2, 100);
  Capture cad;
  b.set_listener(&cad);
  b.start_cad();  // window [0, 1.536 ms]
  sim_.schedule_after(Duration::microseconds(500), [&] { a.transmit(frame(20)); });
  sim_.run_for(Duration::seconds(1));
  ASSERT_EQ(cad.cad_results.size(), 1u);
  EXPECT_TRUE(cad.cad_results[0]);
}

TEST_F(RadioTest, CadOnIdleChannelReportsClear) {
  auto& b = make_radio(2, 100);
  Capture cad;
  b.set_listener(&cad);
  b.start_cad();
  sim_.run_for(Duration::seconds(1));
  ASSERT_EQ(cad.cad_results.size(), 1u);
  EXPECT_FALSE(cad.cad_results[0]);
}

TEST_F(RadioTest, CadIgnoresOtherSf) {
  RadioConfig sf9;
  sf9.modulation.sf = phy::SpreadingFactor::SF9;
  auto& a = make_radio(1, 0, sf9);
  auto& b = make_radio(2, 100);  // SF7 CAD
  Capture cad;
  b.set_listener(&cad);
  a.transmit(frame(100));
  sim_.schedule_after(Duration::milliseconds(10), [&] { b.start_cad(); });
  sim_.run_for(Duration::seconds(2));
  ASSERT_EQ(cad.cad_results.size(), 1u);
  EXPECT_FALSE(cad.cad_results[0]);
}

TEST_F(RadioTest, CadTakesOneAndAHalfSymbols) {
  auto& b = make_radio(2, 100);
  Capture cad;
  b.set_listener(&cad);
  b.start_cad();
  sim_.run_for(phy::cad_time(b.modulation()) - Duration::microseconds(1));
  EXPECT_TRUE(cad.cad_results.empty());
  sim_.run_for(Duration::microseconds(1));
  EXPECT_EQ(cad.cad_results.size(), 1u);
}

TEST_F(RadioTest, CadAbortsOngoingReception) {
  auto& a = make_radio(1, 0);
  auto& b = make_radio(2, 100);
  Capture rx;
  b.set_listener(&rx);
  b.start_receive();
  a.transmit(frame(100));
  // Mid-frame CAD breaks RX continuity: the frame is lost.
  sim_.schedule_after(Duration::milliseconds(20), [&] {
    b.start_cad();
  });
  sim_.run_for(Duration::seconds(1));
  EXPECT_TRUE(rx.frames.empty());
  EXPECT_EQ(channel_.stats().dropped_not_listening, 1u);
}

TEST_F(RadioTest, TransmitWhileBusyReturnsFalse) {
  auto& a = make_radio(1, 0);
  EXPECT_TRUE(a.transmit(frame()));
  EXPECT_FALSE(a.transmit(frame()));  // mid-TX
  sim_.run_for(Duration::seconds(1));
  EXPECT_TRUE(a.start_cad());
  EXPECT_FALSE(a.transmit(frame()));  // mid-CAD
  EXPECT_FALSE(a.start_cad());
  sim_.run_for(Duration::seconds(1));
  a.sleep();
  EXPECT_FALSE(a.transmit(frame()));  // asleep
}

TEST_F(RadioTest, StateTransitionPreconditions) {
  auto& a = make_radio(1, 0);
  a.transmit(frame());
  EXPECT_THROW(a.standby(), ContractViolation);
  EXPECT_THROW(a.sleep(), ContractViolation);
  EXPECT_THROW(a.start_receive(), ContractViolation);
  sim_.run_for(Duration::seconds(1));
  a.standby();  // fine now
}

TEST_F(RadioTest, TransmitRejectsBadFrames) {
  auto& a = make_radio(1, 0);
  EXPECT_THROW(a.transmit({}), ContractViolation);
  EXPECT_THROW(a.transmit(frame(256)), ContractViolation);
}

TEST_F(RadioTest, TransmitPreemptsReception) {
  auto& a = make_radio(1, 0);
  auto& b = make_radio(2, 100);
  Capture rx;
  b.set_listener(&rx);
  b.start_receive();
  a.transmit(frame(100));
  // b answers mid-reception: its own RX is toast.
  sim_.schedule_after(Duration::milliseconds(10), [&] { b.transmit(frame(5)); });
  sim_.run_for(Duration::seconds(1));
  EXPECT_TRUE(rx.frames.empty());
}

TEST_F(RadioTest, MobilityAffectsSubsequentFrames) {
  auto& a = make_radio(1, 0);
  auto& b = make_radio(2, 100);
  Capture rx;
  b.set_listener(&rx);
  b.start_receive();
  a.transmit(frame());
  sim_.run_for(Duration::seconds(1));
  ASSERT_EQ(rx.frames.size(), 1u);
  const double rssi_near = rx.frames[0].meta.rssi_dbm;

  a.set_position({10'000, 0});
  a.transmit(frame());
  sim_.run_for(Duration::seconds(1));
  ASSERT_EQ(rx.frames.size(), 2u);
  EXPECT_LT(rx.frames[1].meta.rssi_dbm, rssi_near - 30.0);
}

TEST_F(RadioTest, MeanRssiMatchesLinkBudget) {
  auto& a = make_radio(1, 0);
  auto& b = make_radio(2, 1000);
  // Free space at 1 km / 868 MHz: 14 dBm - 91.2 dB = -77.2 dBm.
  EXPECT_NEAR(channel_.mean_rssi_dbm(a, b), -77.2, 0.1);
  EXPECT_NEAR(channel_.link_quality(a, b), 1.0, 1e-6);
}

TEST_F(RadioTest, LinkQualityDropsToZeroOutOfRange) {
  auto& a = make_radio(1, 0);
  auto& b = make_radio(2, 500'000);
  EXPECT_DOUBLE_EQ(channel_.link_quality(a, b), 0.0);
}

TEST_F(RadioTest, DuplicateRadioIdRejected) {
  make_radio(1, 0);
  EXPECT_THROW(make_radio(1, 50), ContractViolation);
}

TEST_F(RadioTest, ShadowingIsStablePerLink) {
  sim::Simulator sim2;
  PropagationConfig prop = PropagationConfig::campus();
  prop.fading_sigma_db = 0.0;  // isolate shadowing
  Channel shadowed(sim2, prop, 7);
  VirtualRadio a(sim2, shadowed, 1, {0, 0}, {});
  VirtualRadio b(sim2, shadowed, 2, {500, 0}, {});
  const double r1 = shadowed.mean_rssi_dbm(a, b);
  const double r2 = shadowed.mean_rssi_dbm(a, b);
  const double r3 = shadowed.mean_rssi_dbm(b, a);
  EXPECT_DOUBLE_EQ(r1, r2);  // sampled once
  EXPECT_DOUBLE_EQ(r1, r3);  // symmetric
}

}  // namespace
}  // namespace lm::radio
