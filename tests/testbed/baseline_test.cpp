// Tests for the LoRaWAN-style star network baseline. Controlled flooding
// runs on the shared stack and is tested in tests/net/strategy_test.cpp.
#include <gtest/gtest.h>

#include "baseline/star_network.h"
#include "phy/path_loss.h"
#include "radio/channel.h"
#include "radio/virtual_radio.h"
#include "sim/simulator.h"

namespace lm::baseline {
namespace {

constexpr double kSpacing = 400.0;

// --- Star ---------------------------------------------------------------------

TEST(Star, GatewayReceivesInRangeUplinks) {
  sim::Simulator sim;
  radio::Channel channel(sim, radio::PropagationConfig::free_space(), 1);
  radio::VirtualRadio gw_radio(sim, channel, 1, {0, 0}, {});
  radio::VirtualRadio dev_radio(sim, channel, 2, {1000, 0}, {});

  std::vector<std::uint16_t> seqs;
  net::Address from = net::kUnassigned;
  GatewayNode gateway(gw_radio, [&](net::Address dev, std::uint16_t seq,
                                    const std::vector<std::uint8_t>& payload) {
    from = dev;
    seqs.push_back(seq);
    EXPECT_EQ(payload.size(), 10u);
  });
  gateway.start();
  EndDeviceNode device(sim, dev_radio, 0x0042, {}, 7);
  device.start();

  EXPECT_TRUE(device.send_uplink(std::vector<std::uint8_t>(10, 1)));
  EXPECT_TRUE(device.send_uplink(std::vector<std::uint8_t>(10, 2)));
  sim.run_for(Duration::minutes(1));

  EXPECT_EQ(gateway.uplinks_received(), 2u);
  EXPECT_EQ(from, 0x0042);
  EXPECT_EQ(seqs, (std::vector<std::uint16_t>{0, 1}));
  EXPECT_EQ(device.uplinks_sent(), 2u);
}

TEST(Star, OutOfRangeDeviceCannotDeliver) {
  sim::Simulator sim;
  radio::PropagationConfig prop;
  prop.path_loss = phy::make_log_distance(3.5, 40.0);
  radio::Channel channel(sim, prop, 1);
  radio::VirtualRadio gw_radio(sim, channel, 1, {0, 0}, {});
  radio::VirtualRadio dev_radio(sim, channel, 2, {2 * kSpacing, 0}, {});

  GatewayNode gateway(gw_radio, nullptr);
  gateway.start();
  EndDeviceNode device(sim, dev_radio, 0x0042, {}, 7);
  device.start();
  device.send_uplink(std::vector<std::uint8_t>(10, 1));
  sim.run_for(Duration::minutes(1));
  EXPECT_EQ(gateway.uplinks_received(), 0u);
  EXPECT_EQ(device.uplinks_sent(), 1u);  // it transmitted; nobody heard
}

TEST(Star, AlohaCollisionsLoseFrames) {
  sim::Simulator sim;
  radio::Channel channel(sim, radio::PropagationConfig::free_space(), 1);
  radio::VirtualRadio gw_radio(sim, channel, 1, {0, 0}, {});
  GatewayNode gateway(gw_radio, nullptr);
  gateway.start();

  // Two equidistant devices with zero dither transmit simultaneously.
  EndDeviceConfig no_dither;
  no_dither.tx_dither = Duration::microseconds(1);
  radio::VirtualRadio r2(sim, channel, 2, {1000, 0}, {});
  radio::VirtualRadio r3(sim, channel, 3, {-1000, 0}, {});
  EndDeviceNode d2(sim, r2, 0x0002, no_dither, 7);
  EndDeviceNode d3(sim, r3, 0x0003, no_dither, 7);
  d2.start();
  d3.start();
  d2.send_uplink(std::vector<std::uint8_t>(10, 1));
  d3.send_uplink(std::vector<std::uint8_t>(10, 1));
  sim.run_for(Duration::minutes(1));
  EXPECT_EQ(gateway.uplinks_received(), 0u);
  EXPECT_GE(channel.stats().dropped_collision, 1u);
}

TEST(Star, QueueLimitsRespected) {
  sim::Simulator sim;
  radio::Channel channel(sim, radio::PropagationConfig::free_space(), 1);
  radio::VirtualRadio r(sim, channel, 2, {1000, 0}, {});
  EndDeviceConfig cfg;
  cfg.max_queue = 2;
  EndDeviceNode d(sim, r, 0x0002, cfg, 7);
  d.start();
  for (int i = 0; i < 10; ++i) d.send_uplink(std::vector<std::uint8_t>(10, 1));
  EXPECT_GT(d.dropped_queue_full(), 0u);
  sim.run_for(Duration::minutes(1));
  EXPECT_LE(d.uplinks_sent(), 3u);  // 1 in flight + 2 queued
}

TEST(Star, RestartDuringDitherStillTransmits) {
  sim::Simulator sim;
  radio::Channel channel(sim, radio::PropagationConfig::free_space(), 1);
  radio::VirtualRadio gw_radio(sim, channel, 1, {0, 0}, {});
  radio::VirtualRadio dev_radio(sim, channel, 2, {1000, 0}, {});
  GatewayNode gateway(gw_radio, nullptr);
  gateway.start();
  EndDeviceNode device(sim, dev_radio, 0x0042, {}, 7);
  device.start();

  // stop() inside the 200 ms dither cancels the pending uplink; after a
  // restart the device must transmit again rather than stay busy forever.
  ASSERT_TRUE(device.send_uplink(std::vector<std::uint8_t>(10, 1)));
  device.stop();
  device.start();
  ASSERT_TRUE(device.send_uplink(std::vector<std::uint8_t>(10, 2)));
  sim.run_for(Duration::minutes(1));
  EXPECT_EQ(device.uplinks_sent(), 1u);
  EXPECT_EQ(gateway.uplinks_received(), 1u);
}

}  // namespace
}  // namespace lm::baseline
