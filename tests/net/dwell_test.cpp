// US915-style dwell-time enforcement: with max_dwell_time set, no frame a
// node originates may exceed the per-transmission airtime cap — datagram
// MTUs shrink, reliable transfers use smaller fragments, and beacons trim.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/mesh_node.h"
#include "phy/airtime.h"
#include "phy/path_loss.h"
#include "phy/region.h"
#include "support/assert.h"
#include "testbed/scenario.h"
#include "testbed/sniffer.h"
#include "testbed/topology.h"

namespace lm::net {
namespace {

using testbed::MeshScenario;

testbed::ScenarioConfig dwell_config(phy::SpreadingFactor sf,
                                     Duration dwell, std::uint64_t seed = 3) {
  testbed::ScenarioConfig c;
  c.seed = seed;
  c.propagation.path_loss = phy::make_log_distance(3.5, 40.0);
  c.propagation.shadowing_sigma_db = 0.0;
  c.propagation.fading_sigma_db = 0.0;
  c.radio.modulation.sf = sf;
  c.mesh.hello_interval = Duration::seconds(20);
  c.mesh.duty_cycle_limit = 1.0;
  c.mesh.max_dwell_time = dwell;
  c.mesh.fragment_spacing = Duration::milliseconds(20);
  c.mesh.reliable_retry_timeout = Duration::seconds(8);
  c.mesh.receiver_gap_timeout = Duration::seconds(10);
  return c;
}

// Nodes must sit closer at SF10 spacing irrelevant — 400 m still decodes.
constexpr double kSpacing = 400.0;
const Duration kFccDwell = Duration::milliseconds(400);

TEST(DwellTime, MtuShrinksWithTheCap) {
  MeshScenario s(dwell_config(phy::SpreadingFactor::SF10, kFccDwell));
  s.add_nodes(testbed::chain(2, kSpacing));
  // At SF10/125 kHz, 400 ms fits only a small frame.
  const std::size_t mtu = s.node(0).max_datagram_payload();
  EXPECT_LT(mtu, 30u);
  EXPECT_GE(mtu, 4u);
  // The full-size frame would have taken ~2 s; the capped one fits.
  EXPECT_LE(phy::time_on_air(s.radio(0).modulation(),
                             mtu + kLinkHeaderSize + kRouteHeaderSize),
            kFccDwell);
}

TEST(DwellTime, OversizedSendsAreRefusedNotTruncated) {
  MeshScenario s(dwell_config(phy::SpreadingFactor::SF10, kFccDwell));
  s.add_nodes(testbed::chain(2, kSpacing));
  s.start_all();
  s.run_for(Duration::minutes(2));
  const std::size_t mtu = s.node(0).max_datagram_payload();
  EXPECT_FALSE(s.node(0).send_datagram(
      s.address_of(1), std::vector<std::uint8_t>(mtu + 1, 1)));
  EXPECT_TRUE(s.node(0).send_datagram(s.address_of(1),
                                      std::vector<std::uint8_t>(mtu, 1)));
}

TEST(DwellTime, EveryFrameOnTheAirFitsTheCap) {
  MeshScenario s(dwell_config(phy::SpreadingFactor::SF10, kFccDwell));
  s.add_nodes(testbed::chain(3, kSpacing));
  radio::RadioConfig sniffer_cfg;
  sniffer_cfg.modulation.sf = phy::SpreadingFactor::SF10;
  testbed::Sniffer sniffer(s.simulator(), s.channel(), 99, {kSpacing, 100.0},
                           sniffer_cfg);
  s.start_all();
  ASSERT_TRUE(s.run_until_converged(Duration::minutes(20)).has_value());

  // Work the mesh: datagrams + a reliable transfer with shrunken fragments.
  int outcome = -1;
  std::vector<std::uint8_t> payload(200, 0x3D);
  std::vector<std::uint8_t> received;
  s.node(2).set_reliable_handler(
      [&](Address, std::vector<std::uint8_t> d) { received = std::move(d); });
  ASSERT_TRUE(s.node(0).send_reliable(s.address_of(2), payload,
                                      [&](bool ok) { outcome = ok ? 1 : 0; }));
  s.run_for(Duration::minutes(10));
  EXPECT_EQ(outcome, 1);
  EXPECT_EQ(received, payload);

  ASSERT_GT(sniffer.captures().size(), 10u);
  const auto& mod = sniffer.radio().modulation();
  for (const auto& cap : sniffer.captures()) {
    EXPECT_LE(phy::time_on_air(mod, cap.raw.size()).us(), kFccDwell.us())
        << cap.raw.size() << " bytes";
  }
}

TEST(DwellTime, BeaconsTrimToTheCap) {
  // A node taught many routes must not emit an over-dwell beacon.
  auto c = dwell_config(phy::SpreadingFactor::SF10, kFccDwell, 5);
  MeshScenario s(c);
  s.add_nodes(testbed::chain(2, kSpacing));
  radio::RadioConfig sniffer_cfg;
  sniffer_cfg.modulation.sf = phy::SpreadingFactor::SF10;
  testbed::Sniffer sniffer(s.simulator(), s.channel(), 99, {200.0, 0.0},
                           sniffer_cfg);
  s.start_all();
  s.run_for(Duration::seconds(5));

  // Inject a giant table via a rogue beacon so node 0 knows ~60 routes.
  radio::VirtualRadio rogue(s.simulator(), s.channel(), 66, {100.0, 0.0},
                            sniffer_cfg);
  RoutingPacket big;
  big.link = LinkHeader{kBroadcast, 0x0666};
  for (int i = 0; i < 60; ++i) {
    big.entries.push_back({static_cast<Address>(0x2000 + i), 2});
  }
  rogue.transmit(encode(Packet{big}));
  s.run_for(Duration::minutes(3));

  bool saw_big_table_beacon = false;
  for (const auto& cap : sniffer.captures()) {
    if (!cap.packet) continue;
    const auto* routing = std::get_if<RoutingPacket>(&*cap.packet);
    if (routing == nullptr || routing->link.src != s.address_of(0)) continue;
    // Trimmed: the frame still fits the dwell cap...
    EXPECT_LE(phy::time_on_air(sniffer_cfg.modulation, cap.raw.size()).us(),
              kFccDwell.us());
    if (routing->entries.size() > 3) saw_big_table_beacon = true;
  }
  // ...and carries as many entries as fit (not the whole 60+).
  EXPECT_TRUE(saw_big_table_beacon);
}

TEST(DwellTime, CappedNodeWithTheHighestAddressStillAdvertisesItsRole) {
  // The cap keeps the nearest (metric, address) destinations and always the
  // node's own metric-0 entry, which carries its role, even when that
  // entry's address sorts after every other one.
  auto c = dwell_config(phy::SpreadingFactor::SF9, kFccDwell, 7);
  MeshScenario s(c);
  radio::RadioConfig radio_cfg;
  radio_cfg.modulation.sf = phy::SpreadingFactor::SF9;
  constexpr Address kHigh = 0x7FF0;
  radio::VirtualRadio radio(s.simulator(), s.channel(), 1, {0.0, 0.0}, radio_cfg);
  MeshConfig mesh = c.mesh;
  mesh.role = roles::kGateway;
  MeshNode node(s.simulator(), radio, kHigh, mesh, 11);
  testbed::Sniffer sniffer(s.simulator(), s.channel(), 99, {200.0, 0.0},
                           radio_cfg);
  node.start();
  s.run_for(Duration::seconds(5));

  // A rogue teaches the node 60 routes, all at lower addresses: every
  // twentieth one near, the rest far.
  constexpr Address kRogue = 0x0666;
  radio::VirtualRadio rogue(s.simulator(), s.channel(), 66, {100.0, 0.0},
                            radio_cfg);
  RoutingPacket big;
  big.link = LinkHeader{kBroadcast, kRogue};
  for (int i = 0; i < 60; ++i) {
    big.entries.push_back({static_cast<Address>(0x2000 + i),
                           static_cast<std::uint8_t>(i % 20 == 0 ? 1 : 5)});
  }
  rogue.transmit(encode(Packet{big}));
  s.run_for(Duration::minutes(3));

  // As many entries as one capped frame carries: the node itself, the
  // rogue, the three near routes, then the lowest far addresses.
  const std::size_t cap = routing_entries_within(
      node.max_datagram_payload() + kLinkHeaderSize + kRouteHeaderSize);
  ASSERT_GT(cap, 5u);  // some far routes make the cut, some do not
  ASSERT_LT(cap, 60u);
  std::vector<RoutingEntry> expected = {
      {kRogue, 1}, {0x2000, 2}, {0x2014, 2}, {0x2028, 2}};
  for (Address a = 0x2001; expected.size() < cap - 1; ++a) {
    if ((a - 0x2000) % 20 != 0) expected.push_back({a, 6});
  }
  expected.push_back({kHigh, 0, roles::kGateway});
  std::ranges::sort(expected, {}, &RoutingEntry::address);

  std::size_t big_beacons = 0;
  for (const auto& capture : sniffer.captures()) {
    if (!capture.packet) continue;
    const auto* routing = std::get_if<RoutingPacket>(&*capture.packet);
    if (routing == nullptr || routing->link.src != kHigh) continue;
    if (routing->entries.size() <= 1) continue;  // before the rogue spoke
    ++big_beacons;
    EXPECT_EQ(std::vector<RoutingEntry>(routing->entries.begin(),
                                        routing->entries.end()),
              expected);
  }
  EXPECT_GT(big_beacons, 0u);
  node.stop();
}

TEST(DwellTime, InfeasibleCapIsRejectedAtConstruction) {
  // 400 ms at SF12 cannot even fit the headers.
  auto c = dwell_config(phy::SpreadingFactor::SF12, kFccDwell);
  MeshScenario s(c);
  EXPECT_THROW(s.add_node({0, 0}), ContractViolation);
}

TEST(DwellTime, DisabledByDefault) {
  MeshConfig def;
  EXPECT_TRUE(def.max_dwell_time.is_zero());
  MeshScenario s(dwell_config(phy::SpreadingFactor::SF7, Duration::zero()));
  s.add_nodes(testbed::chain(2, kSpacing));
  EXPECT_EQ(s.node(0).max_datagram_payload(), kMaxDataPayload);
}

}  // namespace
}  // namespace lm::net
