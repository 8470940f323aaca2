// On-air protocol behaviour, asserted through a promiscuous sniffer: what
// the node actually transmits, in which order, and when — not what its
// counters claim.
#include <gtest/gtest.h>

#include "net/mesh_node.h"
#include "phy/airtime.h"
#include "phy/path_loss.h"
#include "support/stats.h"
#include "testbed/scenario.h"
#include "testbed/sniffer.h"
#include "testbed/topology.h"

namespace lm::net {
namespace {

using testbed::MeshScenario;
using testbed::Sniffer;

testbed::ScenarioConfig cfg(std::uint64_t seed = 2) {
  testbed::ScenarioConfig c;
  c.seed = seed;
  c.propagation.path_loss = phy::make_log_distance(3.5, 40.0);
  c.propagation.shadowing_sigma_db = 0.0;
  c.propagation.fading_sigma_db = 0.0;
  c.mesh.hello_interval = Duration::seconds(20);
  c.mesh.duty_cycle_limit = 1.0;
  return c;
}

TEST(ProtocolBehavior, QueuedDatagramsLeaveInFifoOrder) {
  auto c = cfg();
  c.mesh.hello_interval = Duration::minutes(10);  // keep the air quiet
  MeshScenario s(c);
  s.add_nodes(testbed::chain(2, 400.0));
  Sniffer sniffer(s.simulator(), s.channel(), 99, {200.0, 0.0});
  s.start_all();
  s.run_for(Duration::minutes(11));  // initial randomized beacons exchange
  ASSERT_TRUE(s.node(0).routing_table().has_route(s.address_of(1)));
  sniffer.clear();

  // Queue six datagrams back-to-back; they serialize through CSMA and must
  // hit the air exactly in submission order.
  for (int i = 0; i < 6; ++i) {
    s.node(0).send_datagram(s.address_of(1), {static_cast<std::uint8_t>(i)});
  }
  s.run_for(Duration::minutes(2));
  std::vector<int> data_payload_order;
  for (const auto& cap : sniffer.captures()) {
    if (!cap.packet) continue;
    if (const auto* d = std::get_if<DataPacket>(&*cap.packet)) {
      if (d->link.src == s.address_of(0) && !d->payload.empty()) {
        data_payload_order.push_back(d->payload[0]);
      }
    }
  }
  EXPECT_EQ(data_payload_order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(ProtocolBehavior, ControlPacketsJumpTheDataQueue) {
  auto c = cfg(14);
  c.mesh.hello_interval = Duration::minutes(10);  // keep the air quiet
  MeshScenario s(c);
  s.add_nodes(testbed::chain(2, 400.0));
  Sniffer sniffer(s.simulator(), s.channel(), 99, {200.0, 0.0});
  s.start_all();
  s.run_for(Duration::minutes(11));
  ASSERT_TRUE(s.node(0).routing_table().has_route(s.address_of(1)));
  sniffer.clear();

  // Three datagrams queue up (the first goes straight to the radio), then
  // a control packet arrives: it must overtake the waiting datagrams.
  for (int i = 0; i < 3; ++i) {
    s.node(0).send_datagram(s.address_of(1), {static_cast<std::uint8_t>(i)});
  }
  PollPacket poll;
  poll.link = LinkHeader{kUnassigned, s.address_of(0)};
  poll.route.final_dst = s.address_of(1);
  poll.route.origin = s.address_of(0);
  poll.route.ttl = 4;
  poll.seq = 1;
  s.node(0).submit_control(Packet{poll});
  s.run_for(Duration::minutes(1));

  std::vector<PacketType> order;
  for (const auto& cap : sniffer.captures()) {
    if (!cap.packet) continue;
    const LinkHeader& link = link_of(*cap.packet);
    // Ignore periodic beacons; they ride the control queue on their own
    // schedule and are not part of the ordering under test.
    if (link.src != s.address_of(0) || type_of(*cap.packet) == PacketType::Routing) continue;
    order.push_back(type_of(*cap.packet));
  }
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], PacketType::Data);  // already committed to the radio
  EXPECT_EQ(order[1], PacketType::Poll);  // control overtakes
  EXPECT_EQ(order[2], PacketType::Data);
  EXPECT_EQ(order[3], PacketType::Data);
}

TEST(ProtocolBehavior, BeaconIntervalJitterIsBounded) {
  auto c = cfg(9);
  c.mesh.hello_jitter = 0.15;
  MeshScenario s(c);
  s.add_node({0.0, 0.0});
  Sniffer sniffer(s.simulator(), s.channel(), 99, {100.0, 0.0});
  s.start_all();
  s.run_for(Duration::hours(2));

  // Gaps between consecutive beacons: within hello * (1 +- jitter), and
  // actually spread (not constant).
  std::vector<double> gaps;
  double last = -1.0;
  for (const auto& cap : sniffer.captures()) {
    if (!cap.packet ||
        type_of(*cap.packet) != PacketType::Routing) {
      continue;
    }
    const double t = cap.at.seconds_d();
    if (last >= 0.0) gaps.push_back(t - last);
    last = t;
  }
  ASSERT_GT(gaps.size(), 100u);
  RunningStats stats;
  for (double g : gaps) {
    EXPECT_GE(g, 20.0 * 0.85 - 0.5);
    EXPECT_LE(g, 20.0 * 1.15 + 0.5);
    stats.add(g);
  }
  EXPECT_NEAR(stats.mean(), 20.0, 0.5);
  EXPECT_GT(stats.stddev(), 0.5);  // jitter actually applied
}

TEST(ProtocolBehavior, ZeroJitterBeaconsArePeriodic) {
  auto c = cfg(10);
  c.mesh.hello_jitter = 0.0;
  MeshScenario s(c);
  s.add_node({0.0, 0.0});
  Sniffer sniffer(s.simulator(), s.channel(), 99, {100.0, 0.0});
  s.start_all();
  s.run_for(Duration::minutes(20));

  double last = -1.0;
  for (const auto& cap : sniffer.captures()) {
    if (!cap.packet || type_of(*cap.packet) != PacketType::Routing) continue;
    const double t = cap.at.seconds_d();
    if (last >= 0.0) {
      EXPECT_NEAR(t - last, 20.0, 0.2);  // CSMA adds only milliseconds
    }
    last = t;
  }
}

TEST(ProtocolBehavior, BeaconContentTracksRoutingTable) {
  MeshScenario s(cfg(11));
  s.add_nodes(testbed::chain(3, 400.0));
  Sniffer sniffer(s.simulator(), s.channel(), 99, {400.0, 100.0});
  s.start_all();
  ASSERT_TRUE(s.run_until_converged(Duration::minutes(10)).has_value());
  sniffer.clear();
  s.run_for(Duration::seconds(45));  // capture a steady-state beacon round

  bool checked_middle = false;
  for (const auto& cap : sniffer.captures()) {
    if (!cap.packet) continue;
    const auto* routing = std::get_if<RoutingPacket>(&*cap.packet);
    if (routing == nullptr || routing->link.src != s.address_of(1)) continue;
    checked_middle = true;
    // The middle node advertises itself (metric 0) and both ends (metric 1).
    ASSERT_EQ(routing->entries.size(), 3u);
    EXPECT_EQ(routing->entries[0].address, s.address_of(0));
    EXPECT_EQ(routing->entries[0].metric, 1);
    EXPECT_EQ(routing->entries[1].address, s.address_of(1));
    EXPECT_EQ(routing->entries[1].metric, 0);
    EXPECT_EQ(routing->entries[2].address, s.address_of(2));
    EXPECT_EQ(routing->entries[2].metric, 1);
  }
  EXPECT_TRUE(checked_middle);
}

TEST(ProtocolBehavior, ForwardedFrameRewritesLinkNotRoute) {
  MeshScenario s(cfg(12));
  s.add_nodes(testbed::chain(3, 400.0));
  Sniffer sniffer(s.simulator(), s.channel(), 99, {400.0, 100.0});
  s.start_all();
  ASSERT_TRUE(s.run_until_converged(Duration::minutes(10)).has_value());
  sniffer.clear();

  s.node(0).send_datagram(s.address_of(2), {0x77});
  s.run_for(Duration::seconds(10));

  std::vector<DataPacket> hops;
  for (const auto& cap : sniffer.captures()) {
    if (!cap.packet) continue;
    if (const auto* d = std::get_if<DataPacket>(&*cap.packet)) hops.push_back(*d);
  }
  ASSERT_EQ(hops.size(), 2u);  // origin tx + one forward
  // Hop 1: 0 -> 1 on the link; end-to-end constants.
  EXPECT_EQ(hops[0].link.src, s.address_of(0));
  EXPECT_EQ(hops[0].link.dst, s.address_of(1));
  // Hop 2: link rewritten, route header's endpoints untouched.
  EXPECT_EQ(hops[1].link.src, s.address_of(1));
  EXPECT_EQ(hops[1].link.dst, s.address_of(2));
  for (const auto& h : hops) {
    EXPECT_EQ(h.route.origin, s.address_of(0));
    EXPECT_EQ(h.route.final_dst, s.address_of(2));
    EXPECT_EQ(h.payload, (std::vector<std::uint8_t>{0x77}));
  }
  EXPECT_EQ(hops[1].route.ttl, hops[0].route.ttl - 1);
  EXPECT_EQ(hops[1].route.hops, hops[0].route.hops + 1);
  EXPECT_EQ(hops[1].route.packet_id, hops[0].route.packet_id);
}

TEST(ProtocolBehavior, SessionPacketsAreUnicastOnTheAir) {
  // Regression: SYNC/FRAGMENT/ACK/... frames must carry a resolved next
  // hop, never the broadcast address — a broadcast fragment makes every
  // neighbor forward it (duplicate storms, found via this sniffer).
  MeshScenario s(cfg(15));
  s.add_nodes(testbed::chain(3, 400.0));
  Sniffer sniffer(s.simulator(), s.channel(), 99, {400.0, 100.0});
  s.start_all();
  ASSERT_TRUE(s.run_until_converged(Duration::minutes(10)).has_value());

  int outcome = -1;
  s.node(0).send_reliable(s.address_of(2), std::vector<std::uint8_t>(600, 1),
                          [&](bool ok) { outcome = ok ? 1 : 0; });
  int acked_outcome = -1;
  s.node(2).send_acked(s.address_of(0), {5},
                       [&](bool ok) { acked_outcome = ok ? 1 : 0; });
  s.run_for(Duration::minutes(3));
  EXPECT_EQ(outcome, 1);
  EXPECT_EQ(acked_outcome, 1);

  for (const auto& cap : sniffer.captures()) {
    if (!cap.packet) continue;
    const LinkHeader& link = link_of(*cap.packet);
    if (type_of(*cap.packet) == PacketType::Routing) continue;  // legitimately broadcast
    EXPECT_NE(link.dst, kBroadcast) << describe(*cap.packet);
    EXPECT_NE(link.dst, kUnassigned) << describe(*cap.packet);
  }
}

TEST(ProtocolBehavior, AckedExchangeIsTwoFramesPerHop) {
  MeshScenario s(cfg(13));
  s.add_nodes(testbed::chain(2, 400.0));
  Sniffer sniffer(s.simulator(), s.channel(), 99, {200.0, 0.0});
  s.start_all();
  s.run_for(Duration::minutes(1));
  sniffer.clear();

  int outcome = -1;
  s.node(0).send_acked(s.address_of(1), {1}, [&](bool ok) { outcome = ok; });
  s.run_for(Duration::seconds(10));
  EXPECT_EQ(outcome, 1);
  EXPECT_EQ(sniffer.count_of(PacketType::AckedData), 1u);
  EXPECT_EQ(sniffer.count_of(PacketType::Ack), 1u);
  EXPECT_EQ(sniffer.count_of(PacketType::Sync), 0u);  // no session machinery
}

}  // namespace
}  // namespace lm::net
