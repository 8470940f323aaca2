// Integration tests: full MeshNode protocol behaviour over the simulated
// radio channel. Topology is controlled through propagation physics — with
// log-distance exponent 3.5 and 400 m spacing, adjacent chain nodes decode
// ~perfectly while two-hop neighbors sit below sensitivity — so multi-hop
// behaviour emerges exactly as on the paper's campus testbed.
#include "net/mesh_node.h"

#include <gtest/gtest.h>

#include "metrics/packet_tracker.h"
#include "phy/path_loss.h"
#include "testbed/scenario.h"
#include "testbed/topology.h"
#include "testbed/traffic.h"

namespace lm::net {
namespace {

using testbed::MeshScenario;
using testbed::ScenarioConfig;

constexpr double kSpacing = 400.0;  // adjacent decodes, 2-hop does not

ScenarioConfig fast_config(std::uint64_t seed = 1) {
  ScenarioConfig c;
  c.seed = seed;
  c.propagation.path_loss = phy::make_log_distance(3.5, 40.0);
  c.propagation.shadowing_sigma_db = 0.0;
  c.propagation.fading_sigma_db = 0.0;
  c.mesh.hello_interval = Duration::seconds(10);
  c.mesh.maintenance_interval = Duration::seconds(2);
  c.mesh.forward_jitter = Duration::milliseconds(50);
  c.mesh.duty_cycle_limit = 1.0;  // not under test here
  // Reliable-transfer pacing sized for SF7 frames over short chains.
  c.mesh.reliable_retry_timeout = Duration::seconds(8);
  c.mesh.receiver_gap_timeout = Duration::seconds(10);
  c.mesh.fragment_spacing = Duration::milliseconds(50);
  return c;
}

std::vector<std::uint8_t> bytes(std::initializer_list<int> list) {
  std::vector<std::uint8_t> v;
  for (int x : list) v.push_back(static_cast<std::uint8_t>(x));
  return v;
}

TEST(MeshNodeIntegration, TwoNodesDiscoverEachOther) {
  MeshScenario s(fast_config());
  s.add_nodes(testbed::chain(2, kSpacing));
  s.start_all();
  s.run_for(Duration::seconds(25));  // two beacon rounds

  const auto r01 = s.node(0).routing_table().route_to(s.address_of(1));
  const auto r10 = s.node(1).routing_table().route_to(s.address_of(0));
  ASSERT_TRUE(r01.has_value());
  ASSERT_TRUE(r10.has_value());
  EXPECT_EQ(r01->metric, 1);
  EXPECT_EQ(r10->metric, 1);
  EXPECT_GE(s.node(0).stats().beacons_sent, 2u);
  EXPECT_GE(s.node(0).stats().beacons_received, 2u);
}

TEST(MeshNodeIntegration, ChainConvergesToShortestPaths) {
  MeshScenario s(fast_config());
  s.add_nodes(testbed::chain(4, kSpacing));
  s.start_all();
  const auto elapsed = s.run_until_converged(Duration::minutes(5));
  ASSERT_TRUE(elapsed.has_value());

  // End node sees the whole chain with hop-count metrics 1, 2, 3.
  const RoutingTable& t = s.node(0).routing_table();
  EXPECT_EQ(t.route_to(s.address_of(1))->metric, 1);
  EXPECT_EQ(t.route_to(s.address_of(2))->metric, 2);
  EXPECT_EQ(t.route_to(s.address_of(3))->metric, 3);
  EXPECT_EQ(t.route_to(s.address_of(3))->via, s.address_of(1));
}

TEST(MeshNodeIntegration, PhysicsEnforcesMultiHop) {
  MeshScenario s(fast_config());
  s.add_nodes(testbed::chain(3, kSpacing));
  EXPECT_TRUE(s.good_link(0, 1));
  EXPECT_TRUE(s.good_link(1, 2));
  EXPECT_FALSE(s.good_link(0, 2));  // out of direct range
}

TEST(MeshNodeIntegration, DatagramDeliveredAcrossThreeHops) {
  MeshScenario s(fast_config());
  s.add_nodes(testbed::chain(4, kSpacing));
  s.start_all();
  ASSERT_TRUE(s.run_until_converged(Duration::minutes(5)).has_value());

  Address got_origin = kUnassigned;
  std::vector<std::uint8_t> got_payload;
  std::uint8_t got_hops = 0;
  int deliveries = 0;
  s.node(3).set_datagram_handler(
      [&](Address origin, const std::vector<std::uint8_t>& payload,
          std::uint8_t hops) {
        ++deliveries;
        got_origin = origin;
        got_payload = payload;
        got_hops = hops;
      });

  const auto payload = bytes({1, 2, 3, 4, 5});
  ASSERT_TRUE(s.node(0).send_datagram(s.address_of(3), payload));
  s.run_for(Duration::seconds(30));

  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(got_origin, s.address_of(0));
  EXPECT_EQ(got_payload, payload);
  EXPECT_EQ(got_hops, 3);
  EXPECT_EQ(s.node(1).stats().packets_forwarded +
                s.node(2).stats().packets_forwarded, 2u);
  EXPECT_EQ(s.node(3).stats().datagrams_delivered, 1u);
}

TEST(MeshNodeIntegration, SendValidationRejectsBadArguments) {
  MeshScenario s(fast_config());
  s.add_nodes(testbed::chain(2, kSpacing));
  s.start_all();
  s.run_for(Duration::seconds(25));

  MeshNode& n = s.node(0);
  EXPECT_FALSE(n.send_datagram(n.address(), bytes({1})));       // to self
  EXPECT_FALSE(n.send_datagram(kBroadcast, bytes({1})));        // wrong API
  EXPECT_FALSE(n.send_datagram(kUnassigned, bytes({1})));
  EXPECT_FALSE(n.send_datagram(s.address_of(1),
                               std::vector<std::uint8_t>(kMaxDataPayload + 1)));
  EXPECT_FALSE(n.send_datagram(0x7777, bytes({1})));            // no route
  EXPECT_GE(n.stats().dropped_no_route, 1u);
}

TEST(MeshNodeIntegration, SendBeforeConvergenceIsRefused) {
  MeshScenario s(fast_config());
  s.add_nodes(testbed::chain(2, kSpacing));
  s.start_all();
  // No beacons yet: no routes.
  EXPECT_FALSE(s.node(0).send_datagram(s.address_of(1), bytes({1})));
}

TEST(MeshNodeIntegration, BroadcastReachesNeighborsOnlyOnce) {
  MeshScenario s(fast_config());
  s.add_nodes(testbed::chain(3, kSpacing));
  s.start_all();
  s.run_for(Duration::seconds(25));

  int at_1 = 0, at_2 = 0;
  s.node(1).set_broadcast_handler(
      [&](Address, const std::vector<std::uint8_t>&) { ++at_1; });
  s.node(2).set_broadcast_handler(
      [&](Address, const std::vector<std::uint8_t>&) { ++at_2; });

  ASSERT_TRUE(s.node(0).send_broadcast(bytes({9, 9})));
  s.run_for(Duration::seconds(10));
  EXPECT_EQ(at_1, 1);  // direct neighbor hears it
  EXPECT_EQ(at_2, 0);  // broadcasts are never forwarded
  EXPECT_EQ(s.node(0).stats().broadcasts_sent, 1u);
  EXPECT_EQ(s.node(1).stats().broadcasts_delivered, 1u);
}

TEST(MeshNodeIntegration, RoutesExpireAfterNodeFailure) {
  MeshScenario s(fast_config());
  s.add_nodes(testbed::chain(3, kSpacing));
  s.start_all();
  ASSERT_TRUE(s.run_until_converged(Duration::minutes(5)).has_value());
  ASSERT_TRUE(s.node(0).routing_table().has_route(s.address_of(2)));

  s.fail_node(1);
  // Route timeout = 10 hello intervals = 100 s; add slack for maintenance.
  s.run_for(Duration::seconds(120));
  EXPECT_FALSE(s.node(0).routing_table().has_route(s.address_of(1)));
  EXPECT_FALSE(s.node(0).routing_table().has_route(s.address_of(2)));
}

TEST(MeshNodeIntegration, RouteRepairsOverAlternatePath) {
  // Diamond: 0 - {1, 2} - 3, with 1 and 2 parallel relays.
  MeshScenario s(fast_config());
  s.add_node({0.0, 0.0});
  s.add_node({kSpacing, 150.0});
  s.add_node({kSpacing, -150.0});
  s.add_node({2 * kSpacing, 0.0});
  // The parallel relays can hear each other (300 m) — that is fine.
  s.start_all();
  ASSERT_TRUE(s.run_until_converged(Duration::minutes(5), Duration::seconds(5),
                                    /*exact_metric=*/false)
                  .has_value());
  const auto first = s.node(0).routing_table().route_to(s.address_of(3));
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->metric, 2);

  // Kill whichever relay carries the route; the other must take over.
  const std::size_t dead = *s.index_of(first->via);
  const std::size_t alive = dead == 1 ? 2 : 1;
  s.fail_node(dead);
  s.run_for(Duration::minutes(4));  // expiry + re-advertisement

  const auto repaired = s.node(0).routing_table().route_to(s.address_of(3));
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(repaired->via, s.address_of(alive));
  EXPECT_EQ(repaired->metric, 2);
}

TEST(MeshNodeIntegration, ReliableTransferAcrossTwoHops) {
  MeshScenario s(fast_config());
  s.add_nodes(testbed::chain(3, kSpacing));
  s.start_all();
  ASSERT_TRUE(s.run_until_converged(Duration::minutes(5)).has_value());

  std::vector<std::uint8_t> payload(2000);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i % 251);
  }
  std::vector<std::uint8_t> received;
  s.node(2).set_reliable_handler(
      [&](Address, std::vector<std::uint8_t> data) { received = std::move(data); });

  int outcome = -1;
  ASSERT_TRUE(s.node(0).send_reliable(s.address_of(2), payload,
                                      [&](bool ok) { outcome = ok ? 1 : 0; }));
  s.run_for(Duration::minutes(3));

  EXPECT_EQ(outcome, 1);
  EXPECT_EQ(received, payload);
  EXPECT_EQ(s.node(0).stats().transfers_completed, 1u);
  EXPECT_EQ(s.node(2).stats().transfers_received, 1u);
  EXPECT_GE(s.node(0).stats().fragments_sent, 9u);  // ceil(2000/239)
}

TEST(MeshNodeIntegration, ReliableTransferSurvivesLossyLinks) {
  auto cfg = fast_config(77);
  MeshScenario s(cfg);
  s.add_nodes(testbed::chain(3, kSpacing));
  s.start_all();
  ASSERT_TRUE(s.run_until_converged(Duration::minutes(5)).has_value());
  // 20 % independent loss on both hops, both directions.
  s.channel().set_link_extra_loss(1, 2, 0.2);
  s.channel().set_link_extra_loss(2, 3, 0.2);

  std::vector<std::uint8_t> payload(3000, 0x3C);
  std::vector<std::uint8_t> received;
  s.node(2).set_reliable_handler(
      [&](Address, std::vector<std::uint8_t> data) { received = std::move(data); });
  int outcome = -1;
  ASSERT_TRUE(s.node(0).send_reliable(s.address_of(2), payload,
                                      [&](bool ok) { outcome = ok ? 1 : 0; }));
  s.run_for(Duration::minutes(15));

  EXPECT_EQ(outcome, 1);
  EXPECT_EQ(received, payload);
}

TEST(MeshNodeIntegration, ReliableTransferFailsWhenReceiverDies) {
  MeshScenario s(fast_config());
  s.add_nodes(testbed::chain(3, kSpacing));
  s.start_all();
  ASSERT_TRUE(s.run_until_converged(Duration::minutes(5)).has_value());

  int outcome = -1;
  ASSERT_TRUE(s.node(0).send_reliable(s.address_of(2),
                                      std::vector<std::uint8_t>(1000, 1),
                                      [&](bool ok) { outcome = ok ? 1 : 0; }));
  s.fail_node(2);  // dies before anything arrives
  s.run_for(Duration::minutes(10));
  EXPECT_EQ(outcome, 0);
  EXPECT_EQ(s.node(0).stats().transfers_failed, 1u);
}

TEST(MeshNodeIntegration, ReliableSendValidation) {
  MeshScenario s(fast_config());
  s.add_nodes(testbed::chain(2, kSpacing));
  s.start_all();
  s.run_for(Duration::seconds(25));
  MeshNode& n = s.node(0);
  EXPECT_FALSE(n.send_reliable(n.address(), bytes({1}), nullptr));
  EXPECT_FALSE(n.send_reliable(kBroadcast, bytes({1}), nullptr));
  EXPECT_FALSE(n.send_reliable(s.address_of(1), {}, nullptr));  // empty
  EXPECT_FALSE(n.send_reliable(0x7777, bytes({1}), nullptr));   // no route
}

TEST(MeshNodeIntegration, DutyCycleLimiterDefersTraffic) {
  auto cfg = fast_config();
  cfg.mesh.duty_cycle_limit = 0.001;  // 3.6 s of airtime per hour
  cfg.mesh.duty_cycle_window = Duration::hours(1);
  MeshScenario s(cfg);
  s.add_nodes(testbed::chain(2, kSpacing));
  s.start_all();
  s.run_for(Duration::seconds(25));

  // Blast datagrams: ~58 ms each at SF7; 100 of them far exceeds 3.6 s.
  for (int i = 0; i < 60; ++i) {
    s.node(0).send_datagram(s.address_of(1), std::vector<std::uint8_t>(50, 1));
  }
  s.run_for(Duration::minutes(30));
  EXPECT_GT(s.node(0).stats().duty_cycle_delays, 0u);
  // The limiter keeps measured utilization at or under the cap.
  EXPECT_LE(s.node(0).duty_cycle().utilization(s.simulator().now()), 0.001 + 1e-9);
}

TEST(MeshNodeIntegration, QueueOverflowDrops) {
  auto cfg = fast_config();
  cfg.mesh.max_queue = 4;
  MeshScenario s(cfg);
  s.add_nodes(testbed::chain(2, kSpacing));
  s.start_all();
  s.run_for(Duration::seconds(25));
  for (int i = 0; i < 20; ++i) {
    s.node(0).send_datagram(s.address_of(1), bytes({1, 2, 3}));
  }
  EXPECT_GT(s.node(0).stats().dropped_queue_full, 0u);
}

TEST(MeshNodeIntegration, StoppedNodeGoesSilent) {
  MeshScenario s(fast_config());
  s.add_nodes(testbed::chain(2, kSpacing));
  s.start_all();
  s.run_for(Duration::seconds(25));
  s.node(0).stop();
  const auto beacons_before = s.node(0).stats().beacons_sent;
  s.run_for(Duration::minutes(2));
  EXPECT_EQ(s.node(0).stats().beacons_sent, beacons_before);
  EXPECT_EQ(s.radio(0).state(), radio::RadioState::Sleep);
  EXPECT_FALSE(s.node(0).send_datagram(s.address_of(1), bytes({1})));
}

TEST(MeshNodeIntegration, ControlAndDataAccountingSeparate) {
  MeshScenario s(fast_config());
  s.add_nodes(testbed::chain(2, kSpacing));
  s.start_all();
  s.run_for(Duration::seconds(25));
  EXPECT_GT(s.node(0).stats().control_bytes_sent, 0u);  // beacons
  EXPECT_EQ(s.node(0).stats().data_bytes_sent, 0u);

  s.node(0).send_datagram(s.address_of(1), bytes({1, 2, 3, 4}));
  s.run_for(Duration::seconds(5));
  EXPECT_GT(s.node(0).stats().data_bytes_sent, 0u);
  EXPECT_GT(s.node(0).stats().data_airtime, Duration::zero());
}

TEST(MeshNodeIntegration, DeterministicGivenSeed) {
  auto run = [](std::uint64_t seed) {
    MeshScenario s(fast_config(seed));
    s.add_nodes(testbed::chain(4, kSpacing));
    metrics::PacketTracker tracker;
    testbed::attach_tracker(s, tracker);
    s.start_all();
    s.run_for(Duration::seconds(40));
    testbed::DatagramTraffic traffic(s, tracker, 0, 3,
                                     {Duration::seconds(5), 16, true}, seed + 99);
    traffic.start();
    s.run_for(Duration::minutes(10));
    const auto total = s.total_stats();
    return std::tuple{total.beacons_sent, total.beacons_received,
                      total.packets_forwarded, tracker.delivered(),
                      tracker.attempted()};
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(MeshNodeIntegration, MalformedFramesAreCounted) {
  MeshScenario s(fast_config());
  s.add_nodes(testbed::chain(2, kSpacing));
  s.start_all();
  s.run_for(Duration::seconds(25));

  // A rogue radio on the same channel spews garbage.
  radio::VirtualRadio rogue(s.simulator(), s.channel(), 99, {100.0, 0.0}, {});
  const std::uint8_t junk[] = {0xDE, 0xAD};  // 2 bytes: not even a link header
  rogue.transmit(junk);
  s.run_for(Duration::seconds(5));
  EXPECT_EQ(s.node(0).stats().malformed_frames, 1u);
  EXPECT_EQ(s.node(1).stats().malformed_frames, 1u);
}

TEST(MeshNodeIntegration, ForeignUnicastIgnored) {
  MeshScenario s(fast_config());
  s.add_nodes(testbed::chain(3, kSpacing));
  s.start_all();
  ASSERT_TRUE(s.run_until_converged(Duration::minutes(5)).has_value());

  int delivered_at_wrong_node = 0;
  s.node(1).set_datagram_handler(
      [&](Address, const std::vector<std::uint8_t>&, std::uint8_t) {
        ++delivered_at_wrong_node;
      });
  // 0 -> 2 passes through 1 as a relay; 1 must forward, not consume.
  s.node(0).send_datagram(s.address_of(2), bytes({5}));
  s.run_for(Duration::seconds(20));
  EXPECT_EQ(delivered_at_wrong_node, 0);
  EXPECT_EQ(s.node(2).stats().datagrams_delivered, 1u);
}

TEST(MeshNodeIntegration, TtlExhaustionDropsLoopedPackets) {
  auto cfg = fast_config();
  cfg.mesh.max_ttl = 2;  // one relay max
  MeshScenario s(cfg);
  s.add_nodes(testbed::chain(4, kSpacing));
  s.start_all();
  ASSERT_TRUE(s.run_until_converged(Duration::minutes(5)).has_value());

  int delivered = 0;
  s.node(3).set_datagram_handler(
      [&](Address, const std::vector<std::uint8_t>&, std::uint8_t) { ++delivered; });
  s.node(0).send_datagram(s.address_of(3), bytes({1}));  // needs 3 hops
  s.run_for(Duration::seconds(30));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(s.node(2).stats().dropped_ttl, 1u);  // died at the second relay
}

TEST(MeshNodeIntegration, GatewayRoleDiscoveredAcrossTheMesh) {
  MeshScenario s(fast_config());
  const auto positions = testbed::chain(4, kSpacing);
  s.add_node(positions[0]);
  s.add_node(positions[1]);
  s.add_node(positions[2]);
  s.add_node(positions[3], roles::kGateway);  // far end bridges to the world
  s.start_all();
  ASSERT_TRUE(s.run_until_converged(Duration::minutes(5)).has_value());

  // The opposite end discovers the gateway 3 hops away, via its neighbor.
  const auto gw = s.node(0).nearest_with_role(roles::kGateway);
  ASSERT_TRUE(gw.has_value());
  EXPECT_EQ(gw->destination, s.address_of(3));
  EXPECT_EQ(gw->metric, 3);
  EXPECT_EQ(gw->via, s.address_of(1));
  // A node with no gateway in sight reports none for other role bits.
  EXPECT_FALSE(s.node(0).nearest_with_role(roles::kSink).has_value());
  EXPECT_EQ(s.node(3).role(), roles::kGateway);
}

TEST(MeshNodeIntegration, NearerGatewayWinsDiscovery) {
  MeshScenario s(fast_config());
  const auto positions = testbed::chain(5, kSpacing);
  s.add_node(positions[0]);
  s.add_node(positions[1], roles::kGateway);
  s.add_node(positions[2]);
  s.add_node(positions[3]);
  s.add_node(positions[4], roles::kGateway);
  s.start_all();
  ASSERT_TRUE(s.run_until_converged(Duration::minutes(10)).has_value());
  const auto gw = s.node(2).nearest_with_role(roles::kGateway);
  ASSERT_TRUE(gw.has_value());
  EXPECT_EQ(gw->destination, s.address_of(1));  // 1 hop beats 2 hops
  EXPECT_EQ(gw->metric, 1);
}

TEST(MeshNodeIntegration, ConcurrentBidirectionalTransfers) {
  // Both chain ends push a reliable payload at each other at once, while a
  // third transfer rides the same relay: sessions must not cross wires.
  MeshScenario s(fast_config(21));
  s.add_nodes(testbed::chain(3, kSpacing));
  s.start_all();
  ASSERT_TRUE(s.run_until_converged(Duration::minutes(5)).has_value());

  std::vector<std::uint8_t> a_payload(1500, 0xA1);
  std::vector<std::uint8_t> b_payload(900, 0xB2);
  std::vector<std::uint8_t> c_payload(600, 0xC3);
  int done = 0, ok = 0;
  auto cb = [&](bool success) {
    ++done;
    if (success) ++ok;
  };
  std::vector<std::uint8_t> at_2, at_0a, at_0b;
  s.node(2).set_reliable_handler(
      [&](Address, std::vector<std::uint8_t> d) { at_2 = std::move(d); });
  s.node(0).set_reliable_handler(
      [&](Address origin, std::vector<std::uint8_t> d) {
        (origin == s.address_of(2) ? at_0a : at_0b) = std::move(d);
      });

  ASSERT_TRUE(s.node(0).send_reliable(s.address_of(2), a_payload, cb));
  ASSERT_TRUE(s.node(2).send_reliable(s.address_of(0), b_payload, cb));
  ASSERT_TRUE(s.node(1).send_reliable(s.address_of(0), c_payload, cb));
  s.run_for(Duration::minutes(10));

  EXPECT_EQ(done, 3);
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(at_2, a_payload);
  EXPECT_EQ(at_0a, b_payload);
  EXPECT_EQ(at_0b, c_payload);
}

TEST(MeshNodeIntegration, RestartAfterStopRejoinsMesh) {
  MeshScenario s(fast_config());
  s.add_nodes(testbed::chain(2, kSpacing));
  s.start_all();
  s.run_for(Duration::seconds(25));
  s.node(0).stop();
  s.run_for(Duration::minutes(3));  // long enough for 1 to expire the route
  EXPECT_FALSE(s.node(1).routing_table().has_route(s.address_of(0)));

  s.node(0).start();
  s.run_for(Duration::seconds(40));
  EXPECT_TRUE(s.node(1).routing_table().has_route(s.address_of(0)));
  EXPECT_TRUE(s.node(0).routing_table().has_route(s.address_of(1)));
}

}  // namespace
}  // namespace lm::net
