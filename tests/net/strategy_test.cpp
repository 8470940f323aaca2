// Routing-policy A/B over the shared stack.
//
// The same 4-node chain, the same link layer, the same traffic — only the
// RoutingStrategy plugged into the network layer differs. Distance-vector
// learns hop-count routes from beacons and unicasts along them; controlled
// flooding keeps no routing state and rebroadcasts blindly. Both must
// deliver; flooding must pay for its statelessness in data airtime (every
// packet also occupies the off-path relays' channel). This is the paper's
// mesh-vs-flooding trade-off reproduced at unit-test scale, and the proof
// that strategies are genuinely interchangeable behind the seam. The
// Flooding suite pins controlled flooding's own semantics (multi-hop
// delivery, dedup window, TTL bound, network-wide broadcast, unicast
// consumption) on that stack.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "net/aodv_strategy.h"
#include "net/distance_vector_strategy.h"
#include "net/flooding_strategy.h"
#include "metrics/packet_tracker.h"
#include "net/gateway_tree_strategy.h"
#include "phy/path_loss.h"
#include "testbed/scenario.h"
#include "testbed/topology.h"
#include "testbed/traffic.h"

namespace lm::testbed {
namespace {

constexpr double kSpacing = 400.0;      // adjacent nodes only
constexpr std::size_t kMessages = 20;   // node 1 -> node 2 (interior pair)

ScenarioConfig cfg(std::uint64_t seed) {
  ScenarioConfig c;
  c.seed = seed;
  c.propagation.path_loss = phy::make_log_distance(3.5, 40.0);
  c.propagation.shadowing_sigma_db = 0.0;
  c.propagation.fading_sigma_db = 0.0;
  c.mesh.hello_interval = Duration::seconds(10);
  c.mesh.maintenance_interval = Duration::seconds(2);
  c.mesh.duty_cycle_limit = 1.0;
  return c;
}

struct Outcome {
  std::uint64_t delivered = 0;
  std::uint64_t forwarded = 0;
  Duration data_airtime;
};

// Runs the interior-pair traffic (node 1 -> node 2) through a chain of 4
// and reports what arrived and what it cost. The pair is deliberately
// interior: distance-vector unicasts one hop, while flooding also wakes
// node 0 as an off-path relay — the airtime gap the test asserts on.
Outcome run_chain(ScenarioConfig config, bool converge_first) {
  MeshScenario s(std::move(config));
  s.add_nodes(chain(4, kSpacing));
  Outcome out;
  s.node(2).set_datagram_handler(
      [&](net::Address, const std::vector<std::uint8_t>&, std::uint8_t hops) {
        out.delivered++;
        EXPECT_EQ(hops, 1);  // adjacent pair under either policy
      });
  s.start_all();
  if (converge_first) {
    EXPECT_TRUE(s.run_until_converged(Duration::minutes(5)).has_value());
  }
  const net::Address dst = s.address_of(2);
  for (std::size_t i = 0; i < kMessages; ++i) {
    EXPECT_TRUE(s.node(1).send_datagram(dst, {0xAB, static_cast<std::uint8_t>(i)}));
    s.run_for(Duration::seconds(10));
  }
  s.run_for(Duration::seconds(30));  // drain relays and retries
  const net::NodeStats total = s.total_stats();
  out.forwarded = total.packets_forwarded;
  out.data_airtime = total.data_airtime;
  return out;
}

ScenarioConfig flooding_cfg(std::uint64_t seed) {
  ScenarioConfig c = cfg(seed);
  c.strategy_factory = [] {
    return std::make_unique<net::FloodingStrategy>();
  };
  return c;
}

ScenarioConfig aodv_cfg(std::uint64_t seed) {
  ScenarioConfig c = cfg(seed);
  c.strategy_factory = [] { return std::make_unique<net::AodvStrategy>(); };
  return c;
}

ScenarioConfig tree_cfg(std::uint64_t seed) {
  ScenarioConfig c = cfg(seed);
  c.strategy_factory = [] {
    net::GatewayTreeConfig tree;
    tree.beacon_interval = Duration::seconds(20);
    tree.report_interval = Duration::seconds(30);
    return std::make_unique<net::GatewayTreeStrategy>(tree);
  };
  return c;
}

// A rogue radio for injecting crafted frames next to a chosen node.
struct Injector {
  Injector(MeshScenario& s, phy::Position pos)
      : radio(s.simulator(), s.channel(), 77, pos, {}) {}
  bool inject(const net::Packet& p) { return radio.transmit(net::encode(p)); }
  radio::VirtualRadio radio;
};

const net::FloodingStrategy& flooding_of(const MeshScenario& s, std::size_t i) {
  const auto* strategy =
      dynamic_cast<const net::FloodingStrategy*>(&s.node(i).routing_strategy());
  EXPECT_NE(strategy, nullptr);
  return *strategy;
}

const net::AodvStrategy& aodv_of(const MeshScenario& s, std::size_t i) {
  const auto* strategy =
      dynamic_cast<const net::AodvStrategy*>(&s.node(i).routing_strategy());
  EXPECT_NE(strategy, nullptr);
  return *strategy;
}

const net::GatewayTreeStrategy& tree_of(const MeshScenario& s, std::size_t i) {
  const auto* strategy = dynamic_cast<const net::GatewayTreeStrategy*>(
      &s.node(i).routing_strategy());
  EXPECT_NE(strategy, nullptr);
  return *strategy;
}

TEST(RoutingStrategies, FactorySelectsThePolicy) {
  MeshScenario dv(cfg(7));
  dv.add_nodes(chain(2, kSpacing));
  EXPECT_STREQ(dv.node(0).routing_strategy().name(), "distance-vector");

  MeshScenario flood(flooding_cfg(7));
  flood.add_nodes(chain(2, kSpacing));
  EXPECT_STREQ(flood.node(0).routing_strategy().name(), "flooding");

  MeshScenario aodv(aodv_cfg(7));
  aodv.add_nodes(chain(2, kSpacing));
  EXPECT_STREQ(aodv.node(0).routing_strategy().name(), "aodv");

  MeshScenario tree(tree_cfg(7));
  tree.add_node({0.0, 0.0}, net::roles::kGateway);
  tree.add_node({kSpacing, 0.0});
  EXPECT_STREQ(tree.node(0).routing_strategy().name(), "gateway-tree");
}

TEST(RoutingStrategies, BothDeliverButDistanceVectorUsesLessAirtime) {
  const Outcome dv = run_chain(cfg(42), /*converge_first=*/true);
  const Outcome flood = run_chain(flooding_cfg(42), /*converge_first=*/false);

  // Both policies deliver the interior-pair traffic (allow a message or
  // two lost to beacon collisions under distance-vector).
  EXPECT_GE(dv.delivered, kMessages - 2);
  EXPECT_GE(flood.delivered, kMessages - 2);

  // Distance-vector unicasts one hop: nobody forwards. Flooding drags
  // node 0 into relaying traffic it is not on the path of.
  EXPECT_EQ(dv.forwarded, 0u);
  EXPECT_GE(flood.forwarded, kMessages - 2);

  // The bill: identical payloads, strictly more data airtime when flooding.
  EXPECT_LT(dv.data_airtime, flood.data_airtime);
}

TEST(RoutingStrategies, FloodingNeedsNoConvergenceDelay) {
  // Stateless routing works from the first packet — no beacons, no route
  // acquisition. A freshly booted chain floods end to end immediately.
  MeshScenario s(flooding_cfg(3));
  s.add_nodes(chain(4, kSpacing));
  std::uint64_t delivered = 0;
  s.node(3).set_datagram_handler(
      [&](net::Address origin, const std::vector<std::uint8_t>&, std::uint8_t hops) {
        delivered++;
        EXPECT_EQ(origin, s.address_of(0));
        EXPECT_EQ(hops, 3);
      });
  s.start_all();
  EXPECT_TRUE(s.node(0).send_datagram(s.address_of(3), {0x01}));
  s.run_for(Duration::seconds(30));
  EXPECT_EQ(delivered, 1u);
}

// --- Flooding: delivery, dedup, TTL, broadcast and unicast semantics -------

TEST(Flooding, DeliversAcrossMultiHopChain) {
  MeshScenario s(flooding_cfg(1));
  s.add_nodes(chain(4, kSpacing));
  s.start_all();

  net::Address origin = net::kUnassigned;
  std::uint8_t hops = 0;
  int deliveries = 0;
  s.node(3).set_datagram_handler(
      [&](net::Address o, const std::vector<std::uint8_t>&, std::uint8_t h) {
        ++deliveries;
        origin = o;
        hops = h;
      });
  ASSERT_TRUE(
      s.node(0).send_datagram(s.address_of(3), {1, 2, 3, 4, 5, 6, 7, 8}));
  s.run_for(Duration::seconds(30));

  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(origin, s.address_of(0));
  EXPECT_EQ(hops, 3);
  // No routing state needed, but every intermediate node relayed.
  EXPECT_GE(s.node(1).stats().packets_forwarded, 1u);
  EXPECT_GE(s.node(2).stats().packets_forwarded, 1u);
}

TEST(Flooding, DuplicateSuppressionStopsEcho) {
  MeshScenario s(flooding_cfg(1));
  s.add_nodes(chain(4, kSpacing));
  s.start_all();
  s.node(0).send_datagram(s.address_of(3), {1, 2, 3, 4, 5, 6, 7, 8});
  s.run_for(Duration::minutes(1));
  // Each relay forwards exactly once; node 1 then hears node 2's relay of
  // the same packet and suppresses it instead of re-flooding.
  EXPECT_EQ(s.node(1).stats().packets_forwarded, 1u);
  EXPECT_EQ(s.node(2).stats().packets_forwarded, 1u);
  EXPECT_GE(flooding_of(s, 1).duplicates_suppressed(), 1u);
}

TEST(Flooding, DedupWindowEvictsOldestEntry) {
  MeshScenario s(flooding_cfg(1));
  s.add_nodes(chain(1, kSpacing));
  s.start_all();
  Injector rogue(s, {-50.0, 0.0});
  // A flood from a node the scenario does not hold, headed past node 0, so
  // node 0 relays every copy it has not seen.
  const auto flood = [&](std::uint16_t id) {
    net::DataPacket p;
    p.link = net::LinkHeader{net::kBroadcast, 0x0BBB};
    p.route.final_dst = 0x0BAD;
    p.route.origin = 0x0BBB;
    p.route.ttl = 5;
    p.route.packet_id = id;
    p.payload.assign({0xF0, static_cast<std::uint8_t>(id)});
    EXPECT_TRUE(rogue.inject(net::Packet{p}));
    s.run_for(Duration::seconds(5));
  };
  const net::NodeStats& stats = s.node(0).stats();
  flood(1);
  flood(1);
  EXPECT_EQ(stats.packets_forwarded, 1u);
  EXPECT_EQ(flooding_of(s, 0).duplicates_suppressed(), 1u);

  // kDedupWindow newer ids push id 1 out of the window...
  constexpr std::size_t kWindow = net::FloodingStrategy::kDedupWindow;
  for (std::size_t i = 0; i < kWindow; ++i) {
    flood(static_cast<std::uint16_t>(2 + i));
  }
  EXPECT_EQ(stats.packets_forwarded, 1u + kWindow);
  EXPECT_EQ(flooding_of(s, 0).duplicates_suppressed(), 1u);

  // ...so a late copy of id 1 looks new and is relayed again. Admitting it
  // evicted id 2, which leaves id 3 the oldest id still suppressed.
  flood(1);
  EXPECT_EQ(stats.packets_forwarded, 2u + kWindow);
  flood(3);
  EXPECT_EQ(stats.packets_forwarded, 2u + kWindow);
  EXPECT_EQ(flooding_of(s, 0).duplicates_suppressed(), 2u);
}

TEST(Flooding, TtlBoundsPropagation) {
  ScenarioConfig c = flooding_cfg(1);
  c.mesh.max_ttl = 2;
  MeshScenario s(std::move(c));
  s.add_nodes(chain(5, kSpacing));
  s.start_all();
  int deliveries = 0;
  s.node(4).set_datagram_handler(
      [&](net::Address, const std::vector<std::uint8_t>&, std::uint8_t) {
        ++deliveries;
      });
  s.node(0).send_datagram(s.address_of(4), {1, 2, 3, 4, 5, 6, 7, 8});  // 4 hops
  s.run_for(Duration::minutes(1));
  EXPECT_EQ(deliveries, 0);
  EXPECT_GE(s.node(1).stats().dropped_ttl + s.node(2).stats().dropped_ttl, 1u);
}

TEST(Flooding, BroadcastReachesEveryone) {
  MeshScenario s(flooding_cfg(1));
  s.add_nodes(chain(4, kSpacing));
  s.start_all();
  int reached = 0;
  for (std::size_t i = 1; i < s.size(); ++i) {
    s.node(i).set_broadcast_handler(
        [&](net::Address, const std::vector<std::uint8_t>&) { ++reached; });
  }
  // A network-wide flood is a datagram to kBroadcast; send_broadcast is a
  // single hop (TTL 1) and would reach node 1 only.
  EXPECT_TRUE(s.node(0).send_datagram(net::kBroadcast, {1, 2, 3, 4, 5, 6, 7, 8}));
  s.run_for(Duration::minutes(1));
  EXPECT_EQ(reached, 3);
}

TEST(Flooding, UnicastStopsRelayingAtTarget) {
  MeshScenario s(flooding_cfg(1));
  s.add_nodes(chain(4, kSpacing));
  s.start_all();
  // Node 1 consumes a unicast addressed to it and does not relay it, so
  // node 2 never hears the packet.
  s.node(0).send_datagram(s.address_of(1), {1, 2, 3, 4, 5, 6, 7, 8});
  s.run_for(Duration::minutes(1));
  EXPECT_EQ(s.node(1).stats().datagrams_delivered, 1u);
  EXPECT_EQ(s.node(1).stats().packets_forwarded, 0u);
  EXPECT_EQ(s.node(2).stats().datagrams_delivered, 0u);
}

TEST(Flooding, SendValidation) {
  MeshScenario s(flooding_cfg(1));
  s.add_nodes(chain(2, kSpacing));
  s.start_all();
  EXPECT_FALSE(s.node(0).send_datagram(s.address_of(0), {1}));  // to self
  EXPECT_FALSE(s.node(0).send_datagram(net::kUnassigned, {1}));
  EXPECT_FALSE(s.node(0).send_datagram(
      s.address_of(1), std::vector<std::uint8_t>(net::kMaxDataPayload + 1)));
  s.node(0).stop();
  EXPECT_FALSE(s.node(0).send_datagram(s.address_of(1), {1}));
}

TEST(Flooding, TrafficHarnessMeasuresPdr) {
  MeshScenario s(flooding_cfg(11));
  s.add_nodes(chain(3, kSpacing));
  metrics::PacketTracker tracker;
  attach_tracker(s, tracker);
  s.start_all();
  DatagramTraffic traffic(s, tracker, 0, 2, {Duration::seconds(20), 16, true}, 123);
  traffic.start();
  s.run_for(Duration::minutes(20));
  traffic.stop();
  EXPECT_GT(tracker.attempted(), 30u);
  EXPECT_GT(tracker.pdr(), 0.9);  // clean links: flooding delivers
}

// --- AODV: on-demand discovery ---------------------------------------------

TEST(AodvStrategy, FirstSendRefusedDiscoveryMakesLaterSendsWork) {
  MeshScenario s(aodv_cfg(11));
  s.add_nodes(chain(4, kSpacing));
  std::uint64_t delivered = 0;
  s.node(3).set_datagram_handler(
      [&](net::Address origin, const std::vector<std::uint8_t>&,
          std::uint8_t hops) {
        delivered++;
        EXPECT_EQ(origin, s.address_of(0));
        EXPECT_EQ(hops, 3);
      });
  s.start_all();
  s.run_for(Duration::seconds(5));  // no proactive control plane to settle

  // On-demand semantics: the first send toward an unknown destination is
  // refused, and the refusal starts the discovery.
  const net::Address dst = s.address_of(3);
  trace::DropReason why = trace::DropReason::None;
  EXPECT_FALSE(s.node(0).send_datagram(dst, {0x01}, &why));
  EXPECT_EQ(why, trace::DropReason::NoRoute);
  EXPECT_EQ(aodv_of(s, 0).discoveries_started(), 1u);
  EXPECT_TRUE(aodv_of(s, 0).discovery_pending(dst));
  EXPECT_GE(aodv_of(s, 0).rreqs_sent(), 1u);

  // The RREQ flood reaches node 3; its unicast RREP walks the reverse
  // routes back and installs the forward route at every hop.
  s.run_for(Duration::seconds(30));
  EXPECT_TRUE(s.node(0).routing_table().has_route(dst));
  EXPECT_FALSE(aodv_of(s, 0).discovery_pending(dst));
  EXPECT_EQ(aodv_of(s, 3).rreps_sent(), 1u);

  EXPECT_TRUE(s.node(0).send_datagram(dst, {0x02}));
  s.run_for(Duration::seconds(30));
  EXPECT_EQ(delivered, 1u);
}

TEST(AodvStrategy, DiscoveryRetriesThenGivesUpOnSilentDestination) {
  using net::AodvStrategy;
  MeshScenario s(aodv_cfg(12));
  s.add_nodes(chain(3, kSpacing));
  s.start_all();
  s.run_for(Duration::seconds(2));

  // Nobody owns this address: every flood goes unanswered.
  const net::Address ghost = 0x0BAD;
  EXPECT_FALSE(s.node(0).send_datagram(ghost, {0x01}));
  EXPECT_TRUE(aodv_of(s, 0).discovery_pending(ghost));
  s.run_for(AodvStrategy::kRreqRetryTimeout *
            (AodvStrategy::kRreqRefloods + 2));
  EXPECT_FALSE(aodv_of(s, 0).discovery_pending(ghost));
  // The first flood and kRreqRefloods re-floods, then it gives up.
  EXPECT_EQ(aodv_of(s, 0).rreqs_sent(),
            static_cast<std::uint64_t>(1 + AodvStrategy::kRreqRefloods));
  EXPECT_FALSE(s.node(0).routing_table().has_route(ghost));
}

TEST(AodvStrategy, HasRouteIsAPureQuery) {
  MeshScenario s(aodv_cfg(15));
  s.add_nodes(chain(2, kSpacing));
  s.start_all();
  s.run_for(Duration::seconds(2));

  // Introspection (tests, matrix reporting, transport refusal ladders
  // peeking) must not mutate strategy state or transmit control traffic;
  // only a refused origination is a demand signal (note_demand).
  EXPECT_FALSE(s.node(0).routing_strategy().has_route(0x0BAD));
  s.run_for(Duration::seconds(5));
  EXPECT_EQ(aodv_of(s, 0).discoveries_started(), 0u);
  EXPECT_EQ(aodv_of(s, 0).rreqs_sent(), 0u);
  EXPECT_FALSE(aodv_of(s, 0).discovery_pending(0x0BAD));
}

TEST(AodvStrategy, RelayWithoutRouteBroadcastsRouteError) {
  MeshScenario s(aodv_cfg(13));
  s.add_nodes(chain(2, kSpacing));
  s.start_all();
  s.run_for(Duration::seconds(2));

  // Hand node 0 a unicast data frame for a destination it has no route to:
  // the forward must fail loudly (RERR), not silently.
  Injector rogue(s, {-50.0, 0.0});
  net::DataPacket p;
  p.link = net::LinkHeader{s.address_of(0), 0x0BBB};
  p.route.final_dst = 0x0BAD;
  p.route.origin = 0x0BBB;
  p.route.ttl = 5;
  p.route.packet_id = 9;
  p.payload.assign({0xDE, 0xAD});
  EXPECT_TRUE(rogue.inject(net::Packet{p}));
  s.run_for(Duration::seconds(5));
  EXPECT_EQ(aodv_of(s, 0).rerrs_sent(), 1u);
  EXPECT_EQ(s.node(0).stats().dropped_no_route, 1u);
}

TEST(AodvStrategy, RouteErrorInvalidatesAndTriggersRediscovery) {
  MeshScenario s(aodv_cfg(14));
  s.add_nodes(chain(3, kSpacing));
  std::uint64_t delivered = 0;
  s.node(2).set_datagram_handler(
      [&](net::Address, const std::vector<std::uint8_t>&, std::uint8_t) {
        delivered++;
      });
  s.start_all();
  s.run_for(Duration::seconds(2));

  // Establish 0 -> 2 on demand.
  const net::Address dst = s.address_of(2);
  EXPECT_FALSE(s.node(0).send_datagram(dst, {0x01}));
  s.run_for(Duration::seconds(20));
  ASSERT_TRUE(s.node(0).routing_table().has_route(dst));

  // Node 1 announces it lost its route to node 2. Node 0 routes to 2 via
  // node 1, so it must drop the route and chain its own RERR.
  Injector rogue(s, {-50.0, 0.0});
  net::RouteErrorPacket rerr;
  rerr.link =
      net::LinkHeader{net::kBroadcast, s.address_of(1)};
  rerr.route.final_dst = net::kBroadcast;
  rerr.route.origin = s.address_of(1);
  rerr.route.ttl = 1;
  rerr.route.packet_id = 900;
  rerr.unreachable = dst;
  rerr.seq = 50;
  EXPECT_TRUE(rogue.inject(net::Packet{rerr}));
  s.run_for(Duration::seconds(5));
  EXPECT_FALSE(s.node(0).routing_table().has_route(dst));
  EXPECT_GE(aodv_of(s, 0).rerrs_sent(), 1u);

  // The next origination is refused and re-discovers; traffic then flows.
  EXPECT_FALSE(s.node(0).send_datagram(dst, {0x02}));
  EXPECT_EQ(aodv_of(s, 0).discoveries_started(), 2u);
  s.run_for(Duration::seconds(20));
  EXPECT_TRUE(s.node(0).send_datagram(dst, {0x03}));
  s.run_for(Duration::seconds(20));
  EXPECT_EQ(delivered, 1u);
}

TEST(AodvStrategy, MalformedControlFramesAreDroppedNotFatal) {
  // Crafted or corrupted control frames whose wire fields would violate
  // RoutingTable::upsert's contract (broadcast/unassigned source or
  // origin, hops+1 wrapping to a zero metric) must be dropped, not crash
  // the receiving node.
  MeshScenario s(aodv_cfg(16));
  s.add_nodes(chain(2, kSpacing));
  s.start_all();
  s.run_for(Duration::seconds(2));
  Injector rogue(s, {-50.0, 0.0});

  // A broadcast link source would trip upsert's via != kBroadcast check.
  net::RouteRequestPacket rreq;
  rreq.link = net::LinkHeader{net::kBroadcast, net::kBroadcast};
  rreq.route.final_dst = s.address_of(0);
  rreq.route.origin = 0x0BBB;
  rreq.route.ttl = 5;
  rreq.route.hops = 1;
  rreq.route.packet_id = 7;
  rreq.origin_seq = 1;
  EXPECT_TRUE(rogue.inject(net::Packet{rreq}));
  s.run_for(Duration::seconds(5));

  // 255 accumulated hops: the metric must saturate, not wrap to zero.
  net::RouteRequestPacket wrap;
  wrap.link =
      net::LinkHeader{net::kBroadcast, 0x0BBB};
  wrap.route.final_dst = 0x0DDD;
  wrap.route.origin = 0x0CCC;
  wrap.route.ttl = 5;
  wrap.route.hops = 255;
  wrap.route.packet_id = 8;
  wrap.origin_seq = 2;
  EXPECT_TRUE(rogue.inject(net::Packet{wrap}));
  s.run_for(Duration::seconds(5));

  // A broadcast-origin reply would trip upsert's destination check.
  net::RouteReplyPacket rrep;
  rrep.link =
      net::LinkHeader{s.address_of(0), 0x0BBB};
  rrep.route.final_dst = s.address_of(0);
  rrep.route.origin = net::kBroadcast;
  rrep.route.ttl = 5;
  rrep.route.hops = 0;
  rrep.route.packet_id = 9;
  rrep.dst_seq = 3;
  EXPECT_TRUE(rogue.inject(net::Packet{rrep}));
  s.run_for(Duration::seconds(5));

  // The node survived. The well-formed wrap probe taught the neighbor and
  // a saturated (clamped) route to its origin; the malformed frames
  // taught nothing.
  EXPECT_TRUE(s.node(0).routing_table().has_route(0x0BBB));
  EXPECT_TRUE(s.node(0).routing_table().has_route(0x0CCC));
  EXPECT_FALSE(s.node(0).routing_table().has_route(net::kBroadcast));
}

// --- Gateway tree: beacon waves, parent election, reports ------------------

TEST(GatewayTreeStrategy, FormsParentChainAndRoutesBothWays) {
  MeshScenario s(tree_cfg(21));
  s.add_node({0.0, 0.0}, net::roles::kGateway);
  s.add_node({kSpacing, 0.0});
  s.add_node({2 * kSpacing, 0.0});
  s.add_node({3 * kSpacing, 0.0});
  s.start_all();
  s.run_for(Duration::minutes(2));  // several beacon rounds + reports

  EXPECT_TRUE(tree_of(s, 0).is_root());
  EXPECT_EQ(tree_of(s, 0).depth(), 0u);
  for (std::size_t i = 1; i < 4; ++i) {
    ASSERT_TRUE(tree_of(s, i).parent().has_value()) << "node " << i;
    EXPECT_EQ(*tree_of(s, i).parent(), s.address_of(i - 1)) << "node " << i;
    EXPECT_EQ(tree_of(s, i).depth(), i) << "node " << i;
  }
  // Reports made it up the chain, teaching the root its members.
  EXPECT_GT(tree_of(s, 0).reports_received(), 0u);
  EXPECT_GT(tree_of(s, 3).reports_sent(), 0u);

  // Upward: leaf -> root. Downward: root -> leaf over report-learned routes.
  std::uint64_t up = 0, down = 0;
  s.node(0).set_datagram_handler(
      [&](net::Address origin, const std::vector<std::uint8_t>&,
          std::uint8_t hops) {
        up++;
        EXPECT_EQ(origin, s.address_of(3));
        EXPECT_EQ(hops, 3);
      });
  s.node(3).set_datagram_handler(
      [&](net::Address origin, const std::vector<std::uint8_t>&,
          std::uint8_t hops) {
        down++;
        EXPECT_EQ(origin, s.address_of(0));
        EXPECT_EQ(hops, 3);
      });
  EXPECT_TRUE(s.node(3).send_datagram(s.address_of(0), {0x11}));
  EXPECT_TRUE(s.node(0).send_datagram(s.address_of(3), {0x22}));
  s.run_for(Duration::seconds(30));
  EXPECT_EQ(up, 1u);
  EXPECT_EQ(down, 1u);
}

TEST(GatewayTreeStrategy, MemberToMemberRidesTheTree) {
  MeshScenario s(tree_cfg(22));
  s.add_node({0.0, 0.0}, net::roles::kGateway);
  s.add_node({kSpacing, 0.0});
  s.add_node({2 * kSpacing, 0.0});
  s.add_node({3 * kSpacing, 0.0});
  s.start_all();
  s.run_for(Duration::minutes(2));

  // 3 -> 1: not on node 3's own branch knowledge; the packet climbs the
  // parent chain and node 2 short-circuits it to its neighbor 1.
  std::uint64_t delivered = 0;
  s.node(1).set_datagram_handler(
      [&](net::Address origin, const std::vector<std::uint8_t>&,
          std::uint8_t hops) {
        delivered++;
        EXPECT_EQ(origin, s.address_of(3));
        EXPECT_EQ(hops, 2);
      });
  EXPECT_TRUE(s.node(3).send_datagram(s.address_of(1), {0x33}));
  s.run_for(Duration::seconds(30));
  EXPECT_EQ(delivered, 1u);
}

TEST(GatewayTreeStrategy, MembersRelayEachRoundExactlyOnce) {
  // Once-per-round guard: a deeper neighbor relaying the current round's
  // wave back must not reopen the election — without the guard adjacent
  // members re-trigger each other every settle window and multiply the
  // wave ~6x (the relay storm the golden trace originally recorded).
  MeshScenario s(tree_cfg(24));
  s.add_node({0.0, 0.0}, net::roles::kGateway);
  s.add_node({kSpacing, 0.0});
  s.add_node({2 * kSpacing, 0.0});
  s.add_node({3 * kSpacing, 0.0});
  s.start_all();
  s.run_for(Duration::minutes(4));  // ~12 waves at the 20 s test interval

  const std::uint64_t waves = s.node(0).stats().beacons_sent;
  ASSERT_GE(waves, 8u);  // the root only originates, never relays
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_LE(tree_of(s, i).beacons_relayed(), waves) << "node " << i;
    // Loose floor: joining costs the first round, a collision may eat one.
    EXPECT_GE(tree_of(s, i).beacons_relayed(), waves - 3) << "node " << i;
  }
}

TEST(GatewayTreeStrategy, ReelectsParentAfterParentDies) {
  // 200 m spacing: every pair within 400 m decodes, so node 3 hears both
  // depth-1 candidates (node 1 at 400 m, node 2 at 200 m) and prefers the
  // closer one by SNR. When node 2 dies, candidate aging drops it and
  // node 3 re-parents onto node 1; reports then repair the downward route.
  constexpr double kDense = 200.0;
  MeshScenario s(tree_cfg(23));
  s.add_node({0.0, 0.0}, net::roles::kGateway);
  s.add_node({kDense, 0.0});
  s.add_node({2 * kDense, 0.0});
  s.add_node({3 * kDense, 0.0});
  s.start_all();
  s.run_for(Duration::minutes(2));

  ASSERT_TRUE(tree_of(s, 3).parent().has_value());
  EXPECT_EQ(*tree_of(s, 3).parent(), s.address_of(2));

  s.fail_node(2);
  s.run_for(Duration::minutes(3));  // aging (2 rounds) + re-election + report

  ASSERT_TRUE(tree_of(s, 3).parent().has_value());
  EXPECT_EQ(*tree_of(s, 3).parent(), s.address_of(1));

  std::uint64_t down = 0;
  s.node(3).set_datagram_handler(
      [&](net::Address origin, const std::vector<std::uint8_t>&,
          std::uint8_t) {
        down++;
        EXPECT_EQ(origin, s.address_of(0));
      });
  EXPECT_TRUE(s.node(0).send_datagram(s.address_of(3), {0x44}));
  s.run_for(Duration::seconds(30));
  EXPECT_EQ(down, 1u);
}

// Forms the 4-node test tree and returns a counter of node 3 -> root
// datagrams that arrive.
std::shared_ptr<std::uint64_t> formed_tree(MeshScenario& s) {
  s.add_node({0.0, 0.0}, net::roles::kGateway);
  for (int i = 1; i < 4; ++i) s.add_node({i * kSpacing, 0.0});
  s.start_all();
  s.run_for(Duration::minutes(2));
  auto up = std::make_shared<std::uint64_t>(0);
  s.node(0).set_datagram_handler(
      [up](net::Address, const std::vector<std::uint8_t>&, std::uint8_t) {
        ++*up;
      });
  return up;
}

TEST(GatewayTreeStrategy, CraftedAddressesAreDroppedNotFatal) {
  // Found by the live frame fuzzer: a member relayed a unicast toward
  // kUnassigned and a report toward kBroadcast up the tree, installing the
  // default route through RoutingTable::upsert, whose contract check
  // threw. A beacon from a broadcast link source would have been elected
  // parent the same way.
  MeshScenario s(tree_cfg(25));
  const auto up = formed_tree(s);
  ASSERT_EQ(tree_of(s, 2).parent(), s.address_of(1));
  Injector rogue(s, {2 * kSpacing, 50.0});

  net::DataPacket nowhere;
  nowhere.link = net::LinkHeader{s.address_of(2), 0x0BBB};
  nowhere.route = net::RouteHeader{net::kUnassigned, 0x0BBB, 5, 0, 1};
  nowhere.payload = {0x01};
  EXPECT_TRUE(rogue.inject(net::Packet{nowhere}));
  s.run_for(Duration::seconds(5));

  net::TreeReportPacket everyone;
  everyone.link = net::LinkHeader{s.address_of(2), 0x0BBB};
  everyone.route = net::RouteHeader{net::kBroadcast, 0x0BBB, 5, 0, 2};
  everyone.parent = 0x0BBB;
  EXPECT_TRUE(rogue.inject(net::Packet{everyone}));
  s.run_for(Duration::seconds(5));

  net::TreeBeaconPacket nobody;
  nobody.link = net::LinkHeader{net::kBroadcast, net::kBroadcast};
  nobody.route = net::RouteHeader{
      net::kBroadcast, s.address_of(0), 16, 0,
      static_cast<std::uint16_t>(s.node(0).stats().beacons_sent + 1)};
  EXPECT_TRUE(rogue.inject(net::Packet{nobody}));
  s.run_for(Duration::seconds(5));

  EXPECT_EQ(tree_of(s, 2).parent(), s.address_of(1));
  EXPECT_FALSE(s.node(2).routing_table().has_route(net::kUnassigned));
  EXPECT_FALSE(s.node(2).routing_table().has_route(net::kBroadcast));
  EXPECT_TRUE(s.node(3).send_datagram(s.address_of(0), {0x55}));
  s.run_for(Duration::seconds(30));
  EXPECT_EQ(*up, 1u);
}

// Runs until the root has sent its next wave, then `after` longer.
void run_past_next_wave(MeshScenario& s, Duration after) {
  const std::uint64_t waves = s.node(0).stats().beacons_sent;
  while (s.node(0).stats().beacons_sent == waves) {
    s.run_for(Duration::seconds(1));
  }
  s.run_for(after);
}

// Reports members 1..3 send over `window`.
std::uint64_t reports_over(MeshScenario& s, Duration window) {
  std::uint64_t before = 0;
  for (std::size_t i = 1; i < 4; ++i) before += tree_of(s, i).reports_sent();
  s.run_for(window);
  std::uint64_t after = 0;
  for (std::size_t i = 1; i < 4; ++i) after += tree_of(s, i).reports_sent();
  return after - before;
}

TEST(GatewayTreeStrategy, ForgedFutureRoundDoesNotFreezeElections) {
  // Found by the live frame fuzzer: one forged wave from the real root's
  // address with a round far ahead made every real wave look old, so the
  // members that heard it never re-elected and kept the forger as parent.
  MeshScenario s(tree_cfg(26));
  const auto up = formed_tree(s);
  const std::uint64_t reports_before = reports_over(s, Duration::minutes(5));
  ASSERT_GT(reports_before, 0u);
  // Forge right after a real wave has settled, well before the next one.
  run_past_next_wave(s, Duration::seconds(6));
  Injector rogue(s, {2 * kSpacing, 50.0});
  net::TreeBeaconPacket forged;
  forged.link = net::LinkHeader{net::kBroadcast, 0x0BBB};
  forged.route = net::RouteHeader{
      net::kBroadcast, s.address_of(0), 16, 0,
      static_cast<std::uint16_t>(s.node(0).stats().beacons_sent + 1000)};
  EXPECT_TRUE(rogue.inject(net::Packet{forged}));
  s.run_for(Duration::seconds(3));
  // Claiming depth 0, the forger wins the election after the settle
  // window...
  EXPECT_EQ(tree_of(s, 2).parent(), net::Address{0x0BBB});

  // ...and once the member's round has stood still for a few intervals,
  // the root's waves, rounds behind, restart the election.
  s.run_for(Duration::minutes(2));
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(tree_of(s, i).parent(), s.address_of(i - 1)) << "node " << i;
  }
  EXPECT_TRUE(s.node(3).send_datagram(s.address_of(0), {0x66}));
  s.run_for(Duration::seconds(30));
  EXPECT_EQ(*up, 1u);
  // The restart dropped the parent, and rejoining began the member's
  // report chain over: one chain, reporting at the rate it did before.
  const std::uint64_t reports_after = reports_over(s, Duration::minutes(5));
  EXPECT_LE(reports_after, reports_before + 1);
  EXPECT_GE(reports_after + 1, reports_before);
}

TEST(GatewayTreeStrategy, LateRelayOfAnOldRoundKeepsParents) {
  // Under the default duty limit a queued wave relay can go out rounds
  // late. A member that still hears the root's fresh waves must treat it
  // as one more stale candidate, not as a reason to restart its tree and
  // elect the late sender: here node 3's relay, two rounds late, reaches
  // nodes 1 and 2, for which node 3 would be a parent deeper than
  // themselves.
  ScenarioConfig c = tree_cfg(27);
  c.mesh.duty_cycle_limit = net::MeshConfig{}.duty_cycle_limit;
  MeshScenario s(std::move(c));
  formed_tree(s);
  for (std::size_t i = 1; i < 4; ++i) {
    ASSERT_EQ(tree_of(s, i).parent(), s.address_of(i - 1)) << "node " << i;
  }
  run_past_next_wave(s, Duration::seconds(6));
  Injector rogue(s, {2 * kSpacing, 50.0});
  net::TreeBeaconPacket late;
  late.link = net::LinkHeader{net::kBroadcast, s.address_of(3)};
  late.route = net::RouteHeader{
      net::kBroadcast, s.address_of(0), 13, 3,
      static_cast<std::uint16_t>(s.node(0).stats().beacons_sent - 2)};
  EXPECT_TRUE(rogue.inject(net::Packet{late}));
  s.run_for(Duration::seconds(5));
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(tree_of(s, i).parent(), s.address_of(i - 1)) << "node " << i;
    EXPECT_EQ(tree_of(s, i).depth(), i) << "node " << i;
  }
  s.run_for(Duration::minutes(1));
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(tree_of(s, i).parent(), s.address_of(i - 1)) << "node " << i;
  }
}

}  // namespace
}  // namespace lm::testbed
