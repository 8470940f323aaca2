// Adversarial protocol inputs: syntactically valid but hostile packets
// injected by a rogue radio. The node must not crash, must keep its state
// bounded, and must keep serving legitimate traffic.
#include <gtest/gtest.h>

#include "net/mesh_node.h"
#include "phy/path_loss.h"
#include "testbed/scenario.h"
#include "testbed/topology.h"

namespace lm::net {
namespace {

using testbed::MeshScenario;

testbed::ScenarioConfig cfg(std::uint64_t seed) {
  testbed::ScenarioConfig c;
  c.seed = seed;
  c.propagation.path_loss = phy::make_log_distance(3.5, 40.0);
  c.propagation.shadowing_sigma_db = 0.0;
  c.propagation.fading_sigma_db = 0.0;
  c.mesh.hello_interval = Duration::seconds(10);
  c.mesh.maintenance_interval = Duration::seconds(2);
  c.mesh.duty_cycle_limit = 1.0;
  c.mesh.receiver_session_timeout = Duration::minutes(2);
  return c;
}

class Rogue {
 public:
  Rogue(MeshScenario& s, phy::Position pos)
      : radio_(s.simulator(), s.channel(), 66, pos, {}) {}

  /// Transmits an encoded mesh packet when the radio is free.
  bool inject(const Packet& p) { return radio_.transmit(encode(p)); }

  radio::VirtualRadio radio_;
};

TEST(Adversarial, SyncFloodHitsTheSessionCap) {
  MeshScenario s(cfg(1));
  s.add_nodes(testbed::chain(2, 400.0));
  s.start_all();
  s.run_for(Duration::seconds(25));

  Rogue rogue(s, {200.0, 0.0});
  // Spray SYNCs with fresh (origin, seq) pairs, addressed to node 0.
  for (int i = 0; i < 40; ++i) {
    SyncPacket p;
    p.link = LinkHeader{s.address_of(0), static_cast<Address>(0x4000 + i)};
    p.route.final_dst = s.address_of(0);
    p.route.origin = static_cast<Address>(0x4000 + i);
    p.route.ttl = 4;
    p.seq = static_cast<std::uint8_t>(i);
    p.fragment_count = 1000;  // each session would buffer a lot
    p.total_bytes = 1000u * kMaxFragmentPayload;
    s.simulator().schedule_after(Duration::seconds(2 * i + 1), [&rogue, p] {
      rogue.inject(Packet{p});
    });
  }
  s.run_for(Duration::minutes(3));

  const auto& st = s.node(0).stats();
  EXPECT_GT(st.rx_sessions_rejected, 0u);
  // The cap held: accepted sessions <= max; rejected + accepted ~= injected.
  EXPECT_LE(40u - st.rx_sessions_rejected,
            net::TransportLayer::kMaxRxSessions + 2);
}

TEST(Adversarial, SessionSlotsRecycleAfterExpiry) {
  auto c = cfg(2);
  c.mesh.receiver_session_timeout = Duration::seconds(30);
  MeshScenario s(c);
  s.add_nodes(testbed::chain(2, 400.0));
  s.start_all();
  s.run_for(Duration::seconds(25));

  Rogue rogue(s, {200.0, 0.0});
  auto spray = [&](int base) {
    for (int i = 0; i < 10; ++i) {
      SyncPacket p;
      p.link = LinkHeader{s.address_of(0),
                          static_cast<Address>(0x5000 + base + i)};
      p.route.final_dst = s.address_of(0);
      p.route.origin = static_cast<Address>(0x5000 + base + i);
      p.route.ttl = 4;
      p.seq = 1;
      p.fragment_count = 10;
      s.simulator().schedule_after(Duration::seconds(2 * i + 1), [&rogue, p] {
        rogue.inject(Packet{p});
      });
    }
  };
  spray(0);
  s.run_for(Duration::minutes(2));  // sessions expire (30 s timeout)
  const auto rejected_first = s.node(0).stats().rx_sessions_rejected;
  spray(100);
  s.run_for(Duration::minutes(2));
  // The second wave found recycled slots: rejections grew by less than a
  // full wave.
  EXPECT_LT(s.node(0).stats().rx_sessions_rejected - rejected_first, 10u);
}

TEST(Adversarial, FramesFromNoNodeAreMalformed) {
  // Found by the live frame fuzzer: a beacon whose link source is the
  // broadcast (or unassigned) address reached RoutingTable::apply_beacon
  // as a neighbor, whose contract check threw. No node sends from, or
  // originates a route at, these addresses, so the link layer drops such
  // frames as malformed under every strategy.
  MeshScenario s(cfg(5));
  s.add_nodes(testbed::chain(2, 400.0));
  s.start_all();
  s.run_for(Duration::seconds(25));
  const auto malformed = s.node(0).stats().malformed_frames;

  Rogue rogue(s, {200.0, 0.0});
  for (const Address src : {kBroadcast, kUnassigned}) {
    RoutingPacket p;
    p.link = LinkHeader{kBroadcast, src};
    p.entries = {{0x0BBB, 1, roles::kNone}};
    ASSERT_TRUE(rogue.inject(Packet{p}));
    s.run_for(Duration::seconds(1));
  }
  for (const Address origin : {kBroadcast, kUnassigned}) {
    DataPacket p;
    p.link = LinkHeader{s.address_of(0), 0x0BBB};
    p.route = RouteHeader{s.address_of(0), origin, 4, 0, 1};
    p.payload = {0x01};
    ASSERT_TRUE(rogue.inject(Packet{p}));
    s.run_for(Duration::seconds(1));
  }
  EXPECT_EQ(s.node(0).stats().malformed_frames, malformed + 4);
  EXPECT_FALSE(s.node(0).routing_table().has_route(0x0BBB));
  EXPECT_TRUE(s.node(0).routing_table().has_route(s.address_of(1)));
}

TEST(Adversarial, StaleControlPacketsAreIgnored) {
  MeshScenario s(cfg(3));
  s.add_nodes(testbed::chain(2, 400.0));
  s.start_all();
  s.run_for(Duration::seconds(25));

  Rogue rogue(s, {200.0, 0.0});
  // SYNC_ACK / LOST / DONE / POLL for transfers that never existed.
  int offset = 1;
  for (PacketType t : {PacketType::SyncAck, PacketType::Lost, PacketType::Done,
                       PacketType::Poll}) {
    Packet p = [&]() -> Packet {
      switch (t) {
        case PacketType::SyncAck: {
          SyncAckPacket q;
          q.seq = 9;
          return Packet{q};
        }
        case PacketType::Lost: {
          LostPacket q;
          q.seq = 9;
          q.missing = {1, 2, 3};
          return Packet{q};
        }
        case PacketType::Done: {
          DonePacket q;
          q.seq = 9;
          return Packet{q};
        }
        default: {
          PollPacket q;
          q.seq = 9;
          return Packet{q};
        }
      }
    }();
    link_of(p) = LinkHeader{s.address_of(0), 0x6666};
    route_of(p)->final_dst = s.address_of(0);
    route_of(p)->origin = 0x6666;
    route_of(p)->ttl = 4;
    s.simulator().schedule_after(Duration::seconds(offset), [&rogue, p] {
      rogue.inject(p);
    });
    offset += 2;
  }
  s.run_for(Duration::minutes(1));
  // Nothing crashed, nothing was created.
  EXPECT_EQ(s.node(0).stats().transfers_received, 0u);
  EXPECT_EQ(s.node(0).stats().transfers_started, 0u);
}

TEST(Adversarial, PoisonedRoutingAdvertisementsAreFiltered) {
  MeshScenario s(cfg(4));
  s.add_nodes(testbed::chain(2, 400.0));
  s.start_all();
  s.run_for(Duration::seconds(25));

  Rogue rogue(s, {200.0, 0.0});
  RoutingPacket p;
  p.link = LinkHeader{kBroadcast, 0x6666};
  p.entries = {
      {kBroadcast, 1, roles::kNone},     // reserved address
      {kUnassigned, 1, roles::kNone},    // reserved address
      {s.address_of(0), 1, roles::kNone},  // the victim itself
      {0x7777, 0, roles::kGateway},      // fake metric-0 identity claim
      {0x8888, kInfiniteMetric, roles::kNone},  // unreachable
  };
  rogue.inject(Packet{std::move(p)});
  s.run_for(Duration::seconds(10));

  const RoutingTable& t = s.node(0).routing_table();
  EXPECT_FALSE(t.has_route(kBroadcast));
  EXPECT_FALSE(t.has_route(s.address_of(0)));
  EXPECT_FALSE(t.has_route(0x7777));  // zero-metric spoof rejected
  EXPECT_FALSE(t.has_route(0x8888));
  // The rogue itself is learned as a neighbor — it did transmit a beacon.
  EXPECT_TRUE(t.has_route(0x6666));
}

TEST(Adversarial, BlackholeAttackSucceedsWithoutAuthentication) {
  // Documented limitation, asserted so it stays documented: the prototype
  // has no authentication, so a malicious node advertising short routes to
  // everything ("blackhole") attracts and swallows traffic. A deployment
  // needing integrity must add signing above this layer.
  MeshScenario s(cfg(6));
  s.add_nodes(testbed::chain(4, 400.0));
  s.start_all();
  ASSERT_TRUE(s.run_until_converged(Duration::minutes(5)).has_value());

  // Rogue next to node 0 claims to be 1 hop from everything.
  Rogue rogue(s, {50.0, 50.0});
  RoutingPacket lure;
  lure.link = LinkHeader{kBroadcast, 0x0666};
  for (std::size_t i = 1; i < s.size(); ++i) {
    lure.entries.push_back({s.address_of(i), 1});
  }
  for (int i = 0; i < 5; ++i) {
    s.simulator().schedule_after(Duration::seconds(10 * i + 1), [&rogue, lure] {
      rogue.inject(Packet{lure});
    });
  }
  s.run_for(Duration::minutes(1));

  // Node 0 now routes to the far end via the rogue (metric 2 beats 3)...
  const auto route = s.node(0).routing_table().route_to(s.address_of(3));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->via, 0x0666);

  // ...and its traffic disappears (the rogue never forwards).
  int delivered = 0;
  s.node(3).set_datagram_handler(
      [&](Address, const std::vector<std::uint8_t>&, std::uint8_t) {
        ++delivered;
      });
  for (int i = 0; i < 5; ++i) {
    s.node(0).send_datagram(s.address_of(3), {1});
    s.run_for(Duration::seconds(5));
  }
  EXPECT_EQ(delivered, 0);
}

TEST(Adversarial, TtlZeroAndMaxForwardingExtremes) {
  MeshScenario s(cfg(5));
  s.add_nodes(testbed::chain(3, 400.0));
  s.start_all();
  ASSERT_TRUE(s.run_until_converged(Duration::minutes(5)).has_value());

  Rogue rogue(s, {400.0, 100.0});  // next to the middle relay
  int delivered = 0;
  s.node(2).set_datagram_handler(
      [&](Address, const std::vector<std::uint8_t>&, std::uint8_t) {
        ++delivered;
      });

  // TTL 0 and TTL 1 packets needing a forward: relay must drop both.
  for (std::uint8_t ttl : {std::uint8_t{0}, std::uint8_t{1}}) {
    DataPacket p;
    p.link = LinkHeader{s.address_of(1), 0x6666};
    p.route.final_dst = s.address_of(2);
    p.route.origin = 0x6666;
    p.route.ttl = ttl;
    p.payload = {1};
    rogue.inject(Packet{std::move(p)});
    s.run_for(Duration::seconds(5));
  }
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(s.node(1).stats().dropped_ttl, 2u);

  // TTL 255 is legal and must not wrap anything.
  DataPacket p;
  p.link = LinkHeader{s.address_of(1), 0x6666};
  p.route.final_dst = s.address_of(2);
  p.route.origin = 0x6666;
  p.route.ttl = 255;
  p.payload = {2};
  rogue.inject(Packet{std::move(p)});
  s.run_for(Duration::seconds(5));
  EXPECT_EQ(delivered, 1);
}

}  // namespace
}  // namespace lm::net
