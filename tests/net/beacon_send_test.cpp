// The beacon send path: DistanceVectorStrategy rebuilds its beacon only
// when the table's generation() or the advertised penalty moves, and the
// link layer re-sends a repeated beacon's frame without encoding it again.
//
// The oracle: in generated scenes (every routing strategy, chaos
// kill/reboot, mobility, a dwell cap, energy-aware nodes on finite
// batteries, datagram traffic) every Routing frame the channel sees must be
// byte-equal to encode() of the sender's advertisement computed afresh,
// decorated and capped at the instant the beacon was queued, and every
// other frame must match the packet the link layer said it was sending.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "metrics/packet_tracker.h"
#include "net/aodv_strategy.h"
#include "net/distance_vector_strategy.h"
#include "net/energy_aware_strategy.h"
#include "net/flooding_strategy.h"
#include "net/gateway_tree_strategy.h"
#include "phy/path_loss.h"
#include "support/rng.h"
#include "testbed/chaos.h"
#include "testbed/mobility.h"
#include "testbed/scenario.h"
#include "testbed/topology.h"
#include "testbed/traffic.h"
#include "trace/trace_sink.h"

namespace lm::testbed {
namespace {

using net::DistanceVectorStrategy;
using net::RoutingEntry;

ScenarioConfig base_config(std::uint64_t seed) {
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

const DistanceVectorStrategy* distance_vector(const net::MeshNode& node) {
  return dynamic_cast<const DistanceVectorStrategy*>(&node.routing_strategy());
}

// What `node` would advertise right now, built from scratch: the table's
// advertisement under the node's frame cap, with the strategy's penalty
// added to every entry but the node's own.
std::vector<std::uint8_t> fresh_beacon(const net::MeshNode& node) {
  const std::size_t frame_bytes = node.max_datagram_payload() +
                                  net::kLinkHeaderSize + net::kRouteHeaderSize;
  net::RoutingPacket p;
  p.link = {net::kBroadcast, node.address()};
  p.entries = node.routing_table().advertisement(
      net::routing_entries_within(frame_bytes));
  const unsigned penalty = distance_vector(node)->advertised_penalty();
  for (RoutingEntry& e : p.entries) {
    if (e.address == node.address()) continue;
    e.metric = static_cast<std::uint8_t>(
        std::min(e.metric + penalty, net::kInfiniteMetric - 1u));
  }
  return net::encode(net::Packet{p});
}

struct OracleCounts {
  std::uint64_t beacons_checked = 0;  // Routing frames compared byte for byte
  std::uint64_t frames_checked = 0;   // other frames matched to their MeshTx
  std::uint64_t reused = 0;           // beacons sent under the previous id
  std::uint64_t rebuilt = 0;          // beacons that drew a fresh id
  std::uint64_t penalized = 0;        // beacons built with a non-zero penalty
  std::uint64_t capped = 0;           // beacons the frame cap truncated
};

// Records the expected frame of every beacon at its Enqueue event, and the
// last MeshTx event, which the link layer emits right before handing the
// frame to the radio. Declared before the scenario it watches, so it
// outlives every event the scenario emits.
class OracleSink final : public trace::TraceSink {
 public:
  explicit OracleSink(OracleCounts& counts) : counts_(counts) {}
  void watch(MeshScenario& scenario) { scenario_ = &scenario; }

  void record(const trace::TraceEvent& e) override {
    if (e.kind == trace::EventKind::NodeDown) {
      expected_[e.node].clear();  // stop() dropped whatever was queued
      return;
    }
    if (e.kind == trace::EventKind::MeshTx) {
      last_tx_ = e;
      return;
    }
    if (e.kind != trace::EventKind::Enqueue ||
        e.packet_type != static_cast<std::uint8_t>(net::PacketType::Routing)) {
      return;
    }
    const net::MeshNode& node = scenario_->node(*scenario_->index_of(
        static_cast<net::Address>(e.node)));
    const DistanceVectorStrategy* dv = distance_vector(node);
    ASSERT_NE(dv, nullptr);
    expected_[e.node].push_back(fresh_beacon(node));
    const std::uint32_t id = dv->beacon_content_id();
    ASSERT_NE(id, 0u);
    std::uint32_t& previous = last_id_[e.node];
    ++(id == previous ? counts_.reused : counts_.rebuilt);
    previous = id;
    if (dv->advertised_penalty() != 0) ++counts_.penalized;
    const std::size_t advertised =
        net::routing_entries_within(expected_[e.node].back().size());
    if (node.routing_table().size() + 1 > advertised) ++counts_.capped;
  }

  // Called by the channel's tx observer with each frame put on the air.
  void on_air(std::span<const std::uint8_t> frame) {
    ASSERT_TRUE(last_tx_.has_value()) << "a frame without a MeshTx event";
    const trace::TraceEvent tx = *last_tx_;
    last_tx_.reset();
    const auto packet = net::decode(frame);
    ASSERT_TRUE(packet.has_value());
    const net::LinkHeader& link = net::link_of(*packet);
    ASSERT_EQ(static_cast<std::uint8_t>(net::type_of(*packet)), tx.packet_type);
    ASSERT_EQ(link.src, tx.node);
    ASSERT_EQ(link.dst, tx.via);
    ASSERT_EQ(frame.size(), tx.bytes);
    if (const net::RouteHeader* route = net::route_of(*packet)) {
      ASSERT_EQ(route->origin, tx.origin);
      ASSERT_EQ(route->final_dst, tx.final_dst);
      ASSERT_EQ(route->packet_id, tx.packet_id);
      ASSERT_EQ(route->ttl, tx.ttl);
      ASSERT_EQ(route->hops, tx.hops);
    }
    if (net::type_of(*packet) != net::PacketType::Routing) {
      ++counts_.frames_checked;
      return;
    }
    std::deque<std::vector<std::uint8_t>>& queued = expected_[link.src];
    ASSERT_FALSE(queued.empty()) << "a beacon that was never queued";
    ASSERT_TRUE(std::ranges::equal(frame, queued.front()))
        << "beacon of " << net::to_string(link.src) << " differs from its "
        << "fresh advertisement";
    queued.pop_front();
    ++counts_.beacons_checked;
  }

 private:
  MeshScenario* scenario_ = nullptr;
  OracleCounts& counts_;
  std::map<std::uint32_t, std::deque<std::vector<std::uint8_t>>> expected_;
  std::map<std::uint32_t, std::uint32_t> last_id_;
  std::optional<trace::TraceEvent> last_tx_;
};

struct Cell {
  std::string name;
  std::function<std::unique_ptr<net::RoutingStrategy>()> factory;  // null: DV
  bool gateway_root = false;  // node 0 carries the gateway role
  bool finite_battery = false;
  bool dwell_cap = false;
};

// One generated scene: `kind` picks the topology and its disturbance.
OracleCounts run_scene(const Cell& cell, const std::string& kind,
                       std::uint64_t seed) {
  SCOPED_TRACE(cell.name + "/" + kind + " seed " + std::to_string(seed));
  ScenarioConfig config = base_config(seed);
  config.strategy_factory = cell.factory;
  if (cell.finite_battery) {
    // Drains within the run, so the penalty climbs while beacons flow.
    config.energy.enabled = true;
    config.energy.battery.capacity_mah = 2.4;
  }
  if (cell.dwell_cap) {
    config.mesh.max_dwell_time = Duration::milliseconds(70);  // ~4 entries
  }
  OracleCounts counts;
  OracleSink sink(counts);
  trace::Tracer tracer;
  tracer.attach(&sink);
  MeshScenario scenario(config);
  sink.watch(scenario);
  scenario.attach_tracer(tracer);

  Rng rng(seed);
  std::vector<phy::Position> positions;
  if (kind == "chaos") {
    positions = chain(6, 400.0);
  } else if (kind == "mobile") {
    positions = chain(4, 350.0);
  } else {
    positions = connected_random_field(9, 1200.0, 1200.0, 450.0, rng);
  }
  for (std::size_t i = 0; i < positions.size(); ++i) {
    scenario.add_node(positions[i], cell.gateway_root && i == 0
                                        ? net::roles::kGateway
                                        : net::roles::kNone);
  }
  scenario.channel().set_tx_observer(
      [&sink](const radio::TxSnapshot& tx) { sink.on_air(tx.frame); });

  std::unique_ptr<WaypointMover> mover;
  std::unique_ptr<ChaosMonkey> monkey;
  if (kind == "mobile") {
    mover = std::make_unique<WaypointMover>(
        scenario.simulator(), scenario.radio(3),
        std::vector<phy::Position>{{400.0, 150.0}, {1050.0, 0.0}}, 1.5,
        Duration::seconds(5));
    mover->start();
  }
  if (kind == "chaos") {
    ChaosConfig chaos;
    chaos.mean_time_between_failures = Duration::minutes(2);
    chaos.min_outage = Duration::seconds(30);
    chaos.max_outage = Duration::minutes(3);
    chaos.min_alive = 3;
    chaos.protected_nodes = {0, positions.size() - 1};
    monkey = std::make_unique<ChaosMonkey>(scenario, chaos, seed ^ 0xC4A0);
    monkey->start();
  }

  metrics::PacketTracker tracker;
  attach_tracker(scenario, tracker);
  scenario.start_all();
  scenario.run_for(Duration::minutes(3));
  TrafficConfig traffic;
  traffic.mean_interval = Duration::seconds(8);
  traffic.payload_size = 8;  // fits the dwell-capped frame too
  const std::size_t last = positions.size() - 1;
  DatagramTraffic forward(scenario, tracker, 0, last, traffic, seed ^ 0xAAAA);
  DatagramTraffic reverse(scenario, tracker, last, 0, traffic, seed ^ 0x5555);
  forward.start();
  reverse.start();
  scenario.run_for(Duration::minutes(20));
  forward.stop();
  reverse.stop();
  if (mover) mover->stop();
  if (monkey) monkey->stop();
  scenario.channel().set_tx_observer(nullptr);
  return counts;
}

void add(OracleCounts& total, const OracleCounts& c) {
  total.beacons_checked += c.beacons_checked;
  total.frames_checked += c.frames_checked;
  total.reused += c.reused;
  total.rebuilt += c.rebuilt;
  total.penalized += c.penalized;
  total.capped += c.capped;
}

OracleCounts sweep(const Cell& cell) {
  OracleCounts total;
  for (const char* kind : {"chaos", "mobile", "field"}) {
    for (const std::uint64_t seed : {3ull, 14ull, 15ull, 92ull}) {
      add(total, run_scene(cell, kind, seed));
      if (::testing::Test::HasFatalFailure()) return total;
    }
  }
  return total;
}

TEST(BeaconSendOracle, DistanceVectorFramesAreTheFreshAdvertisement) {
  const OracleCounts c = sweep({"distance-vector", nullptr});
  EXPECT_GT(c.beacons_checked, 1000u);
  EXPECT_GT(c.frames_checked, 500u);  // data frames between the beacons
  EXPECT_GT(c.reused, c.rebuilt);  // converged beacons come from the cache
  EXPECT_GT(c.rebuilt, 0u);
}

TEST(BeaconSendOracle, DwellCappedFramesAreTheFreshAdvertisement) {
  Cell cell{"dwell", nullptr};
  cell.dwell_cap = true;
  const OracleCounts c = sweep(cell);
  EXPECT_GT(c.beacons_checked, 1000u);
  EXPECT_GT(c.capped, 0u);
  EXPECT_GT(c.reused, 0u);
}

TEST(BeaconSendOracle, EnergyAwareFramesOnDrainingBatteries) {
  Cell cell{"energy-aware",
            [] { return std::make_unique<net::EnergyAwareStrategy>(); }};
  cell.finite_battery = true;
  const OracleCounts c = sweep(cell);
  EXPECT_GT(c.beacons_checked, 1000u);
  EXPECT_GT(c.penalized, 0u);
  EXPECT_GT(c.reused, 0u);
}

TEST(BeaconSendOracle, OtherStrategiesSendWhatTheyQueued) {
  for (const Cell& cell :
       {Cell{"aodv", [] { return std::make_unique<net::AodvStrategy>(); }},
        Cell{"gateway-tree",
             [] { return std::make_unique<net::GatewayTreeStrategy>(); },
             /*gateway_root=*/true},
        Cell{"flooding",
             [] { return std::make_unique<net::FloodingStrategy>(); }}}) {
    const OracleCounts c = sweep(cell);
    if (HasFatalFailure()) return;
    EXPECT_EQ(c.beacons_checked, 0u) << cell.name;
    EXPECT_GT(c.frames_checked, 100u) << cell.name;
  }
}

// A distance-vector strategy whose penalty the test sets.
class SetPenalty final : public DistanceVectorStrategy {
 public:
  std::uint8_t advertised_penalty() const override { return penalty; }
  std::uint8_t penalty = 0;
};

class CallbackSink final : public trace::TraceSink {
 public:
  explicit CallbackSink(std::function<void(const trace::TraceEvent&)> f)
      : f_(std::move(f)) {}
  void record(const trace::TraceEvent& e) override { f_(e); }

 private:
  std::function<void(const trace::TraceEvent&)> f_;
};

TEST(BeaconSend, PenaltyChangeReKeysTheBeacon) {
  // Node 0 of a converged 3-chain: its table holds still, so only the
  // penalty can change what it advertises.
  SetPenalty* strategy = nullptr;
  ScenarioConfig config = base_config(5);
  config.strategy_factory = [&strategy]() -> std::unique_ptr<net::RoutingStrategy> {
    if (strategy != nullptr) return std::make_unique<DistanceVectorStrategy>();
    auto made = std::make_unique<SetPenalty>();
    strategy = made.get();
    return made;
  };
  net::Address self = net::kUnassigned;
  std::vector<std::uint32_t> ids;  // node 0's beacon ids, as queued
  std::vector<std::vector<RoutingEntry>> sent;  // its beacons, as on the air
  CallbackSink sink([&](const trace::TraceEvent& e) {
    if (e.kind == trace::EventKind::Enqueue && e.node == self &&
        e.packet_type == static_cast<std::uint8_t>(net::PacketType::Routing)) {
      ids.push_back(strategy->beacon_content_id());
    }
  });
  trace::Tracer tracer;
  tracer.attach(&sink);
  MeshScenario s(config);
  s.add_nodes(chain(3, 400.0));
  ASSERT_NE(strategy, nullptr);
  self = s.address_of(0);
  s.attach_tracer(tracer);
  s.channel().set_tx_observer([&](const radio::TxSnapshot& tx) {
    const auto packet = net::decode(tx.frame);
    const auto* beacon =
        packet ? std::get_if<net::RoutingPacket>(&*packet) : nullptr;
    if (beacon != nullptr && beacon->link.src == self) {
      sent.emplace_back(beacon->entries.begin(), beacon->entries.end());
    }
  });
  s.start_all();
  ASSERT_TRUE(s.run_until_converged(Duration::minutes(5)).has_value());
  s.run_for(Duration::seconds(30));
  const std::uint64_t generation = s.node(0).routing_table().generation();

  // Runs one minute at `penalty`; returns the one id and the one entry
  // list every beacon of that minute carried.
  const auto minute_at = [&](std::uint8_t penalty) {
    strategy->penalty = penalty;
    ids.clear();
    sent.clear();
    s.run_for(Duration::minutes(1));
    EXPECT_GE(ids.size(), 4u);
    EXPECT_EQ(sent.size(), ids.size());
    for (const std::uint32_t id : ids) EXPECT_EQ(id, ids.front());
    for (const auto& entries : sent) EXPECT_EQ(entries, sent.front());
    return std::pair{ids.front(), sent.front()};
  };
  const auto [plain_id, plain] = minute_at(0);
  const auto [penalized_id, penalized] = minute_at(3);
  const auto [again_id, again] = minute_at(0);
  EXPECT_EQ(s.node(0).routing_table().generation(), generation);

  const std::vector<RoutingEntry> expected_plain = {
      {self, 0}, {s.address_of(1), 1}, {s.address_of(2), 2}};
  const std::vector<RoutingEntry> expected_penalized = {
      {self, 0}, {s.address_of(1), 4}, {s.address_of(2), 5}};
  EXPECT_EQ(plain, expected_plain);
  EXPECT_EQ(penalized, expected_penalized);
  EXPECT_EQ(again, expected_plain);
  // Each change of penalty drew a fresh id; ids are never reused, even for
  // entries sent before.
  EXPECT_NE(penalized_id, plain_id);
  EXPECT_NE(again_id, penalized_id);
  EXPECT_NE(again_id, plain_id);
  s.channel().set_tx_observer(nullptr);
}

}  // namespace
}  // namespace lm::testbed
