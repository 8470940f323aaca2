// Byte-identity of the PDES engine against the serial engine and across
// worker counts.
//
// Three layers of evidence:
//  1. The canonical chain scenario (the golden-trace recipe) produces a
//     byte-identical trace on the PDES engine at 1, 2, 3, 7 and 8 workers —
//     its field collapses to a single region, so the engine must execute
//     the exact serial event sequence.
//  2. The full invariant-sweep scenario set (static chains/grids/random
//     fields, a mobile node, chaos) byte-compares serial vs PDES.
//  3. A 40-node chain wide enough for a 7-region decomposition — a region
//     count that does not divide the node count evenly — produces identical
//     traces at every worker count, with real cross-region deliveries in
//     the trace (verified via the per-region tx_seq ranges).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "metrics/packet_tracker.h"
#include "net/aodv_strategy.h"
#include "net/gateway_tree_strategy.h"
#include "sim/node_clock.h"
#include "support/assert.h"
#include "testbed/chaos.h"
#include "testbed/mobility.h"
#include "testbed/scenario.h"
#include "testbed/topology.h"
#include "testbed/traffic.h"
#include "trace/trace_analyzer.h"
#include "trace/trace_sink.h"
#include "trace_test_util.h"

namespace lm::testbed {
namespace {

using lm::trace::TraceAnalyzer;
using lm::trace::Tracer;
using lm::trace::VectorSink;

const std::vector<std::size_t> kWorkerCounts{1, 2, 3, 7, 8};

TEST(PdesDeterminism, GoldenChainByteIdenticalToSerialAtEveryWorkerCount) {
  for (const std::uint64_t seed : {7ull, 42ull}) {
    const std::string serial = TraceAnalyzer::canonical_text(
        trace_test::capture_chain_trace(seed));
    ASSERT_FALSE(serial.empty());
    for (const std::size_t workers : kWorkerCounts) {
      const std::string pdes = TraceAnalyzer::canonical_text(
          trace_test::capture_chain_trace(seed, workers));
      EXPECT_TRUE(serial == pdes)
          << "seed " << seed << ": serial and " << workers
          << "-worker PDES traces differ";
    }
  }
}

// The reactive strategies ride the same recipe: their control traffic is
// event-driven (RREQ floods, tree beacons) rather than periodic metric
// advertisements, so any scheduler nondeterminism in the PDES engine shows
// up here first. Workers 1, 2 and 8 all must reproduce the serial bytes.
TEST(PdesDeterminism, AodvChainByteIdenticalToSerialAcrossWorkerCounts) {
  const std::uint64_t seed = 2022;
  const auto aodv = [] { return std::make_unique<lm::net::AodvStrategy>(); };
  const std::string serial = TraceAnalyzer::canonical_text(
      trace_test::capture_strategy_chain_trace(aodv, false, seed));
  ASSERT_FALSE(serial.empty());
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    const std::string pdes = TraceAnalyzer::canonical_text(
        trace_test::capture_strategy_chain_trace(aodv, false, seed, workers));
    EXPECT_TRUE(serial == pdes)
        << "aodv seed " << seed << ": serial and " << workers
        << "-worker PDES traces differ";
  }
}

TEST(PdesDeterminism, GatewayTreeChainByteIdenticalToSerialAcrossWorkerCounts) {
  const std::uint64_t seed = 2022;
  const auto tree = [] {
    lm::net::GatewayTreeConfig cfg;
    cfg.beacon_interval = Duration::seconds(40);
    cfg.report_interval = Duration::seconds(60);
    return std::make_unique<lm::net::GatewayTreeStrategy>(cfg);
  };
  const std::string serial = TraceAnalyzer::canonical_text(
      trace_test::capture_strategy_chain_trace(tree, true, seed));
  ASSERT_FALSE(serial.empty());
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    const std::string pdes = TraceAnalyzer::canonical_text(
        trace_test::capture_strategy_chain_trace(tree, true, seed, workers));
    EXPECT_TRUE(serial == pdes)
        << "gateway-tree seed " << seed << ": serial and " << workers
        << "-worker PDES traces differ";
  }
}

// --- Serial-vs-PDES over the invariant-sweep scenario set -------------------

ScenarioConfig sweep_config(std::uint64_t seed, std::size_t workers) {
  ScenarioConfig c = trace_test::deterministic_config(seed);
  c.mesh.duty_cycle_limit = 0.01;
  c.mesh.duty_cycle_window = Duration::hours(1);
  c.pdes.workers = workers;
  return c;
}

// Builds one invariant-sweep scene by kind, runs the shared recipe
// (converge, then two-way traffic), returns the canonical trace text.
std::string scene_trace(const std::string& kind, std::uint64_t seed,
                        std::size_t workers) {
  VectorSink sink;
  Tracer tracer;
  tracer.attach(&sink);
  MeshScenario scenario(sweep_config(seed, workers));
  scenario.attach_tracer(tracer);

  std::unique_ptr<WaypointMover> mover;
  std::unique_ptr<ChaosMonkey> monkey;
  if (kind == "chain5" || kind == "chaos") {
    scenario.add_nodes(chain(5, 400.0));
  } else if (kind == "grid") {
    scenario.add_nodes(grid(3, 3, 350.0));
  } else if (kind == "field") {
    Rng rng(seed);
    scenario.add_nodes(connected_random_field(8, 1200.0, 1200.0, 450.0, rng));
  } else if (kind == "mobile") {
    scenario.add_nodes(chain(4, 350.0));
    mover = std::make_unique<WaypointMover>(
        scenario.simulator(), scenario.radio(3),
        std::vector<phy::Position>{{400.0, 150.0}, {1050.0, 0.0}}, 1.5,
        Duration::seconds(5));
    mover->start();
  }
  if (kind == "chaos") {
    ChaosConfig chaos;
    chaos.mean_time_between_failures = Duration::minutes(4);
    chaos.min_outage = Duration::minutes(1);
    chaos.max_outage = Duration::minutes(5);
    chaos.min_alive = 3;
    chaos.protected_nodes = {0, 4};
    monkey = std::make_unique<ChaosMonkey>(scenario, chaos, seed ^ 0xC4A0);
    monkey->start();
  }

  metrics::PacketTracker tracker;
  attach_tracker(scenario, tracker);
  scenario.start_all();
  scenario.run_until_converged(Duration::minutes(5));

  TrafficConfig traffic;
  traffic.mean_interval = Duration::seconds(20);
  const std::size_t last = scenario.size() - 1;
  DatagramTraffic forward(scenario, tracker, 0, last, traffic, seed ^ 0xAAAA);
  DatagramTraffic reverse(scenario, tracker, last, 0, traffic, seed ^ 0x5555);
  forward.start();
  reverse.start();
  scenario.run_for(Duration::minutes(5));
  forward.stop();
  reverse.stop();
  if (mover) mover->stop();
  if (monkey) monkey->stop();

  return TraceAnalyzer::canonical_text(sink.take());
}

void expect_serial_equals_pdes(const std::string& kind,
                               std::initializer_list<std::uint64_t> seeds) {
  for (const std::uint64_t seed : seeds) {
    const std::string serial = scene_trace(kind, seed, 0);
    const std::string pdes = scene_trace(kind, seed, 2);
    ASSERT_FALSE(serial.empty()) << kind << " seed " << seed;
    EXPECT_TRUE(serial == pdes)
        << kind << " seed " << seed << ": serial and PDES traces differ";
  }
}

TEST(PdesDeterminism, SweepStaticChainsSerialVsPdes) {
  expect_serial_equals_pdes("chain5", {11ull, 22ull, 33ull});
}

TEST(PdesDeterminism, SweepStaticGridsSerialVsPdes) {
  expect_serial_equals_pdes("grid", {44ull, 55ull, 66ull});
}

TEST(PdesDeterminism, SweepRandomFieldsSerialVsPdes) {
  expect_serial_equals_pdes("field", {77ull, 88ull, 99ull});
}

TEST(PdesDeterminism, SweepMobileNodeSerialVsPdes) {
  expect_serial_equals_pdes("mobile", {101ull, 202ull});
}

TEST(PdesDeterminism, SweepUnderChaosSerialVsPdes) {
  expect_serial_equals_pdes("chaos", {303ull, 404ull});
}

// --- Multi-region decomposition ---------------------------------------------

// 40-node chain at 400 m spacing: extent 15.6 km against a ~936 m
// interaction radius under the deterministic link model. Capped at 7
// regions — which 40 nodes do not divide evenly — every stripe holds nodes
// and every boundary is crossed by decodable 400 m links, so beacons and
// datagrams genuinely traverse regions.
struct WideChainRun {
  std::string canonical;
  std::vector<lm::trace::TraceEvent> events;
  std::size_t regions = 0;
};

WideChainRun run_wide_chain(std::uint64_t seed, std::size_t workers,
                            bool tile = false) {
  VectorSink sink;
  Tracer tracer;
  tracer.attach(&sink);
  ScenarioConfig config = trace_test::deterministic_config(seed);
  config.pdes.workers = workers;
  config.pdes.max_regions = 7;
  config.pdes.tile = tile;
  MeshScenario scenario(config);
  scenario.attach_tracer(tracer);
  scenario.add_nodes(chain(40, 400.0));

  metrics::PacketTracker tracker;
  attach_tracker(scenario, tracker);
  scenario.start_all();
  // Two minutes of hellos populate neighbor routes; full 39-hop convergence
  // is not the point here.
  scenario.run_for(Duration::minutes(2));

  // Cross-boundary end-to-end traffic: nodes 5 and 6 sit 400 m apart on
  // opposite sides of the first stripe boundary (width 15600/7 ~ 2229 m).
  TrafficConfig traffic;
  traffic.mean_interval = Duration::seconds(15);
  DatagramTraffic flow(scenario, tracker, 5, 6, traffic, seed ^ 0xF00D);
  flow.start();
  scenario.run_for(Duration::minutes(3));
  flow.stop();

  WideChainRun out;
  out.regions = scenario.region_count();
  out.events = sink.take();
  out.canonical = TraceAnalyzer::canonical_text(out.events);
  return out;
}

TEST(PdesDeterminism, WideChainIdenticalAcrossWorkerCountsWithUnevenRegions) {
  const std::uint64_t seed = 42;
  const WideChainRun base = run_wide_chain(seed, 1);
  EXPECT_EQ(base.regions, 7u);
  ASSERT_FALSE(base.canonical.empty());

  // Cross-region deliveries really happened: each region numbers its
  // transmissions in a disjoint tx_seq range (region << 48), so a delivery
  // at a node whose stripe differs from the frame's originating region is
  // visible right in the trace.
  const double stripe_width = 15600.0 / 7.0;
  bool saw_cross_region_delivery = false;
  for (const auto& e : base.events) {
    if (e.kind != lm::trace::EventKind::ChannelDeliver) continue;
    if (e.node == 0 || e.tx_seq == 0) continue;
    const auto rx_region = static_cast<std::uint64_t>(
        std::min(6.0, (static_cast<double>(e.node - 1) * 400.0) / stripe_width));
    const std::uint64_t tx_region = e.tx_seq >> 48;
    if (rx_region != tx_region) {
      saw_cross_region_delivery = true;
      break;
    }
  }
  EXPECT_TRUE(saw_cross_region_delivery);

  for (const std::size_t workers : {std::size_t{2}, std::size_t{3},
                                    std::size_t{7}, std::size_t{8}}) {
    const WideChainRun run = run_wide_chain(seed, workers);
    EXPECT_EQ(run.regions, 7u);
    EXPECT_TRUE(run.canonical == base.canonical)
        << "1-worker and " << workers << "-worker wide-chain traces differ";
  }
}

// A linear field has no y-extent, so a tile decomposition degenerates to one
// row of column stripes; the resulting runs must be bit-for-bit the stripe
// runs — the scenario-level statement of the 1xC collapse property.
TEST(PdesDeterminism, TileModeOnLinearFieldByteIdenticalToStripeMode) {
  const std::uint64_t seed = 42;
  const WideChainRun stripe = run_wide_chain(seed, 2, /*tile=*/false);
  ASSERT_FALSE(stripe.canonical.empty());
  for (const std::size_t workers : {std::size_t{2}, std::size_t{7}}) {
    const WideChainRun tiles = run_wide_chain(seed, workers, /*tile=*/true);
    EXPECT_EQ(tiles.regions, stripe.regions);
    EXPECT_TRUE(tiles.canonical == stripe.canonical)
        << workers << "-worker tile run differs from the stripe run";
  }
}

// --- Mobility in a multi-region decomposition ---------------------------------

// A 6x6 grid spans 2000 m on both axes — two stripes (or 2x2 tiles) at the
// ~936 m deterministic-config halo, with boundaries at x = 1000 (and
// y = 1000 for tiles). An extra relay node rides a polyline at 2 m/s while
// the traffic endpoints (grid corners) stay static. A node never changes
// region, so the rover's path decides whether the run is legal.
struct RoverRun {
  std::string canonical;
  std::size_t regions = 0;
};

RoverRun run_rover(std::uint64_t seed, std::size_t workers, bool tile,
                   phy::Position start, std::vector<phy::Position> path) {
  VectorSink sink;
  Tracer tracer;
  tracer.attach(&sink);
  ScenarioConfig config = trace_test::deterministic_config(seed);
  config.pdes.workers = workers;
  config.pdes.tile = tile;
  MeshScenario scenario(config);
  scenario.attach_tracer(tracer);
  scenario.add_nodes(grid(6, 6, 400.0));
  const std::size_t rover = scenario.add_node(start);

  metrics::PacketTracker tracker;
  attach_tracker(scenario, tracker);
  WaypointMover mover(scenario.simulator_for(rover), scenario.radio(rover),
                      std::move(path), 2.0, Duration::seconds(5));
  scenario.start_all();
  mover.start();
  scenario.run_for(Duration::minutes(2));

  TrafficConfig traffic;
  traffic.mean_interval = Duration::seconds(20);
  DatagramTraffic flow(scenario, tracker, 0, 35, traffic, seed ^ 0xBEEF);
  flow.start();
  scenario.run_for(Duration::minutes(5));
  flow.stop();
  mover.stop();

  RoverRun out;
  out.canonical = TraceAnalyzer::canonical_text(sink.take());
  out.regions = scenario.region_count();
  return out;
}

// A 1240 m zigzag inside x, y < 1000 — region 0 under both decompositions —
// still moving when the run ends, so every barrier rescans positions and
// must find the rover at home.
TEST(PdesDeterminism, InRegionRoverIdenticalAcrossWorkerCounts) {
  const std::uint64_t seed = 42;
  const phy::Position start{600.0, 200.0};
  const std::vector<phy::Position> path{{800.0, 800.0}, {200.0, 700.0}};
  for (const bool tile : {false, true}) {
    const RoverRun base = run_rover(seed, 1, tile, start, path);
    EXPECT_EQ(base.regions, tile ? 4u : 2u);
    ASSERT_FALSE(base.canonical.empty());
    for (const std::size_t workers : {std::size_t{2}, std::size_t{3},
                                      std::size_t{7}, std::size_t{8}}) {
      const RoverRun run = run_rover(seed, workers, tile, start, path);
      EXPECT_EQ(run.regions, base.regions);
      EXPECT_TRUE(run.canonical == base.canonical)
          << (tile ? "tile" : "stripe") << " mode, " << workers
          << " workers: trace differs from the 1-worker run";
    }
  }
}

// Riding from (800, 800) to (1400, 800) crosses x = 1000 ~100 s in. The
// serial engine carries the trip; a multi-region run has no handoff and
// must stop at the first barrier after the crossing.
TEST(PdesDeterminism, RoverLeavingItsRegionFailsLoudly) {
  const std::uint64_t seed = 42;
  const phy::Position start{800.0, 800.0};
  const std::vector<phy::Position> path{{1400.0, 800.0}};
  EXPECT_FALSE(run_rover(seed, 0, false, start, path).canonical.empty());
  for (const bool tile : {false, true}) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
      try {
        run_rover(seed, workers, tile, start, path);
        ADD_FAILURE() << (tile ? "tile" : "stripe") << " mode, " << workers
                      << " workers: the rover left its region unchecked";
      } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("left its PDES region"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

// --- Drifted clocks and live batteries ---------------------------------------

// The energy ledger and the clock seam both feed the trace: EnergyState
// events on every radio transition, brownouts stopping nodes, and protocol
// timers scaled through each node's NodeClock. All of it must replay
// byte-identically across worker counts.

ScenarioConfig drift_battery_config(std::uint64_t seed, std::size_t workers,
                                    double capacity_mah) {
  ScenarioConfig c = sweep_config(seed, workers);
  c.clock_profile = [](std::size_t i) {
    lm::sim::ClockProfile p;
    p.skew = Duration::milliseconds(37 * static_cast<std::int64_t>(i));
    p.drift_ppb = (i % 2 == 0 ? 1 : -1) * 40'000'000;  // ±4 %
    return p;
  };
  c.energy.enabled = true;
  c.energy.battery.capacity_mah = capacity_mah;
  c.energy.harvesting.charge_ma = 6.0;
  c.energy.harvesting.period = Duration::minutes(10);
  c.energy.harvesting.on_time = Duration::minutes(5);
  return c;
}

// Single-region chain with batteries small enough that nodes brown out
// while traffic is still flowing: serial and PDES at 1/2/8 workers must
// produce the same bytes, dead nodes included.
TEST(PdesDeterminism, DriftedBatteriesChainByteIdenticalAcrossWorkerCounts) {
  const std::uint64_t seed = 606;
  const auto capture = [&](std::size_t workers) {
    VectorSink sink;
    Tracer tracer;
    tracer.attach(&sink);
    MeshScenario scenario(drift_battery_config(seed, workers, 1.5));
    scenario.attach_tracer(tracer);
    scenario.add_nodes(chain(5, 400.0));
    metrics::PacketTracker tracker;
    attach_tracker(scenario, tracker);
    scenario.start_all();
    scenario.run_until_converged(Duration::minutes(5));
    TrafficConfig traffic;
    traffic.mean_interval = Duration::seconds(20);
    DatagramTraffic flow(scenario, tracker, 0, 4, traffic, seed ^ 0xAAAA);
    flow.start();
    scenario.run_for(Duration::minutes(12));  // long enough to kill nodes
    flow.stop();
    return TraceAnalyzer::canonical_text(sink.take());
  };

  const std::string serial = capture(0);
  ASSERT_FALSE(serial.empty());
  ASSERT_NE(serial.find("brownout"), std::string::npos)
      << "batteries never ran out — the scenario is not exercising deaths";
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    const std::string pdes = capture(workers);
    EXPECT_TRUE(serial == pdes)
        << "serial and " << workers
        << "-worker drifted-battery traces differ";
  }
}

}  // namespace
}  // namespace lm::testbed
