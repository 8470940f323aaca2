#include "testbed/scenario.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>

#include "metrics/packet_tracker.h"
#include "phy/path_loss.h"
#include "testbed/topology.h"
#include "testbed/traffic.h"

namespace lm::testbed {
namespace {

constexpr double kSpacing = 400.0;

ScenarioConfig cfg(std::uint64_t seed = 1) {
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

TEST(MeshScenario, AddressAssignmentAndLookup) {
  MeshScenario s(cfg());
  s.add_nodes(chain(3, kSpacing));
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.address_of(0), 0x0001);
  EXPECT_EQ(s.address_of(2), 0x0003);
  EXPECT_EQ(s.index_of(0x0002), 1u);
  EXPECT_FALSE(s.index_of(0x0009).has_value());
  EXPECT_FALSE(s.index_of(net::kBroadcast).has_value());
  EXPECT_EQ(s.node(1).address(), 0x0002);
}

TEST(MeshScenario, ExpectedHopsMatchesChainGeometry) {
  MeshScenario s(cfg());
  s.add_nodes(chain(4, kSpacing));
  s.start_all();  // the oracle only counts running nodes
  const auto hops = s.expected_hops();
  EXPECT_EQ(hops[0][1], 1);
  EXPECT_EQ(hops[0][2], 2);
  EXPECT_EQ(hops[0][3], 3);
  EXPECT_EQ(hops[3][0], 3);
  EXPECT_EQ(hops[0][0], 0);
}

TEST(MeshScenario, ExpectedHopsIgnoresStoppedNodes) {
  MeshScenario s(cfg());
  s.add_nodes(chain(3, kSpacing));
  s.start_all();
  s.fail_node(1);
  const auto hops = s.expected_hops();
  EXPECT_EQ(hops[0][2], -1);  // relay gone: unreachable
  EXPECT_EQ(hops[0][1], -1);  // stopped endpoint
}

TEST(MeshScenario, ConvergedIsFalseBeforeAnyBeacons) {
  MeshScenario s(cfg());
  s.add_nodes(chain(2, kSpacing));
  s.start_all();
  EXPECT_FALSE(s.converged());
}

TEST(MeshScenario, RunUntilConvergedReportsElapsedTime) {
  MeshScenario s(cfg());
  s.add_nodes(chain(3, kSpacing));
  s.start_all();
  const auto elapsed = s.run_until_converged(Duration::minutes(5));
  ASSERT_TRUE(elapsed.has_value());
  EXPECT_GT(*elapsed, Duration::zero());
  EXPECT_LT(*elapsed, Duration::minutes(5));
  EXPECT_TRUE(s.converged());
}

TEST(MeshScenario, PartitionedIslandsConvergeSeparately) {
  MeshScenario s(cfg());
  s.add_nodes(chain(3, kSpacing));
  // Isolate node index 2 (radio id 3) from both others: the oracle sees two
  // islands, each of which must converge internally.
  s.channel().block_link(2, 3);
  s.channel().block_link(1, 3);
  s.start_all();
  const auto elapsed = s.run_until_converged(Duration::minutes(2));
  ASSERT_TRUE(elapsed.has_value());
  EXPECT_FALSE(s.node(0).routing_table().has_route(s.address_of(2)));
  EXPECT_TRUE(s.node(0).routing_table().has_route(s.address_of(1)));
}

TEST(MeshScenario, DumpListsAllTables) {
  MeshScenario s(cfg());
  s.add_nodes(chain(2, kSpacing));
  s.start_all();
  s.run_for(Duration::seconds(25));
  const std::string dump = s.dump_routing_tables();
  EXPECT_NE(dump.find("0x0001"), std::string::npos);
  EXPECT_NE(dump.find("0x0002"), std::string::npos);
}

TEST(MeshScenario, TrafficHarnessEndToEnd) {
  MeshScenario s(cfg(33));
  s.add_nodes(chain(3, kSpacing));
  metrics::PacketTracker tracker;
  attach_tracker(s, tracker);
  s.start_all();
  ASSERT_TRUE(s.run_until_converged(Duration::minutes(5)).has_value());

  DatagramTraffic traffic(s, tracker, 0, 2, {Duration::seconds(15), 16, true}, 5);
  traffic.start();
  s.run_for(Duration::minutes(30));
  traffic.stop();

  EXPECT_GT(tracker.attempted(), 60u);
  EXPECT_GT(tracker.pdr(), 0.95);  // clean links, light load
  EXPECT_GT(tracker.latency().mean(), 0.0);
  EXPECT_DOUBLE_EQ(tracker.hops().median(), 2.0);
}

TEST(MeshScenario, PeriodicTrafficIsDeterministicallySpaced) {
  MeshScenario s(cfg(44));
  s.add_nodes(chain(2, kSpacing));
  metrics::PacketTracker tracker;
  attach_tracker(s, tracker);
  s.start_all();
  s.run_for(Duration::seconds(25));
  DatagramTraffic traffic(s, tracker, 0, 1,
                          {Duration::seconds(10), 16, /*poisson=*/false}, 5);
  traffic.start();
  s.run_for(Duration::minutes(10));
  traffic.stop();
  // Exactly one send per 10 s period.
  EXPECT_EQ(tracker.attempted(), 60u);
}

TEST(MeshScenario, ApplyRegionConfiguresRadioAndDuty) {
  ScenarioConfig c;
  c.radio.tx_power_dbm = 20.0;  // over the EU868 g1 ceiling
  apply_region(c, phy::eu868());
  EXPECT_DOUBLE_EQ(c.radio.frequency_hz, 868.1e6);
  EXPECT_DOUBLE_EQ(c.radio.tx_power_dbm, 14.0);  // clamped
  EXPECT_DOUBLE_EQ(c.mesh.duty_cycle_limit, 0.01);

  EXPECT_TRUE(c.mesh.max_dwell_time.is_zero());  // EU868 has no dwell rule

  ScenarioConfig us;
  us.radio.tx_power_dbm = 20.0;
  apply_region(us, phy::us915());
  EXPECT_DOUBLE_EQ(us.radio.frequency_hz, 902.3e6);
  EXPECT_DOUBLE_EQ(us.radio.tx_power_dbm, 20.0);  // under the 30 dBm ceiling
  EXPECT_DOUBLE_EQ(us.mesh.duty_cycle_limit, 1.0);  // dwell-ruled instead
  EXPECT_EQ(us.mesh.max_dwell_time, Duration::milliseconds(400));
}

TEST(MeshScenario, TotalStatsAggregates) {
  MeshScenario s(cfg());
  s.add_nodes(chain(2, kSpacing));
  s.start_all();
  s.run_for(Duration::minutes(1));
  const auto total = s.total_stats();
  EXPECT_EQ(total.beacons_sent,
            s.node(0).stats().beacons_sent + s.node(1).stats().beacons_sent);
  EXPECT_GT(total.beacons_sent, 0u);
  EXPECT_GT(total.control_bytes_sent, 0u);
}

// Every NodeStats field; the size guard fails the build when a counter is
// added to the struct without being listed here.
using net::NodeStats;
constexpr std::uint64_t NodeStats::*kCounters[] = {
    &NodeStats::beacons_sent,          &NodeStats::beacons_received,
    &NodeStats::routing_changes,       &NodeStats::datagrams_sent,
    &NodeStats::datagrams_delivered,   &NodeStats::broadcasts_sent,
    &NodeStats::broadcasts_delivered,  &NodeStats::packets_forwarded,
    &NodeStats::dropped_no_route,      &NodeStats::dropped_ttl,
    &NodeStats::dropped_queue_full,    &NodeStats::malformed_frames,
    &NodeStats::foreign_frames,        &NodeStats::beacons_ignored_low_quality,
    &NodeStats::cad_busy_events,       &NodeStats::forced_transmissions,
    &NodeStats::duty_cycle_delays,     &NodeStats::control_bytes_sent,
    &NodeStats::data_bytes_sent,       &NodeStats::acked_sent,
    &NodeStats::acked_confirmed,       &NodeStats::acked_failed,
    &NodeStats::acked_retransmissions, &NodeStats::acked_delivered,
    &NodeStats::acked_duplicates,      &NodeStats::acks_sent,
    &NodeStats::transfers_started,     &NodeStats::transfers_completed,
    &NodeStats::transfers_failed,      &NodeStats::transfers_received,
    &NodeStats::rx_sessions_rejected,  &NodeStats::fragments_sent,
    &NodeStats::fragments_retransmitted};
constexpr Duration NodeStats::*kAirtimes[] = {&NodeStats::control_airtime,
                                              &NodeStats::data_airtime};
static_assert(sizeof(NodeStats) ==
              (std::size(kCounters) + std::size(kAirtimes)) * 8);

TEST(MeshScenario, TotalStatsSumsEveryCounter) {
  ScenarioConfig c = cfg(5);
  c.mesh.acked_retry_timeout = Duration::seconds(5);
  MeshScenario s(c);
  s.add_nodes(chain(3, kSpacing));
  s.start_all();
  ASSERT_TRUE(s.run_until_converged(Duration::minutes(5)).has_value());
  // A lossy last hop: acked datagrams retry, and retries arrive as
  // duplicates when only the ACK was lost.
  s.channel().set_link_extra_loss(2, 3, 0.5);
  for (int i = 0; i < 8; ++i) {
    s.node(0).send_acked(s.address_of(2), {static_cast<std::uint8_t>(i)},
                         nullptr);
    s.run_for(Duration::seconds(30));
  }

  const NodeStats total = s.total_stats();
  EXPECT_GT(total.acked_sent, 0u);
  EXPECT_GT(total.acked_retransmissions, 0u);
  EXPECT_GT(total.acks_sent, 0u);
  for (std::size_t f = 0; f < std::size(kCounters); ++f) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < s.size(); ++i) sum += s.node(i).stats().*kCounters[f];
    EXPECT_EQ(total.*kCounters[f], sum) << "counter #" << f;
  }
  for (std::size_t f = 0; f < std::size(kAirtimes); ++f) {
    Duration sum;
    for (std::size_t i = 0; i < s.size(); ++i) sum += s.node(i).stats().*kAirtimes[f];
    EXPECT_EQ(total.*kAirtimes[f], sum) << "airtime #" << f;
  }
}

}  // namespace
}  // namespace lm::testbed
