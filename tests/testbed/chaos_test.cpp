// ChaosMonkey behaviour plus the long-haul stability property it exists
// for: a mesh under random node churn keeps recovering.
#include "testbed/chaos.h"

#include <gtest/gtest.h>

#include "metrics/packet_tracker.h"
#include "phy/path_loss.h"
#include "testbed/topology.h"
#include "testbed/traffic.h"

namespace lm::testbed {
namespace {

ScenarioConfig cfg(std::uint64_t seed) {
  ScenarioConfig c;
  c.seed = seed;
  c.propagation.path_loss = phy::make_log_distance(3.5, 40.0);
  c.propagation.shadowing_sigma_db = 0.0;
  c.propagation.fading_sigma_db = 0.0;
  // Fast-reacting mesh so churn is survivable within test time.
  c.mesh.hello_interval = Duration::seconds(10);
  c.mesh.route_timeout_intervals = 4;
  c.mesh.maintenance_interval = Duration::seconds(2);
  c.mesh.duty_cycle_limit = 1.0;
  return c;
}

TEST(ChaosMonkey, InjectsAndRecovers) {
  MeshScenario s(cfg(1));
  // 3x3 grid: enough redundancy to keep something alive.
  s.add_nodes(grid(3, 3, 400.0));
  s.start_all();
  ChaosConfig chaos;
  chaos.mean_time_between_failures = Duration::minutes(5);
  chaos.min_outage = Duration::minutes(2);
  chaos.max_outage = Duration::minutes(10);
  ChaosMonkey monkey(s, chaos, 99);
  monkey.start();
  s.run_for(Duration::hours(2));
  monkey.stop();
  EXPECT_GT(monkey.failures_injected(), 5u);
  EXPECT_GT(monkey.recoveries(), 0u);
  // Eventually everyone recovers (outages are bounded).
  s.run_for(Duration::minutes(15));
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_TRUE(s.node(i).running()) << "node " << i;
  }
}

TEST(ChaosMonkey, RespectsProtectionAndFloor) {
  MeshScenario s(cfg(2));
  s.add_nodes(chain(3, 400.0));
  s.start_all();
  ChaosConfig chaos;
  chaos.mean_time_between_failures = Duration::minutes(1);
  chaos.min_outage = Duration::hours(5);  // once down, stays down
  chaos.max_outage = Duration::hours(6);
  chaos.min_alive = 2;
  chaos.protected_nodes = {0};
  ChaosMonkey monkey(s, chaos, 7);
  monkey.start();
  s.run_for(Duration::hours(2));
  EXPECT_TRUE(s.node(0).running());  // protected
  std::size_t alive = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s.node(i).running()) ++alive;
  }
  EXPECT_GE(alive, 2u);  // floor respected
  EXPECT_EQ(monkey.failures_injected(), 1u);  // floor blocked the rest
}

TEST(ChaosMonkey, MeshRecoversAfterChurnStops) {
  // The stability property: whatever the monkey did, once it stops and
  // outages run out, the full mesh re-converges and routes again.
  MeshScenario s(cfg(3));
  s.add_nodes(grid(3, 3, 400.0));
  metrics::PacketTracker tracker;
  attach_tracker(s, tracker);
  s.start_all();
  ASSERT_TRUE(s.run_until_converged(Duration::minutes(10), Duration::seconds(5),
                                    /*exact_metric=*/false)
                  .has_value());

  ChaosConfig chaos;
  chaos.mean_time_between_failures = Duration::minutes(4);
  chaos.min_outage = Duration::minutes(1);
  chaos.max_outage = Duration::minutes(8);
  chaos.protected_nodes = {0, 8};  // keep the measured endpoints
  ChaosMonkey monkey(s, chaos, 11);
  monkey.start();

  DatagramTraffic traffic(s, tracker, 0, 8, {Duration::seconds(30), 16, true}, 5);
  traffic.start();
  s.run_for(Duration::hours(3));
  monkey.stop();
  traffic.stop();
  s.run_for(Duration::minutes(20));  // outages drain, routes refresh
  const double pdr_during = tracker.pdr();

  // Post-chaos: full function restored.
  ASSERT_TRUE(s.run_until_converged(Duration::minutes(15), Duration::seconds(5),
                                    /*exact_metric=*/false)
                  .has_value());
  metrics::PacketTracker after;
  attach_tracker(s, after);
  DatagramTraffic traffic2(s, after, 0, 8, {Duration::seconds(30), 16, true}, 6);
  traffic2.start();
  s.run_for(Duration::minutes(30));
  traffic2.stop();

  EXPECT_GT(monkey.failures_injected(), 10u);
  EXPECT_GT(pdr_during, 0.3);  // degraded but alive through the churn
  // Fully functional again. The grid's 565 m diagonal links hover at ~98.5 %
  // per-frame quality, so a 2-hop corner-to-corner flow tops out around
  // 95-97 %, not 100 %.
  EXPECT_GT(after.pdr(), 0.88);
}

}  // namespace
}  // namespace lm::testbed
