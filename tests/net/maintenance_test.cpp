// Deadline-armed maintenance: a node's route-expiry / session-sweep ticks
// stay on the fixed grid anchor + k * maintenance_interval (true time, one
// local-clock interval apart), but only the ticks that can have work are
// armed. These tests pin both halves: expiry lands on exactly the grid
// tick it always did, and the idle ticks in between are gone.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "net/mesh_node.h"
#include "phy/path_loss.h"
#include "sim/node_clock.h"
#include "testbed/scenario.h"
#include "testbed/topology.h"

namespace lm::net {
namespace {

using testbed::MeshScenario;
using testbed::ScenarioConfig;

constexpr double kSpacing = 400.0;  // adjacent decodes, 2-hop does not

ScenarioConfig base_config(std::uint64_t seed) {
  ScenarioConfig c;
  c.seed = seed;
  c.propagation.path_loss = phy::make_log_distance(3.5, 40.0);
  c.propagation.shadowing_sigma_db = 0.0;
  c.propagation.fading_sigma_db = 0.0;
  c.mesh.duty_cycle_limit = 1.0;
  return c;
}

/// The maintenance grid of a node started at `anchor`.
struct Grid {
  TimePoint anchor;
  Duration period;
  sim::NodeClock clock;

  Grid(const MeshNode& node, TimePoint anchor_at)
      : anchor(anchor_at),
        clock(node.config().clock) {
    period = clock.to_true(node.config().maintenance_interval);
  }

  TimePoint tick(std::int64_t k) const { return anchor + period * k; }

  /// First tick strictly after `t`.
  TimePoint after(TimePoint t) const {
    std::int64_t k = 1;
    while (tick(k) <= t) ++k;
    return tick(k);
  }

  /// First tick whose local reading reaches `local_deadline`.
  TimePoint reaching(TimePoint local_deadline) const {
    std::int64_t k = 1;
    while (clock.to_local(tick(k)) < local_deadline) ++k;
    return tick(k);
  }
};

std::uint64_t grid_events(Duration maintenance, Duration horizon,
                          std::vector<NodeStats>* stats) {
  ScenarioConfig c = base_config(3);
  c.mesh.maintenance_interval = maintenance;
  MeshScenario s(c);
  s.add_nodes(testbed::grid(3, 3, kSpacing));
  s.start_all();
  s.run_for(horizon);
  for (std::size_t i = 0; i < s.size(); ++i) {
    stats->push_back(s.node(i).stats());
    // Converged and stable: every node knows the other eight.
    EXPECT_EQ(s.node(i).routing_table().size(), 8u) << "node " << i;
  }
  return s.simulator().events_processed();
}

TEST(DeadlineMaintenance, StableGridTicksAboutOncePerRouteTimeout) {
  const Duration horizon = Duration::hours(2);
  std::vector<NodeStats> with_ticks;
  std::vector<NodeStats> without_ticks;
  // A maintenance interval longer than the run arms no tick at all, so the
  // event-count difference is exactly the ticks that fired at 10 s.
  const std::uint64_t events =
      grid_events(Duration::seconds(10), horizon, &with_ticks);
  const std::uint64_t baseline =
      grid_events(Duration::hours(1000), horizon, &without_ticks);
  ASSERT_GT(events, baseline);
  const double ticks_per_node = static_cast<double>(events - baseline) / 9.0;

  const MeshConfig defaults;
  const Duration route_timeout =
      defaults.hello_interval * defaults.route_timeout_intervals;
  const double timeouts = horizon / route_timeout;  // 12
  // About one tick per route timeout (plus the boot ticks that run while
  // the table is still empty), against 720 per node for a 10 s poll.
  EXPECT_GE(ticks_per_node, timeouts);
  EXPECT_LE(ticks_per_node, 2.0 * timeouts);

  // The ticks did nothing observable: the protocol ran identically.
  for (std::size_t i = 0; i < with_ticks.size(); ++i) {
    EXPECT_EQ(with_ticks[i].beacons_sent, without_ticks[i].beacons_sent);
    EXPECT_EQ(with_ticks[i].beacons_received, without_ticks[i].beacons_received);
    EXPECT_EQ(with_ticks[i].routing_changes, without_ticks[i].routing_changes);
  }
}

void expect_silent_neighbour_expires_on_grid(ScenarioConfig c) {
  MeshScenario s(c);
  s.add_nodes(testbed::chain(3, kSpacing));
  s.start_all();
  s.run_for(Duration::minutes(5) + Duration::microseconds(123'457));
  const Address a1 = s.address_of(1);
  const Address a2 = s.address_of(2);
  const auto via1 = s.node(0).routing_table().route_to(a1);
  const auto via1_to2 = s.node(0).routing_table().route_to(a2);
  ASSERT_TRUE(via1.has_value());
  ASSERT_TRUE(via1_to2.has_value());
  ASSERT_EQ(via1_to2->via, a1);

  s.fail_node(1);  // falls silent: nothing refreshes node 0's routes again
  const Grid grid(s.node(0), TimePoint::origin());
  const TimePoint due = grid.reaching(
      std::min(via1->expires_at, via1_to2->expires_at));
  ASSERT_GT(due, s.now());

  s.run_until(due - Duration::microseconds(1));
  EXPECT_TRUE(s.node(0).routing_table().route_to(a1).has_value());
  EXPECT_TRUE(s.node(0).routing_table().route_to(a2).has_value());
  s.run_until(due);
  EXPECT_FALSE(s.node(0).routing_table().route_to(a1).has_value());
  EXPECT_FALSE(s.node(0).routing_table().route_to(a2).has_value());
}

TEST(DeadlineMaintenance, SilentNeighbourExpiresOnFirstGridTickAtDeadline) {
  expect_silent_neighbour_expires_on_grid(base_config(5));
}

TEST(DeadlineMaintenance, ExpiryStaysOnGridUnderSkewAndDrift) {
  ScenarioConfig c = base_config(6);
  c.clock_profile = [](std::size_t i) {
    sim::ClockProfile p;
    p.skew = Duration::microseconds(3'217'001 - 1'700'000 * static_cast<std::int64_t>(i));
    p.drift_ppb = i % 2 == 0 ? 20'000 : -20'000;
    return p;
  };
  expect_silent_neighbour_expires_on_grid(c);
}

TEST(DeadlineMaintenance, SessionsKeepEveryGridTickArmed) {
  ScenarioConfig c = base_config(7);
  c.mesh.hello_interval = Duration::seconds(10);
  c.mesh.maintenance_interval = Duration::seconds(2);
  c.mesh.forward_jitter = Duration::milliseconds(50);
  c.mesh.reliable_retry_timeout = Duration::seconds(8);
  c.mesh.receiver_gap_timeout = Duration::seconds(10);
  c.mesh.receiver_session_timeout = Duration::seconds(30);
  c.mesh.fragment_spacing = Duration::milliseconds(50);
  MeshScenario s(c);
  s.add_nodes(testbed::chain(3, kSpacing));
  std::optional<TimePoint> delivered_at;
  s.start_all();
  s.node(2).set_reliable_handler(
      [&](Address, std::vector<std::uint8_t>) { delivered_at = s.now(); });
  s.run_for(Duration::seconds(60));

  const Grid sender_grid(s.node(0), TimePoint::origin());
  const Grid receiver_grid(s.node(2), TimePoint::origin());
  // Converged and idle: the sender's next tick is the table's deadline,
  // well past the next grid tick.
  ASSERT_GT(*s.node(0).next_maintenance_at(), sender_grid.after(s.now()));

  std::optional<bool> outcome;
  const TimePoint sent_at = s.now();
  ASSERT_TRUE(s.node(0).send_reliable(s.address_of(2),
                                      std::vector<std::uint8_t>(1500, 0x5A),
                                      [&](bool ok) { outcome = ok; }));
  // The new session pulls the armed tick in at once.
  EXPECT_EQ(*s.node(0).next_maintenance_at(), sender_grid.after(s.now()));

  int sender_checks = 0;
  int receiver_checks = 0;
  std::optional<TimePoint> receiver_idle_at;
  const TimePoint stop = s.now() + Duration::minutes(4);
  while (s.now() < stop) {
    s.run_for(Duration::milliseconds(50));
    if (!outcome.has_value()) {
      ASSERT_EQ(*s.node(0).next_maintenance_at(), sender_grid.after(s.now()));
      ++sender_checks;
    }
    if (!delivered_at.has_value()) continue;
    // The receive session opens at the SYNC (after `sent_at`, before the
    // delivery), lives receiver_session_timeout, and is swept on the first
    // tick after that.
    if (s.now() < sent_at + c.mesh.receiver_session_timeout) {
      ASSERT_EQ(*s.node(2).next_maintenance_at(),
                receiver_grid.after(s.now()));
      ++receiver_checks;
    } else if (!receiver_idle_at.has_value() &&
               *s.node(2).next_maintenance_at() >
                   receiver_grid.after(s.now())) {
      receiver_idle_at = s.now();
    }
  }
  ASSERT_EQ(outcome, std::optional<bool>(true));
  EXPECT_GT(sender_checks, 10);
  EXPECT_GT(receiver_checks, 100);
  // Once swept, the receiver stops ticking every interval again.
  ASSERT_TRUE(receiver_idle_at.has_value());
  EXPECT_LE(*receiver_idle_at, *delivered_at + c.mesh.receiver_session_timeout +
                                   Duration::minutes(2));
}

TEST(DeadlineMaintenance, RestartReanchorsTheGrid) {
  MeshScenario s(base_config(8));
  s.add_nodes(testbed::chain(2, kSpacing));
  s.start_all();
  s.run_for(Duration::minutes(3) + Duration::microseconds(777'001));
  const Address a1 = s.address_of(1);
  ASSERT_TRUE(s.node(0).routing_table().route_to(a1).has_value());

  s.fail_node(1);
  s.node(0).stop();
  EXPECT_FALSE(s.node(0).next_maintenance_at().has_value());
  s.run_for(Duration::seconds(17) + Duration::microseconds(4'321));

  const TimePoint restart = s.now();
  s.node(0).start();
  const Grid grid(s.node(0), restart);
  const auto route = s.node(0).routing_table().route_to(a1);
  ASSERT_TRUE(route.has_value());
  // Armed for the table's deadline bound, on the new grid...
  EXPECT_EQ(*s.node(0).next_maintenance_at(),
            grid.reaching(s.node(0).routing_table().next_expiry()));
  // ...and the route lapses on the new grid's first tick past its deadline.
  const TimePoint due = grid.reaching(route->expires_at);

  s.run_until(due - Duration::microseconds(1));
  EXPECT_TRUE(s.node(0).routing_table().route_to(a1).has_value());
  s.run_until(due);
  EXPECT_FALSE(s.node(0).routing_table().route_to(a1).has_value());
  // An empty table ticks on the new grid's very next slot.
  EXPECT_EQ(*s.node(0).next_maintenance_at(), grid.after(due));
}

}  // namespace
}  // namespace lm::net
