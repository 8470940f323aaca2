// Clock-seam regressions: protocol timers run on the node's LOCAL
// (skewed/drifting) clock, while regulatory duty-cycle budgets and the
// flight recorder stay on TRUE simulation time.
//
// Observed through a promiscuous sniffer and the trace invariants, both of
// which live on the true clock — so a fast crystal must show up as beacons
// arriving early, and must NOT show up as a duty-cycle overrun.
#include <gtest/gtest.h>

#include <vector>

#include "net/mesh_node.h"
#include "sim/node_clock.h"
#include "testbed/scenario.h"
#include "testbed/sniffer.h"
#include "testbed/topology.h"
#include "trace/trace_analyzer.h"

namespace lm::net {
namespace {

using testbed::MeshScenario;
using testbed::Sniffer;

testbed::ScenarioConfig cfg(std::uint64_t seed) {
  testbed::ScenarioConfig c;
  c.seed = seed;
  c.propagation.shadowing_sigma_db = 0.0;
  c.propagation.fading_sigma_db = 0.0;
  c.mesh.hello_interval = Duration::seconds(20);
  c.mesh.hello_jitter = 0.0;
  c.mesh.duty_cycle_limit = 1.0;
  return c;
}

/// True-time gaps between the routing beacons a lone node puts on the air.
std::vector<double> beacon_gaps(double drift_ppb, std::uint64_t seed) {
  auto c = cfg(seed);
  c.clock_profile = [drift_ppb](std::size_t) {
    sim::ClockProfile p;
    p.drift_ppb = static_cast<std::int64_t>(drift_ppb);
    return p;
  };
  MeshScenario s(c);
  s.add_node({0.0, 0.0});
  Sniffer sniffer(s.simulator(), s.channel(), 99, {100.0, 0.0});
  s.start_all();
  s.run_for(Duration::minutes(30));

  std::vector<double> gaps;
  double last = -1.0;
  for (const auto& cap : sniffer.captures()) {
    if (!cap.packet || type_of(*cap.packet) != PacketType::Routing) {
      continue;
    }
    const double t = cap.at.seconds_d();
    if (last >= 0.0) gaps.push_back(t - last);
    last = t;
  }
  return gaps;
}

TEST(ClockDrift, FastCrystalBeaconsEarlyInTrueTime) {
  // +10 % drift (exaggerated for measurability): 20 local seconds elapse
  // after 20 / 1.1 = 18.18 true seconds.
  const auto gaps = beacon_gaps(100'000'000, 41);
  ASSERT_GT(gaps.size(), 20u);
  for (double g : gaps) {
    EXPECT_NEAR(g, 20.0 / 1.1, 0.2);
  }
}

TEST(ClockDrift, SlowCrystalBeaconsLateInTrueTime) {
  // -10 % drift: 20 local seconds take 20 / 0.9 = 22.22 true seconds.
  const auto gaps = beacon_gaps(-100'000'000, 42);
  ASSERT_GT(gaps.size(), 20u);
  for (double g : gaps) {
    EXPECT_NEAR(g, 20.0 / 0.9, 0.2);
  }
}

TEST(ClockDrift, ZeroDriftMatchesLegacyPeriod) {
  const auto gaps = beacon_gaps(0, 43);
  ASSERT_GT(gaps.size(), 20u);
  for (double g : gaps) {
    EXPECT_NEAR(g, 20.0, 0.2);
  }
}

TEST(ClockDrift, DutyBudgetHoldsInTrueTimeOnDriftedNodes) {
  // A tight regulatory budget on a mesh whose crystals disagree by ±10 %:
  // the fast node *wants* to transmit more per true hour, but the limiter
  // books airtime against the true clock, so trace invariant 3 (every
  // emission inside the sliding true-time window) must stay clean.
  auto c = cfg(44);
  c.mesh.hello_interval = Duration::seconds(10);
  c.mesh.hello_jitter = 0.15;
  c.mesh.duty_cycle_limit = 0.0005;  // 1.8 s of airtime per true hour
  c.mesh.duty_cycle_window = Duration::hours(1);
  c.clock_profile = [](std::size_t i) {
    sim::ClockProfile p;
    p.drift_ppb = (i % 2 == 0) ? 100'000'000 : -100'000'000;
    return p;
  };
  MeshScenario s(c);
  s.add_nodes(testbed::chain(2, 100.0));
  trace::VectorSink sink;
  trace::Tracer tracer;
  tracer.attach(&sink);
  s.attach_tracer(tracer);
  s.start_all();
  s.run_for(Duration::hours(3));

  // The limiter actually had to push transmissions back...
  const auto stats = s.total_stats();
  EXPECT_GT(stats.duty_cycle_delays, 0u);
  // ...and no emission escaped the true-time budget.
  trace::TraceAnalyzer analyzer(sink.take());
  trace::InvariantOptions opts;
  opts.duty_cycle_limit = c.mesh.duty_cycle_limit;
  opts.duty_cycle_window = c.mesh.duty_cycle_window;
  const auto violations = analyzer.check_invariants(opts);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violations, first: " << violations.front();
}

TEST(ClockDrift, DisagreeingCrystalsStillConverge) {
  // Route freshness bookkeeping is local-time on both ends; a ±10 % split
  // must not expire or starve routes between neighbours.
  auto c = cfg(45);
  c.mesh.hello_jitter = 0.15;
  c.clock_profile = [](std::size_t i) {
    sim::ClockProfile p;
    p.skew = Duration::seconds(static_cast<std::int64_t>(i));
    p.drift_ppb = (i % 2 == 0) ? 100'000'000 : -100'000'000;
    return p;
  };
  MeshScenario s(c);
  s.add_nodes(testbed::chain(4, 400.0));
  s.start_all();
  const auto elapsed = s.run_until_converged(Duration::minutes(10));
  ASSERT_TRUE(elapsed.has_value());
  // Hold for an hour of disagreeing clocks: routes must stay up.
  s.run_for(Duration::hours(1));
  EXPECT_TRUE(s.converged());
}

}  // namespace
}  // namespace lm::net