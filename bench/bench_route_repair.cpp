// E6 — route repair after node failure.
//
// When a relay dies, its routes stop being refreshed and age out after
// route_timeout_intervals hello periods, at which point an alternate path
// (if any) takes over. Measures both the routing-layer re-convergence time
// and the application-visible delivery gap, and ablates the timeout factor.
//
// The three timeout ablation points are independent simulations, sharded
// across a ParallelRunner.
#include <cstdio>

#include "bench_common.h"
#include "metrics/packet_tracker.h"
#include "testbed/parallel_runner.h"
#include "testbed/topology.h"
#include "testbed/traffic.h"

using namespace lm;

namespace {

struct Repair {
  double reconverge_s = -1.0;   // failure -> tables correct again
  double delivery_gap_s = -1.0; // last delivery before -> first after
  double pdr_after = 0.0;       // delivery ratio in the hour after failure
  double wall_s = 0.0;
};

Repair run(int timeout_intervals, std::uint64_t seed) {
  bench::WallTimer wall;
  auto cfg = bench::campus_config(seed);
  cfg.mesh.hello_interval = Duration::seconds(60);
  cfg.mesh.route_timeout_intervals = timeout_intervals;
  testbed::MeshScenario s(cfg);
  // Diamond: 0 - {1,2} - 3; two parallel relays.
  s.add_node({0.0, 0.0});
  s.add_node({bench::kChainSpacing, 150.0});
  s.add_node({bench::kChainSpacing, -150.0});
  s.add_node({2 * bench::kChainSpacing, 0.0});
  s.start_all();
  if (!s.run_until_converged(Duration::hours(2), Duration::seconds(5),
                             /*exact_metric=*/false)) {
    return {};
  }

  TimePoint last_delivery;
  TimePoint first_after_failure = TimePoint::max();
  std::uint64_t delivered_after = 0, sent_after = 0;
  bool failed = false;
  s.node(3).set_datagram_handler(
      [&](net::Address, const std::vector<std::uint8_t>&, std::uint8_t) {
        last_delivery = s.simulator().now();
        if (failed) {
          delivered_after++;
          if (first_after_failure == TimePoint::max()) {
            first_after_failure = s.simulator().now();
          }
        }
      });

  // Steady traffic 0 -> 3, one packet per 20 s (manual, so we can count).
  auto send_one = [&] {
    if (failed) sent_after++;
    std::vector<std::uint8_t> p(16, 0xAA);
    s.node(0).send_datagram(s.address_of(3), std::move(p));
  };
  for (int i = 0; i < 30; ++i) {  // 10 min warmup
    send_one();
    s.run_for(Duration::seconds(20));
  }

  // Kill the relay currently carrying the route.
  const auto route = s.node(0).routing_table().route_to(s.address_of(3));
  if (!route) return {};
  s.fail_node(*s.index_of(route->via));
  failed = true;
  const TimePoint failure_time = s.simulator().now();
  const TimePoint last_before = last_delivery;

  Repair r;
  for (int i = 0; i < 180; ++i) {  // 1 h of post-failure traffic
    send_one();
    s.run_for(Duration::seconds(20));
    if (r.reconverge_s < 0 && s.converged(false)) {
      r.reconverge_s = (s.simulator().now() - failure_time).seconds_d();
    }
  }
  if (first_after_failure != TimePoint::max()) {
    r.delivery_gap_s = (first_after_failure - last_before).seconds_d();
  }
  r.pdr_after = sent_after > 0 ? static_cast<double>(delivered_after) /
                                     static_cast<double>(sent_after)
                               : 0.0;
  r.wall_s = wall.seconds();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("bench_route_repair", argc, argv);
  bench::banner("E6", "route repair after relay failure (diamond topology)",
                "routes through a dead relay age out after "
                "route_timeout_intervals hello periods, then the alternate "
                "relay takes over; smaller timeouts repair faster but risk "
                "flapping");

  const std::vector<int> timeouts{3, 5, 10};
  testbed::ParallelRunner runner(reporter.threads());
  std::printf("\nsharding %zu runs over %zu threads\n", timeouts.size(),
              runner.threads());
  const auto results = runner.map<Repair>(timeouts.size(), [&](std::size_t i) {
    return run(timeouts[i], 99);
  });

  bench::Table t({"timeout (hellos)", "expected age-out", "re-convergence",
                  "delivery gap", "PDR in hour after failure"});
  for (std::size_t i = 0; i < timeouts.size(); ++i) {
    const int intervals = timeouts[i];
    const auto& r = results[i];
    t.row({std::to_string(intervals), bench::format("%d s", intervals * 60),
           r.reconverge_s >= 0 ? bench::format("%.0f s", r.reconverge_s) : "never",
           r.delivery_gap_s >= 0 ? bench::format("%.0f s", r.delivery_gap_s) : "never",
           bench::format("%.1f %%", 100 * r.pdr_after)});
    const std::string label = bench::format("timeout_%d", intervals);
    reporter.point(label, r.wall_s);
    reporter.metric(label + ".pdr_after", r.pdr_after);
  }
  t.print();

  std::printf("\nnote: the delivery gap tracks the age-out time, since the "
              "sender keeps unicasting into the dead next hop until the "
              "route expires (the prototype has no link-failure detection).\n");
  return 0;
}
