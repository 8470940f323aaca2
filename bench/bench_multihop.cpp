// E4 — multi-hop delivery: PDR and latency vs hop count, LoRaMesher vs the
// controlled-flooding baseline.
//
// Routing delivers with airtime proportional to path length; flooding
// reaches everything but spends the whole network's airtime per packet.
// Per-link loss compounds per hop for the mesh (no link retries in the
// prototype), while flooding's redundancy partially masks loss.
#include <cstdio>
#include <memory>
#include <string>

#include "bench_common.h"
#include "metrics/packet_tracker.h"
#include "net/flooding_strategy.h"
#include "testbed/topology.h"
#include "testbed/traffic.h"

using namespace lm;

namespace {

struct Outcome {
  double pdr = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double airtime_s = 0.0;  // total network airtime spent
};

// The flooding side of E4: the same stack and harness as the mesh side,
// with net::FloodingStrategy plugged in and an 8-hop TTL.
testbed::ScenarioConfig flood_config(std::uint64_t seed) {
  auto cfg = bench::campus_config(seed);
  cfg.mesh.max_ttl = 8;
  cfg.strategy_factory = [] { return std::make_unique<net::FloodingStrategy>(); };
  return cfg;
}

/// Airtime spent by every node so far, control and data.
Duration network_airtime(const testbed::MeshScenario& s) {
  const net::NodeStats total = s.total_stats();
  return total.control_airtime + total.data_airtime;
}

Outcome run_mesh(std::size_t hops, double loss, std::uint64_t seed) {
  auto cfg = bench::campus_config(seed);
  cfg.mesh.hello_interval = Duration::seconds(60);
  testbed::MeshScenario s(cfg);
  s.add_nodes(testbed::chain(hops + 1, bench::kChainSpacing));
  metrics::PacketTracker tracker;
  testbed::attach_tracker(s, tracker);
  s.start_all();
  if (!s.run_until_converged(Duration::hours(2))) return {};
  for (std::size_t i = 0; i + 1 <= hops; ++i) {
    s.channel().set_link_extra_loss(static_cast<radio::RadioId>(i + 1),
                                    static_cast<radio::RadioId>(i + 2), loss);
  }
  const Duration before = network_airtime(s);
  testbed::DatagramTraffic traffic(s, tracker, 0, hops,
                                   {Duration::seconds(30), 16, true}, seed + 1);
  traffic.start();
  s.run_for(Duration::hours(2));  // ~240 packets
  traffic.stop();
  s.run_for(Duration::minutes(1));

  Outcome o;
  o.pdr = tracker.pdr();
  o.p50_ms = 1e3 * tracker.latency().median();
  o.p95_ms = 1e3 * tracker.latency().percentile(95);
  o.airtime_s = (network_airtime(s) - before).seconds_d();
  return o;
}

Outcome run_flood(std::size_t hops, double loss, std::uint64_t seed) {
  testbed::MeshScenario s(flood_config(seed));
  s.add_nodes(testbed::chain(hops + 1, bench::kChainSpacing));
  metrics::PacketTracker tracker;
  testbed::attach_tracker(s, tracker);
  s.start_all();
  for (std::size_t i = 0; i + 1 <= hops; ++i) {
    s.channel().set_link_extra_loss(static_cast<radio::RadioId>(i + 1),
                                    static_cast<radio::RadioId>(i + 2), loss);
  }
  testbed::DatagramTraffic traffic(s, tracker, 0, hops,
                                   {Duration::seconds(30), 16, true}, seed + 1);
  traffic.start();
  s.run_for(Duration::hours(2));
  traffic.stop();
  s.run_for(Duration::minutes(1));

  Outcome o;
  o.pdr = tracker.pdr();
  o.p50_ms = 1e3 * tracker.latency().median();
  o.p95_ms = 1e3 * tracker.latency().percentile(95);
  o.airtime_s = network_airtime(s).seconds_d();
  return o;
}

// Records one protocol's outcome at a sweep point. Outcomes only: flood
// runs' event counts are not part of what E4 measures.
void record(bench::Reporter& reporter, const char* protocol, std::size_t hops,
            double loss, const Outcome& o) {
  const std::string key = bench::format("%s.h%zu.loss%.0f.", protocol, hops,
                                        100 * loss);
  reporter.metric(key + "pdr", o.pdr);
  reporter.metric(key + "p50_ms", o.p50_ms);
  reporter.metric(key + "p95_ms", o.p95_ms);
  reporter.metric(key + "airtime_s", o.airtime_s);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("bench_multihop", argc, argv);
  bench::banner("E4", "multi-hop PDR & latency: mesh routing vs flooding",
                "routing sustains delivery over multiple hops at a fraction "
                "of flooding's airtime; per-link loss compounds with hops");

  bench::Table t({"hops", "link loss", "protocol", "PDR", "p50 latency",
                  "p95 latency", "network airtime"});
  for (std::size_t hops : {1u, 2u, 4u, 6u, 8u}) {
    for (double loss : {0.0, 0.1, 0.2}) {
      const auto m = run_mesh(hops, loss, 42);
      const auto f = run_flood(hops, loss, 42);
      record(reporter, "mesh", hops, loss, m);
      record(reporter, "flood", hops, loss, f);
      t.row({std::to_string(hops), bench::format("%.0f %%", 100 * loss), "mesh",
             bench::format("%.1f %%", 100 * m.pdr),
             bench::format("%.0f ms", m.p50_ms), bench::format("%.0f ms", m.p95_ms),
             bench::format("%.1f s", m.airtime_s)});
      t.row({std::to_string(hops), bench::format("%.0f %%", 100 * loss), "flood",
             bench::format("%.1f %%", 100 * f.pdr),
             bench::format("%.0f ms", f.p50_ms), bench::format("%.0f ms", f.p95_ms),
             bench::format("%.1f s", f.airtime_s)});
    }
  }
  t.print();
  std::printf("\nnote: on a chain, flooding relays as often as routing "
              "forwards, so airtime is comparable (mesh additionally pays "
              "for beacons). The flooding penalty appears in *wide* "
              "networks, where every node relays every packet:\n\n");

  // Dense-field comparison: a 16-node random field, 3 concurrent flows.
  const std::size_t n = 16;
  const double side = 500.0 * std::sqrt(static_cast<double>(n));
  Rng layout_rng(321);
  const auto field = testbed::connected_random_field(n, side, side, 550.0,
                                                     layout_rng);
  bench::Table wide({"protocol", "PDR", "data airtime / delivered pkt"});
  {
    auto cfg = bench::campus_config(77);
    cfg.mesh.hello_interval = Duration::seconds(60);
    testbed::MeshScenario s(cfg);
    s.add_nodes(field);
    metrics::PacketTracker tracker;
    testbed::attach_tracker(s, tracker);
    s.start_all();
    s.run_until_converged(Duration::hours(2), Duration::seconds(10),
                          /*exact_metric=*/false);
    std::vector<std::unique_ptr<testbed::DatagramTraffic>> flows;
    for (std::size_t f = 0; f < 3; ++f) {
      flows.push_back(std::make_unique<testbed::DatagramTraffic>(
          s, tracker, f, n - 1 - f,
          testbed::TrafficConfig{Duration::seconds(60), 16, true}, 900 + f));
      flows.back()->start();
    }
    s.run_for(Duration::hours(2));
    for (auto& f : flows) f->stop();
    s.run_for(Duration::minutes(1));
    const double per_pkt =
        tracker.delivered() > 0
            ? s.total_stats().data_airtime.seconds_d() /
                  static_cast<double>(tracker.delivered())
            : 0.0;
    reporter.metric("wide.mesh.pdr", tracker.pdr());
    reporter.metric("wide.mesh.airtime_per_pkt_s", per_pkt);
    wide.row({"mesh", bench::format("%.1f %%", 100 * tracker.pdr()),
              bench::format("%.2f s", per_pkt)});
  }
  {
    testbed::MeshScenario s(flood_config(77));
    s.add_nodes(field);
    metrics::PacketTracker tracker;
    testbed::attach_tracker(s, tracker);
    s.start_all();
    std::vector<std::unique_ptr<testbed::DatagramTraffic>> flows;
    for (std::size_t f = 0; f < 3; ++f) {
      flows.push_back(std::make_unique<testbed::DatagramTraffic>(
          s, tracker, f, n - 1 - f,
          testbed::TrafficConfig{Duration::seconds(60), 16, true}, 900 + f));
      flows.back()->start();
    }
    s.run_for(Duration::hours(2));
    for (auto& f : flows) f->stop();
    s.run_for(Duration::minutes(1));
    const double per_pkt =
        tracker.delivered() > 0
            ? network_airtime(s).seconds_d() /
                  static_cast<double>(tracker.delivered())
            : 0.0;
    reporter.metric("wide.flood.pdr", tracker.pdr());
    reporter.metric("wide.flood.airtime_per_pkt_s", per_pkt);
    wide.row({"flood", bench::format("%.1f %%", 100 * tracker.pdr()),
              bench::format("%.2f s", per_pkt)});
  }
  wide.print();
  return 0;
}
