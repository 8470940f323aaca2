// meshsim — a command-line LoRaMesher network simulator.
//
// Builds a mesh from CLI parameters, runs it with background traffic, and
// prints a full report: convergence, delivery, airtime, duty-cycle and
// energy. The "swiss-army" entry point for exploring configurations
// without writing code.
//
//   ./build/examples/meshsim --topology chain --nodes 8 --hours 2
//   ./build/examples/meshsim --topology field --nodes 20 --sf 9
//       --hello 120 --interval 60 --seed 3 --loss 0.1   (one command line)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "metrics/packet_tracker.h"
#include "phy/path_loss.h"
#include "radio/energy.h"
#include "testbed/scenario.h"
#include "testbed/topology.h"
#include "testbed/traffic.h"

using namespace lm;

namespace {

struct Options {
  std::string topology = "chain";  // chain | grid | field
  std::size_t nodes = 6;
  double spacing_m = 400.0;
  int sf = 7;
  int hello_s = 60;
  int traffic_interval_s = 60;
  double extra_loss = 0.0;
  double hours = 2.0;
  std::uint64_t seed = 1;
  bool dump_tables = false;
};

[[noreturn]] void usage() {
  std::puts(
      "meshsim — LoRaMesher network simulator\n"
      "  --topology chain|grid|field   node layout (default chain)\n"
      "  --nodes N                     node count (default 6)\n"
      "  --spacing M                   meters between neighbors (default 400)\n"
      "  --sf 7..12                    spreading factor (default 7)\n"
      "  --hello S                     beacon period seconds (default 60)\n"
      "  --interval S                  traffic mean period seconds (default 60)\n"
      "  --loss P                      extra per-link loss 0..1 (default 0)\n"
      "  --hours H                     simulated duration (default 2)\n"
      "  --seed N                      RNG seed (default 1)\n"
      "  --tables                      dump final routing tables");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--topology") {
      o.topology = value();
    } else if (arg == "--nodes") {
      o.nodes = std::strtoul(value(), nullptr, 10);
    } else if (arg == "--spacing") {
      o.spacing_m = std::strtod(value(), nullptr);
    } else if (arg == "--sf") {
      o.sf = std::atoi(value());
    } else if (arg == "--hello") {
      o.hello_s = std::atoi(value());
    } else if (arg == "--interval") {
      o.traffic_interval_s = std::atoi(value());
    } else if (arg == "--loss") {
      o.extra_loss = std::strtod(value(), nullptr);
    } else if (arg == "--hours") {
      o.hours = std::strtod(value(), nullptr);
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--tables") {
      o.dump_tables = true;
    } else {
      usage();
    }
  }
  if (o.nodes < 2 || o.sf < 7 || o.sf > 12 || o.hello_s < 1 ||
      o.traffic_interval_s < 1 || o.extra_loss < 0 || o.extra_loss > 1) {
    usage();
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);

  testbed::ScenarioConfig config;
  config.seed = o.seed;
  config.propagation.path_loss = phy::make_log_distance(3.5, 40.0);
  config.radio.modulation.sf = static_cast<phy::SpreadingFactor>(o.sf);
  config.mesh.hello_interval = Duration::seconds(o.hello_s);
  testbed::MeshScenario mesh(config);

  if (o.topology == "chain") {
    mesh.add_nodes(testbed::chain(o.nodes, o.spacing_m));
  } else if (o.topology == "grid") {
    const auto side = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(o.nodes))));
    auto p = testbed::grid(side, side, o.spacing_m);
    p.resize(o.nodes);
    mesh.add_nodes(p);
  } else if (o.topology == "field") {
    Rng layout(o.seed);
    const double side =
        o.spacing_m * 1.25 * std::sqrt(static_cast<double>(o.nodes));
    mesh.add_nodes(testbed::connected_random_field(
        o.nodes, side, side, o.spacing_m * 1.4, layout));
  } else {
    usage();
  }

  if (o.extra_loss > 0.0) {
    for (std::size_t a = 0; a < o.nodes; ++a) {
      for (std::size_t b = a + 1; b < o.nodes; ++b) {
        mesh.channel().set_link_extra_loss(static_cast<radio::RadioId>(a + 1),
                                           static_cast<radio::RadioId>(b + 1),
                                           o.extra_loss);
      }
    }
  }

  std::printf("meshsim: %zu nodes (%s), SF%d, hello %ds, traffic 1/%ds, "
              "loss %.0f %%, %.1f h, seed %llu\n",
              o.nodes, o.topology.c_str(), o.sf, o.hello_s,
              o.traffic_interval_s, 100 * o.extra_loss, o.hours,
              static_cast<unsigned long long>(o.seed));

  metrics::PacketTracker tracker;
  testbed::attach_tracker(mesh, tracker);
  mesh.start_all();

  const auto converged = mesh.run_until_converged(
      Duration::from_seconds(o.hours * 3600.0 / 2.0), Duration::seconds(10),
      /*exact_metric=*/false);
  std::printf("convergence: %s\n",
              converged ? converged->to_string().c_str()
                        : "not reached (strict oracle: every pair routed "
                          "over >=90%-quality links — shadowed fields may "
                          "legitimately never satisfy it)");

  // Traffic: every node streams to the node "across" the network.
  std::vector<std::unique_ptr<testbed::DatagramTraffic>> flows;
  for (std::size_t i = 0; i < o.nodes / 2; ++i) {
    flows.push_back(std::make_unique<testbed::DatagramTraffic>(
        mesh, tracker, i, o.nodes - 1 - i,
        testbed::TrafficConfig{Duration::seconds(o.traffic_interval_s), 16, true},
        o.seed + 100 + i));
    flows.back()->start();
  }
  mesh.run_for(Duration::from_seconds(o.hours * 3600.0));
  for (auto& f : flows) f->stop();
  mesh.run_for(Duration::minutes(1));

  const auto total = mesh.total_stats();
  const auto& cs = mesh.channel().stats();
  std::printf("\n--- delivery -------------------------------------------\n");
  std::printf("datagrams:   %llu sent, %llu delivered (PDR %.1f %%)\n",
              static_cast<unsigned long long>(tracker.attempted()),
              static_cast<unsigned long long>(tracker.delivered()),
              100.0 * tracker.pdr());
  if (!tracker.latency().empty()) {
    std::printf("latency:     p50 %.0f ms, p95 %.0f ms\n",
                1e3 * tracker.latency().median(),
                1e3 * tracker.latency().percentile(95));
    std::printf("hops:        median %.0f, max %.0f\n",
                tracker.hops().median(), tracker.hops().max());
  }
  std::printf("\n--- protocol -------------------------------------------\n");
  std::printf("beacons:     %llu sent, %llu received, %llu table changes\n",
              static_cast<unsigned long long>(total.beacons_sent),
              static_cast<unsigned long long>(total.beacons_received),
              static_cast<unsigned long long>(total.routing_changes));
  std::printf("forwarded:   %llu; drops: %llu no-route, %llu ttl, %llu queue\n",
              static_cast<unsigned long long>(total.packets_forwarded),
              static_cast<unsigned long long>(total.dropped_no_route),
              static_cast<unsigned long long>(total.dropped_ttl),
              static_cast<unsigned long long>(total.dropped_queue_full));
  std::printf("channel:     %llu frames, %llu collisions, %llu CSMA busy, "
              "%llu duty deferrals\n",
              static_cast<unsigned long long>(cs.frames_transmitted),
              static_cast<unsigned long long>(cs.dropped_collision),
              static_cast<unsigned long long>(total.cad_busy_events),
              static_cast<unsigned long long>(total.duty_cycle_delays));
  std::printf("airtime:     control %.1f s, data %.1f s (network total)\n",
              total.control_airtime.seconds_d(), total.data_airtime.seconds_d());

  std::printf("\n--- per node -------------------------------------------\n");
  std::printf("%-8s %-10s %-10s %-12s %-10s\n", "node", "tx frames",
              "duty used", "avg current", "battery*");
  for (std::size_t i = 0; i < mesh.size(); ++i) {
    const double ma = radio::average_current_ma(mesh.radio(i));
    std::printf("%-8s %-10llu %-10s %-12s %-10s\n",
                net::to_string(mesh.address_of(i)).c_str(),
                static_cast<unsigned long long>(mesh.radio(i).stats().tx_frames),
                (std::to_string(mesh.node(i).duty_cycle().utilization(
                                    mesh.simulator().now()) * 100.0)
                     .substr(0, 4) + " %").c_str(),
                (std::to_string(ma).substr(0, 5) + " mA").c_str(),
                (std::to_string(radio::battery_life_days(ma, 2500.0))
                     .substr(0, 4) + " d").c_str());
  }
  std::printf("* projected 2500 mAh battery life\n");

  if (o.dump_tables) {
    std::printf("\n--- routing tables -------------------------------------\n%s",
                mesh.dump_routing_tables().c_str());
  }
  return 0;
}
