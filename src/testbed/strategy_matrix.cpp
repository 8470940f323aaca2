#include "testbed/strategy_matrix.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <utility>

#include "metrics/packet_tracker.h"
#include "net/aodv_strategy.h"
#include "net/energy_aware_strategy.h"
#include "net/flooding_strategy.h"
#include "net/gateway_tree_strategy.h"
#include "phy/path_loss.h"
#include "support/assert.h"
#include "testbed/chaos.h"
#include "testbed/mobility.h"
#include "testbed/topology.h"
#include "testbed/traffic.h"
#include "trace/trace_analyzer.h"
#include "trace/trace_sink.h"

namespace lm::testbed {

namespace {

std::uint64_t fnv1a(const std::string& s, std::uint64_t h = 1469598103934665603ull) {
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Deterministic per-cell seed: same cell, same run, regardless of which
/// other cells execute or in what order.
std::uint64_t cell_seed(const MatrixConfig& config, const StrategySpec& s,
                        const MatrixTopology& t) {
  return config.seed ^ fnv1a(s.name + "|" + t.name);
}

ScenarioConfig scenario_config(std::uint64_t seed,
                               const StrategySpec& strategy) {
  ScenarioConfig c;
  c.seed = seed;
  // Deterministic link model: every cell difference is a policy
  // difference, never a fading draw.
  c.propagation.path_loss = phy::make_log_distance(3.5, 40.0);
  c.propagation.shadowing_sigma_db = 0.0;
  c.propagation.fading_sigma_db = 0.0;
  c.mesh.hello_interval = Duration::seconds(15);
  c.mesh.maintenance_interval = Duration::seconds(5);
  c.mesh.duty_cycle_limit = 1.0;  // measure policy cost, not regulation
  // Meter every node's radio draw (infinite battery: consumption is
  // recorded, behavior is untouched) so each cell reports an energy axis.
  c.energy.enabled = true;
  c.strategy_factory = strategy.factory;
  return c;
}

/// The three flows every cell carries: the long axis both ways (edge ->
/// edge exercises the full diameter; for the tree, member -> gateway and
/// gateway -> member) plus one interior pair (off-root routing).
std::vector<std::pair<std::size_t, std::size_t>> make_flows(std::size_t n) {
  LM_REQUIRE(n >= 2);
  std::vector<std::pair<std::size_t, std::size_t>> flows;
  flows.emplace_back(0, n - 1);
  flows.emplace_back(n - 1, 0);
  if (n >= 4) flows.emplace_back(1, 2);
  return flows;
}

}  // namespace

std::vector<StrategySpec> default_strategies() {
  std::vector<StrategySpec> out;
  out.push_back({"distance-vector", nullptr, /*proactive=*/true});
  out.push_back({"flooding",
                 [] { return std::make_unique<net::FloodingStrategy>(); },
                 /*proactive=*/false});
  out.push_back({"aodv", [] { return std::make_unique<net::AodvStrategy>(); },
                 /*proactive=*/false});
  out.push_back({"gateway-tree",
                 [] {
                   net::GatewayTreeConfig cfg;
                   cfg.beacon_interval = Duration::seconds(40);
                   cfg.report_interval = Duration::seconds(60);
                   return std::make_unique<net::GatewayTreeStrategy>(cfg);
                 },
                 /*proactive=*/false});
  out.push_back({"energy-aware",
                 [] { return std::make_unique<net::EnergyAwareStrategy>(); },
                 /*proactive=*/true});
  return out;
}

std::vector<MatrixTopology> default_topologies() {
  std::vector<MatrixTopology> out;
  out.push_back({"chain", [](Rng&) { return chain(6, 400.0); }});
  out.push_back({"grid", [](Rng&) { return grid(3, 3, 350.0); }});
  out.push_back({"star", [](Rng&) { return star(5, 400.0); }});
  out.push_back({"random-dense", [](Rng& rng) {
                   return connected_random_field(10, 1000.0, 1000.0, 450.0,
                                                 rng);
                 }});
  MatrixTopology mobile{"mobile", [](Rng&) { return chain(4, 350.0); }};
  mobile.mobile = true;
  out.push_back(std::move(mobile));
  MatrixTopology chaos{"chaos", [](Rng&) { return chain(5, 400.0); }};
  chaos.chaos = true;
  out.push_back(std::move(chaos));
  return out;
}

CellResult run_cell(const StrategySpec& strategy,
                    const MatrixTopology& topology,
                    const MatrixConfig& config) {
  const std::uint64_t seed = cell_seed(config, strategy, topology);
  trace::VectorSink sink;
  trace::Tracer tracer;
  tracer.attach(&sink);

  MeshScenario scenario(scenario_config(seed, strategy));
  scenario.attach_tracer(tracer);

  Rng layout_rng(seed ^ 0x10F0);
  const std::vector<phy::Position> positions = topology.layout(layout_rng);
  LM_REQUIRE(positions.size() >= 2);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    // Node 0 is the gateway in every cell: required by the tree strategy,
    // advertised-but-unused by the others — identical deployments across
    // the whole row.
    scenario.add_node(positions[i],
                      i == 0 ? net::roles::kGateway : net::roles::kNone);
  }
  const std::size_t n = scenario.size();

  CellResult cell;
  cell.strategy = strategy.name;
  cell.topology = topology.name;
  cell.nodes = n;

  const auto flows = make_flows(n);
  cell.flows = flows.size();

  // One shared tracker for the aggregate metrics plus per-flow delivery
  // counts keyed by (origin address, destination node).
  metrics::PacketTracker tracker;
  std::map<std::pair<net::Address, std::size_t>, std::size_t> flow_index;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    flow_index[{scenario.address_of(flows[f].first), flows[f].second}] = f;
    cell.flow_results.push_back(
        FlowResult{flows[f].first, flows[f].second, false, 0});
  }
  for (std::size_t i = 0; i < n; ++i) {
    sim::Simulator& sim = scenario.simulator_for(i);
    scenario.node(i).set_datagram_handler(
        [&tracker, &sim, &flow_index, &cell, i](
            net::Address origin, const std::vector<std::uint8_t>& payload,
            std::uint8_t hops) {
          const auto token = metrics::PacketTracker::extract_token(payload);
          if (token) tracker.register_delivery(*token, sim.now(), hops);
          const auto it = flow_index.find({origin, i});
          if (it != flow_index.end()) cell.flow_results[it->second].delivered++;
        });
  }

  std::unique_ptr<ChaosMonkey> monkey;
  std::unique_ptr<WaypointMover> mover;
  if (topology.mobile) {
    mover = std::make_unique<WaypointMover>(
        scenario.simulator(), scenario.radio(n - 1),
        std::vector<phy::Position>{{400.0, 150.0}, {1050.0, 0.0}}, 1.5,
        Duration::seconds(5));
  }
  if (topology.chaos) {
    ChaosConfig chaos;
    chaos.mean_time_between_failures = Duration::minutes(4);
    chaos.min_outage = Duration::minutes(1);
    chaos.max_outage = Duration::minutes(5);
    chaos.min_alive = 3;
    chaos.protected_nodes = {0, n - 1};
    monkey = std::make_unique<ChaosMonkey>(scenario, chaos, seed ^ 0xC4A0);
    monkey->start();
  }

  scenario.start_all();
  if (mover) mover->start();
  if (strategy.proactive) {
    scenario.run_until_converged(config.warmup, Duration::seconds(5),
                                 /*exact_metric=*/false);
  } else {
    scenario.run_for(config.warmup);
  }

  // Ground truth at traffic start: which flows the physics can carry at
  // all. (Mobile/chaos cells may change reachability afterwards — the
  // per-flow `connected` flag captures the moment the assertion is about.)
  const auto hops = scenario.expected_hops();
  for (std::size_t f = 0; f < flows.size(); ++f) {
    cell.flow_results[f].connected = hops[flows[f].first][flows[f].second] > 0;
    if (cell.flow_results[f].connected) cell.connected_flows++;
  }

  TrafficConfig traffic;
  traffic.mean_interval = config.mean_interval;
  std::vector<std::unique_ptr<DatagramTraffic>> generators;
  for (std::size_t f = 0; f < flows.size(); ++f) {
    generators.push_back(std::make_unique<DatagramTraffic>(
        scenario, tracker, flows[f].first, flows[f].second, traffic,
        seed ^ (0xF10 + f)));
    generators.back()->start();
  }
  scenario.run_for(config.traffic_time);
  for (auto& g : generators) g->stop();
  scenario.run_for(config.drain);
  if (mover) mover->stop();
  if (monkey) monkey->stop();

  cell.attempted = tracker.attempted();
  cell.delivered = tracker.delivered();
  cell.refused = tracker.refused();
  cell.duplicates = tracker.duplicates();
  cell.pdr = tracker.pdr();
  if (tracker.latency().count() > 0) {
    cell.latency_mean_s = tracker.latency().mean();
    cell.latency_p95_s = tracker.latency().percentile(95.0);
  }
  const net::NodeStats total = scenario.total_stats();
  cell.data_airtime_s = total.data_airtime.seconds_d();
  cell.control_airtime_s = total.control_airtime.seconds_d();
  const double airtime = cell.data_airtime_s + cell.control_airtime_s;
  cell.control_overhead = airtime > 0.0 ? cell.control_airtime_s / airtime : 0.0;
  cell.forwarded = total.packets_forwarded;
  for (std::size_t i = 0; i < n; ++i) {
    const radio::EnergyModel* model = scenario.energy_model(i);
    if (model == nullptr) continue;
    const double consumed = model->consumed_mah();
    cell.energy_mah += consumed;
    if (consumed > cell.energy_max_node_mah) cell.energy_max_node_mah = consumed;
  }

  cell.all_connected_flows_delivered = true;
  for (const FlowResult& f : cell.flow_results) {
    if (f.connected && f.delivered == 0) {
      cell.all_connected_flows_delivered = false;
    }
  }

  trace::TraceAnalyzer analyzer(sink.take());
  trace::InvariantOptions opts;
  opts.duty_cycle_limit = 1.0;  // disabled in the cell config
  opts.check_routes = true;
  cell.invariant_violations = analyzer.check_invariants(opts).size();
  return cell;
}

std::vector<CellResult> run_matrix(std::span<const StrategySpec> strategies,
                                   std::span<const MatrixTopology> topologies,
                                   const MatrixConfig& config) {
  std::vector<CellResult> cells;
  cells.reserve(strategies.size() * topologies.size());
  for (const MatrixTopology& topology : topologies) {
    for (const StrategySpec& strategy : strategies) {
      cells.push_back(run_cell(strategy, topology, config));
    }
  }
  mark_pareto(cells);
  return cells;
}

void mark_pareto(std::vector<CellResult>& cells) {
  const auto airtime = [](const CellResult& c) {
    return c.data_airtime_s + c.control_airtime_s;
  };
  const auto latency = [](const CellResult& c) {
    return c.delivered > 0 ? c.latency_mean_s : 1e30;
  };
  for (CellResult& c : cells) {
    bool dominated = false;
    for (const CellResult& other : cells) {
      if (&other == &c || other.topology != c.topology) continue;
      const bool no_worse = other.pdr >= c.pdr &&
                            airtime(other) <= airtime(c) &&
                            latency(other) <= latency(c) &&
                            other.energy_mah <= c.energy_mah;
      const bool better = other.pdr > c.pdr || airtime(other) < airtime(c) ||
                          latency(other) < latency(c) ||
                          other.energy_mah < c.energy_mah;
      if (no_worse && better) {
        dominated = true;
        break;
      }
    }
    c.pareto = !dominated;
  }
}

std::string report_json(std::span<const CellResult> cells) {
  std::string out = "{\"schema\":\"strategy-matrix/1\",\"cells\":[";
  char buf[768];
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    std::snprintf(
        buf, sizeof buf,
        "%s{\"strategy\":\"%s\",\"topology\":\"%s\",\"nodes\":%zu,"
        "\"flows\":%zu,\"connected_flows\":%zu,"
        "\"attempted\":%llu,\"delivered\":%llu,\"refused\":%llu,"
        "\"duplicates\":%llu,\"pdr\":%.6f,"
        "\"latency_mean_s\":%.6f,\"latency_p95_s\":%.6f,"
        "\"data_airtime_s\":%.6f,\"control_airtime_s\":%.6f,"
        "\"control_overhead\":%.6f,"
        "\"energy_mah\":%.6f,\"energy_max_node_mah\":%.6f,"
        "\"forwarded\":%llu,"
        "\"invariant_violations\":%llu,"
        "\"all_connected_flows_delivered\":%s,\"pareto\":%s}",
        i == 0 ? "" : ",", c.strategy.c_str(), c.topology.c_str(), c.nodes,
        c.flows, c.connected_flows,
        static_cast<unsigned long long>(c.attempted),
        static_cast<unsigned long long>(c.delivered),
        static_cast<unsigned long long>(c.refused),
        static_cast<unsigned long long>(c.duplicates), c.pdr,
        c.latency_mean_s, c.latency_p95_s, c.data_airtime_s,
        c.control_airtime_s, c.control_overhead, c.energy_mah,
        c.energy_max_node_mah, static_cast<unsigned long long>(c.forwarded),
        static_cast<unsigned long long>(c.invariant_violations),
        c.all_connected_flows_delivered ? "true" : "false",
        c.pareto ? "true" : "false");
    out += buf;
  }
  out += "]}";
  return out;
}

std::string report_table(std::span<const CellResult> cells) {
  std::string out =
      "strategy         topology      pdr    lat_mean  airtime_s  ctrl%  "
      "mAh      pareto\n";
  char line[256];
  for (const CellResult& c : cells) {
    std::snprintf(line, sizeof line,
                  "%-16s %-12s %6.3f  %8.2f  %9.2f  %5.1f  %7.2f  %s\n",
                  c.strategy.c_str(), c.topology.c_str(), c.pdr,
                  c.latency_mean_s, c.data_airtime_s + c.control_airtime_s,
                  100.0 * c.control_overhead, c.energy_mah,
                  c.pareto ? "*" : "");
    out += line;
  }
  return out;
}

}  // namespace lm::testbed
