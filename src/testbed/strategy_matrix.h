// StrategyMatrix — the strategy × topology regression grid.
//
// The paper's claim is a *library*: one mesh stack hosting interchangeable
// routing behaviors. This driver makes that claim testable at scale: every
// registered RoutingStrategy runs over every topology family (chain, grid,
// star, random-dense, mobile, chaos) under identical physics, traffic and
// seeds, and each cell reports PDR, latency, airtime split and control
// overhead plus the flight-recorder invariant verdict. A new strategy or
// topology added to the default lists lands in an N×M grid of regression
// cells instead of one hand-written comparison; mark_pareto() tags, per
// topology, the cells no other strategy dominates on
// (PDR up, airtime down, latency down, energy down) — the trade-off
// frontier the bench report and bench/trajectory snapshots track across
// PRs. Every cell runs with live (infinite-battery) energy metering, so
// the consumption axis is populated without perturbing behavior.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/routing_strategy.h"
#include "support/rng.h"
#include "support/time.h"
#include "testbed/scenario.h"

namespace lm::testbed {

struct StrategySpec {
  std::string name;
  /// Called once per node. Null selects the scenario default
  /// (distance-vector).
  std::function<std::unique_ptr<net::RoutingStrategy>()> factory;
  /// Proactive strategies get a convergence wait before traffic; reactive
  /// ones (flooding, AODV, tree) get the same span as plain warm-up.
  bool proactive = false;
};

struct MatrixTopology {
  std::string name;
  /// Node positions; the Rng is cell-seeded so random layouts reproduce.
  std::function<std::vector<phy::Position>(Rng&)> layout;
  /// The last node walks across the field during the run.
  bool mobile = false;
  /// A ChaosMonkey crashes/reboots non-endpoint nodes during the run.
  bool chaos = false;
};

struct MatrixConfig {
  std::uint64_t seed = 2026;
  /// Convergence deadline (proactive) / control-plane warm-up (reactive).
  Duration warmup = Duration::minutes(5);
  Duration traffic_time = Duration::minutes(10);
  /// Post-traffic drain so queued relays finish before metrics are read.
  Duration drain = Duration::minutes(1);
  Duration mean_interval = Duration::seconds(20);
};

struct FlowResult {
  std::size_t src = 0;
  std::size_t dst = 0;
  bool connected = false;  // ground-truth reachable at traffic start
  std::uint64_t delivered = 0;
};

struct CellResult {
  std::string strategy;
  std::string topology;
  std::size_t nodes = 0;
  std::vector<FlowResult> flow_results;
  std::size_t flows = 0;
  std::size_t connected_flows = 0;
  std::uint64_t attempted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t refused = 0;
  std::uint64_t duplicates = 0;
  double pdr = 0.0;
  double latency_mean_s = 0.0;
  double latency_p95_s = 0.0;
  double data_airtime_s = 0.0;
  double control_airtime_s = 0.0;
  /// control / (control + data) airtime — the price of the routing plane.
  double control_overhead = 0.0;
  /// Total radio charge drawn across all nodes over the cell (live
  /// EnergyModel metering, SX1276 draws), and the hungriest single node —
  /// the node whose battery a real deployment would lose first.
  double energy_mah = 0.0;
  double energy_max_node_mah = 0.0;
  std::uint64_t forwarded = 0;
  std::uint64_t invariant_violations = 0;
  /// Every flow that was reachable at traffic start delivered >= 1 packet.
  bool all_connected_flows_delivered = false;
  /// On the per-topology (PDR, airtime, latency, energy) Pareto front.
  bool pareto = false;
};

/// The registered strategy zoo: distance-vector, flooding, AODV,
/// gateway-tree, energy-aware — every policy behind the RoutingStrategy
/// seam.
std::vector<StrategySpec> default_strategies();

/// The topology families: chain, grid, star, random-dense, mobile, chaos.
std::vector<MatrixTopology> default_topologies();

CellResult run_cell(const StrategySpec& strategy,
                    const MatrixTopology& topology, const MatrixConfig& config);

/// Runs every cell and marks the per-topology Pareto fronts.
std::vector<CellResult> run_matrix(std::span<const StrategySpec> strategies,
                                   std::span<const MatrixTopology> topologies,
                                   const MatrixConfig& config);

/// Tags, per topology, the cells no other cell dominates on
/// (PDR max, total airtime min, mean latency min, total energy min).
void mark_pareto(std::vector<CellResult>& cells);

/// Machine-readable Pareto report (schema "strategy-matrix/1").
std::string report_json(std::span<const CellResult> cells);

/// Human-readable grid for logs and the bench report.
std::string report_table(std::span<const CellResult> cells);

}  // namespace lm::testbed
