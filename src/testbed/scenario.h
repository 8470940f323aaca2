// MeshScenario — one fully wired LoRaMesher deployment: simulator, channel,
// radios and nodes, plus the convergence oracle the experiments need.
//
// The oracle: from the channel's own link-quality estimates we build the
// "good link" graph (both directions decode with probability >= threshold),
// BFS it for ground-truth hop counts, and declare the mesh converged when
// every running node's routing table holds a route to every reachable
// running peer (optionally with the exact shortest-path metric).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/mesh_node.h"
#include "phy/geometry.h"
#include "phy/region.h"
#include "radio/channel.h"
#include "radio/energy.h"
#include "radio/virtual_radio.h"
#include "sim/pdes/parallel_engine.h"
#include "sim/pdes/region_partition.h"
#include "sim/simulator.h"
#include "testbed/topology.h"
#include "trace/trace_sink.h"

namespace lm::testbed {

struct ScenarioConfig {
  std::uint64_t seed = 1;
  radio::PropagationConfig propagation = radio::PropagationConfig::campus();
  /// Delivery-policy knobs: spatial-index culling (default) vs the O(N^2)
  /// brute-force sweep, for A/B comparisons and scaling experiments.
  radio::ChannelConfig channel;
  radio::RadioConfig radio;  // modulation, frequency, power shared by all nodes
  net::MeshConfig mesh;
  /// Live per-node battery/harvesting model. Disabled (default) keeps the
  /// legacy unmetered behavior bit for bit; enabled with an infinite
  /// battery meters consumption without affecting any node's behavior;
  /// a finite battery browns nodes out (NodeDown) when it hits zero.
  radio::EnergyConfig energy;
  /// Per-node oscillator profile (node index -> skew/drift), overriding
  /// mesh.clock. Null (default) = the shared mesh.clock everywhere; the
  /// identity profile reproduces legacy timing bit for bit.
  std::function<sim::ClockProfile(std::size_t)> clock_profile;
  /// Routing-strategy factory, called once per added node. Null (default)
  /// selects the hop-count distance-vector protocol; strategy_test swaps in
  /// net::FloodingStrategy to compare policies over the identical stack.
  std::function<std::unique_ptr<net::RoutingStrategy>()> strategy_factory;
  /// Intra-scenario parallelism. workers == 0 (default) runs the classic
  /// serial single-Simulator path; workers >= 1 runs the conservative PDES
  /// engine over a decomposition of the node field — x-axis stripes by
  /// default, a 2-D tile grid with pdes.tile (region count then scales with
  /// field *area*). Results are byte-identical across worker counts and —
  /// for fields narrower than one interaction radius, which collapse to a
  /// single region — identical to the serial path. With more than one region
  /// every node must stay inside the region it was placed in: moving within
  /// it is fine, leaving it fails the next barrier's check (mobility across
  /// the field runs on the serial engine or a single-region decomposition).
  sim::pdes::PdesConfig pdes;
};

/// Applies a regional band plan to a scenario config: tunes the radio to
/// the region's first default channel, caps TX power at the sub-band's ERP
/// ceiling, and adopts its duty-cycle limit for the mesh.
void apply_region(ScenarioConfig& config, const phy::RegionParams& region);

class MeshScenario {
 public:
  explicit MeshScenario(ScenarioConfig config);
  ~MeshScenario();

  MeshScenario(const MeshScenario&) = delete;
  MeshScenario& operator=(const MeshScenario&) = delete;

  // --- Construction -----------------------------------------------------------
  /// Adds a node at `position`; returns its index. Addresses are assigned
  /// 0x0001, 0x0002, ... in creation order. `role` overrides the shared
  /// MeshConfig role for this node (e.g. one gateway in a field of sensors).
  /// In PDES mode construction is deferred: nodes materialize (in index
  /// order, preserving every per-index seed) on first access that needs
  /// them, and add_node is rejected afterwards.
  std::size_t add_node(phy::Position position, net::Role role);
  std::size_t add_node(phy::Position position);
  void add_nodes(const std::vector<phy::Position>& positions);

  // --- Access ------------------------------------------------------------------
  std::size_t size() const {
    return pending_.empty() ? nodes_.size() : pending_.size();
  }
  /// The scenario's single event loop. In PDES mode this is region 0's loop
  /// and requires a single-region decomposition (a multi-region scenario
  /// has no one clock — use simulator_for()).
  sim::Simulator& simulator();
  /// The event loop that owns node `i` (== simulator() everywhere except a
  /// multi-region PDES decomposition). Schedule node-targeted work here.
  sim::Simulator& simulator_for(std::size_t i);
  TimePoint now() const;
  /// Regions in the PDES decomposition (1 in serial mode).
  std::size_t region_count();
  /// Events executed so far across all event loops (both modes). Feeds the
  /// strong-scaling bench's events/s metric.
  std::uint64_t events_processed() const;
  /// PDES engine counters (all 0 in serial mode): barrier messages applied
  /// (ghost-exchange posts) and lookahead windows run. Feed the tile-sweep
  /// bench's overhead-share metrics.
  std::uint64_t pdes_messages_applied() const;
  std::uint64_t pdes_windows_run() const;
  /// Always 0: every window runs at the fixed conservative lookahead. Kept
  /// only because meshbench/field.cpp reads it for `pdes.widened_pct`, and
  /// meshbench/ changes only together with BENCHMARK.json.
  std::uint64_t pdes_windows_widened() const;
  /// The radio medium. In PDES mode requires a single-region decomposition
  /// (each region owns a channel; cross-region scripting is not supported).
  radio::Channel& channel();
  net::MeshNode& node(std::size_t i) {
    finalize();
    return *nodes_.at(i);
  }
  const net::MeshNode& node(std::size_t i) const { return *nodes_.at(i); }
  radio::VirtualRadio& radio(std::size_t i) {
    finalize();
    return *radios_.at(i);
  }
  net::Address address_of(std::size_t i) const;
  /// Index of the node owning `address`; nullopt if unknown.
  std::optional<std::size_t> index_of(net::Address address) const;
  /// Node `i`'s live battery; null when config.energy is disabled.
  const radio::EnergyModel* energy_model(std::size_t i) {
    finalize();
    return energy_models_.empty() ? nullptr : energy_models_.at(i).get();
  }

  /// Attaches a flight recorder to the channel, every radio and every node
  /// (existing and future). The tracer must outlive the scenario.
  void attach_tracer(trace::Tracer& tracer);

  // --- Lifecycle ------------------------------------------------------------------
  void start_all();
  /// Stops one node (crash/power-off). Its routes age out of the others.
  void fail_node(std::size_t i) { node(i).stop(); }
  void run_for(Duration d) { run_until(now() + d); }
  void run_until(TimePoint t);

  // --- Convergence oracle ------------------------------------------------------------
  /// True when both directions of (a, b) decode with probability >= 0.9.
  bool good_link(std::size_t a, std::size_t b) const;

  /// Ground-truth hop counts over good links between *running* nodes;
  /// -1 for unreachable or stopped endpoints.
  std::vector<std::vector<int>> expected_hops() const;

  /// True when the tables at `from` actually carry a packet to `to`:
  /// follows next_hop() node by node, requiring every hop to be a running
  /// node over a good link, without loops. This is the data-plane truth —
  /// a stale route pointing at a dead relay fails it.
  bool route_usable(std::size_t from, std::size_t to) const;

  /// True when every running node has a *usable* route (see route_usable)
  /// to every reachable running peer. With `exact_metric`, the route metric
  /// must additionally equal the BFS optimum.
  bool converged(bool exact_metric = true) const;

  /// Runs until converged() or `deadline` elapses, probing every
  /// `check_every`. Returns simulated time elapsed (from call) on success.
  std::optional<Duration> run_until_converged(
      Duration deadline, Duration check_every = Duration::seconds(5),
      bool exact_metric = true);

  /// Multi-line dump of every routing table (demo output).
  std::string dump_routing_tables() const;

  /// Aggregate of all nodes' counters.
  net::NodeStats total_stats() const;

  const ScenarioConfig& config() const { return config_; }

 private:
  bool pdes_mode() const { return config_.pdes.workers > 0; }
  /// PDES mode: builds the partition, engine, per-region channels and every
  /// node (in index order). Serial mode / already finalized: no-op.
  void finalize();
  /// Attaches the user tracer to every component — directly for a single
  /// region, through per-region capture sinks for a multi-region
  /// decomposition (workers may emit concurrently).
  void wire_tracers();
  /// Drains the per-region sinks into the user tracer: concatenate in
  /// region order, stable-sort by timestamp — a merge no worker
  /// interleaving can influence.
  void merge_region_traces();
  /// Directed decode probability a -> b, routed to the channel that can
  /// answer it (rx's home channel for a cross-region pair).
  double pair_link_quality(std::size_t a, std::size_t b) const;
  /// Barrier hook (multi-region PDES): requires every radio that moved to
  /// still sit inside the region that owns its node. Every worker is parked
  /// at the barrier time when this runs.
  void handle_barrier();
  /// Creates node `i`'s EnergyModel on `sim` (config.energy enabled only):
  /// meters the just-created radio, browns the node out at 0 mAh.
  void make_energy_model(std::size_t i, sim::Simulator& sim);

  /// Creates node `i` (radio and stack) on `sim` and `channel`.
  void make_node(std::size_t i, sim::Simulator& sim, radio::Channel& channel,
                 phy::Position position, net::Role role);

  ScenarioConfig config_;
  sim::Simulator sim_;
  std::unique_ptr<radio::Channel> channel_;
  // Each node's radio and stack live in one allocation, so a frame's
  // receiver touches one neighbourhood of memory; radios_ and nodes_ view
  // into them.
  struct NodeBlock;
  std::vector<std::unique_ptr<NodeBlock>> blocks_;
  std::vector<radio::VirtualRadio*> radios_;
  std::vector<net::MeshNode*> nodes_;
  // One per node when config.energy is enabled, else empty. Each meters its
  // radio's power states; brownout of a finite battery stops the node.
  std::vector<std::unique_ptr<radio::EnergyModel>> energy_models_;
  trace::Tracer* tracer_ = nullptr;

  // --- PDES mode state (empty / unused in serial mode) ---------------------
  struct PendingNode {
    phy::Position position;
    net::Role role;
  };
  std::vector<PendingNode> pending_;
  bool finalized_ = false;
  double halo_m_ = 0.0;
  sim::pdes::TilePartition partition_;
  std::unique_ptr<sim::pdes::ParallelEngine> engine_;
  std::vector<std::unique_ptr<radio::Channel>> channels_;  // one per region
  std::vector<std::size_t> node_region_;
  std::vector<std::unique_ptr<trace::VectorSink>> region_sinks_;
  std::vector<std::unique_ptr<trace::Tracer>> region_tracers_;
  std::vector<trace::TraceEvent> merge_scratch_;
  // Cheap barrier gate: sum of the channels' position-change counters at
  // the last region-membership scan.
  std::uint64_t last_position_changes_ = 0;
};

}  // namespace lm::testbed
