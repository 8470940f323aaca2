#include "testbed/scenario.h"

#include <algorithm>

#include "radio/pdes_bridge.h"
#include "sim/pdes/lookahead.h"
#include "support/assert.h"

namespace lm::testbed {

void apply_region(ScenarioConfig& config, const phy::RegionParams& region) {
  LM_REQUIRE(!region.default_channels_hz.empty());
  config.radio.frequency_hz = region.default_channels_hz.front();
  const phy::SubBand* band =
      phy::sub_band_of(region, config.radio.frequency_hz);
  LM_ASSERT(band != nullptr);
  if (config.radio.tx_power_dbm > band->max_erp_dbm) {
    config.radio.tx_power_dbm = band->max_erp_dbm;
  }
  config.mesh.duty_cycle_limit = band->duty_cycle_limit;
  config.mesh.max_dwell_time = region.max_dwell_time;
}

struct MeshScenario::NodeBlock {
  NodeBlock(sim::Simulator& sim, radio::Channel& channel, radio::RadioId id,
            phy::Position position, const radio::RadioConfig& radio_config,
            net::Address address, net::MeshConfig mesh_config,
            std::uint64_t seed, std::unique_ptr<net::RoutingStrategy> strategy)
      : radio(sim, channel, id, position, radio_config),
        node(sim, radio, address, std::move(mesh_config), seed,
             std::move(strategy)) {}

  radio::VirtualRadio radio;
  net::MeshNode node;
};

MeshScenario::MeshScenario(ScenarioConfig config) : config_(std::move(config)) {
  // PDES mode defers channel construction to finalize(): each region owns a
  // channel on its own event loop, and the decomposition needs the node
  // positions first.
  if (!pdes_mode()) {
    channel_ = std::make_unique<radio::Channel>(sim_, config_.propagation,
                                                config_.channel,
                                                config_.seed ^ 0xC0FFEE);
  }
}

MeshScenario::~MeshScenario() {
  // Nodes reference radios, radios reference their energy models (a dying
  // radio detaches its model) and channels, channels reference their
  // region Simulators inside the engine; destroy in that order.
  nodes_.clear();
  radios_.clear();
  blocks_.clear();
  energy_models_.clear();
  channels_.clear();
  engine_.reset();
}

void MeshScenario::make_energy_model(std::size_t i, sim::Simulator& sim) {
  if (!config_.energy.enabled) return;
  energy_models_.push_back(std::make_unique<radio::EnergyModel>(
      sim, config_.energy, address_of(i)));
  energy_models_.back()->attach(*radios_.back());
  // Brownout reuses the ordinary node-failure path: routes through the
  // dead node age out of the rest of the mesh, exactly like fail_node().
  energy_models_.back()->set_brownout([this, i] { nodes_[i]->stop(); });
  nodes_.back()->set_energy_model(energy_models_.back().get());
}

void MeshScenario::make_node(std::size_t i, sim::Simulator& sim,
                             radio::Channel& channel, phy::Position position,
                             net::Role role) {
  net::MeshConfig node_config = config_.mesh;
  node_config.role = role;
  if (config_.clock_profile) node_config.clock = config_.clock_profile(i);
  blocks_.push_back(std::make_unique<NodeBlock>(
      sim, channel, static_cast<radio::RadioId>(i + 1), position,
      config_.radio, address_of(i), std::move(node_config),
      config_.seed * 0x9E3779B97F4A7C15ULL + i + 1,
      config_.strategy_factory ? config_.strategy_factory() : nullptr));
  radios_.push_back(&blocks_.back()->radio);
  nodes_.push_back(&blocks_.back()->node);
  make_energy_model(i, sim);
}

std::size_t MeshScenario::add_node(phy::Position position, net::Role role) {
  if (pdes_mode()) {
    LM_REQUIRE(!finalized_);  // the decomposition is frozen on first access
    pending_.push_back(PendingNode{position, role});
    return pending_.size() - 1;
  }
  const std::size_t index = nodes_.size();
  make_node(index, sim_, *channel_, position, role);
  if (tracer_ != nullptr) {
    radios_.back()->set_tracer(tracer_);
    nodes_.back()->set_tracer(tracer_);
    if (!energy_models_.empty()) energy_models_.back()->set_tracer(tracer_);
  }
  return index;
}

void MeshScenario::finalize() {
  if (!pdes_mode() || finalized_) return;
  finalized_ = true;

  std::vector<double> xs;
  std::vector<double> ys;
  xs.reserve(pending_.size());
  ys.reserve(pending_.size());
  for (const PendingNode& p : pending_) {
    xs.push_back(p.position.x);
    ys.push_back(p.position.y);
  }
  halo_m_ = radio::pdes::interaction_radius_m(config_.propagation,
                                               config_.radio);
  partition_ =
      config_.pdes.tile
          ? sim::pdes::TilePartition::make(xs, ys, halo_m_,
                                           config_.pdes.max_regions,
                                           config_.pdes.tile_rows,
                                           config_.pdes.tile_cols)
          : sim::pdes::TilePartition::stripes(xs, halo_m_,
                                              config_.pdes.max_regions);

  const phy::Modulation mods[] = {config_.radio.modulation};
  engine_ = std::make_unique<sim::pdes::ParallelEngine>(
      partition_.count(), config_.pdes.workers,
      sim::pdes::conservative_lookahead(mods));

  // Split seeds: every region shares the serial channel's seed for the
  // keyed (order-free) shadowing/fading draws, so cross-region links see
  // one consistent radio environment; the sequential extra-loss/decode
  // stream gets a per-region seed. Region 0 keeps the serial stream and
  // sequence range, which makes a single-region decomposition
  // draw-for-draw identical to the serial path.
  const std::uint64_t phys_seed = config_.seed ^ 0xC0FFEE;
  channels_.reserve(partition_.count());
  for (std::size_t r = 0; r < partition_.count(); ++r) {
    const std::uint64_t draw_seed =
        r == 0 ? phys_seed : phys_seed ^ (0x9E3779B97F4A7C15ULL * r);
    channels_.push_back(std::make_unique<radio::Channel>(
        engine_->region(r), config_.propagation, config_.channel, phys_seed,
        draw_seed));
    channels_.back()->set_seq_base(static_cast<std::uint64_t>(r) << 48);
  }

  node_region_.reserve(pending_.size());
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const std::size_t r =
        partition_.region_of(pending_[i].position.x, pending_[i].position.y);
    node_region_.push_back(r);
    make_node(i, engine_->region(r), *channels_[r], pending_[i].position,
              pending_[i].role);
  }
  pending_.clear();
  pending_.shrink_to_fit();

  if (partition_.count() > 1) {
    std::vector<radio::Channel*> chans;
    chans.reserve(channels_.size());
    for (auto& c : channels_) chans.push_back(c.get());
    radio::pdes::wire_ghost_exchange(*engine_, chans, partition_, halo_m_);
    engine_->set_barrier_callback([this] { handle_barrier(); });
  }

  if (tracer_ != nullptr) wire_tracers();
}

void MeshScenario::handle_barrier() {
  // Cheap gate: every radio_moved bumps its channel's position-change
  // counter (single-writer: the worker owning the region, read here with
  // all workers parked). Unchanged sum -> nothing moved, no scan.
  std::uint64_t moves = 0;
  for (const auto& c : channels_) moves += c->position_changes();
  if (moves == last_position_changes_) return;
  last_position_changes_ = moves;
  // A node's stack, timers and radio live on its region's loop for the
  // whole run: outside the region it would miss frames the ghost exchange
  // only forwards to the regions a transmission can reach.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const phy::Position pos = radios_[i]->position();
    LM_REQUIRE(partition_.region_of(pos.x, pos.y) == node_region_[i] &&
               "node left its PDES region: use serial or one region");
  }
}

void MeshScenario::wire_tracers() {
  // Single region: one worker at a time touches the tracer, and the
  // engine's submit/wait_idle pair orders it against the main thread — the
  // user's sink can take emissions directly, exactly like serial mode.
  if (channels_.size() <= 1) {
    for (auto& c : channels_) c->set_tracer(tracer_);
    for (auto& radio : radios_) radio->set_tracer(tracer_);
    for (auto& node : nodes_) node->set_tracer(tracer_);
    for (auto& model : energy_models_) model->set_tracer(tracer_);
    return;
  }
  // Multi-region: workers emit concurrently, so each region records into a
  // private sink; merge_region_traces() folds them into the user tracer at
  // quiescent points.
  region_sinks_.reserve(channels_.size());
  region_tracers_.reserve(channels_.size());
  for (std::size_t r = 0; r < channels_.size(); ++r) {
    region_sinks_.push_back(std::make_unique<trace::VectorSink>());
    region_tracers_.push_back(std::make_unique<trace::Tracer>());
    region_tracers_.back()->attach(region_sinks_.back().get());
    channels_[r]->set_tracer(region_tracers_[r].get());
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    trace::Tracer* t = region_tracers_[node_region_[i]].get();
    radios_[i]->set_tracer(t);
    nodes_[i]->set_tracer(t);
    if (!energy_models_.empty()) energy_models_[i]->set_tracer(t);
  }
}

void MeshScenario::merge_region_traces() {
  if (tracer_ == nullptr || region_sinks_.empty()) return;
  merge_scratch_.clear();
  for (auto& sink : region_sinks_) {
    for (const trace::TraceEvent& e : sink->events()) {
      merge_scratch_.push_back(e);
    }
    sink->clear();
  }
  // Each region's stream is time-ordered; region-major concatenation plus a
  // stable sort on the timestamp gives one fixed global tiebreak (time,
  // then region, then each region's own order) at every worker count.
  std::stable_sort(merge_scratch_.begin(), merge_scratch_.end(),
                   [](const trace::TraceEvent& a, const trace::TraceEvent& b) {
                     return a.t_us < b.t_us;
                   });
  for (const trace::TraceEvent& e : merge_scratch_) tracer_->emit(e);
}

void MeshScenario::attach_tracer(trace::Tracer& tracer) {
  tracer_ = &tracer;
  if (pdes_mode()) {
    if (finalized_) wire_tracers();
    return;  // otherwise finalize() wires it
  }
  channel_->set_tracer(tracer_);
  for (auto& radio : radios_) radio->set_tracer(tracer_);
  for (auto& node : nodes_) node->set_tracer(tracer_);
  for (auto& model : energy_models_) model->set_tracer(tracer_);
}

sim::Simulator& MeshScenario::simulator() {
  if (!pdes_mode()) return sim_;
  finalize();
  // A multi-region decomposition has no single clock; node-targeted work
  // belongs on simulator_for(i).
  LM_REQUIRE(channels_.size() <= 1);
  return engine_->region(0);
}

sim::Simulator& MeshScenario::simulator_for(std::size_t i) {
  if (!pdes_mode()) return sim_;
  finalize();
  return engine_->region(node_region_.at(i));
}

TimePoint MeshScenario::now() const {
  if (engine_ != nullptr) return engine_->now();
  return sim_.now();
}

std::size_t MeshScenario::region_count() {
  finalize();
  return engine_ != nullptr ? engine_->regions() : 1;
}

std::uint64_t MeshScenario::events_processed() const {
  if (engine_ != nullptr) return engine_->events_processed();
  return sim_.events_processed();
}

std::uint64_t MeshScenario::pdes_messages_applied() const {
  return engine_ != nullptr ? engine_->messages_applied() : 0;
}

std::uint64_t MeshScenario::pdes_windows_run() const {
  return engine_ != nullptr ? engine_->windows_run() : 0;
}

std::uint64_t MeshScenario::pdes_windows_widened() const { return 0; }

radio::Channel& MeshScenario::channel() {
  if (!pdes_mode()) return *channel_;
  finalize();
  LM_REQUIRE(channels_.size() == 1);  // per-region channels; see header
  return *channels_.front();
}

void MeshScenario::run_until(TimePoint t) {
  if (!pdes_mode()) {
    sim_.run_until(t);
    return;
  }
  finalize();
  engine_->run_until(t);
  merge_region_traces();
}

std::size_t MeshScenario::add_node(phy::Position position) {
  return add_node(position, config_.mesh.role);
}

void MeshScenario::add_nodes(const std::vector<phy::Position>& positions) {
  for (const phy::Position& p : positions) add_node(p);
}

net::Address MeshScenario::address_of(std::size_t i) const {
  LM_REQUIRE(i < 0xFFFE);
  return static_cast<net::Address>(i + 1);
}

std::optional<std::size_t> MeshScenario::index_of(net::Address address) const {
  if (address == net::kUnassigned || address == net::kBroadcast) return std::nullopt;
  const std::size_t index = static_cast<std::size_t>(address) - 1;
  if (index >= nodes_.size()) return std::nullopt;
  return index;
}

void MeshScenario::start_all() {
  finalize();
  for (auto& node : nodes_) node->start();
}

double MeshScenario::pair_link_quality(std::size_t a, std::size_t b) const {
  const radio::VirtualRadio& tx = *radios_.at(a);
  const radio::VirtualRadio& rx = *radios_.at(b);
  if (!pdes_mode()) return channel_->link_quality(tx, rx);
  LM_REQUIRE(finalized_);  // oracle queries need the materialized nodes
  // The receiver's channel answers; a transmitter from another region
  // gets the same physics (Channel::mean_rssi_dbm).
  return channels_[node_region_.at(b)]->link_quality(tx, rx);
}

bool MeshScenario::good_link(std::size_t a, std::size_t b) const {
  constexpr double kGoodLinkQuality = 0.9;  // decode probability, each way
  if (a == b) return false;
  return pair_link_quality(a, b) >= kGoodLinkQuality &&
         pair_link_quality(b, a) >= kGoodLinkQuality;
}

std::vector<std::vector<int>> MeshScenario::expected_hops() const {
  const std::size_t n = nodes_.size();
  auto hops = hop_matrix(n, [&](std::size_t a, std::size_t b) {
    return nodes_[a]->running() && nodes_[b]->running() &&
           good_link(a, b);
  });
  for (std::size_t i = 0; i < n; ++i) {
    if (!nodes_[i]->running()) {
      for (std::size_t j = 0; j < n; ++j) hops[i][j] = hops[j][i] = -1;
    }
  }
  return hops;
}

bool MeshScenario::route_usable(std::size_t from, std::size_t to) const {
  LM_REQUIRE(from < nodes_.size() && to < nodes_.size());
  if (from == to) return true;
  std::size_t cur = from;
  // A loop-free path visits each node at most once.
  for (std::size_t steps = 0; steps < nodes_.size(); ++steps) {
    if (!nodes_[cur]->running()) return false;
    const auto via = nodes_[cur]->routing_table().next_hop(address_of(to));
    if (!via) return false;
    const auto next = index_of(*via);
    if (!next || !nodes_[*next]->running()) return false;
    if (!good_link(cur, *next)) return false;
    if (*next == to) return true;
    cur = *next;
  }
  return false;  // looped
}

bool MeshScenario::converged(bool exact_metric) const {
  const auto expected = expected_hops();
  const std::size_t n = nodes_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (!nodes_[i]->running()) continue;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j || expected[i][j] < 0) continue;
      const auto route = nodes_[i]->routing_table().route_to(address_of(j));
      if (!route) return false;
      if (exact_metric && route->metric != expected[i][j]) return false;
      if (!route_usable(i, j)) return false;
    }
  }
  return true;
}

std::optional<Duration> MeshScenario::run_until_converged(Duration deadline,
                                                          Duration check_every,
                                                          bool exact_metric) {
  LM_REQUIRE(check_every > Duration::zero());
  finalize();
  const TimePoint begin = now();
  const TimePoint limit = begin + deadline;
  while (now() < limit) {
    if (converged(exact_metric)) return now() - begin;
    Duration step = check_every;
    if (now() + step > limit) step = limit - now();
    run_for(step);
  }
  if (converged(exact_metric)) return now() - begin;
  return std::nullopt;
}

std::string MeshScenario::dump_routing_tables() const {
  std::string out;
  for (const auto& node : nodes_) {
    out += node->routing_table().to_string();
  }
  return out;
}

net::NodeStats MeshScenario::total_stats() const {
  net::NodeStats total;
  for (const auto& node : nodes_) total += node->stats();
  return total;
}

}  // namespace lm::testbed
