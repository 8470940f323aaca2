#include "field.h"

#include <algorithm>

namespace meshbench {

thread_local int ScopedSpan::depth_ = 0;

void NodeSpans::add(const NodeSpans& o) {
  tx.add(o.tx);
  cad.add(o.cad);
  rx.add(o.rx);
  tx_done.add(o.tx_done);
  cad_done.add(o.cad_done);
  send_datagram.add(o.send_datagram);
  send_transport.add(o.send_transport);
  cad_busy += o.cad_busy;
  outer_ns += o.outer_ns;
}

// --- ScenarioField -------------------------------------------------------------

ScenarioField::ScenarioField(const Workload& w, lm::trace::Tracer* tracer)
    : scenario_(w.config) {
  if (tracer != nullptr) scenario_.attach_tracer(*tracer);
  scenario_.add_nodes(w.positions);
}

std::vector<lm::sim::Simulator*> ScenarioField::loops() {
  std::vector<lm::sim::Simulator*> out;
  for (std::size_t i = 0; i < scenario_.size(); ++i) {
    lm::sim::Simulator* s = &scenario_.simulator_for(i);
    if (std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
  }
  return out;
}

PdesCounters ScenarioField::pdes() const {
  return {scenario_.pdes_windows_run(), scenario_.pdes_windows_widened(),
          scenario_.pdes_messages_applied()};
}

std::optional<lm::radio::ChannelStats> ScenarioField::channel_stats() {
  if (scenario_.config().pdes.workers > 0) return std::nullopt;
  return scenario_.channel().stats();
}

double ScenarioField::consumed_mah() {
  double total = 0.0;
  for (std::size_t i = 0; i < scenario_.size(); ++i) {
    if (const lm::radio::EnergyModel* e = scenario_.energy_model(i)) {
      total += e->consumed_mah();
    }
  }
  return total;
}

// --- AssembledField ------------------------------------------------------------

AssembledField::AssembledField(const Workload& w) : config_(w.config) {
  // MeshScenario's serial path: one channel seeded seed ^ 0xC0FFEE.
  channel_ = std::make_unique<lm::radio::Channel>(
      sim_, config_.propagation, config_.channel, config_.seed ^ 0xC0FFEE);
  spans_.resize(w.positions.size());
  for (std::size_t i = 0; i < w.positions.size(); ++i) add_node(i, w.positions[i]);
}

AssembledField::~AssembledField() {
  // Nodes reference radios, energy models meter radios, radios reference
  // the channel: destroy in that order.
  nodes_.clear();
  energy_.clear();
  timed_.clear();
  radios_.clear();
  channel_.reset();
}

void AssembledField::add_node(std::size_t i, const lm::phy::Position& p) {
  const auto address = static_cast<lm::net::Address>(i + 1);
  radios_.push_back(std::make_unique<lm::radio::VirtualRadio>(
      sim_, *channel_, static_cast<lm::radio::RadioId>(i + 1), p, config_.radio));
  timed_.push_back(std::make_unique<TimedRadio>(*radios_.back(), spans_[i]));
  nodes_.push_back(std::make_unique<lm::net::MeshNode>(
      sim_, *timed_.back(), address, config_.mesh,
      config_.seed * 0x9E3779B97F4A7C15ULL + i + 1, nullptr));
  if (config_.energy.enabled) {
    energy_.push_back(
        std::make_unique<lm::radio::EnergyModel>(sim_, config_.energy, address));
    energy_.back()->attach(*radios_.back());
    energy_.back()->set_brownout([this, i] { nodes_[i]->stop(); });
    nodes_.back()->set_energy_model(energy_.back().get());
  }
}

void AssembledField::start_all() {
  for (auto& node : nodes_) node->start();
}

double AssembledField::consumed_mah() {
  double total = 0.0;
  for (const auto& e : energy_) total += e->consumed_mah();
  return total;
}

}  // namespace meshbench
