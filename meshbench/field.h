// The node fields the benchmark drives, and the per-layer span probes.
//
// Field is the narrow surface the traffic generator and the pass runner
// need. Two implementations build the same deployment:
//  * ScenarioField wraps testbed::MeshScenario, the public path a user
//    takes. The end-to-end pass and the flight-recorder pass use it.
//  * AssembledField wires simulator, channel, VirtualRadios, energy models
//    and MeshNodes by hand, exactly as MeshScenario's serial path does (same
//    channel seed and per-node seeds), and puts a TimedRadio between every
//    node and its radio. The traced pass uses it; its deterministic counters
//    must equal the untraced pass's, which proves the decorator measures the
//    same program.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "net/mesh_node.h"
#include "radio/channel.h"
#include "radio/energy.h"
#include "radio/radio_interface.h"
#include "radio/virtual_radio.h"
#include "sim/simulator.h"
#include "testbed/scenario.h"
#include "trace/trace_sink.h"
#include "workload.h"

namespace meshbench {

/// Calls into one layer boundary and the wall time spent inside them.
struct SpanStat {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;

  void add(const SpanStat& o) {
    calls += o.calls;
    ns += o.ns;
  }
  double mean_ns() const {
    return calls == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(calls);
  }
};

/// Span totals of one node.
struct NodeSpans {
  SpanStat tx;              // Radio::transmit
  SpanStat cad;             // Radio::start_cad
  SpanStat rx;              // RadioListener::on_frame_received
  SpanStat tx_done;         // RadioListener::on_tx_done
  SpanStat cad_done;        // RadioListener::on_cad_done
  SpanStat send_datagram;   // MeshNode::send_datagram
  SpanStat send_transport;  // MeshNode::send_acked / send_reliable
  std::uint64_t cad_busy = 0;
  /// Time inside outermost spans only: what the engine's self time
  /// excludes. Nested spans (a transmit inside on_cad_done) count once.
  std::int64_t outer_ns = 0;

  void add(const NodeSpans& o);
};

/// Times one call into a layer. Spans nest; the thread-local depth tells
/// the outermost one, whose duration also goes to NodeSpans::outer_ns.
class ScopedSpan {
 public:
  ScopedSpan(SpanStat& stat, NodeSpans& node)
      : stat_(stat), node_(node), start_(std::chrono::steady_clock::now()) {
    ++depth_;
  }
  ~ScopedSpan() {
    const std::int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                std::chrono::steady_clock::now() - start_)
                                .count();
    ++stat_.calls;
    stat_.ns += ns;
    if (--depth_ == 0) node_.outer_ns += ns;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  static thread_local int depth_;
  SpanStat& stat_;
  NodeSpans& node_;
  std::chrono::steady_clock::time_point start_;
};

/// Timing decorator between a MeshNode and its VirtualRadio. It is the
/// node's Radio and the radio's RadioListener, and forwards every call
/// unchanged, so the simulation is the same event for event.
class TimedRadio final : public lm::radio::Radio, public lm::radio::RadioListener {
 public:
  TimedRadio(lm::radio::VirtualRadio& inner, NodeSpans& spans)
      : inner_(inner), spans_(spans) {}
  TimedRadio(const TimedRadio&) = delete;
  TimedRadio& operator=(const TimedRadio&) = delete;

  // Radio, called by the node.
  void set_listener(lm::radio::RadioListener* listener) override {
    listener_ = listener;
    inner_.set_listener(listener != nullptr ? this : nullptr);
  }
  void start_receive() override { inner_.start_receive(); }
  void standby() override { inner_.standby(); }
  void sleep() override { inner_.sleep(); }
  bool transmit(std::span<const std::uint8_t> frame) override {
    ScopedSpan span(spans_.tx, spans_);
    return inner_.transmit(frame);
  }
  bool start_cad() override {
    ScopedSpan span(spans_.cad, spans_);
    return inner_.start_cad();
  }
  bool medium_busy() const override { return inner_.medium_busy(); }
  lm::radio::RadioState state() const override { return inner_.state(); }
  const lm::phy::Modulation& modulation() const override {
    return inner_.modulation();
  }

  // RadioListener, called by the radio.
  void on_frame_received(std::span<const std::uint8_t> frame,
                         const lm::radio::FrameMeta& meta) override {
    ScopedSpan span(spans_.rx, spans_);
    listener_->on_frame_received(frame, meta);
  }
  void on_tx_done() override {
    ScopedSpan span(spans_.tx_done, spans_);
    listener_->on_tx_done();
  }
  void on_cad_done(bool channel_active) override {
    if (channel_active) ++spans_.cad_busy;
    ScopedSpan span(spans_.cad_done, spans_);
    listener_->on_cad_done(channel_active);
  }

 private:
  lm::radio::VirtualRadio& inner_;
  NodeSpans& spans_;
  lm::radio::RadioListener* listener_ = nullptr;
};

struct PdesCounters {
  std::uint64_t windows = 0;
  std::uint64_t widened = 0;
  std::uint64_t messages = 0;
};

class Field {
 public:
  virtual ~Field() = default;

  virtual std::size_t size() const = 0;
  virtual lm::net::MeshNode& node(std::size_t i) = 0;
  /// The event loop owning node i; schedule node-targeted work here.
  virtual lm::sim::Simulator& simulator_for(std::size_t i) = 0;
  virtual void start_all() = 0;
  virtual void run_until(TimePoint t) = 0;
  virtual std::uint64_t events() const = 0;
  /// Event loops in the field (one per PDES region; one when serial).
  virtual std::vector<lm::sim::Simulator*> loops() = 0;
  virtual PdesCounters pdes() const = 0;
  /// Summed over every region's channel; nullopt where the field does not
  /// expose it (MeshScenario's per-region channels in PDES mode).
  virtual std::optional<lm::radio::ChannelStats> channel_stats() = 0;
  /// Total metered draw in mAh; 0 when energy metering is off.
  virtual double consumed_mah() = 0;
  /// Span probes of node i; null on an untimed field.
  virtual NodeSpans* spans(std::size_t /*i*/) { return nullptr; }
};

class ScenarioField final : public Field {
 public:
  /// `tracer` (may be null) is attached before the first node is added and
  /// must outlive the field.
  ScenarioField(const Workload& w, lm::trace::Tracer* tracer);

  std::size_t size() const override { return scenario_.size(); }
  lm::net::MeshNode& node(std::size_t i) override { return scenario_.node(i); }
  lm::sim::Simulator& simulator_for(std::size_t i) override {
    return scenario_.simulator_for(i);
  }
  void start_all() override { scenario_.start_all(); }
  void run_until(TimePoint t) override { scenario_.run_until(t); }
  std::uint64_t events() const override { return scenario_.events_processed(); }
  std::vector<lm::sim::Simulator*> loops() override;
  PdesCounters pdes() const override;
  std::optional<lm::radio::ChannelStats> channel_stats() override;
  double consumed_mah() override;

 private:
  lm::testbed::MeshScenario scenario_;
};

class AssembledField final : public Field {
 public:
  explicit AssembledField(const Workload& w);
  ~AssembledField() override;

  std::size_t size() const override { return nodes_.size(); }
  lm::net::MeshNode& node(std::size_t i) override { return *nodes_.at(i); }
  lm::sim::Simulator& simulator_for(std::size_t /*i*/) override { return sim_; }
  void start_all() override;
  void run_until(TimePoint t) override { sim_.run_until(t); }
  std::uint64_t events() const override { return sim_.events_processed(); }
  std::vector<lm::sim::Simulator*> loops() override { return {&sim_}; }
  PdesCounters pdes() const override { return {}; }
  std::optional<lm::radio::ChannelStats> channel_stats() override {
    return channel_->stats();
  }
  double consumed_mah() override;
  NodeSpans* spans(std::size_t i) override { return &spans_.at(i); }

 private:
  void add_node(std::size_t i, const lm::phy::Position& p);

  lm::testbed::ScenarioConfig config_;
  lm::sim::Simulator sim_;
  std::unique_ptr<lm::radio::Channel> channel_;
  std::vector<NodeSpans> spans_;
  std::vector<std::unique_ptr<lm::radio::VirtualRadio>> radios_;
  std::vector<std::unique_ptr<TimedRadio>> timed_;
  std::vector<std::unique_ptr<lm::net::MeshNode>> nodes_;
  std::vector<std::unique_ptr<lm::radio::EnergyModel>> energy_;
};

}  // namespace meshbench
