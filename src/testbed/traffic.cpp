#include "testbed/traffic.h"

#include "support/assert.h"

namespace lm::testbed {

void attach_tracker(MeshScenario& scenario, metrics::PacketTracker& tracker) {
  for (std::size_t i = 0; i < scenario.size(); ++i) {
    net::MeshNode& node = scenario.node(i);
    // The node's own event loop: deliveries fire there, and in a
    // multi-region PDES decomposition its clock is the delivery timestamp.
    sim::Simulator& sim = scenario.simulator_for(i);
    node.set_datagram_handler(
        [&tracker, &sim](net::Address /*origin*/,
                         const std::vector<std::uint8_t>& payload,
                         std::uint8_t hops) {
          const auto token = metrics::PacketTracker::extract_token(payload);
          if (token) tracker.register_delivery(*token, sim.now(), hops);
        });
  }
}

// --- DatagramTraffic ------------------------------------------------------------

DatagramTraffic::DatagramTraffic(MeshScenario& scenario,
                                 metrics::PacketTracker& tracker, std::size_t src,
                                 std::size_t dst, TrafficConfig config,
                                 std::uint64_t seed)
    : scenario_(scenario),
      tracker_(tracker),
      src_(src),
      dst_(dst),
      config_(config),
      rng_(seed) {
  LM_REQUIRE(src != dst);
  LM_REQUIRE(config.payload_size >= 8);
  LM_REQUIRE(config.mean_interval > Duration::zero());
}

DatagramTraffic::~DatagramTraffic() { stop(); }

void DatagramTraffic::start() {
  LM_REQUIRE(!running_);
  running_ = true;
  schedule_next();
}

void DatagramTraffic::stop() {
  running_ = false;
  if (timer_ != 0) {
    scenario_.simulator_for(src_).cancel(timer_);
    timer_ = 0;
  }
}

void DatagramTraffic::schedule_next() {
  const Duration gap =
      config_.poisson
          ? Duration::from_seconds(rng_.exponential(config_.mean_interval.seconds_d()))
          : config_.mean_interval;
  // The flow lives on the source node's event loop, so fire() always runs
  // in the region (and on the worker) that owns the sending node.
  timer_ = scenario_.simulator_for(src_).schedule_after(gap, [this] {
    timer_ = 0;
    fire();
  });
}

void DatagramTraffic::fire() {
  if (!running_) return;
  sends_attempted_++;
  const std::uint64_t token =
      tracker_.register_send(scenario_.simulator_for(src_).now());
  auto payload = metrics::PacketTracker::make_payload(token, config_.payload_size);
  trace::DropReason why = trace::DropReason::None;
  if (!scenario_.node(src_).send_datagram(scenario_.address_of(dst_),
                                          std::move(payload), &why)) {
    tracker_.register_refused(why);
  }
  schedule_next();
}

}  // namespace lm::testbed
