// Application traffic generators wired to a PacketTracker.
//
// DatagramTraffic emits fixed-size datagrams from one node to another on a
// periodic or Poisson schedule; every send registers with the tracker and
// the payload carries the tracker token, so deliveries at the destination
// close the loop. attach_tracker() installs the matching delivery handler
// on every node of a scenario.
#pragma once

#include <cstdint>
#include <vector>

#include "metrics/packet_tracker.h"
#include "sim/simulator.h"
#include "support/rng.h"
#include "testbed/scenario.h"

namespace lm::testbed {

/// Installs datagram handlers on all current nodes of `scenario` that report
/// token-carrying payloads to `tracker`. Call after add_node()s, before
/// traffic starts. The tracker must outlive the scenario run.
void attach_tracker(MeshScenario& scenario, metrics::PacketTracker& tracker);

struct TrafficConfig {
  Duration mean_interval = Duration::seconds(30);
  std::size_t payload_size = 16;  // >= 8 (token)
  bool poisson = true;            // false: fixed period
};

/// One unidirectional datagram flow inside a MeshScenario.
class DatagramTraffic {
 public:
  DatagramTraffic(MeshScenario& scenario, metrics::PacketTracker& tracker,
                  std::size_t src, std::size_t dst, TrafficConfig config,
                  std::uint64_t seed);
  ~DatagramTraffic();

  DatagramTraffic(const DatagramTraffic&) = delete;
  DatagramTraffic& operator=(const DatagramTraffic&) = delete;

  void start();
  void stop();

  std::uint64_t sends_attempted() const { return sends_attempted_; }

 private:
  void schedule_next();
  void fire();

  MeshScenario& scenario_;
  metrics::PacketTracker& tracker_;
  const std::size_t src_;
  const std::size_t dst_;
  TrafficConfig config_;
  Rng rng_;
  bool running_ = false;
  sim::TimerId timer_ = 0;
  std::uint64_t sends_attempted_ = 0;
};

}  // namespace lm::testbed
