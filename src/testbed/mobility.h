// Waypoint mobility for scenario radios.
//
// Moves a radio along a polyline at constant speed, updating its position
// every `tick`. Coarse ticks are fine: propagation is evaluated per frame,
// and LoRa-scale movement (walking/vehicle) changes path loss slowly.
#pragma once

#include <cstddef>
#include <vector>

#include "phy/geometry.h"
#include "radio/virtual_radio.h"
#include "sim/simulator.h"

namespace lm::testbed {

class WaypointMover {
 public:
  /// Starts moving `radio` from its current position through `waypoints`
  /// at `speed_mps`, updating every `tick`. The mover idles at the last
  /// waypoint (query `done()`).
  WaypointMover(sim::Simulator& sim, radio::VirtualRadio& radio,
                std::vector<phy::Position> waypoints, double speed_mps,
                Duration tick = Duration::seconds(1));
  ~WaypointMover();

  WaypointMover(const WaypointMover&) = delete;
  WaypointMover& operator=(const WaypointMover&) = delete;

  void start();
  void stop();

  bool done() const { return next_waypoint_ >= waypoints_.size(); }
  double distance_travelled_m() const { return travelled_m_; }

 private:
  void step();

  sim::Simulator& sim_;
  radio::VirtualRadio& radio_;
  std::vector<phy::Position> waypoints_;
  double speed_mps_;
  Duration tick_;
  std::size_t next_waypoint_ = 0;
  double travelled_m_ = 0.0;
  sim::TimerId timer_ = 0;
  bool running_ = false;
};

}  // namespace lm::testbed
