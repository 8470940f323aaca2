#include "testbed/mobility.h"

#include <cmath>

#include "support/assert.h"

namespace lm::testbed {

WaypointMover::WaypointMover(sim::Simulator& sim, radio::VirtualRadio& radio,
                             std::vector<phy::Position> waypoints,
                             double speed_mps, Duration tick)
    : sim_(sim),
      radio_(radio),
      waypoints_(std::move(waypoints)),
      speed_mps_(speed_mps),
      tick_(tick) {
  LM_REQUIRE(speed_mps > 0.0);
  LM_REQUIRE(tick > Duration::zero());
}

WaypointMover::~WaypointMover() { stop(); }

void WaypointMover::start() {
  LM_REQUIRE(!running_);
  running_ = true;
  timer_ = sim_.schedule_after(tick_, [this] { step(); });
}

void WaypointMover::stop() {
  running_ = false;
  if (timer_ != 0) {
    sim_.cancel(timer_);
    timer_ = 0;
  }
}

void WaypointMover::step() {
  timer_ = 0;
  if (!running_) return;
  double budget_m = speed_mps_ * tick_.seconds_d();
  phy::Position pos = radio_.position();
  while (budget_m > 0.0 && next_waypoint_ < waypoints_.size()) {
    const phy::Position& target = waypoints_[next_waypoint_];
    const double dist = phy::distance_m(pos, target);
    if (dist <= budget_m) {
      pos = target;
      budget_m -= dist;
      travelled_m_ += dist;
      ++next_waypoint_;
      continue;
    }
    const double frac = budget_m / dist;
    pos.x += (target.x - pos.x) * frac;
    pos.y += (target.y - pos.y) * frac;
    travelled_m_ += budget_m;
    budget_m = 0.0;
  }
  radio_.set_position(pos);
  if (!done()) {
    timer_ = sim_.schedule_after(tick_, [this] { step(); });
  }
}

}  // namespace lm::testbed
