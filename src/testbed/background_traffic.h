// Background interference: a co-located LoRaWAN deployment sharing the
// channel.
//
// Real LoRa mesh networks do not get a clean band — LoRaWAN sensors,
// trackers and meters transmit on the same frequencies. This generator
// models that population: independent virtual transmitters scattered over
// an area, each firing Poisson-timed uplinks with LoRaWAN-like payload
// sizes and (optionally) mixed spreading factors. They never listen —
// class-A devices are pure ALOHA — so to the mesh they are pure
// interference. E13 measures what that does to delivery.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "radio/channel.h"
#include "radio/virtual_radio.h"
#include "sim/simulator.h"
#include "support/rng.h"

namespace lm::testbed {

struct BackgroundConfig {
  std::size_t devices = 10;
  /// Mean time between uplinks per device (Poisson).
  Duration mean_uplink_interval = Duration::minutes(10);
  /// Area the devices are scattered over.
  double area_width_m = 2000.0;
  double area_height_m = 2000.0;
  /// When true, devices use SF7..SF12 uniformly (quasi-orthogonal to the
  /// mesh's SF); when false, all use the mesh's own SF (worst case).
  bool mixed_spreading_factors = false;
  radio::RadioConfig radio;  // frequency/power template
};

class BackgroundTraffic {
 public:
  /// Radio ids 0x8000+i are claimed for the background devices.
  BackgroundTraffic(sim::Simulator& sim, radio::Channel& channel,
                    BackgroundConfig config, std::uint64_t seed);
  ~BackgroundTraffic();

  BackgroundTraffic(const BackgroundTraffic&) = delete;
  BackgroundTraffic& operator=(const BackgroundTraffic&) = delete;

  void start();
  void stop();

  std::uint64_t uplinks_sent() const { return uplinks_sent_; }
  /// Total airtime the background population injected.
  Duration airtime_injected() const;

 private:
  void schedule_uplink(std::size_t device);

  sim::Simulator& sim_;
  BackgroundConfig config_;
  Rng rng_;
  std::vector<std::unique_ptr<radio::VirtualRadio>> devices_;
  std::vector<sim::TimerId> timers_;
  bool running_ = false;
  std::uint64_t uplinks_sent_ = 0;
};

}  // namespace lm::testbed
