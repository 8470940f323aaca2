#include "testbed/background_traffic.h"

#include "support/assert.h"

namespace lm::testbed {
namespace {

/// Uplink payload size range (uniform), LoRaWAN-typical.
constexpr std::int64_t kMinPayload = 12;
constexpr std::int64_t kMaxPayload = 51;

}  // namespace

BackgroundTraffic::BackgroundTraffic(sim::Simulator& sim, radio::Channel& channel,
                                     BackgroundConfig config, std::uint64_t seed)
    : sim_(sim), config_(std::move(config)), rng_(seed) {
  LM_REQUIRE(config_.devices > 0);
  LM_REQUIRE(config_.mean_uplink_interval > Duration::zero());
  for (std::size_t i = 0; i < config_.devices; ++i) {
    radio::RadioConfig rc = config_.radio;
    if (config_.mixed_spreading_factors) {
      rc.modulation.sf =
          static_cast<phy::SpreadingFactor>(rng_.uniform_int(7, 12));
    }
    devices_.push_back(std::make_unique<radio::VirtualRadio>(
        sim_, channel, static_cast<radio::RadioId>(0x8000 + i),
        phy::Position{rng_.uniform(0.0, config_.area_width_m),
                      rng_.uniform(0.0, config_.area_height_m)},
        rc));
  }
  timers_.resize(config_.devices, 0);
}

BackgroundTraffic::~BackgroundTraffic() { stop(); }

void BackgroundTraffic::start() {
  LM_REQUIRE(!running_);
  running_ = true;
  for (std::size_t i = 0; i < devices_.size(); ++i) schedule_uplink(i);
}

void BackgroundTraffic::stop() {
  running_ = false;
  for (sim::TimerId& t : timers_) {
    if (t != 0) {
      sim_.cancel(t);
      t = 0;
    }
  }
}

void BackgroundTraffic::schedule_uplink(std::size_t device) {
  const Duration gap = Duration::from_seconds(
      rng_.exponential(config_.mean_uplink_interval.seconds_d()));
  timers_[device] = sim_.schedule_after(gap, [this, device] {
    timers_[device] = 0;
    if (!running_) return;
    const auto size =
        static_cast<std::size_t>(rng_.uniform_int(kMinPayload, kMaxPayload));
    // Class-A ALOHA: fire blindly; the radio refuses only if still mid-TX
    // (possible at extreme rates — the uplink is then simply skipped).
    if (devices_[device]->transmit(std::vector<std::uint8_t>(size, 0x5A))) {
      uplinks_sent_++;
    }
    schedule_uplink(device);
  });
}

Duration BackgroundTraffic::airtime_injected() const {
  Duration total = Duration::zero();
  for (const auto& d : devices_) total += d->time_in_state(radio::RadioState::Tx);
  return total;
}

}  // namespace lm::testbed
