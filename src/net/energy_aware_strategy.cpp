#include "net/energy_aware_strategy.h"

#include <cmath>

#include "radio/energy.h"

namespace lm::net {

std::uint8_t EnergyAwareStrategy::advertised_penalty() const {
  if (ctx_->energy == nullptr) return 0;  // unmetered node: plain DV
  const double soc = ctx_->energy->soc();  // 1.0 for infinite batteries
  const double raw = std::round(max_penalty_ * (1.0 - soc));
  if (raw <= 0.0) return 0;
  return static_cast<std::uint8_t>(raw);
}

}  // namespace lm::net
