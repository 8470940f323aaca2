#include "net/energy_aware_strategy.h"

#include <cmath>

#include "radio/energy.h"

namespace lm::net {
namespace {

/// Extra advertised hops at 0 % charge; the penalty scales linearly with
/// depth of discharge and saturates below kInfiniteMetric.
constexpr double kMaxPenalty = 4.0;

}  // namespace

std::uint8_t EnergyAwareStrategy::advertised_penalty() const {
  if (ctx_->energy == nullptr) return 0;  // unmetered node: plain DV
  const double soc = ctx_->energy->soc();  // 1.0 for infinite batteries
  const double raw = std::round(kMaxPenalty * (1.0 - soc));
  if (raw <= 0.0) return 0;
  return static_cast<std::uint8_t>(raw);
}

}  // namespace lm::net
