// EnergyAwareStrategy — distance-vector routing with residual-energy-
// penalized link costs (the energy-aware metric family surveyed in the
// related work; the wire format is unchanged ROUTING beacons).
//
// The node inflates the metrics it advertises for every destination it
// would *relay* to (its own entry stays at 0, so the node remains directly
// reachable) by up to 4 hops as its battery drains:
//
//   penalty = round(4 * (1 - state_of_charge))
//
// Neighbors then prefer detours around low-battery relays exactly through
// the normal RIP merge — no new packet types, no extra state. With an
// infinite battery (or no EnergyModel attached) the penalty is zero and
// the strategy is wire- and byte-identical to DistanceVectorStrategy.
#pragma once

#include "net/distance_vector_strategy.h"

namespace lm::net {

class EnergyAwareStrategy final : public DistanceVectorStrategy {
 public:
  const char* name() const override { return "energy-aware"; }

  std::uint8_t advertised_penalty() const override;
};

}  // namespace lm::net
