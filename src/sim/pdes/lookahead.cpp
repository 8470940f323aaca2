#include "sim/pdes/lookahead.h"

#include "phy/airtime.h"
#include "support/assert.h"

namespace lm::sim::pdes {

Duration conservative_lookahead(std::span<const phy::Modulation> modulations) {
  LM_REQUIRE(!modulations.empty());
  Duration min_preamble = Duration::max();
  for (const phy::Modulation& mod : modulations) {
    const Duration p = phy::preamble_time(mod);
    if (p < min_preamble) min_preamble = p;
  }
  return min_preamble;
}

}  // namespace lm::sim::pdes
