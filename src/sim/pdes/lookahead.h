// Conservative lookahead derivation from LoRa airtime.
//
// A conservative PDES engine may run every region independently for a
// window of L simulated time iff no event executed inside the window can
// affect another region earlier than L after the window opens. For a LoRa
// channel the earliest cross-region effect of any event is the *end* of a
// transmission it starts (ghost interference presence is relaxed to
// barrier granularity — see DESIGN.md): a frame that starts at t cannot be
// delivered anywhere before t + time_on_air, and time_on_air is bounded
// below by the preamble alone (programmed symbols + 4.25 sync symbols —
// 12.544 ms at SF7/125 kHz, growing with SF).
//
// The protocol physics is what makes this generous: LoRa's long airtimes
// give windows 4-6 orders of magnitude above the microsecond event grid.
#pragma once

#include <span>

#include "phy/lora_params.h"
#include "support/time.h"

namespace lm::sim::pdes {

/// Lookahead for a channel whose traffic uses any of `modulations`: the
/// minimum preamble time over the set. Requires a non-empty set.
Duration conservative_lookahead(std::span<const phy::Modulation> modulations);

}  // namespace lm::sim::pdes
