// Adapts radio Channels onto the conservative PDES engine.
//
// The engine (sim/pdes/parallel_engine.h) is protocol-agnostic: regions
// exchange opaque timestamped closures. This bridge gives those closures
// radio semantics:
//
//  * interaction_radius_m — the halo: the distance beyond which no frame
//    can influence a receiver even with every stochastic term at its
//    +4-sigma clamp and the 6 dB co-SF capture allowance in its favor.
//    Feeds the stripe partition (a region must be at least this wide) and
//    bounds which regions a transmission's ghost must visit.
//
//  * wire_ghost_exchange — installs a tx observer on every region's
//    Channel. When a radio transmits, the observer (running on the worker
//    that owns the region's window) snapshots the transmission, determines
//    which neighboring tiles its halo reaches (at most the 8-neighborhood:
//    tiles are >= one halo on both axes, so the reachable row/column
//    ranges span <= 3 each), and posts one closure to the engine's
//    per-region outbox. At the barrier the closure replays the transmission
//    into each reachable neighbor Channel as a *ghost*
//    (Channel::inject_ghost): it occupies the air there for collision and
//    CAD purposes and is evaluated against that region's radios at its
//    exact end time, but emits no duplicate TxStart/TxEnd trace and counts
//    no duplicate frames_transmitted. Ghosts are injected in row-major
//    region-id order, so a 1-row tiling reproduces the stripe exchange
//    order bit-for-bit.
//
// Timing: deliveries happen at the frame's end. The engine's lookahead is
// the minimum preamble airtime, and every frame's airtime is at least its
// preamble, so a frame starting inside window [w0, w1) ends at or after w1
// — the barrier always runs before the ghost's end time, which is what
// makes injection (schedule_at end >= now) legal and deliveries *exact*.
// What is allowed to lag one window is only the ghost's presence as a
// carrier for CAD and interference queries; that staleness is a function of
// the window grid, which derives from event timestamps alone, so it is
// identical at every worker count, and bounded by one window: a boundary
// frame that starts inside a window reaches neighbor carrier queries at the
// next barrier, at most one preamble airtime after its start.
#pragma once

#include <cstddef>
#include <span>

#include "radio/channel.h"
#include "radio/radio_types.h"
#include "sim/pdes/parallel_engine.h"
#include "sim/pdes/region_partition.h"

namespace lm::radio::pdes {

/// Worst-case interaction range of one `radio` config under `prop`:
/// max_range_m of (EIRP + rx gain + 4 sigma of shadowing+fading headroom
/// - (sensitivity - 6 dB capture allowance)). Beyond this distance a frame
/// can neither decode nor destroy another frame at a receiver.
double interaction_radius_m(const PropagationConfig& prop,
                            const RadioConfig& radio);

/// Installs tx observers on every region channel so transmissions ghost
/// into each neighboring region their halo reaches. `channels[r]` must be
/// the Channel running on `engine.region(r)` with r the partition's
/// row-major region id; `halo_m` is the interaction radius the partition
/// was built with.
void wire_ghost_exchange(sim::pdes::ParallelEngine& engine,
                         std::span<Channel* const> channels,
                         const sim::pdes::TilePartition& partition,
                         double halo_m);

}  // namespace lm::radio::pdes
