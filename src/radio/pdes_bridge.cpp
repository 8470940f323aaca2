#include "radio/pdes_bridge.h"

#include <memory>
#include <vector>

#include "phy/reception.h"
#include "support/assert.h"

namespace lm::radio::pdes {

namespace {

// Mirrors the ±4-sigma truncation the Channel applies to shadowing and
// fading draws (channel.cpp); the clamp is what turns a log-normal tail
// into a hard interaction radius.
constexpr double kSigmaClamp = 4.0;

// A transmission snapshot that owns its frame bytes, shared by the posted
// closure (std::function requires copyability; the shared_ptr keeps the
// span's target stable across copies).
struct GhostRecord {
  TxSnapshot snapshot;
  std::vector<std::uint8_t> bytes;
};

}  // namespace

double interaction_radius_m(const PropagationConfig& prop,
                            const RadioConfig& radio) {
  LM_REQUIRE(prop.path_loss != nullptr);
  const double margin_db =
      kSigmaClamp * (prop.shadowing_sigma_db + prop.fading_sigma_db);
  // EIRP + receive antenna gain + stochastic headroom against the most
  // favorable decode threshold: sensitivity relaxed by the 6 dB co-SF
  // capture allowance (an interferer this far out can still not destroy a
  // frame that clears capture by less than 6 dB).
  const double budget_db =
      radio.tx_power_dbm + 2.0 * radio.antenna_gain_db + margin_db -
      (phy::sensitivity_dbm(radio.modulation.sf, radio.modulation.bw) - 6.0);
  return prop.path_loss->max_range_m(budget_db);
}

void wire_ghost_exchange(sim::pdes::ParallelEngine& engine,
                         std::span<Channel* const> channels,
                         const sim::pdes::TilePartition& partition,
                         double halo_m) {
  LM_REQUIRE(channels.size() == engine.regions());
  LM_REQUIRE(partition.count() == engine.regions());
  LM_REQUIRE(halo_m > 0.0);
  if (engine.regions() <= 1) return;  // nothing to exchange

  const std::vector<Channel*> chans(channels.begin(), channels.end());
  const std::size_t cols = partition.cols();
  for (std::size_t r = 0; r < chans.size(); ++r) {
    // The observer runs on whichever worker is executing region r's window
    // — exactly the single writer the engine licenses for outbox r.
    chans[r]->set_tx_observer(
        [&engine, chans, partition, halo_m, cols, r](const TxSnapshot& s) {
          // Tiles are >= one halo on both axes, so the reachable block is
          // at most 3x3 around the transmitter's tile (8-neighborhood).
          const std::size_t c_lo = partition.col_of(s.tx_pos.x - halo_m);
          const std::size_t c_hi = partition.col_of(s.tx_pos.x + halo_m);
          const std::size_t r_lo = partition.row_of(s.tx_pos.y - halo_m);
          const std::size_t r_hi = partition.row_of(s.tx_pos.y + halo_m);
          if (c_lo == c_hi && r_lo == r_hi &&
              r_lo * cols + c_lo == r) {
            return;  // halo stays inside the tile
          }
          auto rec = std::make_shared<GhostRecord>();
          rec->snapshot = s;
          rec->bytes.assign(s.frame.begin(), s.frame.end());
          rec->snapshot.frame = rec->bytes;
          engine.post(r, [chans, rec, cols, c_lo, c_hi, r_lo, r_hi, r] {
            // Row-major injection order: with one row this is exactly the
            // stripe exchange's lo..hi sweep.
            for (std::size_t row = r_lo; row <= r_hi; ++row) {
              for (std::size_t col = c_lo; col <= c_hi; ++col) {
                const std::size_t tgt = row * cols + col;
                if (tgt != r) chans[tgt]->inject_ghost(rec->snapshot);
              }
            }
          });
        });
  }
}

}  // namespace lm::radio::pdes
