#include "phy/reception.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "support/assert.h"

namespace lm::phy {

namespace {

// Croce et al. 2018, table I (co-channel SIR thresholds, dB). Rows: signal
// SF7..SF12; columns: interferer SF7..SF12. Diagonal = capture threshold.
constexpr double kSirMatrix[6][6] = {
    //        i=SF7   SF8    SF9    SF10   SF11   SF12
    /*SF7*/ {6.0, -8.0, -9.0, -9.0, -9.0, -9.0},
    /*SF8*/ {-11.0, 6.0, -11.0, -12.0, -13.0, -13.0},
    /*SF9*/ {-15.0, -13.0, 6.0, -13.0, -14.0, -15.0},
    /*SF10*/ {-19.0, -18.0, -17.0, 6.0, -17.0, -18.0},
    /*SF11*/ {-22.0, -22.0, -21.0, -20.0, 6.0, -20.0},
    /*SF12*/ {-25.0, -25.0, -25.0, -24.0, -23.0, 6.0},
};

// Row maxima of kSirMatrix, folded once: the channel asks for one per
// candidate reception.
constexpr std::array<double, 6> kMaxSir = [] {
  std::array<double, 6> worst{};
  for (std::size_t row = 0; row < 6; ++row) {
    worst[row] = *std::max_element(std::begin(kSirMatrix[row]),
                                   std::end(kSirMatrix[row]));
  }
  return worst;
}();

std::size_t sf_row(SpreadingFactor sf) {
  const int row = sf_value(sf) - 7;
  LM_ASSERT(row >= 0 && row < 6);
  return static_cast<std::size_t>(row);
}

}  // namespace

double noise_floor_dbm(Bandwidth bw, double noise_figure_db) {
  // -174 dBm/Hz + 10 log10(BW) per bandwidth, computed once: the channel
  // asks for one per candidate reception.
  static const std::array<double, 3> kThermalDbm = [] {
    std::array<double, 3> floor{};
    for (std::size_t i = 0; i < floor.size(); ++i) {
      floor[i] =
          -174.0 + 10.0 * std::log10(bandwidth_hz(static_cast<Bandwidth>(i)));
    }
    return floor;
  }();
  const auto i = static_cast<std::size_t>(bw);
  LM_ASSERT(i < kThermalDbm.size());
  return kThermalDbm[i] + noise_figure_db;
}

double snr_db(double rssi_dbm, Bandwidth bw, double noise_figure_db) {
  return rssi_dbm - noise_floor_dbm(bw, noise_figure_db);
}

double sir_threshold_db(SpreadingFactor signal_sf, SpreadingFactor interferer_sf) {
  return kSirMatrix[sf_row(signal_sf)][sf_row(interferer_sf)];
}

double max_sir_threshold_db(SpreadingFactor signal_sf) {
  return kMaxSir[sf_row(signal_sf)];
}

double min_sensitivity_dbm() {
  double floor = 0.0;
  for (int sf = 7; sf <= 12; ++sf) {
    for (int bw = 0; bw <= 2; ++bw) {
      floor = std::min(floor,
                       sensitivity_dbm(static_cast<SpreadingFactor>(sf),
                                       static_cast<Bandwidth>(bw)));
    }
  }
  return floor;
}

double decode_probability(double snr, SpreadingFactor sf) {
  // Logistic PER curve centered on the demodulation floor. Slope 2.2/dB
  // puts the 1 %..99 % transition inside a ~4 dB window, matching measured
  // SX1276 waterfall curves.
  constexpr double kSlopePerDb = 2.2;
  const double margin = snr - snr_floor_db(sf);
  return 1.0 / (1.0 + std::exp(-kSlopePerDb * margin));
}

}  // namespace lm::phy
