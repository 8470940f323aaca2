#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "phy/geometry.h"
#include "phy/lora_params.h"
#include "phy/path_loss.h"
#include "phy/reception.h"

namespace lm::phy {
namespace {

TEST(Geometry, Distance) {
  EXPECT_DOUBLE_EQ(distance_m({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance_m({1, 1}, {1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(distance_m({-2, 0}, {2, 0}), 4.0);
}

TEST(PathLoss, FreeSpaceAt1Km868MHz) {
  FreeSpacePathLoss pl(868e6);
  // Friis: 20 log10(4*pi*d*f/c) = 91.2 dB at 1 km.
  EXPECT_NEAR(pl.path_loss_db(1000.0), 91.2, 0.1);
}

TEST(PathLoss, FreeSpaceSlopeIs20DbPerDecade) {
  FreeSpacePathLoss pl(868e6);
  EXPECT_NEAR(pl.path_loss_db(10000.0) - pl.path_loss_db(1000.0), 20.0, 1e-9);
}

TEST(PathLoss, FreeSpaceClampsBelowOneMeter) {
  FreeSpacePathLoss pl(868e6);
  EXPECT_DOUBLE_EQ(pl.path_loss_db(0.0), pl.path_loss_db(1.0));
  EXPECT_DOUBLE_EQ(pl.path_loss_db(0.5), pl.path_loss_db(1.0));
}

TEST(PathLoss, LogDistanceReferencePoint) {
  LogDistancePathLoss pl(3.0, 40.0, 1.0);
  EXPECT_DOUBLE_EQ(pl.path_loss_db(1.0), 40.0);
}

TEST(PathLoss, LogDistanceSlopeMatchesExponent) {
  LogDistancePathLoss pl(3.0, 40.0, 1.0);
  EXPECT_NEAR(pl.path_loss_db(100.0) - pl.path_loss_db(10.0), 30.0, 1e-9);
  LogDistancePathLoss pl2(2.0, 40.0, 1.0);
  EXPECT_NEAR(pl2.path_loss_db(100.0) - pl2.path_loss_db(10.0), 20.0, 1e-9);
}

TEST(PathLoss, CampusModelGivesKilometerScaleSf7Range) {
  // Sanity: with the defaults (n=3, PL(1m)=40 dB) and 14 dBm TX, the RSSI
  // crosses SF7 sensitivity (-123 dBm) somewhere between 300 m and 5 km —
  // the range LoRa campus deployments actually observe.
  LogDistancePathLoss pl;
  const double rssi_300 = 14.0 - pl.path_loss_db(300.0);
  const double rssi_5k = 14.0 - pl.path_loss_db(5000.0);
  EXPECT_GT(rssi_300, sensitivity_dbm(SpreadingFactor::SF7, Bandwidth::BW125));
  EXPECT_LT(rssi_5k, sensitivity_dbm(SpreadingFactor::SF7, Bandwidth::BW125));
}

TEST(LoraParams, SensitivityOrdering) {
  // Higher SF hears deeper; wider BW hears less.
  double prev = 0.0;
  bool first = true;
  for (SpreadingFactor sf : {SpreadingFactor::SF7, SpreadingFactor::SF8,
                             SpreadingFactor::SF9, SpreadingFactor::SF10,
                             SpreadingFactor::SF11, SpreadingFactor::SF12}) {
    const double s = sensitivity_dbm(sf, Bandwidth::BW125);
    if (!first) {
      EXPECT_LT(s, prev);
    }
    prev = s;
    first = false;
    EXPECT_LT(sensitivity_dbm(sf, Bandwidth::BW125),
              sensitivity_dbm(sf, Bandwidth::BW500));
  }
  EXPECT_DOUBLE_EQ(sensitivity_dbm(SpreadingFactor::SF7, Bandwidth::BW125), -123.0);
  EXPECT_DOUBLE_EQ(sensitivity_dbm(SpreadingFactor::SF12, Bandwidth::BW125), -137.0);
}

TEST(LoraParams, SnrFloorsMatchDatasheet) {
  EXPECT_DOUBLE_EQ(snr_floor_db(SpreadingFactor::SF7), -7.5);
  EXPECT_DOUBLE_EQ(snr_floor_db(SpreadingFactor::SF12), -20.0);
  // 2.5 dB per SF step.
  EXPECT_DOUBLE_EQ(snr_floor_db(SpreadingFactor::SF9) -
                       snr_floor_db(SpreadingFactor::SF10), 2.5);
}

TEST(Reception, NoiseFloor125kHz) {
  // -174 + 10log10(125e3) + 6 = -117.03 dBm.
  EXPECT_NEAR(noise_floor_dbm(Bandwidth::BW125), -117.03, 0.01);
  EXPECT_NEAR(noise_floor_dbm(Bandwidth::BW500) - noise_floor_dbm(Bandwidth::BW125),
              6.02, 0.01);
}

TEST(Reception, LookupsMatchTheDirectExpressions) {
  // The noise floor and the largest SIR threshold are tabulated once; each
  // entry must equal its direct expression bit for bit.
  constexpr SpreadingFactor kSfs[] = {
      SpreadingFactor::SF7,  SpreadingFactor::SF8,  SpreadingFactor::SF9,
      SpreadingFactor::SF10, SpreadingFactor::SF11, SpreadingFactor::SF12};
  for (const Bandwidth bw :
       {Bandwidth::BW125, Bandwidth::BW250, Bandwidth::BW500}) {
    for (const double nf : {0.0, 6.0, 4.5}) {
      EXPECT_EQ(noise_floor_dbm(bw, nf),
                -174.0 + 10.0 * std::log10(bandwidth_hz(bw)) + nf);
      EXPECT_EQ(snr_db(-101.3, bw, nf),
                -101.3 - (-174.0 + 10.0 * std::log10(bandwidth_hz(bw)) + nf));
    }
  }
  for (const SpreadingFactor signal : kSfs) {
    double worst = -1e9;
    for (const SpreadingFactor interferer : kSfs) {
      worst = std::max(worst, sir_threshold_db(signal, interferer));
    }
    EXPECT_EQ(max_sir_threshold_db(signal), worst);
  }
}

TEST(Reception, SnrIsRssiMinusNoiseFloor) {
  EXPECT_NEAR(snr_db(-110.0, Bandwidth::BW125), 7.03, 0.01);
}

TEST(Reception, DecodeProbabilityWaterfall) {
  const SpreadingFactor sf = SpreadingFactor::SF7;
  const double floor = snr_floor_db(sf);
  EXPECT_NEAR(decode_probability(floor, sf), 0.5, 1e-9);
  EXPECT_GT(decode_probability(floor + 3.0, sf), 0.99);
  EXPECT_LT(decode_probability(floor - 3.0, sf), 0.01);
  // Strictly monotone.
  double prev = 0.0;
  for (double snr = floor - 10.0; snr <= floor + 10.0; snr += 0.5) {
    const double p = decode_probability(snr, sf);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST(Reception, SirThresholdDiagonalIsCapture) {
  for (SpreadingFactor sf : {SpreadingFactor::SF7, SpreadingFactor::SF9,
                             SpreadingFactor::SF12}) {
    EXPECT_DOUBLE_EQ(sir_threshold_db(sf, sf), 6.0);
  }
}

TEST(Reception, SirThresholdCrossSfIsRejection) {
  // Different SFs are quasi-orthogonal: the signal tolerates interferers
  // well above its own power (negative thresholds).
  for (SpreadingFactor a : {SpreadingFactor::SF7, SpreadingFactor::SF10}) {
    for (SpreadingFactor b : {SpreadingFactor::SF8, SpreadingFactor::SF12}) {
      if (a == b) continue;
      EXPECT_LT(sir_threshold_db(a, b), 0.0);
    }
  }
  // Higher-SF signals reject harder (Croce et al. trend).
  EXPECT_LT(sir_threshold_db(SpreadingFactor::SF12, SpreadingFactor::SF7),
            sir_threshold_db(SpreadingFactor::SF8, SpreadingFactor::SF7));
}

}  // namespace
}  // namespace lm::phy
