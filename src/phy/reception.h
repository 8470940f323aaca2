// Reception and interference model.
//
// Decodability of a LoRa frame depends on (1) absolute signal level vs the
// receiver's sensitivity, (2) SNR vs the per-SF demodulation floor, and
// (3) co-channel interference vs the capture threshold. This header holds
// the pure computations; the radio::Channel applies them to concrete
// overlapping transmissions.
//
// The interference rules follow the model used by LoRaSim and by Croce et
// al., "Impact of LoRa imperfect orthogonality" (IEEE Comm. Letters 2018):
// a frame survives a co-SF interferer if it is at least 6 dB stronger (the
// capture effect), and survives a different-SF interferer — spreading
// factors are only *quasi*-orthogonal — if it clears the SIR threshold in
// the Croce matrix (large negative values: strong rejection).
#pragma once

#include "phy/lora_params.h"

namespace lm::phy {

/// Thermal noise floor for the given bandwidth, in dBm:
/// -174 dBm/Hz + 10 log10(BW) + receiver noise figure (6 dB for SX1276).
double noise_floor_dbm(Bandwidth bw, double noise_figure_db = 6.0);

/// SNR (dB) seen by a receiver for a signal of `rssi_dbm`.
double snr_db(double rssi_dbm, Bandwidth bw, double noise_figure_db = 6.0);

/// Minimum signal-to-interference ratio (dB) for a frame at `signal_sf` to
/// survive an interferer at `interferer_sf` on the same carrier.
/// Diagonal (co-SF) entries are +6 dB (capture threshold); off-diagonal
/// entries are negative (quasi-orthogonality rejection).
double sir_threshold_db(SpreadingFactor signal_sf, SpreadingFactor interferer_sf);

/// Largest SIR threshold a frame at `signal_sf` faces across all interferer
/// SFs (the co-SF capture threshold in practice). An interferer weaker than
/// signal_rssi - this value can never destroy the frame, which is the bound
/// the channel's spatial index uses to cull interference candidates.
double max_sir_threshold_db(SpreadingFactor signal_sf);

/// The most forgiving receiver sensitivity across all SF/BW combinations
/// (SF12 at 125 kHz). Any frame below this at a receiver is undecodable in
/// every configuration — the global floor for carrier-sense culling.
double min_sensitivity_dbm();

/// Probability that an interference-free frame decodes, given its SNR.
///
/// Deterministic thresholding (decode iff SNR >= floor) makes links binary
/// and hides the gray zone real deployments show; we instead use a logistic
/// transition centered on the demodulation floor whose width matches
/// measured LoRa PER-vs-SNR curves: ~0.5 at the floor, > 0.99 at +2 dB,
/// < 0.01 at -2 dB margin.
double decode_probability(double snr_db, SpreadingFactor sf);

}  // namespace lm::phy
