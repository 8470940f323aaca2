// The shared radio medium connecting all VirtualRadios of a scenario.
//
// Responsibilities:
//  * propagation — per-link mean RSSI from the path-loss model plus static
//    log-normal shadowing (sampled once per link) and per-packet fading;
//  * delivery — when a transmission ends, decide for every candidate
//    receiver whether the frame decodes (sensitivity, SNR waterfall,
//    collision/capture against overlapping transmissions);
//  * carrier sensing — answer CAD queries;
//  * scripted impairments — the testbed can block links or add loss to
//    reproduce topology experiments regardless of geometry.
//
// Collision model (LoRaSim / Croce et al.): an overlapping transmission on
// the same carrier only destroys a frame if (a) it overlaps the frame's
// vulnerable window — from 5 preamble symbols before the sync word to the
// frame end — and (b) the frame's power does not clear the SIR threshold for
// the SF pair (6 dB co-SF capture; strong negative thresholds across SFs).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "phy/geometry.h"
#include "phy/path_loss.h"
#include "radio/radio_types.h"
#include "radio/spatial_index.h"
#include "sim/simulator.h"
#include "support/flat_map.h"
#include "support/pool.h"
#include "support/rng.h"
#include "support/sliding_queue.h"
#include "trace/trace_sink.h"

namespace lm::radio {

class VirtualRadio;

/// Propagation environment parameters for a Channel.
struct PropagationConfig {
  /// Mean path loss vs distance; defaults to log-distance n=3.0 (campus-like).
  std::shared_ptr<const phy::PathLossModel> path_loss;
  /// Log-normal shadowing sigma (dB); sampled once per link, symmetric.
  double shadowing_sigma_db = 0.0;
  /// Per-packet fast-fading sigma (dB).
  double fading_sigma_db = 0.0;

  static PropagationConfig campus();     // log-distance n=3.0, sigma 3 dB
  static PropagationConfig free_space(); // Friis, no shadowing or fading
  static PropagationConfig ideal();      // free space, deterministic decode
};

/// Delivery-policy knobs, distinct from the physics in PropagationConfig.
///
/// With `spatial_index` on (the default), the channel buckets radios and
/// transmissions into a uniform grid whose cell size derives from the link
/// budget, and each frame is only evaluated against receivers inside its
/// maximum decodable range (interference inside a wider noise-relevance
/// radius). Culling is provably conservative — shadowing and fading draws
/// are truncated at ±4 sigma and per-link/per-frame keyed, so indexed and
/// brute-force paths produce bit-identical deliveries, collisions and
/// RSSI/SNR — but the per-receiver drop counters attribute culled receivers
/// to `dropped_out_of_range` instead of walking them individually. Disable
/// for the O(N^2) brute-force sweep (reference semantics, tiny meshes).
struct ChannelConfig {
  bool spatial_index = true;
  /// Receiver-grid cell edge in meters; 0 derives it from the registered
  /// radios' link budget (half the widest interference-relevant range).
  /// The transmission grid uses twice this edge.
  double cell_size_m = 0.0;
};

/// Counters describing the fate of every reception opportunity.
struct ChannelStats {
  std::uint64_t frames_transmitted = 0;
  std::uint64_t receptions_delivered = 0;
  std::uint64_t dropped_not_listening = 0;   // receiver not in continuous RX
  std::uint64_t dropped_blocked_link = 0;    // scripted block / extra loss
  std::uint64_t dropped_below_sensitivity = 0;
  std::uint64_t dropped_snr = 0;             // interference-free decode failed
  std::uint64_t dropped_collision = 0;       // lost to an overlapping frame
  std::uint64_t dropped_modulation_mismatch = 0;
  /// Reception opportunities culled by the spatial index: receivers outside
  /// the frame's maximum decodable range, counted in bulk instead of being
  /// walked individually (brute force attributes these to the per-receiver
  /// buckets above). Always 0 with ChannelConfig::spatial_index == false.
  std::uint64_t dropped_out_of_range = 0;
};

/// A transmission's physics, exported so the PDES bridge can replay it into
/// a neighboring region's Channel (radio/pdes_bridge.h). `frame` is only
/// valid for the duration of the observer call / inject_ghost() call; both
/// sides copy.
struct TxSnapshot {
  std::uint64_t seq = 0;  // global sequence (regions carve disjoint ranges)
  RadioId tx_id = 0;
  phy::Position tx_pos;
  double tx_power_dbm = 0.0;
  double antenna_gain_db = 0.0;
  double frequency_hz = 0.0;
  phy::Modulation mod;
  std::span<const std::uint8_t> frame;
  TimePoint start;
  TimePoint end;
};

class Channel {
 public:
  Channel(sim::Simulator& sim, PropagationConfig config, std::uint64_t seed);
  Channel(sim::Simulator& sim, PropagationConfig config, ChannelConfig policy,
          std::uint64_t seed);
  /// PDES split-seed constructor: `seed` drives the *derived* draws
  /// (per-link shadowing, per-frame fading — keyed, order-free) and must be
  /// shared by every region's channel so cross-region links see consistent
  /// physics; `draw_seed` drives the *sequential* stream (extra-loss and
  /// decode bernoullis) and must be unique per region. Region 0 passes
  /// draw_seed == seed, which makes a single-region decomposition
  /// draw-for-draw identical to the serial channel.
  Channel(sim::Simulator& sim, PropagationConfig config, ChannelConfig policy,
          std::uint64_t seed, std::uint64_t draw_seed);
  ~Channel();

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // -- Radio registry (called by VirtualRadio) ------------------------------
  void register_radio(VirtualRadio& radio);
  /// O(log N) amortised: the slot is tombstoned and the list compacted
  /// once half of it is dead, so tearing a field down costs O(N log N),
  /// not O(N²).
  void unregister_radio(VirtualRadio& radio);
  /// Re-buckets a moved radio in the spatial index (called by
  /// VirtualRadio::set_position with the pre-move position).
  void radio_moved(VirtualRadio& radio, const phy::Position& old_position);

  /// Starts a transmission. Called by VirtualRadio::transmit after it has
  /// entered the Tx state; the channel schedules the end-of-frame event and
  /// calls back `radio.finish_tx()` when the frame leaves the air. The frame
  /// bytes are copied into a recycled transmission record.
  void begin_tx(VirtualRadio& radio, std::span<const std::uint8_t> frame);

  /// True when a same-modulation transmission is currently on the air and
  /// detectable (RSSI above sensitivity) at `listener`'s location.
  bool carrier_sensed_by(const VirtualRadio& listener) const;

  /// True when any detectable same-modulation transmission overlapped the
  /// interval [since, now] — the CAD model: the detector integrates over its
  /// whole window, so a preamble starting mid-window is still caught.
  bool carrier_sensed_during(const VirtualRadio& listener, TimePoint since) const;

  // -- Scripted link impairments (testbed) ----------------------------------
  /// Forces the link between two radios to drop every frame (both ways).
  void block_link(RadioId a, RadioId b);
  void unblock_link(RadioId a, RadioId b);
  bool is_blocked(RadioId a, RadioId b) const;
  /// Adds independent per-frame loss probability to a link (both ways).
  void set_link_extra_loss(RadioId a, RadioId b, double loss_probability);

  // -- Introspection ---------------------------------------------------------
  /// Mean RSSI (dBm) a frame from `tx` would have at `rx` — path loss and
  /// shadowing, no fading. For tests and topology planning. `tx` may be
  /// registered in another region's channel: the keyed shadowing draw
  /// (radio IDs + the shared derived-draw seed) is what regions agree on.
  double mean_rssi_dbm(const VirtualRadio& tx, const VirtualRadio& rx) const;

  /// Probability that an isolated frame from `tx` decodes at `rx`,
  /// marginalizing fading analytically is intractable, so this reports the
  /// fading-free decode probability. For topology planning.
  double link_quality(const VirtualRadio& tx, const VirtualRadio& rx) const;

  const ChannelStats& stats() const { return stats_; }
  void reset_stats() { stats_ = ChannelStats{}; }

  /// Transmissions currently on the air. Reception opportunities for these
  /// frames have not been decided yet, so accounting identities over
  /// stats() must exclude them.
  std::size_t in_flight_count() const { return in_flight_n_; }

  const ChannelConfig& policy() const { return policy_; }

  /// Attaches the flight recorder. Null detaches; the untraced hot path
  /// costs one branch per event site.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }

  sim::Simulator& simulator() { return sim_; }

  // -- PDES region bridging (radio/pdes_bridge.h) ---------------------------
  /// Called once per begin_tx with the transmission's physics, from inside
  /// the owning region's event loop. Null detaches.
  void set_tx_observer(std::function<void(const TxSnapshot&)> observer) {
    tx_observer_ = std::move(observer);
  }

  /// Replays a foreign region's transmission into this channel: the ghost
  /// occupies the air for collision/CAD purposes and is evaluated against
  /// this channel's radios when it ends, but emits no TxStart/TxEnd trace,
  /// counts no frames_transmitted, and calls back no transmitter (all of
  /// those happen in the home region). Must be called with
  /// snapshot.end >= now(), i.e. at a PDES barrier whose lookahead covers
  /// the frame's airtime.
  void inject_ghost(const TxSnapshot& snapshot);

  /// Carves this channel's tx_seq range: subsequent transmissions number
  /// base+1, base+2, ... Regions use disjoint bases (r << 48) so sequence
  /// numbers stay globally unique across a decomposition. Call before any
  /// traffic.
  void set_seq_base(std::uint64_t base);

  /// Count of radio_moved() calls over this channel's lifetime. The PDES
  /// barrier hook polls this to skip the per-node region-membership check
  /// entirely while nothing has moved.
  std::uint64_t position_changes() const { return position_changes_; }

  /// Count of link tables built (see LinkTable) over this channel's
  /// lifetime. In a field whose radios neither move nor come and go, each
  /// transmitter's table is built once, on its first frame.
  std::uint64_t link_table_builds() const { return link_table_builds_; }

 private:
  struct Transmission {
    std::uint64_t seq = 0;
    RadioId tx_id = 0;
    std::uint32_t tx_ordinal = 0;  // transmitter's registration ordinal
    phy::Position tx_pos;  // captured at start; mobility within a frame is negligible
    double tx_power_dbm = 0.0;
    double antenna_gain_db = 0.0;
    double frequency_hz = 0.0;
    phy::Modulation mod;
    support::PooledBytes frame;
    TimePoint start;
    TimePoint end;
    bool ended = false;  // left the air; kept around for overlap checks
    bool ghost = false;  // foreign-region replay (see inject_ghost)
  };

  // One receiver of a transmitter's frames and the link's propagation loss
  // (path loss + static shadowing, dB).
  struct Link {
    std::uint32_t rx_ordinal = 0;
    VirtualRadio* rx = nullptr;
    double loss_db = 0.0;
  };

  // The radios a transmitter's frames reach: one radio_grid_ sweep out to
  // the frame's decode radius, minus the transmitter, sorted by ordinal
  // (the brute-force evaluation order). Valid while no radio has
  // registered, unregistered or moved since it was built (radio_epoch_)
  // and the frame leaves from the same position with the same decode
  // radius; in a static field every frame after a transmitter's first
  // reuses it.
  struct LinkTable {
    std::uint64_t epoch = 0;  // radio_epoch_ at build; 0 = never built
    phy::Position tx_pos;
    double radius_m = 0.0;
    std::vector<Link> links;
  };

  /// Hands out a transmission record: a retired one when available (its
  /// buffers keep their capacity), a fresh slab slot otherwise.
  Transmission& acquire_transmission();
  void finish_tx(Transmission& frame);
  void trace_reception(const Transmission& t, const VirtualRadio& rx,
                       trace::DropReason reason, double rssi_dbm) const;
  bool detectable_by(const Transmission& t, const VirtualRadio& listener) const;
  /// Decides one reception opportunity; `loss_db` is the link's
  /// propagation loss.
  void evaluate_reception(Transmission& t, VirtualRadio& rx, double loss_db);
  /// Mean RSSI plus the frame's fading at `rx`: a draw derived from
  /// (frame seq, receiver), so the signal and interferer roles agree.
  double rssi_with_fading(const Transmission& t, const VirtualRadio& rx,
                          double loss_db) const;
  double link_shadowing_db(RadioId a, RadioId b) const;
  /// Path loss + static shadowing from `tx_pos` to `rx`, computed directly.
  double link_loss_db(const phy::Position& tx_pos, RadioId tx_id,
                      const VirtualRadio& rx) const;
  /// The same loss, read from `t`'s transmitter's link table when the
  /// table is current and holds `rx`.
  double propagation_loss_db(const Transmission& t, const VirtualRadio& rx) const;
  /// Returns `t`'s transmitter's link table, rebuilt first when stale.
  const LinkTable& link_table(const Transmission& t, double decode_radius);
  /// Memoized config_.path_loss->max_range_m keyed on the exact budget bit
  /// pattern. The budgets on the query paths come from a small, fixed set of
  /// radio configs, so the cache stays tiny and every hit is bit-identical
  /// to the direct call.
  double cached_max_range_m(double budget_db) const;
  void prune_history();

  // -- Spatial-index internals ----------------------------------------------
  /// Builds both grids on first use (cell size frozen then); incremental
  /// updates keep them fresh afterwards. Const because queries are
  /// logically read-only; the grids are caches.
  void ensure_grids() const;
  double derive_cell_size_m() const;
  /// Radius beyond which `t` is provably undecodable by any receiver, even
  /// with every stochastic term at its +4-sigma clamp.
  double decode_radius_m(const Transmission& t) const;
  /// Whole-dB path-loss budget out to which a transmission can still
  /// destroy a frame received at `rssi_dbm` with spreading factor `sf` by a
  /// radio with `rx_gain_db` antenna gain (every stochastic term at its
  /// clamp, the strongest registered transmitter).
  double interference_budget_db(double rx_gain_db, double rssi_dbm,
                                phy::SpreadingFactor sf) const;
  /// Start of `t`'s vulnerable window: 5 preamble symbols before the sync
  /// word, clamped to the frame start.
  static TimePoint vulnerable_start(const Transmission& t);
  /// Fills interferers_ with every transmission that can collide with `t`
  /// at any receiver the delivery sweep will test.
  void collect_interferers(const Transmission& t, double decode_radius);
  /// Truncated (±4 sigma) zero-mean normal derived from (tag, a, b) — the
  /// same value regardless of evaluation order, which is what makes culling
  /// RNG-transparent.
  double derived_normal_db(std::uint64_t tag, std::uint64_t a, std::uint64_t b,
                           double sigma) const;

  sim::Simulator& sim_;
  PropagationConfig config_;
  ChannelConfig policy_;
  const std::uint64_t seed_;
  mutable Rng rng_;
  // Registered radios in registration (= ordinal) order. Unregistering
  // nulls the radio and keeps the ordinal, so the list stays sorted for
  // lookup; once half the slots are dead they are compacted away.
  struct Registered {
    std::uint32_t ordinal = 0;
    VirtualRadio* radio = nullptr;
  };
  std::vector<Registered> radios_;
  std::size_t dead_radios_ = 0;
  // Transmission records live in a slab deque (stable addresses — the
  // transmission grid holds pointers) and are recycled through spare_ once
  // pruned, so the slab only grows to the high-water mark of simultaneously
  // relevant frames and steady-state traffic reuses old records' buffer
  // capacity instead of allocating. active_ is the FIFO of records still
  // relevant: on the air (`!ended`) or recently ended, kept for overlap
  // checks.
  std::deque<Transmission> slab_;
  std::vector<Transmission*> spare_;
  support::SlidingQueue<Transmission*> active_;
  std::size_t in_flight_n_ = 0;
  // Link tables indexed by transmitter ordinal (foreign ordinals for
  // ghosts), and the epoch that every registration, unregistration and
  // move bumps.
  std::vector<LinkTable> link_tables_;
  std::uint64_t radio_epoch_ = 1;
  std::uint64_t link_table_builds_ = 0;
  // Memoized path-loss inversions (budget bit pattern -> max_range_m); see
  // cached_max_range_m.
  mutable support::FlatMap<std::uint64_t, double> max_range_cache_;
  // Flat: probed twice per candidate reception (blocked + extra loss), and
  // empty in most scenarios — a FlatMap miss is a bounds check, where the
  // std::map miss walked the (empty) tree through a cold pointer.
  support::FlatMap<std::pair<RadioId, RadioId>, double> extra_loss_;
  support::FlatMap<std::pair<RadioId, RadioId>, bool> blocked_;
  ChannelStats stats_;
  std::uint64_t position_changes_ = 0;
  trace::Tracer* tracer_ = nullptr;
  std::function<void(const TxSnapshot&)> tx_observer_;
  // Local ordinal assigned to each foreign (ghost) transmitter the first
  // time one of its frames is injected, so its link table never aliases a
  // registered radio's. First-injection order is the fixed barrier
  // exchange order, hence deterministic.
  support::FlatMap<RadioId, std::uint32_t> foreign_ordinal_;
  std::uint64_t next_seq_ = 1;
  Duration longest_airtime_;  // longest frame seen; bounds the history scan

  // Spatial index state. Registration-order ordinals make the indexed
  // delivery sweep visit candidates in exactly the brute-force order, so
  // the sequential RNG draws (extra-loss, decode) line up bit-for-bit.
  mutable SpatialGrid<VirtualRadio> radio_grid_;
  mutable SpatialGrid<Transmission> tx_grid_;
  mutable bool grids_ready_ = false;
  std::unordered_map<RadioId, VirtualRadio*> by_id_;
  std::uint64_t next_ordinal_ = 0;  // next registration ordinal (never reused)
  // Monotone link-budget maxima over every radio ever registered; shrinking
  // them on unregister is never needed for correctness (only query cost).
  double max_radio_eirp_dbm_ = -300.0;
  double max_rx_gain_db_ = 0.0;
  double min_mod_sensitivity_dbm_ = 0.0;
  // The frame being delivered's same-carrier transmissions overlapping its
  // vulnerable window, gathered by one grid sweep per frame (indexed path).
  std::vector<Transmission*> interferers_;
  // Reused snapshots of the receivers a frame is delivered to: the link
  // table (indexed) or radios_ (brute force). Deliveries may register,
  // unregister or move radios mid-iteration.
  std::vector<Link> links_scratch_;
  std::vector<VirtualRadio*> receivers_scratch_;
};

}  // namespace lm::radio
