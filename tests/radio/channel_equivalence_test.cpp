// Property test for the spatial-index delivery path: for any scripted
// scenario, the indexed channel must produce BIT-IDENTICAL reception
// outcomes — every delivery with the same RSSI/SNR/timing, the same
// collision and SNR drops — as the O(N^2) brute-force sweep. Culling is
// only allowed to change *cost* (and the attribution of out-of-range
// receivers to the bulk dropped_out_of_range counter), never physics.
//
// Scenarios are generated from seeds: randomized static and mobile
// topologies with mixed SFs, shadowing/fading, blocked and lossy links,
// mid-flight position changes, and radios that join and leave — some of
// them registered from inside a delivery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "phy/airtime.h"
#include "phy/path_loss.h"
#include "radio/channel.h"
#include "radio/virtual_radio.h"
#include "sim/simulator.h"
#include "support/rng.h"

namespace lm::radio {
namespace {

struct TxEvent {
  std::size_t node = 0;
  Duration at;
  std::size_t len = 0;
};

struct MoveEvent {
  std::size_t node = 0;
  Duration at;
  phy::Position to;
};

/// A radio registering mid-run; it takes the next free id and sends one
/// frame of `len` bytes each `send_after` past its join.
struct JoinEvent {
  Duration at;
  phy::Position pos;
  RadioConfig config;
  std::vector<Duration> send_after;
  std::size_t len = 20;
};

/// A radio leaving mid-run: destroyed, so it unregisters.
struct LeaveEvent {
  std::size_t node = 0;
  Duration at;
};

struct Script {
  PropagationConfig prop;
  std::uint64_t channel_seed = 0;
  std::vector<phy::Position> positions;
  std::vector<RadioConfig> configs;
  std::vector<TxEvent> txs;
  std::vector<MoveEvent> moves;
  std::vector<JoinEvent> joins;
  std::vector<LeaveEvent> leaves;
  // Every spawn_every-th delivery registers a new radio next to its
  // receiver from inside the delivery handler, up to max_spawns of them;
  // each spawned radio transmits once. 0 = never.
  std::size_t spawn_every = 0;
  std::size_t max_spawns = 0;
  std::vector<std::pair<RadioId, RadioId>> blocked;
  std::vector<std::pair<std::pair<RadioId, RadioId>, double>> lossy;
  Duration run_time = Duration::seconds(60);
  double cell_size_m = 0.0;  // ChannelConfig::cell_size_m; 0 = derived
};

/// One observed frame delivery, everything a driver would see.
struct Delivery {
  RadioId rx = 0;
  RadioId tx = 0;
  double rssi_dbm = 0.0;
  double snr_db = 0.0;
  std::int64_t end_ms = 0;
  std::size_t len = 0;

  friend bool operator==(const Delivery& a, const Delivery& b) {
    // Exact double compares on purpose: both paths must take the same
    // arithmetic route, not merely land close.
    return a.rx == b.rx && a.tx == b.tx && a.rssi_dbm == b.rssi_dbm &&
           a.snr_db == b.snr_db && a.end_ms == b.end_ms && a.len == b.len;
  }
};

struct Recorder : RadioListener {
  VirtualRadio* radio = nullptr;
  std::vector<Delivery>* out = nullptr;
  std::function<void(const VirtualRadio&)> on_delivery;  // may be empty
  void on_frame_received(std::span<const std::uint8_t> frame,
                         const FrameMeta& meta) override {
    out->push_back(Delivery{radio->id(), meta.transmitter, meta.rssi_dbm,
                            meta.snr_db,
                            (meta.end - TimePoint::origin()).ms(),
                            frame.size()});
    if (on_delivery) on_delivery(*radio);
  }
  void on_tx_done() override { radio->start_receive(); }
};

struct RunResult {
  std::vector<Delivery> deliveries;
  ChannelStats stats;
  std::uint64_t link_table_builds = 0;
};

RunResult run_script(const Script& s, bool indexed) {
  sim::Simulator sim;
  ChannelConfig policy;
  policy.spatial_index = indexed;
  policy.cell_size_m = s.cell_size_m;
  Channel channel(sim, s.prop, policy, s.channel_seed);

  RunResult result;
  // Slots of departed radios stay (null) so node indices stay valid.
  std::vector<std::unique_ptr<VirtualRadio>> radios;
  std::vector<std::unique_ptr<Recorder>> recorders;
  const auto transmit = [&radios](std::size_t node, std::size_t len) {
    if (radios[node] == nullptr) return;  // left the field
    std::vector<std::uint8_t> payload(len, static_cast<std::uint8_t>(node));
    // May return false when the node is still mid-TX — that, too, is
    // deterministic and must agree between the two runs.
    radios[node]->transmit(std::move(payload));
  };
  std::size_t spawned = 0;
  std::function<void(const VirtualRadio&)> spawn;
  const auto add_radio = [&](const phy::Position& pos, const RadioConfig& cfg) {
    radios.push_back(std::make_unique<VirtualRadio>(
        sim, channel, static_cast<RadioId>(radios.size() + 1), pos, cfg));
    auto rec = std::make_unique<Recorder>();
    rec->radio = radios.back().get();
    rec->out = &result.deliveries;
    if (s.spawn_every > 0) rec->on_delivery = spawn;
    radios.back()->set_listener(rec.get());
    radios.back()->start_receive();
    recorders.push_back(std::move(rec));
    return radios.size() - 1;
  };
  spawn = [&](const VirtualRadio& rx) {
    if (result.deliveries.size() % s.spawn_every != 0 ||
        spawned == s.max_spawns) {
      return;
    }
    ++spawned;
    const phy::Position at{rx.position().x + 40.0 * static_cast<double>(spawned),
                           rx.position().y - 25.0};
    const std::size_t node = add_radio(at, rx.config());
    sim.schedule_after(Duration::milliseconds(
                           400 + 150 * static_cast<std::int64_t>(spawned)),
                       [&transmit, node] { transmit(node, 24); });
  };

  for (std::size_t i = 0; i < s.positions.size(); ++i) {
    add_radio(s.positions[i], s.configs[i]);
  }
  for (const auto& [a, b] : s.blocked) channel.block_link(a, b);
  for (const auto& [link, p] : s.lossy) {
    channel.set_link_extra_loss(link.first, link.second, p);
  }
  for (const TxEvent& e : s.txs) {
    sim.schedule_at(TimePoint::origin() + e.at,
                    [&transmit, e] { transmit(e.node, e.len); });
  }
  for (const MoveEvent& e : s.moves) {
    sim.schedule_at(TimePoint::origin() + e.at, [&radios, e] {
      if (radios[e.node] != nullptr) radios[e.node]->set_position(e.to);
    });
  }
  for (const JoinEvent& e : s.joins) {
    sim.schedule_at(TimePoint::origin() + e.at, [&, e] {
      const std::size_t node = add_radio(e.pos, e.config);
      for (const Duration after : e.send_after) {
        sim.schedule_after(after, [&transmit, node, len = e.len] {
          transmit(node, len);
        });
      }
    });
  }
  for (const LeaveEvent& e : s.leaves) {
    sim.schedule_at(TimePoint::origin() + e.at,
                    [&radios, e] { radios[e.node].reset(); });
  }
  sim.run_until(TimePoint::origin() + s.run_time);
  result.stats = channel.stats();
  result.link_table_builds = channel.link_table_builds();
  return result;
}

Script random_script(std::uint64_t seed, bool mobile) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xE9);
  Script s;
  s.channel_seed = seed ^ 0xCAFE;

  // Physics: alternate between free space and campus; half the campus
  // scenarios add per-packet fading on top of shadowing.
  switch (rng.uniform_int(0, 2)) {
    case 0: s.prop = PropagationConfig::free_space(); break;
    case 1:
      s.prop = PropagationConfig::campus();
      s.prop.fading_sigma_db = 0.0;
      break;
    default: s.prop = PropagationConfig::campus(); break;
  }

  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(8, 24));
  // Fields from "everyone hears everyone" up to several times the campus
  // decode radius, so the index both culls aggressively and passes
  // everything through, depending on the draw.
  const double field_m = rng.uniform(600.0, 25'000.0);
  const bool mixed_sf = rng.bernoulli(0.5);
  for (std::size_t i = 0; i < n; ++i) {
    s.positions.push_back({rng.uniform(0.0, field_m), rng.uniform(0.0, field_m)});
    RadioConfig cfg;
    cfg.tx_power_dbm = rng.uniform(2.0, 14.0);
    if (mixed_sf && rng.bernoulli(0.3)) {
      cfg.modulation.sf = phy::SpreadingFactor::SF9;  // cross-SF interference
    }
    s.configs.push_back(cfg);
  }

  for (std::size_t i = 0; i < n; ++i) {
    const int k = static_cast<int>(rng.uniform_int(2, 4));
    for (int j = 0; j < k; ++j) {
      s.txs.push_back(TxEvent{i, Duration::milliseconds(static_cast<std::int64_t>(
                                     rng.uniform(0.0, 40'000.0))),
                              static_cast<std::size_t>(rng.uniform_int(8, 48))});
    }
  }

  const auto pick_pair = [&rng, n]() -> std::pair<RadioId, RadioId> {
    const auto a = static_cast<RadioId>(rng.uniform_int(1, static_cast<std::int64_t>(n)));
    auto b = static_cast<RadioId>(rng.uniform_int(1, static_cast<std::int64_t>(n)));
    if (b == a) b = static_cast<RadioId>((b % n) + 1);
    return {a, b};
  };
  for (std::size_t i = 0; i < n / 4; ++i) s.blocked.push_back(pick_pair());
  for (std::size_t i = 0; i < n / 4; ++i) {
    s.lossy.push_back({pick_pair(), rng.uniform(0.2, 0.8)});
  }

  if (mobile) {
    for (std::size_t i = 0; i < n; ++i) {
      const int k = static_cast<int>(rng.uniform_int(0, 3));
      for (int j = 0; j < k; ++j) {
        s.moves.push_back(MoveEvent{
            i,
            Duration::milliseconds(
                static_cast<std::int64_t>(rng.uniform(0.0, 45'000.0))),
            {rng.uniform(0.0, field_m), rng.uniform(0.0, field_m)}});
      }
    }
  }
  return s;
}

/// Heavy contention: radios sit in tight clusters scattered over a field
/// a few interference radii wide, and every radio fires several frames
/// inside a few seconds at mixed SFs, two carriers and varied antenna
/// gains. Frames overlap heavily inside a cluster, and clusters sit both
/// inside and beyond each other's decode and interference radii; one far
/// outlier radio (also transmitting) spreads the grid over a huge extent.
/// Exercises the per-frame interferer list against the brute-force
/// collision scan.
Script contention_script(std::uint64_t seed) {
  Rng rng(seed * 0xD1B54A32D192ED03ULL + 0x51);
  Script s;
  s.channel_seed = seed ^ 0xBEEF;
  s.run_time = Duration::seconds(30);
  // Field extent per propagation model: free space reaches ~1000 km at
  // these budgets, campus (log-distance n=3 plus clamped shadowing and
  // fading) some tens of km.
  double field_m = 0.0;
  switch (rng.uniform_int(0, 2)) {
    case 0:
      s.prop = PropagationConfig::free_space();
      field_m = 3.0e6;
      break;
    case 1:
      s.prop = PropagationConfig::campus();
      s.prop.fading_sigma_db = 0.0;
      field_m = 8.0e4;
      break;
    default:
      s.prop = PropagationConfig::campus();
      field_m = 8.0e4;
      break;
  }

  constexpr phy::SpreadingFactor kSfs[] = {phy::SpreadingFactor::SF7,
                                           phy::SpreadingFactor::SF9,
                                           phy::SpreadingFactor::SF12};
  const int clusters = static_cast<int>(rng.uniform_int(3, 6));
  for (int c = 0; c < clusters; ++c) {
    const phy::Position center{rng.uniform(0.0, field_m),
                               rng.uniform(0.0, field_m)};
    const int members = static_cast<int>(rng.uniform_int(4, 7));
    for (int m = 0; m < members; ++m) {
      s.positions.push_back({center.x + rng.uniform(-300.0, 300.0),
                             center.y + rng.uniform(-300.0, 300.0)});
      RadioConfig cfg;
      cfg.tx_power_dbm = rng.uniform(2.0, 14.0);
      cfg.antenna_gain_db = rng.uniform(0.0, 3.0);
      cfg.modulation.sf = kSfs[rng.uniform_int(0, 2)];
      if (rng.bernoulli(0.25)) cfg.frequency_hz = 868.3e6;
      s.configs.push_back(cfg);
    }
  }
  // Small cells make the sweep radius, not the cell size, decide which
  // transmissions are looked at.
  const double cells[] = {0.0, 250.0, field_m / 50.0};
  s.cell_size_m = cells[rng.uniform_int(0, 2)];
  // The outlier: ~10,000 km away, beyond even free-space range.
  s.positions.push_back({-8.0e6, 6.0e6});
  s.configs.push_back(RadioConfig{});

  for (std::size_t i = 0; i < s.positions.size(); ++i) {
    const int k = static_cast<int>(rng.uniform_int(3, 6));
    for (int j = 0; j < k; ++j) {
      s.txs.push_back(TxEvent{i, Duration::microseconds(static_cast<std::int64_t>(
                                     rng.uniform(0.0, 4.0e6))),
                              static_cast<std::size_t>(rng.uniform_int(8, 48))});
    }
  }
  return s;
}

/// City-shaped field: a sparse 400 m grid several sweep radii wide under
/// log-distance n = 3.5 without shadowing or fading, so only grid
/// neighbours decode. Frames start on a 2 s beat with up to 150 ms of
/// jitter across the whole field for three simulated minutes: each beat
/// claims transmission cells all over the grid, and they empty again
/// before the next, the pattern of a field whose in-flight frames are few
/// and scattered. Neighbours sharing a beat collide.
Script city_script(std::uint64_t seed) {
  Rng rng(seed * 0xA24BAED4963EE407ULL + 0xC1);
  Script s;
  s.channel_seed = seed ^ 0xC17E;
  s.prop.path_loss = phy::make_log_distance(3.5, 40.0);
  s.prop.shadowing_sigma_db = 0.0;
  s.prop.fading_sigma_db = 0.0;
  s.run_time = Duration::seconds(185);
  constexpr int kSide = 20;
  for (int y = 0; y < kSide; ++y) {
    for (int x = 0; x < kSide; ++x) {
      s.positions.push_back({400.0 * x, 400.0 * y});
      s.configs.push_back(RadioConfig{});
    }
  }
  for (std::size_t i = 0; i < s.positions.size(); ++i) {
    const int k = static_cast<int>(rng.uniform_int(2, 4));
    for (int j = 0; j < k; ++j) {
      const std::int64_t beat_ms = 2000 * rng.uniform_int(0, 89);
      s.txs.push_back(TxEvent{
          i,
          Duration::microseconds(1000 * beat_ms + static_cast<std::int64_t>(
                                                      rng.uniform(0.0, 1.5e5))),
          static_cast<std::size_t>(rng.uniform_int(8, 48))});
    }
  }
  return s;
}

/// Churn: radios on a small campus field join, leave and move between
/// (and during) frames, and deliveries register new radios mid-sweep.
/// Every one of these changes invalidates the link tables; a table that
/// outlived one would deliver from a stale receiver set or stale losses.
Script churn_script(std::uint64_t seed) {
  Rng rng(seed * 0x94D049BB133111EBULL + 0x3D);
  Script s;
  s.channel_seed = seed ^ 0xC4A7;
  s.prop = PropagationConfig::campus();
  if (rng.bernoulli(0.5)) s.prop.fading_sigma_db = 0.0;
  s.run_time = Duration::seconds(30);
  const double field_m = rng.uniform(1500.0, 5000.0);
  const auto random_config = [&rng] {
    RadioConfig cfg;
    cfg.tx_power_dbm = rng.uniform(2.0, 14.0);
    if (rng.bernoulli(0.3)) cfg.modulation.sf = phy::SpreadingFactor::SF9;
    return cfg;
  };
  const auto random_position = [&rng, field_m]() -> phy::Position {
    return {rng.uniform(0.0, field_m), rng.uniform(0.0, field_m)};
  };
  const auto random_time = [&rng](double max_ms) {
    return Duration::microseconds(
        static_cast<std::int64_t>(rng.uniform(0.0, 1000.0 * max_ms)));
  };

  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(10, 18));
  for (std::size_t i = 0; i < n; ++i) {
    s.positions.push_back(random_position());
    s.configs.push_back(random_config());
  }
  const auto frame_len = [&rng] {
    return static_cast<std::size_t>(rng.uniform_int(8, 48));
  };
  for (std::size_t i = 0; i < n; ++i) {
    const int k = static_cast<int>(rng.uniform_int(3, 6));
    for (int j = 0; j < k; ++j) {
      s.txs.push_back(TxEvent{i, random_time(8'000.0), frame_len()});
    }
  }
  const int joins = static_cast<int>(rng.uniform_int(2, 5));
  for (int j = 0; j < joins; ++j) {
    JoinEvent join{random_time(20'000.0), random_position(), random_config(),
                   {}, frame_len()};
    const int k = static_cast<int>(rng.uniform_int(2, 4));
    for (int f = 0; f < k; ++f) join.send_after.push_back(random_time(8'000.0));
    s.joins.push_back(std::move(join));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const int k = static_cast<int>(rng.uniform_int(0, 3));
    for (int j = 0; j < k; ++j) {
      s.moves.push_back(MoveEvent{i, random_time(28'000.0), random_position()});
    }
  }
  const std::size_t leaves = static_cast<std::size_t>(rng.uniform_int(1, 3));
  for (std::size_t j = 0; j < leaves; ++j) {
    s.leaves.push_back(LeaveEvent{rng.index(n), random_time(25'000.0)});
  }
  s.spawn_every = 5;
  s.max_spawns = 4;
  return s;
}

/// Runs `script` under both delivery policies and requires bit-identical
/// outcomes. Returns the indexed run's counters (e.g. how many reception
/// opportunities the index culled), so callers can assert the test is not
/// vacuous.
ChannelStats expect_equivalent(const Script& s, const char* label) {
  SCOPED_TRACE(label);
  const RunResult indexed = run_script(s, /*indexed=*/true);
  const RunResult brute = run_script(s, /*indexed=*/false);

  EXPECT_EQ(indexed.deliveries.size(), brute.deliveries.size()) << label;
  const std::size_t common =
      std::min(indexed.deliveries.size(), brute.deliveries.size());
  for (std::size_t i = 0; i < common; ++i) {
    const Delivery& a = indexed.deliveries[i];
    const Delivery& b = brute.deliveries[i];
    EXPECT_TRUE(a == b) << label << " delivery " << i << ": rx=" << a.rx
                        << "/" << b.rx << " tx=" << a.tx << "/" << b.tx
                        << " rssi=" << a.rssi_dbm << "/" << b.rssi_dbm
                        << " snr=" << a.snr_db << "/" << b.snr_db
                        << " end_ms=" << a.end_ms << "/" << b.end_ms;
  }

  // Physics counters must agree exactly. (The per-receiver drop buckets
  // below sensitivity may not: the index attributes culled receivers to
  // dropped_out_of_range in bulk.)
  EXPECT_EQ(indexed.stats.frames_transmitted, brute.stats.frames_transmitted);
  EXPECT_EQ(indexed.stats.receptions_delivered, brute.stats.receptions_delivered);
  EXPECT_EQ(indexed.stats.dropped_collision, brute.stats.dropped_collision);
  EXPECT_EQ(indexed.stats.dropped_snr, brute.stats.dropped_snr);
  EXPECT_EQ(brute.stats.dropped_out_of_range, 0u);
  return indexed.stats;
}

TEST(ChannelEquivalence, StaticTopologiesMatchBruteForceBitForBit) {
  std::uint64_t culled = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Script s = random_script(seed, /*mobile=*/false);
    culled += expect_equivalent(
        s, ("static seed " + std::to_string(seed)).c_str())
                  .dropped_out_of_range;
  }
  // The property is only meaningful if the index actually culled work
  // somewhere across the suite.
  EXPECT_GT(culled, 0u);
}

TEST(ChannelEquivalence, MobileTopologiesMatchBruteForceBitForBit) {
  std::uint64_t culled = 0;
  for (std::uint64_t seed = 101; seed <= 112; ++seed) {
    const Script s = random_script(seed, /*mobile=*/true);
    culled += expect_equivalent(
        s, ("mobile seed " + std::to_string(seed)).c_str())
                  .dropped_out_of_range;
  }
  EXPECT_GT(culled, 0u);
}

TEST(ChannelEquivalence, ContentionMatchesBruteForceBitForBit) {
  std::uint64_t collisions = 0;
  std::uint64_t culled = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const ChannelStats stats = expect_equivalent(
        contention_script(seed),
        ("contention seed " + std::to_string(seed)).c_str());
    collisions += stats.dropped_collision;
    culled += stats.dropped_out_of_range;
  }
  // Collisions must actually be decided by the interferer list, and the
  // outlier guarantees culling.
  EXPECT_GT(collisions, 0u);
  EXPECT_GT(culled, 0u);
}

TEST(ChannelEquivalence, SparseCityFieldMatchesBruteForceBitForBit) {
  // The derived cell, then explicit edges below, at and above it: the
  // transmission grid's interferer sweep must find every overlapping frame
  // whatever its cell.
  for (const double cell : {0.0, 150.0, 400.0, 2500.0}) {
    Script s = city_script(3);
    s.cell_size_m = cell;
    const ChannelStats stats =
        expect_equivalent(s, ("city cell " + std::to_string(cell)).c_str());
    EXPECT_GT(stats.receptions_delivered, 0u);
    EXPECT_GT(stats.dropped_collision, 0u);
    EXPECT_GT(stats.dropped_out_of_range, 0u);
  }
}

TEST(ChannelEquivalence, ChurnMatchesBruteForceBitForBit) {
  std::uint64_t collisions = 0;
  std::uint64_t delivered = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const ChannelStats stats = expect_equivalent(
        churn_script(seed), ("churn seed " + std::to_string(seed)).c_str());
    collisions += stats.dropped_collision;
    delivered += stats.receptions_delivered;
  }
  EXPECT_GT(collisions, 0u);
  EXPECT_GT(delivered, 0u);
}

TEST(ChannelEquivalence, StaticFieldBuildsEachLinkTableOnce) {
  // A 5 x 5 grid at 300 m, every radio transmitting on its own slot five
  // times: each transmitter's link table is built on its first frame and
  // serves the other four. One move then makes every table stale, so the
  // sixth round rebuilds each exactly once more.
  Script s;
  s.prop = PropagationConfig::campus();
  s.channel_seed = 11;
  s.run_time = Duration::seconds(80);
  constexpr std::size_t kSide = 5;
  for (std::size_t y = 0; y < kSide; ++y) {
    for (std::size_t x = 0; x < kSide; ++x) {
      s.positions.push_back({300.0 * static_cast<double>(x),
                             300.0 * static_cast<double>(y)});
      s.configs.push_back(RadioConfig{});
    }
  }
  const std::size_t n = s.positions.size();
  for (std::int64_t round = 0; round < 6; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      s.txs.push_back(TxEvent{
          i,
          Duration::seconds(10 * round) +
              Duration::milliseconds(300 * static_cast<std::int64_t>(i)),
          20});
    }
  }
  s.moves = {MoveEvent{12, Duration::seconds(48), {310.0, 320.0}}};

  const RunResult indexed = run_script(s, /*indexed=*/true);
  EXPECT_EQ(indexed.stats.frames_transmitted, 6 * n);
  EXPECT_EQ(indexed.link_table_builds, 2 * n);
  EXPECT_GT(indexed.stats.receptions_delivered, 0u);
  expect_equivalent(s, "static field");
}

TEST(ChannelEquivalence, TransmitterMovesMidFrameThenNearbyReceiverMoves) {
  // A field wide enough that no sweep scans every radio. T, at A, sends a
  // short frame F inside X's long frame G and jumps to the far corner while
  // F is on the air; F's finish builds T's table at A all the same. Then M,
  // a receiver beside X and inside T's decode radius, steps toward A within
  // its grid cell before G ends. G's collision test at M reads F's loss at
  // M: from M's old spot F is too weak to matter, from the new one it
  // drowns G. A table that outlived M's move would answer with the old
  // loss, though nothing near T's current position moved.
  Script s;
  s.prop = PropagationConfig::campus();
  s.channel_seed = 31;
  s.cell_size_m = 2'000.0;
  s.run_time = Duration::seconds(5);
  constexpr std::size_t kSide = 16;
  for (std::size_t y = 0; y < kSide; ++y) {
    for (std::size_t x = 0; x < kSide; ++x) {
      s.positions.push_back({2'000.0 * static_cast<double>(x),
                             2'000.0 * static_cast<double>(y)});
      s.configs.push_back(RadioConfig{});
    }
  }
  constexpr std::size_t kT = 17;  // (2 km, 2 km)
  const std::size_t m = s.positions.size();
  s.positions.push_back({3'900.0, 2'000.0});
  s.configs.push_back(RadioConfig{});
  const std::size_t x = s.positions.size();
  s.positions.push_back({3'600.0, 2'000.0});
  s.configs.push_back(RadioConfig{});

  s.txs.push_back(TxEvent{x, Duration::milliseconds(1'000), 200});
  s.txs.push_back(TxEvent{kT, Duration::milliseconds(1'010), 20});
  s.moves.push_back(MoveEvent{kT, Duration::milliseconds(1'030), {30'000.0, 30'000.0}});
  s.moves.push_back(MoveEvent{m, Duration::milliseconds(1'150), {2'800.0, 2'000.0}});

  const ChannelStats stats = expect_equivalent(s, "two movers");
  EXPECT_EQ(stats.frames_transmitted, 2u);
  EXPECT_GT(stats.receptions_delivered, 0u);
  EXPECT_GT(stats.dropped_collision, 0u);
}

TEST(ChannelEquivalence, JumpingMoverMatchesBruteForceBitForBit) {
  // The same 30 km grid, with one radio jumping between opposite corners
  // every round. The tables near its new corner must learn of it, and
  // those near its old corner must forget it, though the two are far
  // beyond each other's reach.
  Script s;
  s.prop = PropagationConfig::campus();
  s.channel_seed = 29;
  s.run_time = Duration::seconds(110);
  constexpr std::size_t kSide = 16;
  for (std::size_t y = 0; y < kSide; ++y) {
    for (std::size_t x = 0; x < kSide; ++x) {
      s.positions.push_back({2'000.0 * static_cast<double>(x),
                             2'000.0 * static_cast<double>(y)});
      s.configs.push_back(RadioConfig{});
    }
  }
  const std::size_t n = s.positions.size();
  constexpr std::int64_t kRounds = 5;
  constexpr std::int64_t kSlotMs = 70;
  const Duration round_length = Duration::milliseconds(kSlotMs * 300);
  for (std::int64_t round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      s.txs.push_back(TxEvent{
          i,
          round_length * round +
              Duration::milliseconds(kSlotMs * static_cast<std::int64_t>(i)),
          20});
    }
    if (round + 1 < kRounds) {
      const double at = round % 2 == 0 ? 29'000.0 : 1'000.0;
      s.moves.push_back(MoveEvent{17, round_length * (round + 1) -
                                          Duration::milliseconds(5),
                                  {at, at}});
    }
  }
  const ChannelStats stats = expect_equivalent(s, "jumping mover");
  EXPECT_GT(stats.receptions_delivered, 0u);
  EXPECT_GT(stats.dropped_out_of_range, 0u);
}

TEST(ChannelEquivalence, RandomOrderUnregisterMatchesBruteForceBitForBit) {
  // Most radios of a campus field leave one by one in a random order while
  // the rest keep transmitting, so the registry tombstones slots and
  // compacts them away mid-run; indexed and brute-force delivery must
  // still agree bit for bit.
  std::uint64_t delivered = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 0xD1B54A32D192ED03ULL + 0x51);
    Script s;
    s.prop = PropagationConfig::campus();
    s.channel_seed = seed ^ 0x0DD;
    s.run_time = Duration::seconds(45);
    constexpr std::size_t kRadios = 40;
    const double field_m = rng.uniform(1'500.0, 6'000.0);
    for (std::size_t i = 0; i < kRadios; ++i) {
      s.positions.push_back({rng.uniform(0.0, field_m), rng.uniform(0.0, field_m)});
      s.configs.push_back(RadioConfig{});
      for (int f = 0; f < 6; ++f) {
        s.txs.push_back(TxEvent{
            i,
            Duration::milliseconds(static_cast<std::int64_t>(rng.uniform(0.0, 40'000.0))),
            static_cast<std::size_t>(rng.uniform_int(8, 48))});
      }
    }
    std::vector<std::size_t> order(kRadios);
    for (std::size_t i = 0; i < kRadios; ++i) order[i] = i;
    for (std::size_t i = kRadios - 1; i > 0; --i) {
      std::swap(order[i], order[rng.index(i + 1)]);
    }
    for (std::size_t j = 0; j < 30; ++j) {
      s.leaves.push_back(LeaveEvent{
          order[j],
          Duration::milliseconds(static_cast<std::int64_t>(rng.uniform(2'000.0, 38'000.0)))});
    }
    delivered += expect_equivalent(
        s, ("unregister seed " + std::to_string(seed)).c_str())
                     .receptions_delivered;
  }
  EXPECT_GT(delivered, 0u);
}

// --- Targeted mobility: cell-boundary crossings mid-flight -----------------

// A receiver that moves INTO decode range while the frame is on the air
// must be found by the end-of-frame candidate query (delivery decisions use
// end-of-frame positions); one that moves OUT must not decode. Small cells
// force the moves across several cell boundaries, so a stale bucket would
// make the indexed path miss the radio entirely.
TEST(ChannelEquivalence, CellCrossingMidFlightReceivesCorrectly) {
  // Campus propagation without stochastic terms: with 2 dBm TX at SF12 the
  // decode radius is ~2 km, far smaller than the 3000 m start positions and
  // far larger than the 30 m cells.
  PropagationConfig prop = PropagationConfig::campus();
  prop.shadowing_sigma_db = 0.0;
  prop.fading_sigma_db = 0.0;

  RadioConfig cfg;
  cfg.tx_power_dbm = 2.0;
  cfg.modulation.sf = phy::SpreadingFactor::SF12;  // long frame: ~1.5 s

  Script s;
  s.prop = prop;
  s.channel_seed = 7;
  s.run_time = Duration::seconds(10);
  s.positions = {{0.0, 0.0},      // 0: transmitter
                 {3000.0, 0.0},   // 1: starts out of range, moves to 90 m
                 {90.0, 0.0}};    // 2: starts at 90 m, moves out to 3000 m
  s.configs = {cfg, cfg, cfg};

  const Duration airtime = phy::time_on_air(cfg.modulation, 40);
  ASSERT_GT(airtime, Duration::milliseconds(500));
  s.txs = {TxEvent{0, Duration::milliseconds(1000), 40}};
  const Duration mid = Duration::milliseconds(1000) + airtime / 2;
  s.moves = {MoveEvent{1, mid, {90.0, 30.0}},
             MoveEvent{2, mid, {3000.0, 30.0}}};

  for (const double cell : {30.0, 0.0}) {  // tiny cells and derived cells
    SCOPED_TRACE(cell);
    sim::Simulator sim;
    ChannelConfig policy;
    policy.spatial_index = true;
    policy.cell_size_m = cell;
    Channel channel(sim, s.prop, policy, s.channel_seed);
    std::vector<Delivery> deliveries;
    std::vector<std::unique_ptr<VirtualRadio>> radios;
    std::vector<std::unique_ptr<Recorder>> recorders;
    for (std::size_t i = 0; i < s.positions.size(); ++i) {
      radios.push_back(std::make_unique<VirtualRadio>(
          sim, channel, static_cast<RadioId>(i + 1), s.positions[i],
          s.configs[i]));
      auto rec = std::make_unique<Recorder>();
      rec->radio = radios.back().get();
      rec->out = &deliveries;
      radios.back()->set_listener(rec.get());
      radios.back()->start_receive();
      recorders.push_back(std::move(rec));
    }
    for (const TxEvent& e : s.txs) {
      sim.schedule_at(TimePoint::origin() + e.at, [&radios, e] {
        radios[e.node]->transmit(std::vector<std::uint8_t>(e.len, 0xAB));
      });
    }
    for (const MoveEvent& e : s.moves) {
      sim.schedule_at(TimePoint::origin() + e.at,
                      [&radios, e] { radios[e.node]->set_position(e.to); });
    }
    sim.run_until(TimePoint::origin() + s.run_time);

    ASSERT_EQ(deliveries.size(), 1u);
    EXPECT_EQ(deliveries[0].rx, 2u);  // the radio that moved into range
    EXPECT_EQ(deliveries[0].tx, 1u);
    EXPECT_EQ(channel.stats().receptions_delivered, 1u);
  }

  // And the whole mini-scenario agrees with brute force bit-for-bit.
  expect_equivalent(s, "cell crossing");
}

// A receiver moving mid-flight must still LOSE a frame to interference it
// moved next to: the collision scan runs against the transmission grid at
// the receiver's end-of-frame position.
TEST(ChannelEquivalence, CellCrossingMidFlightInterferesCorrectly) {
  PropagationConfig prop = PropagationConfig::campus();
  prop.shadowing_sigma_db = 0.0;
  prop.fading_sigma_db = 0.0;

  RadioConfig cfg;
  cfg.tx_power_dbm = 2.0;
  cfg.modulation.sf = phy::SpreadingFactor::SF12;

  Script s;
  s.prop = prop;
  s.channel_seed = 9;
  s.run_time = Duration::seconds(10);
  // Receiver 3 starts near transmitter 1 (clean copy) and moves mid-flight
  // next to jammer 2, whose equal-power overlapping frame then wins on SIR.
  s.positions = {{0.0, 0.0},     // 0 -> id 1: wanted transmitter
                 {400.0, 0.0},   // 1 -> id 2: jammer (out of capture range of 1)
                 {60.0, 0.0}};   // 2 -> id 3: receiver, moves to {360, 0}
  s.configs = {cfg, cfg, cfg};
  const Duration airtime = phy::time_on_air(cfg.modulation, 40);
  s.txs = {TxEvent{0, Duration::milliseconds(1000), 40},
           TxEvent{1, Duration::milliseconds(1020), 40}};
  s.moves = {MoveEvent{2, Duration::milliseconds(1000) + airtime / 2,
                       {360.0, 0.0}}};

  const RunResult indexed = run_script(s, /*indexed=*/true);
  // Jammer sits 40 m from the receiver's final position vs 360 m for the
  // wanted signal: the wanted frame cannot clear the 6 dB co-SF capture
  // threshold and must be lost to the collision. (The jammer's own frame,
  // which outlives the overlap, may still deliver — that's capture.)
  EXPECT_GE(indexed.stats.dropped_collision, 1u);
  for (const Delivery& d : indexed.deliveries) {
    EXPECT_NE(d.tx, 1u) << "wanted frame must be jammed at the moved receiver";
  }
  expect_equivalent(s, "interference crossing");
}

}  // namespace
}  // namespace lm::radio
