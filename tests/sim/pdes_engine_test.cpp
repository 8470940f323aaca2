// Unit tests for the conservative PDES building blocks: tile and stripe
// partition geometry, lookahead derivation, and the windowed barrier engine itself
// (skip-ahead, cross-region messaging, worker-count-independent results).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "phy/airtime.h"
#include "phy/lora_params.h"
#include "sim/pdes/lookahead.h"
#include "sim/pdes/parallel_engine.h"
#include "sim/pdes/region_partition.h"
#include "support/time.h"

namespace lm::sim::pdes {
namespace {

// --- TileStripes: the 1-row TilePartition ----------------------------------

TEST(TileStripes, NarrowFieldCollapsesToOneRegion) {
  const std::vector<double> xs{0.0, 300.0, 600.0, 900.0};
  const auto p = TilePartition::stripes(xs, 1000.0, 0);
  EXPECT_EQ(p.count(), 1u);
  EXPECT_EQ(p.region_of(-1e9, 0.0), 0u);
  EXPECT_EQ(p.region_of(1e9, 0.0), 0u);
}

TEST(TileStripes, EmptyAndDegenerateInputsCollapse) {
  EXPECT_EQ(TilePartition::stripes({}, 500.0, 0).count(), 1u);
  EXPECT_EQ(TilePartition::stripes({1.0, 2.0}, 0.0, 0).count(), 1u);
}

TEST(TileStripes, WideFieldSplitsWithStripesAtLeastOneHaloWide) {
  std::vector<double> xs;
  for (int i = 0; i < 40; ++i) xs.push_back(400.0 * i);  // extent 15600
  const double halo = 936.0;
  const auto p = TilePartition::stripes(xs, halo, 0);
  EXPECT_EQ(p.rows(), 1u);
  EXPECT_EQ(p.count(), static_cast<std::size_t>(15600.0 / halo));  // 16
  EXPECT_GE(p.col_width(), halo);
  // Contiguous coverage, ordered regions.
  for (std::size_t c = 0; c + 1 < p.count(); ++c) {
    EXPECT_DOUBLE_EQ(p.left_edge(c) + p.col_width(), p.left_edge(c + 1));
  }
  EXPECT_EQ(p.region_of(0.0, 0.0), 0u);
  EXPECT_EQ(p.region_of(15600.0, 0.0), p.count() - 1);
  // Clamped outside the original extent.
  EXPECT_EQ(p.region_of(-500.0, 0.0), 0u);
  EXPECT_EQ(p.region_of(20000.0, 0.0), p.count() - 1);
}

TEST(TileStripes, MaxRegionsCapsTheCount) {
  std::vector<double> xs;
  for (int i = 0; i < 40; ++i) xs.push_back(400.0 * i);
  const auto p = TilePartition::stripes(xs, 936.0, 7);
  EXPECT_EQ(p.count(), 7u);
  EXPECT_GE(p.col_width(), 936.0);
  // 40 nodes over 7 stripes cannot split evenly; the assignment is still
  // total and monotone.
  std::size_t prev = 0;
  for (const double x : xs) {
    const std::size_t r = p.region_of(x, 0.0);
    EXPECT_GE(r, prev);
    EXPECT_LT(r, 7u);
    prev = r;
  }
  EXPECT_EQ(p.region_of(xs.back(), 0.0), 6u);
}

TEST(TileStripes, AssignmentIsAFunctionOfGeometryOnly) {
  std::vector<double> xs;
  for (int i = 0; i < 25; ++i) xs.push_back(250.0 * i);
  const auto a = TilePartition::stripes(xs, 800.0, 4);
  const auto b = TilePartition::stripes(xs, 800.0, 4);
  ASSERT_EQ(a.count(), b.count());
  for (const double x : xs) EXPECT_EQ(a.region_of(x, 0.0), b.region_of(x, 0.0));
}

// --- TilePartition ----------------------------------------------------------

// The ISSUE 8 scaling claim: on a square field a 2-D tiling admits at least
// twice the regions an x-stripe decomposition does at the same halo,
// because stripes can only subdivide one axis.
TEST(TilePartition, SquareFieldAdmitsAtLeastTwiceTheStripeRegions) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 40; ++i) {
    xs.push_back(400.0 * i);  // extent 15600 on both axes
    ys.push_back(400.0 * i);
  }
  const double halo = 936.0;
  const auto stripe = TilePartition::stripes(xs, halo, 0);
  const auto tile = TilePartition::make(xs, ys, halo, 0);
  EXPECT_EQ(stripe.count(), 16u);
  EXPECT_EQ(tile.count(), tile.rows() * tile.cols());
  EXPECT_GE(tile.count(), 2 * stripe.count());
  // Every tile still spans at least one interaction radius on both axes.
  EXPECT_GE(tile.col_width(), halo);
  EXPECT_GE(tile.row_height(), halo);
}

TEST(TilePartition, StripesEqualsMakeWithFlatY) {
  // A pseudo-random scatter (fixed LCG, no global RNG): stripes(xs) must be
  // make(xs, ys) with every y equal — same count, same float arithmetic,
  // same assignment for every probe.
  std::vector<double> xs;
  std::uint64_t s = 0x2545F4914F6CDD1DULL;
  for (int i = 0; i < 64; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    xs.push_back(static_cast<double>(s >> 40) / 100.0);  // ~0..167772
  }
  const std::vector<double> flat(xs.size(), 0.0);
  for (const std::size_t cap : {std::size_t{0}, std::size_t{7}}) {
    const auto stripes = TilePartition::stripes(xs, 936.0, cap);
    const auto tiles = TilePartition::make(xs, flat, 936.0, cap);
    ASSERT_EQ(stripes.rows(), 1u);
    ASSERT_EQ(tiles.rows(), 1u);
    ASSERT_EQ(stripes.cols(), tiles.cols());
    EXPECT_GT(stripes.cols(), 1u);
    EXPECT_EQ(stripes.col_width(), tiles.col_width());
    for (std::size_t c = 0; c < stripes.cols(); ++c) {
      EXPECT_EQ(stripes.left_edge(c), tiles.left_edge(c));
    }
    for (const double x : xs) {
      EXPECT_EQ(stripes.region_of(x, 1e9), tiles.region_of(x, 1e9));
      EXPECT_EQ(stripes.region_of(x, -1e9), tiles.region_of(x, -1e9));
    }
    EXPECT_EQ(stripes.region_of(-1e9, 0.0), tiles.region_of(-1e9, 0.0));
    EXPECT_EQ(stripes.region_of(1e9, 0.0), tiles.region_of(1e9, 0.0));
  }
}

TEST(TilePartition, NarrowFieldCollapsesToSingleRegion) {
  const std::vector<double> xs{0.0, 300.0, 600.0};
  const std::vector<double> ys{0.0, 200.0, 500.0};
  const auto p = TilePartition::make(xs, ys, 1000.0, 0);
  EXPECT_EQ(p.count(), 1u);
  EXPECT_EQ(p.rows(), 1u);
  EXPECT_EQ(p.cols(), 1u);
  EXPECT_EQ(p.region_of(-1e9, 1e9), 0u);
  EXPECT_EQ(TilePartition().count(), 1u);
}

TEST(TilePartition, ForcedGridBeyondHaloClampsInsteadOfAsserting) {
  // 2000 m extent at a 936 m halo admits 2 tiles per axis; a forced 8x8
  // request must fall back (with a logged note), never assert.
  std::vector<double> xs, ys;
  for (int i = 0; i <= 5; ++i) {
    xs.push_back(400.0 * i);
    ys.push_back(400.0 * i);
  }
  const auto p = TilePartition::make(xs, ys, 936.0, 0, /*forced_rows=*/8,
                                     /*forced_cols=*/8);
  EXPECT_EQ(p.rows(), 2u);
  EXPECT_EQ(p.cols(), 2u);
  EXPECT_EQ(p.count(), 4u);
}

TEST(TilePartition, RegionIdsAreRowMajorAndCapped) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 40; ++i) {
    xs.push_back(400.0 * i);
    ys.push_back(400.0 * i);
  }
  const auto p = TilePartition::make(xs, ys, 936.0, /*max_regions=*/8);
  EXPECT_LE(p.count(), 8u);
  EXPECT_GT(p.count(), 1u);
  EXPECT_GE(p.col_width(), 936.0);
  EXPECT_GE(p.row_height(), 936.0);
  // Row-major layout: region_of composes the per-axis cuts.
  for (const double x : xs) {
    for (const double y : ys) {
      EXPECT_EQ(p.region_of(x, y), p.row_of(y) * p.cols() + p.col_of(x));
    }
  }
  EXPECT_EQ(p.region_of(-1e9, -1e9), 0u);
  EXPECT_EQ(p.region_of(1e9, 1e9), p.count() - 1);
}

// --- conservative_lookahead -------------------------------------------------

TEST(Lookahead, EqualsMinimumPreambleTimeOverTheModulationSet) {
  phy::Modulation sf7;
  sf7.sf = phy::SpreadingFactor::SF7;
  phy::Modulation sf9;
  sf9.sf = phy::SpreadingFactor::SF9;
  const phy::Modulation mods[] = {sf9, sf7};
  EXPECT_EQ(conservative_lookahead(mods), phy::preamble_time(sf7));
  EXPECT_GT(conservative_lookahead(mods), Duration::zero());
}

TEST(Lookahead, FlightTimeAddsOnTop) {
  phy::Modulation sf7;
  sf7.sf = phy::SpreadingFactor::SF7;
  const phy::Modulation mods[] = {sf7};
  const Duration base = conservative_lookahead(mods, 0.0);
  const Duration with_flight = conservative_lookahead(mods, 3000.0);  // 3 km
  EXPECT_EQ(with_flight - base, Duration::microseconds(10));  // ~3.34 us/km
}

TEST(Lookahead, MaxWindowUsesWholeFrameAirtimeFloor) {
  phy::Modulation sf7;
  sf7.sf = phy::SpreadingFactor::SF7;
  phy::Modulation sf9;
  sf9.sf = phy::SpreadingFactor::SF9;
  const phy::Modulation mods[] = {sf9, sf7};
  // The ceiling is the fastest modulation's airtime for the smallest frame
  // the link layer can emit (a bare 5-byte header) — strictly more than the
  // preamble-only conservative minimum.
  EXPECT_EQ(conservative_lookahead_max(mods, 5), phy::time_on_air(sf7, 5));
  EXPECT_GT(conservative_lookahead_max(mods, 5), conservative_lookahead(mods));
  const Duration base = conservative_lookahead_max(mods, 5, 0.0);
  const Duration with_flight = conservative_lookahead_max(mods, 5, 3000.0);
  EXPECT_EQ(with_flight - base, Duration::microseconds(10));
}

// --- ParallelEngine ---------------------------------------------------------

TEST(ParallelEngine, SingleRegionRunsEventsAndAdvancesTime) {
  ParallelEngine engine(1, 2, Duration::milliseconds(10));
  std::vector<int> order;
  engine.region(0).schedule_at(TimePoint::from_us(5'000),
                               [&] { order.push_back(1); });
  engine.region(0).schedule_at(TimePoint::from_us(25'000),
                               [&] { order.push_back(2); });
  engine.run_until(TimePoint::from_us(100'000));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(engine.now(), TimePoint::from_us(100'000));
  EXPECT_EQ(engine.region(0).now(), TimePoint::from_us(100'000));
  EXPECT_EQ(engine.events_processed(), 2u);
}

TEST(ParallelEngine, SkipAheadJumpsIdleStretchesInFewWindows) {
  ParallelEngine engine(2, 2, Duration::milliseconds(1));
  int fired = 0;
  // Two events an hour apart: a naive fixed-step engine would grind through
  // 3.6M one-millisecond windows; skip-ahead needs a handful.
  engine.region(0).schedule_at(TimePoint::from_us(1'000), [&] { ++fired; });
  engine.region(1).schedule_at(TimePoint::origin() + Duration::hours(1),
                               [&] { ++fired; });
  engine.run_until(TimePoint::origin() + Duration::hours(2));
  EXPECT_EQ(fired, 2);
  EXPECT_LE(engine.windows_run(), 4u);
}

TEST(ParallelEngine, CrossRegionMessagesApplyAtBarriersInOrder) {
  ParallelEngine engine(3, 2, Duration::milliseconds(10));
  std::vector<std::string> log;
  // Regions 2 and 0 each post a message during the same window; the barrier
  // must apply them in region-id order regardless of submission timing.
  engine.region(2).schedule_at(TimePoint::from_us(1'000), [&] {
    engine.post(2, [&] { log.push_back("from2"); });
  });
  engine.region(0).schedule_at(TimePoint::from_us(2'000), [&] {
    engine.post(0, [&] { log.push_back("from0"); });
  });
  engine.run_until(TimePoint::from_us(20'000));
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "from0");
  EXPECT_EQ(log[1], "from2");
  EXPECT_EQ(engine.messages_applied(), 2u);
}

TEST(ParallelEngine, MessagesScheduleIntoOtherRegions) {
  ParallelEngine engine(2, 2, Duration::milliseconds(5));
  std::vector<std::int64_t> deliveries;
  // Region 0 sends a "frame" that region 1 must process at an exact later
  // timestamp (beyond the current window, as the lookahead contract
  // guarantees for real radio traffic).
  engine.region(0).schedule_at(TimePoint::from_us(1'000), [&] {
    const TimePoint deliver_at = TimePoint::from_us(8'000);
    engine.post(0, [&, deliver_at] {
      engine.region(1).schedule_at(deliver_at, [&, deliver_at] {
        deliveries.push_back(deliver_at.us());
      });
    });
  });
  engine.run_until(TimePoint::from_us(50'000));
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0], 8'000);
}

// One fixed workload, many worker counts: the observable execution log must
// be identical, including same-timestamp ordering.
std::vector<std::string> run_ping_pong(std::size_t workers) {
  ParallelEngine engine(4, workers, Duration::milliseconds(2));
  std::vector<std::vector<std::string>> region_logs(4);
  // Each region ticks every 3 ms and hands a token to the next region,
  // scheduled 4 ms ahead (>= lookahead, as the radio bridge guarantees).
  std::function<void(std::size_t, int)> hop = [&](std::size_t r, int n) {
    if (n <= 0) return;
    region_logs[r].push_back("hop" + std::to_string(n) + "@" +
                             std::to_string(engine.region(r).now().us()));
    const std::size_t next = (r + 1) % 4;
    const TimePoint at = engine.region(r).now() + Duration::milliseconds(4);
    engine.post(r, [&, next, at, n] {
      engine.region(next).schedule_at(at, [&, next, n] { hop(next, n - 1); });
    });
  };
  engine.region(0).schedule_at(TimePoint::from_us(1'000), [&] { hop(0, 24); });
  engine.run_until(TimePoint::origin() + Duration::seconds(1));
  std::vector<std::string> merged;
  for (const auto& log : region_logs) {
    for (const auto& line : log) merged.push_back(line);
  }
  return merged;
}

TEST(ParallelEngine, ResultsIdenticalAcrossWorkerCounts) {
  const auto base = run_ping_pong(1);
  ASSERT_EQ(base.size(), 24u);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{3},
                                    std::size_t{7}, std::size_t{8}}) {
    EXPECT_EQ(run_ping_pong(workers), base) << workers << " workers";
  }
}

// --- Adaptive lookahead windows ---------------------------------------------

TEST(ParallelEngine, AdaptiveWindowsWidenWhenNoBoundaryTransmissionIsPending) {
  ParallelEngine engine(2, 2, Duration::milliseconds(1),
                        Duration::milliseconds(10));
  EXPECT_EQ(engine.lookahead(), Duration::milliseconds(1));
  EXPECT_EQ(engine.max_lookahead(), Duration::milliseconds(10));
  int fired = 0;
  engine.region(0).schedule_at(TimePoint::from_us(500), [&] { ++fired; });
  engine.region(1).schedule_at(TimePoint::from_us(95'000), [&] { ++fired; });
  engine.run_until(TimePoint::from_us(100'000));
  EXPECT_EQ(fired, 2);
  // No region ever reported a boundary TX, so every window ran at the
  // 10 ms ceiling.
  EXPECT_GT(engine.windows_run(), 0u);
  EXPECT_EQ(engine.windows_widened(), engine.windows_run());
}

TEST(ParallelEngine, BoundaryTransmissionForcesTheConservativeWindow) {
  ParallelEngine engine(2, 2, Duration::milliseconds(1),
                        Duration::milliseconds(10));
  // A boundary transmission that outlives the whole run pins every window
  // to the conservative minimum.
  engine.note_boundary_tx(0, TimePoint::from_us(1'000'000));
  engine.region(0).schedule_at(TimePoint::from_us(500), [] {});
  engine.region(1).schedule_at(TimePoint::from_us(9'500), [] {});
  engine.run_until(TimePoint::from_us(20'000));
  EXPECT_EQ(engine.windows_widened(), 0u);
}

TEST(ParallelEngine, WideningResumesAfterTheBoundaryTransmissionEnds) {
  ParallelEngine engine(2, 2, Duration::milliseconds(1),
                        Duration::milliseconds(10));
  engine.note_boundary_tx(1, TimePoint::from_us(2'500));
  engine.region(0).schedule_at(TimePoint::from_us(500), [] {});
  engine.region(1).schedule_at(TimePoint::from_us(50'000), [] {});
  engine.run_until(TimePoint::from_us(60'000));
  // Early windows (t0 < 2.5 ms) stay conservative; once the high-water mark
  // is in the past, windows stretch to the ceiling again.
  EXPECT_GT(engine.windows_widened(), 0u);
  EXPECT_LT(engine.windows_widened(), engine.windows_run());
}

// Regression pin for the adaptive-window staleness bound documented in
// sim/pdes/lookahead.h: a boundary frame that *starts inside* an
// already-widened window (so note_boundary_tx could not pin it beforehand)
// is invisible to neighbor-region carrier queries until the next barrier —
// and that blind stretch is bounded by one whole-frame airtime, because the
// ceiling itself is the whole-frame airtime floor. Delivery timing is
// unaffected; only carrier *presence* lags.
TEST(ParallelEngine, FrameStartingInsideWidenedWindowIsStaleAtMostOneFrame) {
  // Ceiling = the real whole-frame floor for an SF7 link-header frame, so
  // the test pins the production bound, not an arbitrary 10 ms.
  phy::Modulation sf7;
  sf7.sf = phy::SpreadingFactor::SF7;
  const phy::Modulation mods[] = {sf7};
  const Duration frame_floor = conservative_lookahead_max(mods, 5);
  const Duration tight = conservative_lookahead(mods);
  ASSERT_GT(frame_floor, tight);
  ParallelEngine engine(2, 2, tight, frame_floor);

  // Region 0 starts a boundary frame 1 ms into the first window — after the
  // widening decision was already taken — and posts its ghost, which the
  // barrier applies to region 1.
  const TimePoint frame_start = TimePoint::from_us(1'000);
  std::int64_t ghost_applied_us = -1;
  bool carrier_visible = false;
  engine.region(0).schedule_at(frame_start, [&] {
    engine.post(0, [&] {
      ghost_applied_us = engine.region(1).now().us();
      carrier_visible = true;
    });
  });

  // Region 1 runs a CAD probe every 5 ms and records what it saw.
  std::vector<std::pair<std::int64_t, bool>> probes;
  for (int i = 1; i <= 30; ++i) {
    const TimePoint at = TimePoint::from_us(i * 5'000);
    engine.region(1).schedule_at(at, [&probes, &carrier_visible, at] {
      probes.emplace_back(at.us(), carrier_visible);
    });
  }
  engine.run_until(TimePoint::origin() + 3 * frame_floor);

  // The ghost landed at the first barrier after the frame started…
  ASSERT_GE(ghost_applied_us, frame_start.us());
  // …which is the staleness bound under test: within one frame airtime.
  EXPECT_LE(ghost_applied_us - frame_start.us(), frame_floor.us());
  // Probes before the barrier are blind to the frame (that is the accepted
  // trade-off), probes after it all see the carrier.
  for (const auto& [t, saw] : probes) {
    if (t < ghost_applied_us) {
      EXPECT_FALSE(saw) << "probe at " << t << "us saw a pre-barrier ghost";
    } else {
      EXPECT_TRUE(saw) << "probe at " << t << "us missed the applied ghost";
    }
  }
}

TEST(ParallelEngine, FixedWindowsWhenNoCeilingIsConfigured) {
  // Default construction (no max_lookahead) must behave exactly like PR 7:
  // every window is the conservative width and nothing counts as widened.
  ParallelEngine engine(2, 2, Duration::milliseconds(2));
  EXPECT_EQ(engine.max_lookahead(), Duration::milliseconds(2));
  engine.region(0).schedule_at(TimePoint::from_us(500), [] {});
  engine.run_until(TimePoint::from_us(10'000));
  EXPECT_EQ(engine.windows_widened(), 0u);
}

}  // namespace
}  // namespace lm::sim::pdes
