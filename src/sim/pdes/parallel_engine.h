// Conservative-synchronization parallel discrete-event engine.
//
// One scenario, many cores: the node field is decomposed into contiguous
// spatial regions (sim/pdes/region_partition.h), each region owns a full
// Simulator (event heap + pooled event slab, reused unchanged), and regions
// advance in barrier-synchronized windows of one fixed lookahead (the
// minimum preamble airtime, sim/pdes/lookahead.h):
//
//   loop:
//     t0    = earliest pending event across all regions   (skip-ahead)
//     w_end = min(t0 + lookahead, horizon)
//     run every region's Simulator to w_end on the worker pool
//     barrier; drain the inter-region outboxes in region-id order
//
// Cross-region effects travel as timestamped messages: a region executing
// its window appends closures to *its own* outbox (single-writer, no
// locks); at the barrier the main thread applies every outbox in the fixed
// global order (source region id, append order) — the deterministic
// tiebreak that makes results byte-identical at any worker count. Within a
// destination Simulator, same-timestamp ordering is the engine's scheduling
// FIFO, which the fixed apply order also pins.
//
// The engine is protocol-agnostic: it knows nothing about radios or
// channels. The radio layer adapts a Channel onto the outboxes
// (radio/pdes_bridge.h) by exporting transmissions as ghost records.
//
// Determinism argument (the PR 4 golden traces and invariant sweep are the
// gate): (1) the region decomposition is a function of node geometry, not
// worker count; (2) each region's Simulator executes a sequence determined
// only by its own event contents; (3) window boundaries derive from event
// timestamps, which (2) fixes; (4) the barrier exchange order is fixed.
// Nothing observable depends on which worker ran which region or when.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/simulator.h"
#include "support/thread_pool.h"
#include "support/time.h"

namespace lm::sim::pdes {

/// Scenario-level PDES knobs, consumed by testbed::MeshScenario. The halo
/// (radio::pdes::interaction_radius_m) and the window
/// (conservative_lookahead) always derive from the radio config.
struct PdesConfig {
  /// Worker threads. 0 selects the classic single-Simulator serial path —
  /// the engine is never constructed. >= 1 runs the windowed engine (a
  /// single-region decomposition then executes the same event sequence as
  /// the serial path, just on a worker).
  std::size_t workers = 0;
  /// Cap on the region count (0 = only the halo bounds it).
  std::size_t max_regions = 0;
  /// Tile the field in two dimensions (TilePartition) instead of x-axis
  /// stripes. Region count then scales with field area. Default off: the
  /// stripe decomposition stays byte-identical to PR 7.
  bool tile = false;
  /// Forced tile grid for benches/tests (0 = derive from halo and
  /// max_regions). Requests the halo cannot admit are clamped with a
  /// logged note. Only meaningful with tile == true.
  std::size_t tile_rows = 0;
  std::size_t tile_cols = 0;
};

class ParallelEngine {
 public:
  /// `regions` independent event loops advanced by `workers` threads
  /// (clamped to >= 1) under fixed windows of `lookahead` (> 0).
  ParallelEngine(std::size_t regions, std::size_t workers, Duration lookahead);
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  std::size_t regions() const { return sims_.size(); }
  Duration lookahead() const { return lookahead_; }

  /// Region r's event loop. Between run_until() calls the engine is
  /// quiescent and the caller may schedule into / inspect any region
  /// freely from its own thread.
  Simulator& region(std::size_t r) { return *sims_.at(r); }

  /// Appends a cross-region message from region `from`. MUST be called
  /// either from the worker currently executing region `from`'s window, or
  /// from the caller's thread while the engine is quiescent — those are
  /// the only single-writer occupants of outbox `from`. `apply` runs on
  /// the main thread at the next barrier, in (source region, append order);
  /// it typically schedules events into another region's Simulator.
  void post(std::size_t from, std::function<void()> apply);

  /// Installs a hook run on the caller's thread after every barrier
  /// exchange, while the engine is quiescent (testbed::MeshScenario checks
  /// here that no mobile node has left its region). The hook may freely
  /// touch any region.
  void set_barrier_callback(std::function<void()> hook) {
    barrier_hook_ = std::move(hook);
  }

  /// Advances every region to exactly `t` in barrier-synchronized windows.
  /// Returns with all workers idle and all outboxes drained.
  void run_until(TimePoint t);

  TimePoint now() const { return now_; }

  /// Sum of every region's processed-event count (perf metric).
  std::uint64_t events_processed() const;

  /// Barrier windows executed so far (perf/diagnostic metric).
  std::uint64_t windows_run() const { return windows_; }
  /// Cross-region messages applied so far.
  std::uint64_t messages_applied() const { return messages_; }

 private:
  void exchange();

  const Duration lookahead_;
  std::vector<std::unique_ptr<Simulator>> sims_;
  // outbox_[r] is written only by whoever is executing region r (one
  // worker per region per window) and read only by the main thread at the
  // barrier; the pool's submit/wait_idle pair orders the two.
  std::vector<std::vector<std::function<void()>>> outbox_;
  std::function<void()> barrier_hook_;
  ThreadPool pool_;
  TimePoint now_ = TimePoint::origin();
  std::uint64_t windows_ = 0;
  std::uint64_t messages_ = 0;
};

}  // namespace lm::sim::pdes
