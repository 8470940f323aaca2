// bench_scale — channel delivery scaling: spatial index vs brute force.
//
// Fields of N = 100..3000 radios at constant density (~25 neighbors within
// the campus decode radius) exchange randomized traffic; we time the whole
// simulation with the spatial-index delivery path and with the O(N^2)
// brute-force sweep. The paper's library targets dozens of nodes, but the
// simulator must scale far past that to host the scaling experiments in
// DESIGN.md — near-linear growth for the indexed path is the acceptance
// bar (>= 5x over brute force at 1000 nodes), with identical deliveries
// between the two paths as the correctness sanity check.
//
// Brute force is skipped above 1000 nodes; it would dominate the runtime
// without adding information.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "radio/channel.h"
#include "radio/virtual_radio.h"
#include "sim/simulator.h"
#include "support/rng.h"
#include "testbed/topology.h"

namespace {

using namespace lm;

struct RearmListener : radio::RadioListener {
  radio::VirtualRadio* radio = nullptr;
  std::uint64_t frames = 0;
  void on_frame_received(std::span<const std::uint8_t>,
                         const radio::FrameMeta&) override {
    ++frames;
  }
  void on_tx_done() override { radio->start_receive(); }
};

struct ScaleResult {
  double wall_s = 0.0;
  std::uint64_t delivered = 0;
  std::uint64_t transmitted = 0;
  std::uint64_t culled = 0;
};

// Constant-density random field: ~1500 m mean spacing keeps each frame's
// conservative candidate disc (~6.8 km under campus propagation with the
// 4-sigma shadowing/fading margin) at a few dozen radios regardless of N.
ScaleResult run_field(std::size_t n, bool indexed) {
  sim::Simulator sim;
  radio::ChannelConfig policy;
  policy.spatial_index = indexed;
  radio::Channel channel(sim, radio::PropagationConfig::campus(), policy,
                         0xB0B5 + n);
  const double side_m = 1500.0 * std::sqrt(static_cast<double>(n));
  Rng rng(0x5CA1E * (n + 1));

  std::vector<std::unique_ptr<radio::VirtualRadio>> radios;
  std::vector<std::unique_ptr<RearmListener>> listeners;
  radios.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    radios.push_back(std::make_unique<radio::VirtualRadio>(
        sim, channel, static_cast<radio::RadioId>(i + 1),
        phy::Position{rng.uniform(0.0, side_m), rng.uniform(0.0, side_m)},
        radio::RadioConfig{}));
    auto l = std::make_unique<RearmListener>();
    l->radio = radios.back().get();
    radios.back()->set_listener(l.get());
    radios.back()->start_receive();
    listeners.push_back(std::move(l));
  }

  // Each node sends 3 frames at random times over two simulated minutes.
  constexpr int kFramesPerNode = 3;
  constexpr double kWindowMs = 120'000.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (int f = 0; f < kFramesPerNode; ++f) {
      const auto at = TimePoint::origin() +
                      Duration::milliseconds(
                          static_cast<std::int64_t>(rng.uniform(0.0, kWindowMs)));
      sim.schedule_at(at, [&radios, i] {
        radios[i]->transmit(std::vector<std::uint8_t>(20, 0x42));
      });
    }
  }

  bench::WallTimer timer;
  sim.run_until(TimePoint::origin() + Duration::milliseconds(
                                          static_cast<std::int64_t>(kWindowMs)) +
                Duration::seconds(5));
  ScaleResult r;
  r.wall_s = timer.seconds();
  r.delivered = channel.stats().receptions_delivered;
  r.transmitted = channel.stats().frames_transmitted;
  r.culled = channel.stats().dropped_out_of_range;
  return r;
}

// --- Chain field: serial N-scaling and PDES strong scaling -------------------
//
// One workload family — an N-node chain at campus spacing, hello +
// maintenance traffic for a simulated minute. Every node arms its
// maintenance timer at the same µs, so N timers share one timestamp: the
// phase-locked worst case for the serial event queue.
//
// Serial N-scaling runs the chain on the serial engine (workers = 0) at
// 1,250 to 10,000 nodes: events/s should stay flat across N, and the event
// count must be linear in N (checked in-run).
//
// PDES strong scaling decomposes the 10,000-node chain into a fixed
// 8-region stripe partition, swept over 1/2/4/8 workers. The region count
// never follows the worker count, so every sweep point executes the exact
// same event set; events/s, speedup-vs-1-worker, speedup-vs-serial (the
// serial 10k run above) and the barrier windows run are the metrics.
// Determinism doubles as the correctness check: the event count must be
// identical at every worker count.

struct PdesResult {
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::size_t regions = 0;
};

// --- Tile-grid sweep on a square field ---------------------------------------
//
// A 32x32 node grid at chain spacing spans ~12.4 km per axis — about 13
// interaction radii, so every grid shape up to 8x8 is admissible. One
// fixed workload swept over forced decompositions 1x8 (the stripe-equal-
// count baseline), 2x4, 4x4 and 8x8, recording events/s, ghost-exchange
// posts and windows run. Region count changes across shapes (different
// per-region RNG streams), so event counts are not comparable between
// shapes — each shape is its own workload; the cross-shape comparison is
// the *overhead share* (ghosts and windows per event), which 2-D tiling
// must not inflate versus stripes at the same region count.

struct TileResult {
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t ghosts = 0;
  std::uint64_t windows = 0;
  std::size_t regions = 0;
};

TileResult run_tile_grid(std::size_t rows, std::size_t cols) {
  lm::testbed::ScenarioConfig config = bench::campus_config(0x71E5ULL);
  config.mesh.hello_interval = Duration::seconds(10);
  config.mesh.maintenance_interval = Duration::seconds(2);
  config.pdes.workers = 2;
  config.pdes.tile = true;
  config.pdes.tile_rows = rows;
  config.pdes.tile_cols = cols;
  config.pdes.max_regions = rows * cols;
  lm::testbed::MeshScenario scenario(config);
  scenario.add_nodes(lm::testbed::grid(32, 32, bench::kChainSpacing));
  scenario.start_all();

  bench::WallTimer timer;
  scenario.run_for(Duration::minutes(1));
  TileResult r;
  r.wall_s = timer.seconds();
  r.events = scenario.events_processed();
  r.ghosts = scenario.pdes_messages_applied();
  r.windows = scenario.pdes_windows_run();
  r.regions = scenario.region_count();
  return r;
}

PdesResult run_chain_field(std::size_t nodes, std::size_t workers) {
  lm::testbed::ScenarioConfig config = bench::campus_config(0xDE5ULL);
  config.mesh.hello_interval = Duration::seconds(10);
  config.mesh.maintenance_interval = Duration::seconds(2);
  config.pdes.workers = workers;
  config.pdes.max_regions = 8;
  lm::testbed::MeshScenario scenario(config);
  scenario.add_nodes(lm::testbed::chain(nodes, bench::kChainSpacing));
  scenario.start_all();

  bench::WallTimer timer;
  scenario.run_for(Duration::minutes(1));
  PdesResult r;
  r.wall_s = timer.seconds();
  r.events = scenario.events_processed();
  r.windows = scenario.pdes_windows_run();
  r.regions = scenario.region_count();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("E14", "channel scaling: spatial index vs brute force",
                "simulator hosts 100..3000-node fields; indexed delivery "
                "scales near-linearly (>= 5x over O(N^2) at 1000 nodes)");
  bench::Reporter reporter("bench_scale", argc, argv);

  std::printf("%8s %12s %12s %10s %12s %12s\n", "nodes", "indexed s",
              "brute s", "speedup", "delivered", "culled");

  const std::size_t sizes[] = {100, 300, 1000, 3000};
  for (const std::size_t n : sizes) {
    const ScaleResult indexed = run_field(n, /*indexed=*/true);
    reporter.point(bench::format("n%zu.indexed", n), indexed.wall_s);
    reporter.metric(bench::format("n%zu.delivered", n),
                    static_cast<double>(indexed.delivered));
    reporter.metric(bench::format("n%zu.culled", n),
                    static_cast<double>(indexed.culled));

    const bool run_brute = n <= 1000;
    ScaleResult brute;
    if (run_brute) {
      brute = run_field(n, /*indexed=*/false);
      reporter.point(bench::format("n%zu.brute", n), brute.wall_s);
      if (brute.delivered != indexed.delivered ||
          brute.transmitted != indexed.transmitted) {
        std::fprintf(stderr,
                     "MISMATCH at n=%zu: indexed %llu/%llu vs brute %llu/%llu "
                     "(delivered/transmitted)\n",
                     n, static_cast<unsigned long long>(indexed.delivered),
                     static_cast<unsigned long long>(indexed.transmitted),
                     static_cast<unsigned long long>(brute.delivered),
                     static_cast<unsigned long long>(brute.transmitted));
        return 1;
      }
      const double speedup = brute.wall_s / std::max(indexed.wall_s, 1e-9);
      reporter.metric(bench::format("n%zu.speedup", n), speedup);
      std::printf("%8zu %12.3f %12.3f %9.1fx %12llu %12llu\n", n,
                  indexed.wall_s, brute.wall_s, speedup,
                  static_cast<unsigned long long>(indexed.delivered),
                  static_cast<unsigned long long>(indexed.culled));
    } else {
      std::printf("%8zu %12.3f %12s %10s %12llu %12llu\n", n, indexed.wall_s,
                  "-", "-", static_cast<unsigned long long>(indexed.delivered),
                  static_cast<unsigned long long>(indexed.culled));
    }
  }

  // --- Serial N-scaling -------------------------------------------------------
  constexpr std::size_t kPdesNodes = 10'000;
  std::printf("\nSerial N-scaling: N-node chain on the serial engine, "
              "1 simulated minute, median wall of 3 runs\n");
  std::printf("%8s %12s %12s %14s\n", "nodes", "events", "wall s", "events/s");
  const std::size_t chain_sizes[] = {1'250, 2'500, 5'000, kPdesNodes};
  double first_events_per_s = 0.0;
  double first_events_per_node = 0.0;
  double serial_wall = 0.0;
  for (const std::size_t n : chain_sizes) {
    // The small fields finish in tens of milliseconds, where one host
    // hiccup would swing the ratio, so each size reports its median run.
    std::array<double, 3> walls{};
    PdesResult r;
    for (double& wall : walls) {
      r = run_chain_field(n, /*workers=*/0);
      wall = r.wall_s;
    }
    std::sort(walls.begin(), walls.end());
    r.wall_s = walls[1];
    const double events_per_s =
        static_cast<double>(r.events) / std::max(r.wall_s, 1e-9);
    const double events_per_node =
        static_cast<double>(r.events) / static_cast<double>(n);
    if (n == chain_sizes[0]) {
      first_events_per_s = events_per_s;
      first_events_per_node = events_per_node;
    } else if (std::abs(events_per_node / first_events_per_node - 1.0) > 0.05) {
      // Same per-node traffic at every N: a superlinear event count means
      // the workload, not the engine, changed shape.
      std::fprintf(stderr,
                   "SERIAL N-SCALING MISMATCH: %zu nodes ran %.1f events/node, "
                   "%zu nodes ran %.1f\n",
                   n, events_per_node, chain_sizes[0], first_events_per_node);
      return 1;
    }
    serial_wall = r.wall_s;  // ends on the 10k run PDES is compared against
    reporter.point(bench::format("serial.n%zu", n), r.wall_s);
    reporter.metric(bench::format("serial.n%zu.events", n),
                    static_cast<double>(r.events));
    reporter.metric(bench::format("serial.n%zu.events_per_s", n), events_per_s);
    std::printf("%8zu %12llu %12.3f %14.0f\n", n,
                static_cast<unsigned long long>(r.events), r.wall_s,
                events_per_s);
    if (n == kPdesNodes) {
      reporter.metric("serial.n10000_vs_n1250", events_per_s / first_events_per_s);
    }
  }

  // --- PDES strong scaling ---------------------------------------------------
  std::printf("\nPDES strong scaling: %zu-node chain, fixed 8-region stripe "
              "partition, 1 simulated minute (host: %u hardware threads)\n",
              kPdesNodes, std::thread::hardware_concurrency());
  std::printf("%8s %8s %12s %14s %10s %10s\n", "workers", "regions", "wall s",
              "events/s", "speedup", "vs serial");
  reporter.metric("pdes.hw_threads",
                  static_cast<double>(std::thread::hardware_concurrency()));

  double wall_1w = 0.0;
  std::uint64_t events_1w = 0;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
    const PdesResult r = run_chain_field(kPdesNodes, workers);
    if (workers == 1) {
      wall_1w = r.wall_s;
      events_1w = r.events;
      reporter.metric("pdes.regions", static_cast<double>(r.regions));
      reporter.metric("pdes.events", static_cast<double>(r.events));
      reporter.metric("pdes.windows", static_cast<double>(r.windows));
    } else if (r.events != events_1w) {
      // The decomposition is worker-count independent; a different event
      // count means the conservative synchronization is broken.
      std::fprintf(stderr,
                   "PDES MISMATCH: %zu workers processed %llu events, "
                   "1 worker processed %llu\n",
                   workers, static_cast<unsigned long long>(r.events),
                   static_cast<unsigned long long>(events_1w));
      return 1;
    }
    const double events_per_s =
        static_cast<double>(r.events) / std::max(r.wall_s, 1e-9);
    const double speedup = wall_1w / std::max(r.wall_s, 1e-9);
    const double vs_serial = serial_wall / std::max(r.wall_s, 1e-9);
    reporter.point(bench::format("pdes.w%zu", workers), r.wall_s);
    reporter.metric(bench::format("pdes.w%zu.events_per_s", workers),
                    events_per_s);
    reporter.metric(bench::format("pdes.w%zu.speedup", workers), speedup);
    reporter.metric(bench::format("pdes.w%zu.vs_serial", workers), vs_serial);
    std::printf("%8zu %8zu %12.3f %14.0f %9.2fx %9.2fx\n", workers, r.regions,
                r.wall_s, events_per_s, speedup, vs_serial);
  }

  // --- PDES tile-grid sweep --------------------------------------------------
  std::printf("\nPDES tile sweep: 32x32-node grid (~12.4 km square), forced "
              "RxC decompositions, 2 workers, 1 simulated minute\n");
  std::printf("%8s %8s %12s %14s %10s %10s %12s\n", "grid", "regions",
              "wall s", "events/s", "ghosts", "windows", "ev/window");
  const std::pair<std::size_t, std::size_t> grids[] = {
      {1, 8}, {2, 4}, {4, 4}, {8, 8}};
  for (const auto& [rows, cols] : grids) {
    const TileResult r = run_tile_grid(rows, cols);
    if (r.regions != rows * cols) {
      std::fprintf(stderr,
                   "TILE MISMATCH: forced %zux%zu yielded %zu regions\n", rows,
                   cols, r.regions);
      return 1;
    }
    const double events_per_s =
        static_cast<double>(r.events) / std::max(r.wall_s, 1e-9);
    const double ev_per_window =
        static_cast<double>(r.events) /
        std::max<double>(static_cast<double>(r.windows), 1.0);
    const std::string tag = bench::format("tile.%zux%zu", rows, cols);
    reporter.point(tag, r.wall_s);
    reporter.metric(tag + ".events", static_cast<double>(r.events));
    reporter.metric(tag + ".events_per_s", events_per_s);
    reporter.metric(tag + ".ghosts", static_cast<double>(r.ghosts));
    reporter.metric(tag + ".windows", static_cast<double>(r.windows));
    reporter.metric(tag + ".events_per_window", ev_per_window);
    std::printf("%5zux%-2zu %8zu %12.3f %14.0f %10llu %10llu %12.1f\n", rows,
                cols, r.regions, r.wall_s, events_per_s,
                static_cast<unsigned long long>(r.ghosts),
                static_cast<unsigned long long>(r.windows), ev_per_window);
  }
  return 0;
}
