// Engine microbenchmark — the perf-trajectory anchor for the simulation
// core itself (no paper experiment attached).
//
// Measurements:
//  * raw event loop: self-rescheduling timers with no radio or protocol
//    work, isolating scheduler overhead (slab allocation, heap push/pop);
//  * routing-table merge: one 120-entry table taking full beacons from 8
//    neighbours and building its own, without any simulator around it;
//  * frame delivery: a static grid of bare radios (no protocol stack) on
//    a campus channel sending on a fixed schedule, so the time is the
//    channel's end-of-frame sweep and little else;
//  * 16-node mesh: a full campus-field deployment with beacons, CSMA and
//    Poisson traffic — events/sec and simulated-seconds per wall-second as
//    experienced by real experiments.
//
// Cancel-heavy churn is included in the raw loop because protocol code
// cancels timers constantly (CSMA backoff, retransmission timers).
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "metrics/packet_tracker.h"
#include "net/packet.h"
#include "net/routing_table.h"
#include "radio/channel.h"
#include "radio/virtual_radio.h"
#include "sim/simulator.h"
#include "support/pool.h"
#include "testbed/topology.h"
#include "testbed/traffic.h"

using namespace lm;

namespace {

struct LoopResult {
  double events_per_sec = 0.0;
  double wall_s = 0.0;
};

// Raw scheduler throughput: `timers` concurrent self-rescheduling chains,
// plus one cancelled-then-rescheduled timer per firing to exercise the
// cancel path the way CSMA/backoff code does.
LoopResult raw_event_loop(std::size_t timers, std::uint64_t total_events) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  std::vector<std::function<void()>> chains(timers);
  sim::TimerId victim = 0;
  for (std::size_t i = 0; i < timers; ++i) {
    chains[i] = [&, i] {
      ++fired;
      // Churn: re-arm a decoy timer and cancel the previous one, as protocol
      // retry logic does on every state change.
      sim.cancel(victim);
      victim = sim.schedule_after(Duration::hours(1), [] {});
      if (fired < total_events) {
        sim.schedule_after(Duration::milliseconds(1 + static_cast<std::int64_t>(i)),
                           chains[i]);
      }
    };
    sim.schedule_after(Duration::milliseconds(1), chains[i]);
  }
  bench::WallTimer wall;
  while (fired < total_events && sim.step()) {
  }
  LoopResult r;
  r.wall_s = wall.seconds();
  r.events_per_sec =
      r.wall_s > 0 ? static_cast<double>(sim.events_processed()) / r.wall_s : 0.0;
  return r;
}

struct ChurnResult {
  double ops_per_sec = 0.0;
  double wall_s = 0.0;
};

// Timer churn: the retry/backoff pattern in its pure form. Every firing
// cancels three armed decoys and re-arms three fresh ones, so the slab's
// recycle path and the event heap's dead-entry purge dominate the profile
// instead of the event dispatch itself.
ChurnResult timer_churn(std::size_t timers, std::uint64_t total_fires) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  std::vector<std::function<void()>> chains(timers);
  std::vector<std::array<sim::TimerId, 3>> decoys(timers, {0, 0, 0});
  for (std::size_t i = 0; i < timers; ++i) {
    chains[i] = [&, i] {
      ++fired;
      for (sim::TimerId& id : decoys[i]) {
        sim.cancel(id);
        id = sim.schedule_after(Duration::minutes(1 + static_cast<std::int64_t>(i % 7)),
                                [] {});
      }
      if (fired < total_fires) {
        sim.schedule_after(Duration::microseconds(50 + static_cast<std::int64_t>(i)),
                           chains[i]);
      }
    };
    sim.schedule_after(Duration::microseconds(1), chains[i]);
  }
  bench::WallTimer wall;
  while (fired < total_fires && sim.step()) {
  }
  ChurnResult r;
  r.wall_s = wall.seconds();
  // 3 cancels + 3 decoy schedules + 1 self-reschedule per firing.
  r.ops_per_sec =
      r.wall_s > 0 ? 7.0 * static_cast<double>(fired) / r.wall_s : 0.0;
  return r;
}

struct AllocResult {
  double packets_per_sec = 0.0;
  double pool_hit_rate = 0.0;
  std::uint64_t refills = 0;
  std::uint64_t oversize = 0;
};

// Allocation pressure on the codec path: encode/decode round-trips with
// pooled frame and payload buffers. After warm-up the block pool should
// absorb every buffer (hit rate ~1, zero refills); a regression here shows
// up long before it is visible in wall-clock numbers.
AllocResult alloc_pressure(std::uint64_t packets) {
  net::DataPacket p;
  p.link = net::LinkHeader{0x0002, 0x0001};
  p.route.final_dst = 0x0005;
  p.route.origin = 0x0001;
  p.payload.assign(32, 0xAB);
  net::FrameBuffer frame;
  for (std::uint64_t i = 0; i < 1000; ++i) {  // warm the pool
    net::encode_into(net::Packet{p}, frame);
    auto decoded = net::decode(frame);
    if (!decoded) return {};
  }
  support::BlockPool::reset_stats();
  bench::WallTimer wall;
  std::uint64_t checksum = 0;
  for (std::uint64_t i = 0; i < packets; ++i) {
    p.payload[0] = static_cast<std::uint8_t>(i);
    net::encode_into(net::Packet{p}, frame);
    auto decoded = net::decode(frame);
    if (decoded) ++checksum;
  }
  const double wall_s = wall.seconds();
  const auto stats = support::BlockPool::stats();
  AllocResult r;
  if (checksum != packets) return r;  // decode failure: report zeros
  r.packets_per_sec = wall_s > 0 ? static_cast<double>(packets) / wall_s : 0.0;
  const double served = static_cast<double>(stats.pool_hits + stats.pool_refills);
  r.pool_hit_rate =
      served > 0 ? static_cast<double>(stats.pool_hits) / served : 1.0;
  r.refills = stats.pool_refills;
  r.oversize = stats.oversize;
  return r;
}

struct BeaconResult {
  double apply_ns = 0.0;      // mean wall time of one apply_beacon()
  double advertise_ns = 0.0;  // mean wall time of one advertisement()
  std::uint64_t routing_changes = 0;  // beacons that changed the table
  std::size_t table_size = 0;
};

// The distance-vector merge in isolation, at city-field table sizes. 120
// destinations sit on an address grid around the receiver; 8 of them are
// its neighbours. Each neighbour's beacon is a full frame: its metric-0
// self entry plus the 61 grid addresses nearest to it, in address order,
// with hop counts that grow with grid distance. One beacon in four reports
// one of its routes a hop worse than usual, so some beacons move routes and
// most only refresh them. After every beacon the receiver builds its own
// advertisement, as a node does before its next broadcast.
BeaconResult beacon_merge(std::size_t rounds) {
  constexpr std::size_t kGrid = 120;
  constexpr std::size_t kNeighbors = 8;
  constexpr std::size_t kSpan = net::kMaxRoutingEntries;  // entries per beacon
  const auto address = [](std::size_t i) {
    return static_cast<net::Address>(0x0400 + 5 * i);
  };
  const net::Address self = address(kGrid / 2) + 2;  // off the grid
  net::RoutingTable table(self, Duration::minutes(10));
  Rng rng(13);
  std::vector<net::RoutingEntry> beacon;
  std::uint64_t apply_ns = 0;
  std::uint64_t advertise_ns = 0;
  BeaconResult r;
  for (std::size_t round = 0; round < rounds; ++round) {
    const TimePoint now = TimePoint::origin() + Duration::seconds(
        60 * static_cast<std::int64_t>(round));
    for (std::size_t n = 0; n < kNeighbors; ++n) {
      const std::size_t home = 7 + 15 * n;  // the neighbour's grid index
      beacon.clear();
      const std::size_t worse = rng.index(4) == 0 ? rng.index(kSpan) : kSpan;
      for (std::size_t k = 0; k < kSpan; ++k) {
        const std::size_t i = (home + kGrid - kSpan / 2 + k) % kGrid;
        const std::size_t distance = i > home ? i - home : home - i;
        const std::size_t ring = std::min(distance, kGrid - distance);
        const auto metric = static_cast<std::uint8_t>(
            i == home ? 0 : 1 + ring / 8 + (k == worse ? 1 : 0));
        beacon.push_back({address(i), metric, net::roles::kNone});
      }
      std::sort(beacon.begin(), beacon.end(),
                [](const net::RoutingEntry& a, const net::RoutingEntry& b) {
                  return a.address < b.address;
                });
      const auto t0 = std::chrono::steady_clock::now();
      const bool changed = table.apply_beacon(address(home), beacon, now);
      const auto t1 = std::chrono::steady_clock::now();
      const auto adv = table.advertisement();
      const auto t2 = std::chrono::steady_clock::now();
      if (changed) ++r.routing_changes;
      if (adv.size() != kSpan) return {};  // a full table fills the frame
      apply_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
      advertise_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1).count());
    }
  }
  const double calls = static_cast<double>(rounds * kNeighbors);
  r.apply_ns = static_cast<double>(apply_ns) / calls;
  r.advertise_ns = static_cast<double>(advertise_ns) / calls;
  r.table_size = table.size();
  return r;
}

struct DeliveryResult {
  double ns_per_reception = 0.0;
  std::uint64_t receptions = 0;  // reception opportunities decided
  std::uint64_t delivered = 0;
  std::uint64_t culled = 0;
  std::uint64_t frames = 0;
  double wall_s = 0.0;
};

// Re-arms receive after each frame sent; counts nothing itself.
struct BareListener : radio::RadioListener {
  radio::VirtualRadio* radio = nullptr;
  void on_frame_received(std::span<const std::uint8_t>,
                         const radio::FrameMeta&) override {}
  void on_tx_done() override { radio->start_receive(); }
};

// Channel delivery in isolation: side x side bare radios 600 m apart under
// campus propagation (shadowing and fading on), all at SF7 and 14 dBm.
// Each round every radio sends one 24-byte frame, radio i at 30 ms * i
// into the 20 s round, so each frame overlaps its index neighbours' and
// collisions stay in play. A reception is one receiver the channel
// decides on (delivered or dropped at that receiver); receivers beyond the
// decode radius are culled in bulk and not counted.
DeliveryResult frame_delivery(std::size_t side, int rounds) {
  sim::Simulator sim;
  radio::Channel channel(sim, radio::PropagationConfig::campus(), 19);
  std::vector<std::unique_ptr<radio::VirtualRadio>> radios;
  std::vector<BareListener> listeners(side * side);
  for (std::size_t i = 0; i < side * side; ++i) {
    const phy::Position at{600.0 * static_cast<double>(i % side),
                           600.0 * static_cast<double>(i / side)};
    radios.push_back(std::make_unique<radio::VirtualRadio>(
        sim, channel, static_cast<radio::RadioId>(i + 1), at,
        radio::RadioConfig{}));
    listeners[i].radio = radios.back().get();
    radios.back()->set_listener(&listeners[i]);
    radios.back()->start_receive();
  }
  const std::vector<std::uint8_t> payload(24, 0x5A);
  for (int round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < radios.size(); ++i) {
      const Duration at = Duration::seconds(20 * round) +
                          Duration::milliseconds(30 * static_cast<std::int64_t>(i));
      sim.schedule_at(TimePoint::origin() + at, [&radios, &payload, i] {
        radios[i]->transmit(std::vector<std::uint8_t>(payload));
      });
    }
  }
  bench::WallTimer wall;
  sim.run();
  DeliveryResult r;
  r.wall_s = wall.seconds();
  const radio::ChannelStats& st = channel.stats();
  r.frames = st.frames_transmitted;
  r.delivered = st.receptions_delivered;
  r.culled = st.dropped_out_of_range;
  r.receptions = st.receptions_delivered + st.dropped_not_listening +
                 st.dropped_blocked_link + st.dropped_below_sensitivity +
                 st.dropped_snr + st.dropped_collision +
                 st.dropped_modulation_mismatch;
  if (r.receptions > 0) {
    r.ns_per_reception = 1e9 * r.wall_s / static_cast<double>(r.receptions);
  }
  return r;
}

struct MeshResult {
  double events_per_sec = 0.0;
  double sim_s_per_wall_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t events = 0;
  double pdr = 0.0;
};

// The reference workload: 16-node campus field, convergence, then five days
// of beacons + 4 Poisson flows.
MeshResult mesh_16(std::uint64_t seed) {
  auto cfg = bench::campus_config(seed);
  cfg.mesh.hello_interval = Duration::seconds(60);
  testbed::MeshScenario s(cfg);
  Rng layout_rng(1016);
  s.add_nodes(testbed::connected_random_field(16, 2000.0, 2000.0, 550.0,
                                              layout_rng));
  metrics::PacketTracker tracker;
  testbed::attach_tracker(s, tracker);
  s.start_all();

  std::vector<std::unique_ptr<testbed::DatagramTraffic>> flows;
  for (std::size_t i = 0; i < 4; ++i) {
    flows.push_back(std::make_unique<testbed::DatagramTraffic>(
        s, tracker, i, 15 - i,
        testbed::TrafficConfig{Duration::seconds(30), 16, true}, seed + 10 + i));
    flows.back()->start();
  }

  const Duration span = Duration::hours(120);
  bench::WallTimer wall;
  const std::uint64_t before = s.simulator().events_processed();
  s.run_for(span);
  const std::uint64_t events = s.simulator().events_processed() - before;
  MeshResult r;
  r.wall_s = wall.seconds();
  r.events = events;
  if (r.wall_s > 0) {
    r.events_per_sec = static_cast<double>(events) / r.wall_s;
    r.sim_s_per_wall_s = span.seconds_d() / r.wall_s;
  }
  for (auto& f : flows) f->stop();
  r.pdr = tracker.pdr();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter("bench_engine", argc, argv);
  bench::banner("ENGINE", "discrete-event core throughput",
                "perf anchor: events/sec of the bare scheduler and of a "
                "16-node mesh with live traffic (no paper claim)");

  std::printf("\nraw event loop (64 self-rescheduling timers + cancel churn, "
              "1M events):\n");
  const auto raw = raw_event_loop(64, 1'000'000);
  std::printf("  %.2f s wall, %.2fM events/sec\n", raw.wall_s,
              raw.events_per_sec / 1e6);
  reporter.metric("raw.events_per_sec", raw.events_per_sec);
  reporter.point("raw_loop", raw.wall_s);

  std::printf("\ntimer churn (64 chains, 3 cancel + 3 re-arm per firing, "
              "200k firings):\n");
  const auto churn = timer_churn(64, 200'000);
  std::printf("  %.2f s wall, %.2fM timer ops/sec\n", churn.wall_s,
              churn.ops_per_sec / 1e6);
  reporter.metric("churn.ops_per_sec", churn.ops_per_sec);
  reporter.point("timer_churn", churn.wall_s);

  std::printf("\nallocation pressure (codec round-trips on pooled buffers, "
              "500k packets):\n");
  const auto alloc = alloc_pressure(500'000);
  std::printf("  %.2fM packets/sec, pool hit rate %.4f, %llu refills, "
              "%llu oversize\n",
              alloc.packets_per_sec / 1e6, alloc.pool_hit_rate,
              static_cast<unsigned long long>(alloc.refills),
              static_cast<unsigned long long>(alloc.oversize));
  reporter.metric("alloc.packets_per_sec", alloc.packets_per_sec);
  reporter.metric("alloc.pool_hit_rate", alloc.pool_hit_rate);
  reporter.metric("alloc.refills", static_cast<double>(alloc.refills));

  std::printf("\nrouting-table merge (120-entry table, 62-entry beacons from 8 "
              "neighbours, 2,000 rounds):\n");
  const auto merge = beacon_merge(2'000);
  std::printf("  %.0f ns per apply_beacon, %.0f ns per advertisement, "
              "%llu of %d beacons changed the table (%zu entries)\n",
              merge.apply_ns, merge.advertise_ns,
              static_cast<unsigned long long>(merge.routing_changes), 2'000 * 8,
              merge.table_size);
  reporter.metric("beacon.apply_ns", merge.apply_ns);
  reporter.metric("beacon.advertise_ns", merge.advertise_ns);
  reporter.metric("beacon.routing_changes",
                  static_cast<double>(merge.routing_changes));
  reporter.metric("beacon.table_size", static_cast<double>(merge.table_size));

  std::printf("\nframe delivery (16 x 16 bare radios 600 m apart, campus "
              "channel, 20 rounds of one frame each):\n");
  const auto delivery = frame_delivery(16, 20);
  std::printf("  %.2f s wall, %llu frames, %llu receptions decided (%llu "
              "delivered, %llu culled), %.0f ns per reception\n",
              delivery.wall_s, static_cast<unsigned long long>(delivery.frames),
              static_cast<unsigned long long>(delivery.receptions),
              static_cast<unsigned long long>(delivery.delivered),
              static_cast<unsigned long long>(delivery.culled),
              delivery.ns_per_reception);
  reporter.metric("delivery.ns_per_reception", delivery.ns_per_reception);
  reporter.metric("delivery.receptions", static_cast<double>(delivery.receptions));
  reporter.point("delivery", delivery.wall_s);

  std::printf("\n16-node mesh, 120 simulated hours of beacons + 4 Poisson "
              "flows:\n");
  const auto mesh = mesh_16(7);
  std::printf("  %.2f s wall for %llu events\n", mesh.wall_s,
              static_cast<unsigned long long>(mesh.events));
  std::printf("  %.0f events/sec, %.0f simulated-seconds per wall-second, "
              "PDR %.1f %%\n",
              mesh.events_per_sec, mesh.sim_s_per_wall_s, 100 * mesh.pdr);
  reporter.metric("mesh16.events_per_sec", mesh.events_per_sec);
  reporter.metric("mesh16.sim_s_per_wall_s", mesh.sim_s_per_wall_s);
  reporter.metric("mesh16.events", static_cast<double>(mesh.events));
  reporter.metric("mesh16.pdr", mesh.pdr);
  reporter.point("mesh16", mesh.wall_s);
  return 0;
}
