// E8 — airtime model validation table plus codec micro-benchmarks.
//
// The table reproduces the Semtech AN1200.13 calculator values the whole
// simulation's timing rests on. The google-benchmark section measures the
// hot paths a real node would run per packet (airtime computation, packet
// encode/decode), demonstrating they are negligible next to radio time.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.h"
#include "net/packet.h"
#include "net/routing_table.h"
#include "phy/airtime.h"
#include "sim/simulator.h"
#include "support/rng.h"

using namespace lm;

namespace {

void print_airtime_table() {
  bench::banner("E8", "LoRa time-on-air (CR 4/5, preamble 8, CRC, explicit hdr)",
                "matches the Semtech airtime calculator; SF12 frames cost "
                "~60x SF7 frames");
  bench::Table t({"payload", "SF7", "SF8", "SF9", "SF10", "SF11", "SF12"});
  for (std::size_t bytes : {10u, 51u, 120u, 222u}) {
    std::vector<std::string> row{bench::format("%zu B", bytes)};
    for (int sf = 7; sf <= 12; ++sf) {
      phy::Modulation m;
      m.sf = static_cast<phy::SpreadingFactor>(sf);
      row.push_back(
          bench::format("%.1f ms", phy::time_on_air(m, bytes).seconds_d() * 1e3));
    }
    t.row(row);
  }
  t.print();
  std::printf("\n");
}

void BM_TimeOnAir(benchmark::State& state) {
  phy::Modulation m;
  m.sf = phy::SpreadingFactor::SF9;
  std::size_t bytes = 0;
  for (auto _ : state) {
    bytes = (bytes + 17) % 255;
    benchmark::DoNotOptimize(phy::time_on_air(m, bytes));
  }
}
BENCHMARK(BM_TimeOnAir);

void BM_EncodeDataPacket(benchmark::State& state) {
  net::DataPacket p;
  p.link = net::LinkHeader{0x0002, 0x0001};
  p.route.final_dst = 0x0005;
  p.route.origin = 0x0001;
  p.route.ttl = 16;
  p.payload.assign(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::encode(net::Packet{p}));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EncodeDataPacket)->Arg(16)->Arg(242);

void BM_DecodeDataPacket(benchmark::State& state) {
  net::DataPacket p;
  p.link = net::LinkHeader{0x0002, 0x0001};
  p.payload.assign(static_cast<std::size_t>(state.range(0)), 0xAB);
  const auto frame = net::encode(net::Packet{p});
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::decode(frame));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DecodeDataPacket)->Arg(16)->Arg(242);

void BM_ApplyBeacon(benchmark::State& state) {
  // Distance-vector update cost with a table of `range` destinations —
  // the per-beacon CPU price a node pays.
  net::RoutingTable table(0x0001, Duration::hours(1));
  TimePoint now;
  std::vector<net::RoutingEntry> entries;
  for (int i = 0; i < state.range(0); ++i) {
    entries.push_back({static_cast<net::Address>(0x0100 + i),
                       static_cast<std::uint8_t>(i % 12 + 1)});
  }
  net::Address neighbor = 0x0002;
  for (auto _ : state) {
    now += Duration::seconds(1);
    neighbor = static_cast<net::Address>(0x0002 + (neighbor + 1) % 7);
    benchmark::DoNotOptimize(table.apply_beacon(neighbor, entries, now));
  }
}
BENCHMARK(BM_ApplyBeacon)->Arg(4)->Arg(16)->Arg(62);

void BM_SimulatorEventChurn(benchmark::State& state) {
  // Scheduler throughput: schedule + fire, with a live cancellation mix —
  // the pattern protocol timers produce. Simulated hours per wall second
  // is the simulator's headline number.
  sim::Simulator sim;
  Rng rng(1);
  std::vector<sim::TimerId> cancellable;
  for (auto _ : state) {
    const auto id = sim.schedule_after(
        Duration::microseconds(rng.uniform_int(1, 1000)), [] {});
    if (rng.bernoulli(0.3)) {
      cancellable.push_back(id);
    }
    if (cancellable.size() > 64) {
      sim.cancel(cancellable.back());
      cancellable.pop_back();
    }
    if (sim.pending() > 128) sim.step();
  }
  sim.run();
}
BENCHMARK(BM_SimulatorEventChurn);

void BM_EncodeRoutingBeacon(benchmark::State& state) {
  net::RoutingPacket p;
  p.link = net::LinkHeader{net::kBroadcast, 0x0001};
  for (int i = 0; i < state.range(0); ++i) {
    p.entries.push_back({static_cast<net::Address>(i + 2),
                         static_cast<std::uint8_t>(i % 15 + 1)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::encode(net::Packet{p}));
  }
}
BENCHMARK(BM_EncodeRoutingBeacon)->Arg(4)->Arg(32)->Arg(62);

}  // namespace

int main(int argc, char** argv) {
  print_airtime_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
