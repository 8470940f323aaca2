// Determinism under parallelism: sharding a sweep of self-contained
// scenario runs across 1, 2 or 8 threads must produce bit-identical per-run
// results — the foundation the parallel bench harnesses stand on.
#include "testbed/parallel_runner.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <latch>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "metrics/packet_tracker.h"
#include "net/distance_vector_strategy.h"
#include "net/link_layer.h"
#include "phy/path_loss.h"
#include "testbed/scenario.h"
#include "testbed/topology.h"
#include "testbed/traffic.h"
#include "trace/trace_sink.h"

namespace lm::testbed {
namespace {

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t delivered = 0;
  std::int64_t p50_latency_us = 0;
  std::int64_t convergence_us = -1;
  std::uint64_t channel_frames = 0;

  friend bool operator==(const RunResult&, const RunResult&) = default;
};

ScenarioConfig small_config(std::uint64_t seed) {
  ScenarioConfig c;
  c.seed = seed;
  c.propagation.path_loss = phy::make_log_distance(3.5, 40.0);
  c.propagation.shadowing_sigma_db = 0.0;
  c.propagation.fading_sigma_db = 1.0;  // exercise the per-frame RNG draws too
  c.mesh.hello_interval = Duration::seconds(60);
  return c;
}

// One fully self-contained run: scenario, tracker and traffic all live and
// die inside this function, derived only from `seed`.
RunResult run_scenario(std::uint64_t seed) {
  MeshScenario s(small_config(seed));
  s.add_nodes(chain(3, 400.0));
  metrics::PacketTracker tracker;
  attach_tracker(s, tracker);
  s.start_all();

  RunResult r;
  const auto elapsed =
      s.run_until_converged(Duration::minutes(30), Duration::seconds(5));
  if (elapsed) r.convergence_us = elapsed->us();

  DatagramTraffic traffic(s, tracker, 0, 2,
                          {Duration::seconds(30), 16, true}, seed + 1);
  traffic.start();
  s.run_for(Duration::minutes(20));
  traffic.stop();
  s.run_for(Duration::seconds(30));

  r.attempted = tracker.attempted();
  r.delivered = tracker.delivered();
  r.p50_latency_us = static_cast<std::int64_t>(tracker.latency().median() * 1e6);
  r.channel_frames = s.channel().stats().frames_transmitted;
  return r;
}

std::vector<RunResult> sweep(std::size_t threads,
                             const std::vector<std::uint64_t>& seeds) {
  ParallelRunner runner(threads);
  return runner.map<RunResult>(
      seeds.size(), [&](std::size_t i) { return run_scenario(seeds[i]); });
}

TEST(ParallelRunner, ReportsThreadCount) {
  EXPECT_EQ(ParallelRunner(2).threads(), 2u);
  EXPECT_GE(ParallelRunner(0).threads(), 1u);  // default sizing
}

TEST(ParallelRunner, ResultsIdenticalAcross1And2And8Threads) {
  const std::vector<std::uint64_t> seeds{11, 22, 33, 44};
  const auto serial = sweep(1, seeds);
  ASSERT_EQ(serial.size(), seeds.size());
  // Sanity: the runs actually did something (converged, moved traffic).
  for (const auto& r : serial) {
    EXPECT_GE(r.convergence_us, 0);
    EXPECT_GT(r.attempted, 0u);
    EXPECT_GT(r.delivered, 0u);
  }
  EXPECT_EQ(sweep(2, seeds), serial);
  EXPECT_EQ(sweep(8, seeds), serial);
}

TEST(ParallelRunner, RepeatedSweepOnOneRunnerIsStable) {
  // A runner (and its pool) must be reusable: same seeds, same answers on
  // the second drain.
  const std::vector<std::uint64_t> seeds{7, 8};
  ParallelRunner runner(4);
  const auto first = runner.map<RunResult>(
      seeds.size(), [&](std::size_t i) { return run_scenario(seeds[i]); });
  const auto second = runner.map<RunResult>(
      seeds.size(), [&](std::size_t i) { return run_scenario(seeds[i]); });
  EXPECT_EQ(first, second);
}

TEST(ParallelRunner, PrebuiltJobClosuresRunInInputOrder) {
  ParallelRunner runner(3);
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < 12; ++i) jobs.push_back([i] { return i * 10; });
  const auto out = runner.run<int>(jobs);
  ASSERT_EQ(out.size(), 12u);
  for (int i = 0; i < 12; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * 10);
}

// Beacon content ids come from one process-wide counter: workers interning
// different entries for one sender must never hand out the same id, while
// each worker keeps its id for a repeat of its own entries.
TEST(ParallelRunner, WorkersInterningOneSenderNeverShareAnId) {
  constexpr net::Address kSender = 0x0042;
  std::latch both_running(2);  // jobs 0 and 1 run on two workers at once
  ParallelRunner runner(2);
  const auto ids = runner.map<std::pair<std::uint32_t, std::uint32_t>>(
      16, [&](std::size_t i) {
        if (i < 2) both_running.arrive_and_wait();
        net::RoutingPacket beacon;
        beacon.link = {net::kBroadcast, kSender};
        beacon.entries = {{kSender, 0},
                          {static_cast<net::Address>(0x0100 + i), 1}};
        const auto frame = net::encode(net::Packet{beacon});
        net::DataPacket data;
        data.link = {0x0007, 0x0008};
        const auto other = net::encode(net::Packet{data});
        const auto id = [](const net::Packet* p) {
          EXPECT_NE(p, nullptr);
          return p == nullptr ? 0u : std::get<net::RoutingPacket>(*p).content_id;
        };
        const std::uint32_t first = id(net::decode_shared(frame));
        EXPECT_NE(net::decode_shared(other), nullptr);  // evicts the frame
        return std::pair{first, id(net::decode_shared(frame))};
      });
  std::set<std::uint32_t> distinct;
  for (const auto& [first, again] : ids) {
    EXPECT_NE(first, 0u);
    EXPECT_EQ(again, first);
    distinct.insert(first);
  }
  EXPECT_EQ(distinct.size(), ids.size());
}


// Senders draw their beacons' ids from that counter too. Two workers each
// run a field whose senders build beacons while its receivers intern
// them: no id may turn up in two jobs, and within a job an id always names
// one entry list.
TEST(ParallelRunner, WorkersBuildingBeaconsNeverShareAnId) {
  struct Built {
    std::uint32_t id;
    std::vector<net::RoutingEntry> entries;
  };
  // Declared before the scenario it reads, so it outlives its events.
  class BeaconLog final : public trace::TraceSink {
   public:
    void record(const trace::TraceEvent& e) override {
      if (e.kind != trace::EventKind::Enqueue ||
          e.packet_type != static_cast<std::uint8_t>(net::PacketType::Routing)) {
        return;
      }
      const net::MeshNode& node =
          s->node(*s->index_of(static_cast<net::Address>(e.node)));
      const auto& dv =
          dynamic_cast<const net::DistanceVectorStrategy&>(node.routing_strategy());
      const auto adv = node.routing_table().advertisement();
      built.push_back({dv.beacon_content_id(), {adv.begin(), adv.end()}});
    }
    MeshScenario* s = nullptr;
    std::vector<Built> built;
  };

  std::latch both_running(2);  // jobs 0 and 1 run on two workers at once
  ParallelRunner runner(2);
  const auto logs = runner.map<std::vector<Built>>(6, [&](std::size_t i) {
    if (i < 2) both_running.arrive_and_wait();
    BeaconLog log;
    trace::Tracer tracer;
    tracer.attach(&log);
    MeshScenario s(small_config(40 + i));
    s.add_nodes(grid(2, 3, 350.0));
    log.s = &s;
    s.attach_tracer(tracer);
    s.start_all();
    s.run_for(Duration::minutes(30));
    return std::move(log.built);
  });

  std::map<std::uint32_t, std::pair<std::size_t, std::vector<net::RoutingEntry>>>
      owner;  // id -> (job, entries)
  std::size_t repeats = 0;
  for (std::size_t job = 0; job < logs.size(); ++job) {
    EXPECT_GT(logs[job].size(), 50u);
    for (const Built& b : logs[job]) {
      ASSERT_NE(b.id, 0u);
      const auto [it, fresh] = owner.try_emplace(b.id, job, b.entries);
      if (fresh) continue;
      ++repeats;
      EXPECT_EQ(it->second.first, job) << "id " << b.id << " in two jobs";
      EXPECT_EQ(it->second.second, b.entries) << "id " << b.id;
    }
  }
  EXPECT_GT(repeats, owner.size());  // converged senders keep their ids
}

}  // namespace
}  // namespace lm::testbed
