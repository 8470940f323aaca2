// End-to-end property sweeps: the protocol invariants that must hold for
// every seed — convergence on clean chains, payload integrity through
// relays, reliable-transfer correctness across a (payload x loss) grid,
// and resilience to on-air garbage.
#include <gtest/gtest.h>

#include "metrics/packet_tracker.h"
#include "phy/path_loss.h"
#include "support/assert.h"
#include "testbed/scenario.h"
#include "testbed/topology.h"
#include "testbed/traffic.h"

namespace lm::net {
namespace {

using testbed::MeshScenario;
using testbed::ScenarioConfig;

constexpr double kSpacing = 400.0;

ScenarioConfig sweep_config(std::uint64_t seed) {
  ScenarioConfig c;
  c.seed = seed;
  c.propagation.path_loss = phy::make_log_distance(3.5, 40.0);
  c.propagation.shadowing_sigma_db = 0.0;
  c.propagation.fading_sigma_db = 0.0;
  c.mesh.hello_interval = Duration::seconds(10);
  c.mesh.maintenance_interval = Duration::seconds(2);
  c.mesh.duty_cycle_limit = 1.0;
  c.mesh.reliable_retry_timeout = Duration::seconds(8);
  c.mesh.receiver_gap_timeout = Duration::seconds(10);
  c.mesh.fragment_spacing = Duration::milliseconds(50);
  c.mesh.sync_max_retries = 10;
  c.mesh.poll_max_retries = 15;
  return c;
}

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, CleanChainAlwaysConvergesToExactMetrics) {
  MeshScenario s(sweep_config(GetParam()));
  s.add_nodes(testbed::chain(5, kSpacing));
  s.start_all();
  const auto elapsed = s.run_until_converged(Duration::minutes(10));
  ASSERT_TRUE(elapsed.has_value()) << "seed " << GetParam();
  // And stays converged: the protocol must not oscillate.
  for (int probe = 0; probe < 5; ++probe) {
    s.run_for(Duration::minutes(1));
    EXPECT_TRUE(s.converged()) << "seed " << GetParam() << " probe " << probe;
  }
}

TEST_P(SeedSweep, RelayedPayloadsArriveBitExact) {
  MeshScenario s(sweep_config(GetParam() ^ 0x1111));
  s.add_nodes(testbed::chain(4, kSpacing));
  s.start_all();
  ASSERT_TRUE(s.run_until_converged(Duration::minutes(10)).has_value());

  Rng rng(GetParam());
  std::vector<std::vector<std::uint8_t>> received;
  s.node(3).set_datagram_handler(
      [&](Address origin, const std::vector<std::uint8_t>& payload, std::uint8_t) {
        EXPECT_EQ(origin, s.address_of(0));
        received.push_back(payload);
      });

  std::vector<std::vector<std::uint8_t>> sent;
  for (int i = 0; i < 10; ++i) {
    std::vector<std::uint8_t> payload(
        static_cast<std::size_t>(rng.uniform_int(1, kMaxDataPayload)));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    if (s.node(0).send_datagram(s.address_of(3), payload)) {
      sent.push_back(std::move(payload));
    }
    s.run_for(Duration::seconds(8));
  }
  s.run_for(Duration::seconds(20));
  // Every payload that arrived must match a sent one, in order (FIFO path,
  // single flow — losses shorten the list but never reorder or corrupt).
  ASSERT_LE(received.size(), sent.size());
  std::size_t cursor = 0;
  for (const auto& got : received) {
    bool matched = false;
    while (cursor < sent.size()) {
      if (sent[cursor++] == got) {
        matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched) << "unmatched or reordered payload, seed " << GetParam();
  }
}

TEST_P(SeedSweep, MeshSurvivesGarbageStorm) {
  MeshScenario s(sweep_config(GetParam() ^ 0x2222));
  s.add_nodes(testbed::chain(3, kSpacing));
  s.start_all();
  ASSERT_TRUE(s.run_until_converged(Duration::minutes(10)).has_value());

  // A rogue transmitter floods random frames from the middle of the mesh.
  radio::VirtualRadio rogue(s.simulator(), s.channel(), 99, {kSpacing, 50.0}, {});
  Rng rng(GetParam());
  for (int i = 0; i < 60; ++i) {
    std::vector<std::uint8_t> junk(
        static_cast<std::size_t>(rng.uniform_int(1, 255)));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    s.simulator().schedule_after(Duration::from_seconds(rng.uniform(0.0, 60.0)),
                                 [&rogue, junk = std::move(junk)]() mutable {
                                   rogue.transmit(std::move(junk));
                                 });
  }
  s.run_for(Duration::minutes(2));

  // The mesh still routes once the storm passes.
  int delivered = 0;
  s.node(2).set_datagram_handler(
      [&](Address, const std::vector<std::uint8_t>&, std::uint8_t) { ++delivered; });
  for (int i = 0; i < 5; ++i) {
    s.node(0).send_datagram(s.address_of(2), {1, 2, 3});
    s.run_for(Duration::seconds(10));
  }
  EXPECT_GE(delivered, 4) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u));

// --- Reliable transfer grid ---------------------------------------------------

struct TransferCase {
  std::size_t payload_bytes;
  double loss;
};

class TransferGrid : public ::testing::TestWithParam<TransferCase> {};

TEST_P(TransferGrid, CompletesBitExact) {
  const TransferCase param = GetParam();
  MeshScenario s(sweep_config(7000 + param.payload_bytes));
  s.add_nodes(testbed::chain(3, kSpacing));
  s.start_all();
  ASSERT_TRUE(s.run_until_converged(Duration::minutes(10)).has_value());
  s.channel().set_link_extra_loss(1, 2, param.loss);
  s.channel().set_link_extra_loss(2, 3, param.loss);

  std::vector<std::uint8_t> payload(param.payload_bytes);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  std::vector<std::uint8_t> received;
  s.node(2).set_reliable_handler(
      [&](Address, std::vector<std::uint8_t> data) { received = std::move(data); });
  int outcome = -1;
  ASSERT_TRUE(s.node(0).send_reliable(s.address_of(2), payload,
                                      [&](bool ok) { outcome = ok ? 1 : 0; }));
  const TimePoint start = s.simulator().now();
  while (outcome == -1 &&
         s.simulator().now() - start < Duration::hours(2)) {
    s.run_for(Duration::seconds(10));
  }
  EXPECT_EQ(outcome, 1) << param.payload_bytes << " B at " << param.loss;
  EXPECT_EQ(received, payload);
}

INSTANTIATE_TEST_SUITE_P(
    PayloadByLoss, TransferGrid,
    ::testing::Values(TransferCase{100, 0.0}, TransferCase{100, 0.25},
                      TransferCase{1000, 0.0}, TransferCase{1000, 0.15},
                      TransferCase{5000, 0.0}, TransferCase{5000, 0.15},
                      TransferCase{5000, 0.3}, TransferCase{240, 0.1},
                      TransferCase{239, 0.0}, TransferCase{478, 0.1}),
    [](const ::testing::TestParamInfo<TransferCase>& tc) {
      return std::to_string(tc.param.payload_bytes) + "B_loss" +
             std::to_string(static_cast<int>(tc.param.loss * 100));
    });

}  // namespace
}  // namespace lm::net
