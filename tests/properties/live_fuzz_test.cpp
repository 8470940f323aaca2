// Live-node frame fuzzing: a rogue radio next to a running chain injects
// seeded random frames and mutations of the golden frame of every packet
// type (bit flips, truncation, extension, edited count bytes, addresses
// pointed at the chain), under every routing strategy. Whatever arrives,
// no contract check may fire, the transmit queues and receive sessions
// stay within their bounds, and once the injection stops and the poisoned
// routes time out, a datagram still crosses the chain.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/mesh_node.h"
#include "phy/path_loss.h"
#include "support/assert.h"
#include "support/rng.h"
#include "testbed/scenario.h"
#include "testbed/strategy_matrix.h"
#include "testbed/topology.h"

namespace lm::net {
namespace {

using Frame = std::vector<std::uint8_t>;
using testbed::MeshScenario;

constexpr std::size_t kNodes = 4;
constexpr double kSpacing = 400.0;
constexpr int kFramesPerStrategy = 5000;
constexpr std::size_t kMaxQueue = 8;

// One golden frame per packet type (tests/net/packet_test.cpp).
const char* const kGoldenHex[] = {
    "FF FF 02 01 01 01 04 03 02 01",
    "0B 0A 02 01 02 0D 0C 02 01 10 03 EF BE 11 22",
    "0B 0A 02 01 03 0D 0C 02 01 10 00 01 00 07 03 02 07 06 05 04",
    "0B 0A 02 01 04 0D 0C 02 01 10 00 01 00 07",
    "0B 0A 02 01 05 0D 0C 02 01 10 00 01 00 07 03 02 11 22",
    "0B 0A 02 01 06 0D 0C 02 01 10 00 01 00 07 02 01 00 00 01",
    "0B 0A 02 01 07 0D 0C 02 01 10 00 01 00 07",
    "0B 0A 02 01 08 0D 0C 02 01 10 00 01 00 07",
    "0B 0A 02 01 09 0D 0C 02 01 10 03 EF BE 11 22",
    "0B 0A 02 01 0A 0D 0C 02 01 10 00 01 00 34 12",
    "FF FF 02 01 0B 0D 0C 02 01 10 00 01 00 03 02 05 04 01",
    "0B 0A 0D 0C 0C 02 01 0D 0C 10 02 01 00 03 02",
    "FF FF 02 01 0D FF FF 02 01 01 00 00 00 04 03 06 05",
    "FF FF 02 01 0E FF FF 02 01 10 00 04 03",
    "0B 0A 02 01 0F 0D 0C 02 01 10 00 01 00 0B 0A",
};

Frame from_hex(const std::string& hex) {
  Frame out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 3) {
    out.push_back(
        static_cast<std::uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

std::string to_hex(const Frame& frame) {
  static const char* kDigits = "0123456789ABCDEF";
  std::string out;
  for (std::uint8_t b : frame) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

std::uint8_t random_byte(Rng& rng) {
  return static_cast<std::uint8_t>(rng.uniform_int(0, 255));
}

class FrameSource {
 public:
  FrameSource(const MeshScenario& s, std::uint64_t seed) : rng_(seed) {
    for (const char* hex : kGoldenHex) golden_.push_back(from_hex(hex));
    for (std::size_t i = 0; i < s.size(); ++i) {
      addresses_.push_back(s.address_of(i));
    }
    addresses_.push_back(kBroadcast);
    addresses_.push_back(kUnassigned);
    addresses_.push_back(0x0BAD);  // a stranger
  }

  Frame next() {
    if (rng_.bernoulli(0.15)) return random_frame();
    Frame f = golden_[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(golden_.size()) - 1))];
    // Link dst/src and route final_dst/origin (the entry count and first
    // entry of a beacon) at the chain, so frames reach the strategies.
    if (rng_.bernoulli(0.8)) {
      for (std::size_t at : {0u, 2u, 5u, 7u}) put_address(f, at);
    }
    const auto mutations = rng_.uniform_int(0, 3);
    for (std::int64_t m = 0; m < mutations; ++m) mutate(f);
    return f;
  }

 private:
  Frame random_frame() {
    Frame f(static_cast<std::size_t>(rng_.uniform_int(1, 255)));
    for (auto& b : f) b = random_byte(rng_);
    return f;
  }

  void put_address(Frame& f, std::size_t at) {
    if (at + 1 >= f.size()) return;
    const Address a = addresses_[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(addresses_.size()) - 1))];
    f[at] = static_cast<std::uint8_t>(a & 0xFF);
    f[at + 1] = static_cast<std::uint8_t>(a >> 8);
  }

  std::size_t index_in(const Frame& f) {
    return static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(f.size()) - 1));
  }

  void mutate(Frame& f) {
    switch (rng_.uniform_int(0, 3)) {
      case 0:  // bit flip
        f[index_in(f)] ^=
            static_cast<std::uint8_t>(1u << rng_.uniform_int(0, 7));
        break;
      case 1:  // truncation
        f.resize(index_in(f) + 1);
        break;
      case 2: {  // extension
        const auto extra = rng_.uniform_int(1, 64);
        for (std::int64_t i = 0; i < extra && f.size() < 255; ++i) {
          f.push_back(random_byte(rng_));
        }
        break;
      }
      default: {  // count bytes: a beacon's entry count, a LOST's missing
                  // count, a SYNC's fragment count
        static constexpr std::uint8_t kEdges[] = {0, 1, 0x7F, 0x80, 0xFF};
        const std::uint8_t value = rng_.bernoulli(0.5)
                                       ? kEdges[rng_.uniform_int(0, 4)]
                                       : random_byte(rng_);
        for (std::size_t at : {5u, 14u, 15u}) {
          if (at < f.size()) f[at] = value;
        }
        break;
      }
    }
  }

  Rng rng_;
  std::vector<Frame> golden_;
  std::vector<Address> addresses_;
};

testbed::ScenarioConfig fuzz_config(const testbed::StrategySpec& strategy) {
  testbed::ScenarioConfig c;
  c.seed = 2028;
  c.propagation.path_loss = phy::make_log_distance(3.5, 40.0);
  c.propagation.shadowing_sigma_db = 0.0;
  c.propagation.fading_sigma_db = 0.0;
  c.mesh.hello_interval = Duration::seconds(10);
  c.mesh.maintenance_interval = Duration::seconds(2);
  c.mesh.duty_cycle_limit = 1.0;
  c.mesh.max_queue = kMaxQueue;
  c.mesh.receiver_session_timeout = Duration::minutes(2);
  c.energy.enabled = true;
  c.strategy_factory = strategy.factory;
  return c;
}

void expect_bounded(const MeshScenario& s, const std::string& where) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    // Each of the two transmit queues (control, data) holds <= max_queue.
    EXPECT_LE(s.node(i).queued_packets(), 2 * kMaxQueue)
        << where << " node " << i;
    EXPECT_LE(s.node(i).rx_sessions(), TransportLayer::kMaxRxSessions)
        << where << " node " << i;
  }
}

TEST(LiveFrameFuzz, EveryStrategySurvivesCraftedFramesAndRecovers) {
  for (const testbed::StrategySpec& strategy : testbed::default_strategies()) {
    SCOPED_TRACE(strategy.name);
    MeshScenario s(fuzz_config(strategy));
    s.add_node({0.0, 0.0}, roles::kGateway);
    for (std::size_t i = 1; i < kNodes; ++i) {
      s.add_node({kSpacing * static_cast<double>(i), 0.0});
    }
    s.start_all();
    s.run_for(Duration::minutes(2));  // let the control plane settle

    // Midway between nodes 1 and 2: both interior nodes hear every frame.
    radio::VirtualRadio rogue(s.simulator(), s.channel(), 0x7777,
                              {1.5 * kSpacing, 0.0}, {});
    FrameSource frames(s, 0xF022);
    Rng gaps(0x6A95);
    Frame previous;
    for (int k = 0; k < kFramesPerStrategy; ++k) {
      const Frame frame = frames.next();
      try {
        s.run_for(Duration::milliseconds(gaps.uniform_int(20, 300)));
        while (!rogue.transmit(frame)) s.run_for(Duration::milliseconds(50));
      } catch (const ContractViolation& e) {
        // A frame is received while the next one waits, so the culprit is
        // usually the previous frame.
        FAIL() << "frame " << k << " " << to_hex(frame) << " (previous "
               << to_hex(previous) << "): " << e.what();
      }
      expect_bounded(s, "frame " + std::to_string(k));
      previous = frame;
    }
    EXPECT_EQ(rogue.stats().tx_frames,
              static_cast<std::uint64_t>(kFramesPerStrategy));
    EXPECT_GT(s.total_stats().malformed_frames, 0u);  // the frames landed

    // Injection over: poisoned routes and forged sessions time out.
    s.run_for(Duration::minutes(5));
    expect_bounded(s, "after recovery");
    bool crossed = false;
    const Address sender = s.address_of(kNodes - 1);
    s.node(0).set_datagram_handler(
        [&](Address origin, const std::vector<std::uint8_t>&, std::uint8_t) {
          if (origin == sender) crossed = true;
        });
    // AODV refuses the first send and discovers; retry until one crosses.
    for (int attempt = 0; attempt < 10 && !crossed; ++attempt) {
      s.node(kNodes - 1).send_datagram(s.address_of(0), {0xC0, 0xDE});
      s.run_for(Duration::seconds(30));
    }
    EXPECT_TRUE(crossed);
  }
}

}  // namespace
}  // namespace lm::net
