// MeshNode against a hand-rolled Radio implementation — no Channel, no
// propagation, no VirtualRadio. This is the hardware-binding proof: the
// protocol stack runs against anything honoring radio_interface.h, and a
// test can script the medium frame by frame.
#include <gtest/gtest.h>

#include <memory>

#include "net/flooding_strategy.h"
#include "net/mesh_node.h"
#include "phy/airtime.h"
#include "radio/radio_interface.h"
#include "sim/simulator.h"

namespace lm::net {
namespace {

/// A scripted radio: transmissions are captured (completing after the real
/// airtime), CAD always reports a clear channel, and the test injects
/// inbound frames directly.
class MockRadio final : public radio::Radio {
 public:
  explicit MockRadio(sim::Simulator& sim) : sim_(sim) {}

  void set_listener(radio::RadioListener* listener) override {
    listener_ = listener;
  }
  void start_receive() override { state_ = radio::RadioState::Rx; }
  void standby() override { state_ = radio::RadioState::Standby; }
  void sleep() override { state_ = radio::RadioState::Sleep; }

  bool transmit(std::span<const std::uint8_t> frame) override {
    if (state_ == radio::RadioState::Tx || state_ == radio::RadioState::Cad ||
        state_ == radio::RadioState::Sleep) {
      return false;
    }
    state_ = radio::RadioState::Tx;
    transmitted.emplace_back(frame.begin(), frame.end());
    sim_.schedule_after(phy::time_on_air(modulation_, frame.size()), [this] {
      state_ = radio::RadioState::Standby;
      if (listener_ != nullptr) listener_->on_tx_done();
    });
    return true;
  }

  bool start_cad() override {
    if (state_ == radio::RadioState::Tx || state_ == radio::RadioState::Cad ||
        state_ == radio::RadioState::Sleep) {
      return false;
    }
    state_ = radio::RadioState::Cad;
    cad_runs++;
    sim_.schedule_after(phy::cad_time(modulation_), [this] {
      state_ = radio::RadioState::Standby;
      if (listener_ != nullptr) listener_->on_cad_done(false);
    });
    return true;
  }

  bool medium_busy() const override { return false; }
  radio::RadioState state() const override { return state_; }
  const phy::Modulation& modulation() const override { return modulation_; }

  /// Test hook: a frame arrives off the air.
  void inject(const Packet& packet, double rssi = -80.0, double snr = 10.0) {
    ASSERT_EQ(state_, radio::RadioState::Rx);  // node must be listening
    radio::FrameMeta meta;
    meta.rssi_dbm = rssi;
    meta.snr_db = snr;
    meta.end = sim_.now();
    listener_->on_frame_received(encode(packet), meta);
  }

  /// Test hook: raw bytes arrive off the air (crafted or truncated frames).
  void inject_bytes(std::span<const std::uint8_t> frame) {
    ASSERT_EQ(state_, radio::RadioState::Rx);
    radio::FrameMeta meta;
    meta.rssi_dbm = -80.0;
    meta.snr_db = 10.0;
    meta.end = sim_.now();
    listener_->on_frame_received(frame, meta);
  }

  const radio::RadioListener* listener() const { return listener_; }

  std::vector<std::vector<std::uint8_t>> transmitted;
  int cad_runs = 0;

 private:
  sim::Simulator& sim_;
  radio::RadioListener* listener_ = nullptr;
  radio::RadioState state_ = radio::RadioState::Standby;
  phy::Modulation modulation_;
};

class MockRadioTest : public ::testing::Test {
 protected:
  MockRadioTest() {
    MeshConfig cfg;
    cfg.hello_interval = Duration::seconds(10);
    cfg.duty_cycle_limit = 1.0;
    node_ = std::make_unique<MeshNode>(sim_, radio_, 0x0001, cfg, 42);
    node_->start();
  }

  /// Decoded view of everything the node put on the air.
  std::vector<Packet> decoded_tx() {
    std::vector<Packet> out;
    for (const auto& frame : radio_.transmitted) {
      auto p = decode(frame);
      if (p) out.push_back(std::move(*p));
    }
    return out;
  }

  sim::Simulator sim_;
  MockRadio radio_{sim_};
  std::unique_ptr<MeshNode> node_;
};

TEST_F(MockRadioTest, BeaconsFlowThroughTheInterface) {
  sim_.run_for(Duration::seconds(25));
  const auto tx = decoded_tx();
  ASSERT_GE(tx.size(), 2u);
  for (const auto& p : tx) {
    EXPECT_EQ(type_of(p), PacketType::Routing);
    EXPECT_EQ(link_of(p).src, 0x0001);
  }
  EXPECT_GT(radio_.cad_runs, 0);  // CSMA ran before each
}

TEST_F(MockRadioTest, InjectedBeaconBuildsRoutes) {
  RoutingPacket beacon;
  beacon.link = LinkHeader{kBroadcast, 0x0002};
  beacon.entries = {{0x0002, 0, roles::kGateway}, {0x0003, 1, roles::kNone}};
  radio_.inject(Packet{beacon});

  EXPECT_TRUE(node_->routing_table().has_route(0x0002));
  EXPECT_TRUE(node_->routing_table().has_route(0x0003));
  EXPECT_EQ(node_->routing_table().route_to(0x0003)->metric, 2);
  EXPECT_EQ(node_->nearest_with_role(roles::kGateway)->destination, 0x0002);
  EXPECT_NEAR(*node_->neighbor_snr_margin_db(0x0002), 17.5, 1e-9);
}

TEST_F(MockRadioTest, RepeatedBeaconIsAnsweredFromTheMemo) {
  RoutingPacket beacon;
  beacon.link = LinkHeader{kBroadcast, 0x0002};
  beacon.entries = {{0x0002, 0}, {0x0003, 1}};
  const auto frame = encode(Packet{beacon});
  // First copy installs routes, the second changes nothing and arms the
  // memo, the third is answered from it.
  for (int copy = 0; copy < 3; ++copy) radio_.inject_bytes(frame);
  EXPECT_EQ(node_->routing_table().repeated_beacons(), 1u);
  EXPECT_EQ(node_->stats().beacons_received, 3u);
  EXPECT_EQ(node_->routing_table().route_to(0x0003)->metric, 2);

  // A malformed frame right after the cached good one is still counted,
  // and so is its byte-equal repeat.
  const std::span<const std::uint8_t> cut(frame.data(), frame.size() - 1);
  radio_.inject_bytes(cut);
  radio_.inject_bytes(cut);
  EXPECT_EQ(node_->stats().malformed_frames, 2u);
  EXPECT_EQ(node_->stats().beacons_received, 3u);
}

TEST_F(MockRadioTest, RepeatedBeaconTakesNoPoolBlock) {
  RoutingPacket beacon;
  beacon.link = LinkHeader{kBroadcast, 0x0002};
  beacon.entries = {{0x0002, 0}, {0x0003, 1}, {0x0004, 2}};
  const auto frame = encode(Packet{beacon});
  for (int copy = 0; copy < 3; ++copy) radio_.inject_bytes(frame);  // warm-up
  // The routing layer reads the decode memo's packet in place, so a
  // reception copies no entry list.
  const support::PoolStats before = support::BlockPool::stats();
  for (int copy = 0; copy < 20; ++copy) radio_.inject_bytes(frame);
  const support::PoolStats after = support::BlockPool::stats();
  EXPECT_EQ(after.pool_hits - before.pool_hits, 0u);
  EXPECT_EQ(after.pool_refills - before.pool_refills, 0u);
  EXPECT_EQ(node_->stats().beacons_received, 23u);
  EXPECT_EQ(node_->routing_table().repeated_beacons(), 21u);
}

TEST_F(MockRadioTest, ReceiveHintFollowsTheGrowingMemoList) {
  // Twelve neighbours outgrow the room the memo list reserves, so the list
  // moves; the receive hint must name its new block, not the freed one.
  const void* first = node_->routing_table().memo_storage();
  for (int round = 0; round < 2; ++round) {
    for (Address n = 0x0010; n < 0x001C; ++n) {
      RoutingPacket beacon;
      beacon.link = LinkHeader{kBroadcast, n};
      beacon.entries = {{n, 0}};
      radio_.inject(Packet{beacon});
    }
  }
  const void* now = node_->routing_table().memo_storage();
  EXPECT_NE(now, first);
  ASSERT_NE(radio_.listener(), nullptr);
  EXPECT_EQ(radio_.listener()->receive_hint().back(), now);
}

TEST(MockRadioShared, ForwardingEditsItsOwnCopyOfTheSharedDecode) {
  // One flooded data frame reaches two relays in turn. Each rebroadcasts
  // its own copy (one ttl less, one hop more); the first relay's edit must
  // not reach the second, which reads the same decoded packet.
  sim::Simulator sim;
  MockRadio radio_a(sim);
  MockRadio radio_b(sim);
  MeshConfig cfg;
  cfg.duty_cycle_limit = 1.0;
  MeshNode a(sim, radio_a, 0x0011, cfg, 1, std::make_unique<FloodingStrategy>());
  MeshNode b(sim, radio_b, 0x0012, cfg, 2, std::make_unique<FloodingStrategy>());
  a.start();
  b.start();

  DataPacket data;
  data.link = LinkHeader{kBroadcast, 0x0010};
  data.route = RouteHeader{0x0099, 0x0010, 5, 1, 77};
  data.payload = {4, 5, 6};
  const auto frame = encode(Packet{data});
  radio_a.inject_bytes(frame);
  radio_b.inject_bytes(frame);
  const Packet* shared = decode_shared(frame);
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(*shared, decode(frame));
  sim.run_for(Duration::seconds(2));

  for (auto [radio, self] : {std::pair{&radio_a, Address{0x0011}},
                             std::pair{&radio_b, Address{0x0012}}}) {
    SCOPED_TRACE(self);
    DataPacket expected = data;
    expected.link.src = self;
    expected.route.ttl = 4;
    expected.route.hops = 2;
    std::size_t relayed = 0;
    for (const auto& sent : radio->transmitted) {
      const auto p = decode(sent);
      ASSERT_TRUE(p.has_value());
      if (std::holds_alternative<DataPacket>(*p)) {
        ++relayed;
        EXPECT_EQ(*p, Packet{expected});
      }
    }
    EXPECT_EQ(relayed, 1u);
  }
}

TEST_F(MockRadioTest, DatagramGoesOutAddressedToTheNextHop) {
  RoutingPacket beacon;
  beacon.link = LinkHeader{kBroadcast, 0x0002};
  beacon.entries = {{0x0002, 0}, {0x0003, 1}};
  radio_.inject(Packet{beacon});

  ASSERT_TRUE(node_->send_datagram(0x0003, {1, 2, 3}));
  sim_.run_for(Duration::seconds(2));

  bool found = false;
  for (const auto& p : decoded_tx()) {
    const auto* data = std::get_if<DataPacket>(&p);
    if (data == nullptr) continue;
    found = true;
    EXPECT_EQ(data->link.dst, 0x0002);        // next hop
    EXPECT_EQ(data->route.final_dst, 0x0003); // end-to-end
    EXPECT_EQ(data->payload, (std::vector<std::uint8_t>{1, 2, 3}));
  }
  EXPECT_TRUE(found);
}

TEST_F(MockRadioTest, InboundDataForUsReachesTheHandler) {
  std::vector<std::uint8_t> got;
  node_->set_datagram_handler(
      [&](Address origin, const std::vector<std::uint8_t>& p, std::uint8_t) {
        EXPECT_EQ(origin, 0x0005);
        got = p;
      });
  DataPacket data;
  data.link = LinkHeader{0x0001, 0x0002};
  data.route.final_dst = 0x0001;
  data.route.origin = 0x0005;
  data.route.ttl = 3;
  data.payload = {7, 8};
  radio_.inject(Packet{data});
  EXPECT_EQ(got, (std::vector<std::uint8_t>{7, 8}));
}

TEST_F(MockRadioTest, AckedDataDrawsAnAckThroughTheInterface) {
  RoutingPacket beacon;  // learn a route back to the origin
  beacon.link = LinkHeader{kBroadcast, 0x0002};
  beacon.entries = {{0x0002, 0}, {0x0005, 1}};
  radio_.inject(Packet{beacon});

  AckedDataPacket data;
  data.link = LinkHeader{0x0001, 0x0002};
  data.route.final_dst = 0x0001;
  data.route.origin = 0x0005;
  data.route.ttl = 3;
  data.route.packet_id = 99;
  data.payload = {1};
  radio_.inject(Packet{data});
  sim_.run_for(Duration::seconds(2));

  bool acked = false;
  for (const auto& p : decoded_tx()) {
    if (const auto* ack = std::get_if<AckPacket>(&p)) {
      acked = true;
      EXPECT_EQ(ack->acked_id, 99);
      EXPECT_EQ(ack->route.final_dst, 0x0005);
      EXPECT_EQ(ack->link.dst, 0x0002);  // via the learned next hop
    }
  }
  EXPECT_TRUE(acked);
}

}  // namespace
}  // namespace lm::net
