// The refusal ladder of the four application sends (datagram, single-hop
// broadcast, acked datagram, reliable transfer): for every cause a send can
// reach, the return value, the reported cause, the counters and the exact
// flight-recorder events of the call. The ladder's order is pinned too: a
// stopped node refuses before it looks at the destination, an invalid
// destination outranks an oversized payload, and an oversized payload is
// refused before any route lookup (so no route discovery starts). A full
// queue refuses only the datagram and the broadcast: the acked and reliable
// sends queue through the transport, which retries a dropped attempt.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/aodv_strategy.h"
#include "net/flooding_strategy.h"
#include "net/mesh_node.h"
#include "radio/radio_interface.h"
#include "sim/simulator.h"
#include "trace/trace_sink.h"

namespace lm::net {
namespace {

using trace::DropReason;
using trace::EventKind;
using trace::TraceEvent;

constexpr Address kSelf = 0x0001;
constexpr Address kPeer = 0x0002;      // a neighbour, routable once heard
constexpr Address kStranger = 0x0009;  // never heard of
constexpr Address kOther = 0x000A;     // never heard of either

/// A radio whose CAD and transmissions never finish: whatever the node
/// queues stays queued, and nothing happens unless the test injects it.
class StillRadio final : public radio::Radio {
 public:
  void set_listener(radio::RadioListener* listener) override { listener_ = listener; }
  void start_receive() override { state_ = radio::RadioState::Rx; }
  void standby() override { state_ = radio::RadioState::Standby; }
  void sleep() override { state_ = radio::RadioState::Sleep; }
  bool transmit(std::span<const std::uint8_t>) override {
    state_ = radio::RadioState::Tx;
    return true;
  }
  bool start_cad() override {
    state_ = radio::RadioState::Cad;
    return true;
  }
  bool medium_busy() const override { return false; }
  radio::RadioState state() const override { return state_; }
  const phy::Modulation& modulation() const override { return modulation_; }

  void hear(const Packet& packet) {
    radio::FrameMeta meta;
    meta.snr_db = 10.0;
    listener_->on_frame_received(encode(packet), meta);
  }

 private:
  radio::RadioListener* listener_ = nullptr;
  radio::RadioState state_ = radio::RadioState::Standby;
  phy::Modulation modulation_;
};

/// One traced node on a still radio. Started nodes have heard one routing
/// beacon from kPeer, so kPeer is routable under distance vector.
class Stack {
 public:
  explicit Stack(std::unique_ptr<RoutingStrategy> strategy = nullptr,
                 bool start = true, std::size_t max_queue = 64) {
    MeshConfig cfg;
    cfg.duty_cycle_limit = 1.0;
    cfg.max_queue = max_queue;
    node_ = std::make_unique<MeshNode>(sim_, radio_, kSelf, cfg, 7,
                                       std::move(strategy));
    tracer_.attach(&sink_);
    node_->set_tracer(&tracer_);
    if (start) {
      node_->start();
      RoutingPacket beacon;
      beacon.link = LinkHeader{kBroadcast, kPeer};
      beacon.entries = {{kPeer, 0, roles::kNone}};
      radio_.hear(Packet{beacon});
    }
    sink_.clear();
  }

  MeshNode& node() { return *node_; }

  /// The events traced since the last call, one JSON line each.
  std::vector<std::string> events() {
    std::vector<std::string> out;
    for (const TraceEvent& e : sink_.take()) out.push_back(trace::to_jsonl(e));
    return out;
  }

 private:
  sim::Simulator sim_;
  StillRadio radio_;
  trace::VectorSink sink_;
  trace::Tracer tracer_;
  std::unique_ptr<MeshNode> node_;
};

std::vector<std::uint8_t> bytes(std::size_t n) {
  return std::vector<std::uint8_t>(n, 0x5A);
}

/// The Drop event a refused send traces.
std::string refusal(PacketType type, Address dst, std::size_t size,
                    DropReason reason) {
  TraceEvent e;
  e.node = kSelf;
  e.kind = EventKind::Drop;
  e.reason = reason;
  e.packet_type = static_cast<std::uint8_t>(type);
  e.origin = kSelf;
  e.final_dst = dst;
  e.bytes = static_cast<std::uint32_t>(size);
  return trace::to_jsonl(e);
}

/// A DATA packet event of a send that passed admission.
std::string data_event(EventKind kind, Address dst, std::uint16_t id,
                       std::size_t payload,
                       DropReason reason = DropReason::None) {
  const bool broadcast = dst == kBroadcast;
  TraceEvent e;
  e.node = kSelf;
  e.kind = kind;
  e.reason = reason;
  e.packet_type = static_cast<std::uint8_t>(PacketType::Data);
  e.via = broadcast ? kBroadcast : kUnassigned;
  e.origin = kSelf;
  e.final_dst = dst;
  e.ttl = broadcast ? 1 : 16;
  e.packet_id = id;
  e.bytes = static_cast<std::uint32_t>(kLinkHeaderSize + kRouteHeaderSize + payload);
  return trace::to_jsonl(e);
}

/// The Enqueue of the route request AODV floods for `dst`.
std::string rreq_enqueue(Address dst, std::uint16_t rreq_id) {
  TraceEvent e;
  e.node = kSelf;
  e.kind = EventKind::Enqueue;
  e.packet_type = static_cast<std::uint8_t>(PacketType::RouteRequest);
  e.via = kBroadcast;
  e.origin = kSelf;
  e.final_dst = dst;
  e.ttl = 16;
  e.packet_id = rreq_id;
  e.bytes = kLinkHeaderSize + kRouteHeaderSize + 5;
  return trace::to_jsonl(e);
}

using Lines = std::vector<std::string>;
const auto kNoop = [](bool) {};

TEST(SendAdmission, NotRunningRefusesEverySendFirst) {
  Stack s(nullptr, /*start=*/false);
  DropReason why = DropReason::None;
  EXPECT_FALSE(s.node().send_datagram(kPeer, bytes(3), &why));
  EXPECT_EQ(why, DropReason::NotRunning);
  // Checked before the destination and the payload size.
  why = DropReason::None;
  EXPECT_FALSE(s.node().send_datagram(kSelf, bytes(300), &why));
  EXPECT_EQ(why, DropReason::NotRunning);
  why = DropReason::None;
  EXPECT_FALSE(s.node().send_broadcast(bytes(300), &why));
  EXPECT_EQ(why, DropReason::NotRunning);
  why = DropReason::None;
  EXPECT_FALSE(s.node().send_acked(kBroadcast, bytes(4), kNoop, &why));
  EXPECT_EQ(why, DropReason::NotRunning);
  why = DropReason::None;
  EXPECT_FALSE(s.node().send_reliable(kStranger, bytes(0), kNoop, &why));
  EXPECT_EQ(why, DropReason::NotRunning);
  EXPECT_EQ(s.events(),
            (Lines{refusal(PacketType::Data, kPeer, 3, DropReason::NotRunning),
                   refusal(PacketType::Data, kSelf, 300, DropReason::NotRunning),
                   refusal(PacketType::Data, kBroadcast, 300, DropReason::NotRunning),
                   refusal(PacketType::AckedData, kBroadcast, 4, DropReason::NotRunning),
                   refusal(PacketType::Sync, kStranger, 0, DropReason::NotRunning)}));
  const NodeStats& st = s.node().stats();
  EXPECT_EQ(st.dropped_no_route, 0u);
  EXPECT_EQ(st.datagrams_sent + st.broadcasts_sent + st.acked_sent +
                st.transfers_started,
            0u);
}

TEST(SendAdmission, InvalidDestinationsAreRefused) {
  Stack s;
  for (const Address dst : {kSelf, kUnassigned, kBroadcast}) {
    DropReason why = DropReason::None;
    // An oversized payload does not outrank the destination.
    EXPECT_FALSE(s.node().send_datagram(dst, bytes(300), &why));
    EXPECT_EQ(why, DropReason::InvalidDestination);
    why = DropReason::None;
    EXPECT_FALSE(s.node().send_acked(dst, bytes(2), kNoop, &why));
    EXPECT_EQ(why, DropReason::InvalidDestination);
    why = DropReason::None;
    EXPECT_FALSE(s.node().send_reliable(dst, bytes(0), kNoop, &why));
    EXPECT_EQ(why, DropReason::InvalidDestination);
    EXPECT_EQ(s.events(),
              (Lines{refusal(PacketType::Data, dst, 300, DropReason::InvalidDestination),
                     refusal(PacketType::AckedData, dst, 2, DropReason::InvalidDestination),
                     refusal(PacketType::Sync, dst, 0, DropReason::InvalidDestination)}))
        << "destination " << dst;
  }
  const NodeStats& st = s.node().stats();
  EXPECT_EQ(st.dropped_no_route, 0u);
  EXPECT_EQ(st.datagrams_sent + st.acked_sent + st.transfers_started, 0u);
}

TEST(SendAdmission, FloodingAdmitsBroadcastDatagramsOnly) {
  Stack s(std::make_unique<FloodingStrategy>());
  DropReason why = DropReason::None;
  EXPECT_TRUE(s.node().send_datagram(kBroadcast, bytes(5), &why));
  EXPECT_EQ(why, DropReason::None);
  EXPECT_FALSE(s.node().send_acked(kBroadcast, bytes(5), kNoop, &why));
  EXPECT_EQ(why, DropReason::InvalidDestination);
  why = DropReason::None;
  EXPECT_FALSE(s.node().send_reliable(kBroadcast, bytes(5), kNoop, &why));
  EXPECT_EQ(why, DropReason::InvalidDestination);
  const Lines events = s.events();
  ASSERT_EQ(events.size(), 4u);  // AppSubmit, Enqueue, then the two refusals
  EXPECT_EQ(events[2], refusal(PacketType::AckedData, kBroadcast, 5,
                               DropReason::InvalidDestination));
  EXPECT_EQ(events[3], refusal(PacketType::Sync, kBroadcast, 5,
                               DropReason::InvalidDestination));
  EXPECT_EQ(s.node().stats().datagrams_sent, 1u);
}

TEST(SendAdmission, OversizedPayloadsAreRefusedBeforeTheRouteLookup) {
  // Under AODV a route lookup that fails starts a discovery; an oversized
  // payload must be refused before it, so no route request is queued.
  Stack s(std::make_unique<AodvStrategy>());
  const std::size_t max = s.node().max_datagram_payload();
  ASSERT_EQ(max, kMaxDataPayload);
  DropReason why = DropReason::None;
  EXPECT_FALSE(s.node().send_datagram(kStranger, bytes(max + 1), &why));
  EXPECT_EQ(why, DropReason::PayloadTooLarge);
  why = DropReason::None;
  EXPECT_FALSE(s.node().send_broadcast(bytes(max + 1), &why));
  EXPECT_EQ(why, DropReason::PayloadTooLarge);
  why = DropReason::None;
  EXPECT_FALSE(s.node().send_acked(kStranger, bytes(max + 1), kNoop, &why));
  EXPECT_EQ(why, DropReason::PayloadTooLarge);
  why = DropReason::None;
  EXPECT_FALSE(s.node().send_reliable(kStranger, bytes(0), kNoop, &why));
  EXPECT_EQ(why, DropReason::PayloadTooLarge);
  why = DropReason::None;
  const std::size_t too_big = kMaxFragmentPayload * 0xFFFF + 1;
  EXPECT_FALSE(s.node().send_reliable(kPeer, bytes(too_big), kNoop, &why));
  EXPECT_EQ(why, DropReason::PayloadTooLarge);
  EXPECT_EQ(s.events(),
            (Lines{refusal(PacketType::Data, kStranger, max + 1, DropReason::PayloadTooLarge),
                   refusal(PacketType::Data, kBroadcast, max + 1, DropReason::PayloadTooLarge),
                   refusal(PacketType::AckedData, kStranger, max + 1,
                           DropReason::PayloadTooLarge),
                   refusal(PacketType::Sync, kStranger, 0, DropReason::PayloadTooLarge),
                   refusal(PacketType::Sync, kPeer, too_big, DropReason::PayloadTooLarge)}));
  EXPECT_EQ(s.node().stats().dropped_no_route, 0u);
  EXPECT_EQ(s.node().queued_packets(), 0u);

  // The largest payloads that fit are admitted, and leave `why` alone.
  Stack dv;
  EXPECT_TRUE(dv.node().send_datagram(kPeer, bytes(max), &why));
  EXPECT_TRUE(dv.node().send_broadcast(bytes(max), &why));
  EXPECT_TRUE(dv.node().send_acked(kPeer, bytes(max), kNoop, &why));
  EXPECT_EQ(why, DropReason::PayloadTooLarge);
}

TEST(SendAdmission, DistanceVectorRefusesUnroutableDestinations) {
  Stack s;
  DropReason why = DropReason::None;
  EXPECT_FALSE(s.node().send_datagram(kStranger, bytes(1), &why));
  EXPECT_EQ(why, DropReason::NoRoute);
  why = DropReason::None;
  EXPECT_FALSE(s.node().send_acked(kStranger, bytes(2), kNoop, &why));
  EXPECT_EQ(why, DropReason::NoRoute);
  why = DropReason::None;
  EXPECT_FALSE(s.node().send_reliable(kOther, bytes(3), kNoop, &why));
  EXPECT_EQ(why, DropReason::NoRoute);
  EXPECT_EQ(s.events(),
            (Lines{refusal(PacketType::Data, kStranger, 1, DropReason::NoRoute),
                   refusal(PacketType::AckedData, kStranger, 2, DropReason::NoRoute),
                   refusal(PacketType::Sync, kOther, 3, DropReason::NoRoute)}));
  const NodeStats& st = s.node().stats();
  EXPECT_EQ(st.dropped_no_route, 3u);
  EXPECT_EQ(st.datagrams_sent + st.acked_sent + st.transfers_started, 0u);
  EXPECT_EQ(s.node().queued_packets(), 0u);
}

TEST(SendAdmission, AodvStartsDiscoveryBeforeRecordingTheRefusal) {
  Stack s(std::make_unique<AodvStrategy>());
  DropReason why = DropReason::None;
  EXPECT_FALSE(s.node().send_datagram(kStranger, bytes(1), &why));
  EXPECT_EQ(why, DropReason::NoRoute);
  EXPECT_EQ(s.events(),
            (Lines{rreq_enqueue(kStranger, 1),
                   refusal(PacketType::Data, kStranger, 1, DropReason::NoRoute)}));
  // One discovery per destination: the second refusal queues nothing.
  why = DropReason::None;
  EXPECT_FALSE(s.node().send_acked(kStranger, bytes(2), kNoop, &why));
  EXPECT_EQ(why, DropReason::NoRoute);
  EXPECT_EQ(s.events(),
            (Lines{refusal(PacketType::AckedData, kStranger, 2, DropReason::NoRoute)}));
  why = DropReason::None;
  EXPECT_FALSE(s.node().send_reliable(kOther, bytes(3), kNoop, &why));
  EXPECT_EQ(why, DropReason::NoRoute);
  EXPECT_EQ(s.events(),
            (Lines{rreq_enqueue(kOther, 2),
                   refusal(PacketType::Sync, kOther, 3, DropReason::NoRoute)}));
  EXPECT_EQ(s.node().stats().dropped_no_route, 3u);
}

TEST(SendAdmission, ReliableSendsStopAt256OpenSessionsToOnePeer) {
  Stack s;
  for (int i = 0; i < 256; ++i) {
    ASSERT_TRUE(s.node().send_reliable(kPeer, bytes(1), kNoop)) << i;
  }
  EXPECT_EQ(s.node().stats().transfers_started, 256u);
  (void)s.events();
  DropReason why = DropReason::None;
  EXPECT_FALSE(s.node().send_reliable(kPeer, bytes(4), kNoop, &why));
  EXPECT_EQ(why, DropReason::SessionLimit);
  EXPECT_EQ(s.events(),
            (Lines{refusal(PacketType::Sync, kPeer, 4, DropReason::SessionLimit)}));
  EXPECT_EQ(s.node().stats().transfers_started, 256u);
  EXPECT_EQ(s.node().stats().dropped_no_route, 0u);
}

TEST(SendAdmission, FullDataQueueRefusesDatagramsAndBroadcasts) {
  // The still radio keeps the first packet in CAD; two more fill the queue.
  Stack s(nullptr, /*start=*/true, /*max_queue=*/2);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(s.node().send_datagram(kPeer, bytes(1))) << i;
  }
  (void)s.events();
  DropReason why = DropReason::None;
  EXPECT_FALSE(s.node().send_datagram(kPeer, bytes(6), &why));
  EXPECT_EQ(why, DropReason::QueueFull);
  why = DropReason::None;
  EXPECT_FALSE(s.node().send_broadcast(bytes(7), &why));
  EXPECT_EQ(why, DropReason::QueueFull);
  EXPECT_EQ(s.events(),
            (Lines{data_event(EventKind::AppSubmit, kPeer, 4, 6),
                   data_event(EventKind::QueueDrop, kPeer, 4, 6, DropReason::QueueFull),
                   data_event(EventKind::AppSubmit, kBroadcast, 5, 7),
                   data_event(EventKind::QueueDrop, kBroadcast, 5, 7,
                              DropReason::QueueFull)}));
  const NodeStats& st = s.node().stats();
  EXPECT_EQ(st.datagrams_sent, 3u);
  EXPECT_EQ(st.broadcasts_sent, 0u);
  EXPECT_EQ(st.dropped_queue_full, 2u);
  EXPECT_EQ(st.dropped_no_route, 0u);
}

}  // namespace
}  // namespace lm::net
