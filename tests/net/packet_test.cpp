#include "net/packet.h"

#include <gtest/gtest.h>

#include "support/assert.h"
#include "support/byte_codec.h"
#include "support/pool.h"

namespace lm::net {
namespace {

RouteHeader route(Address dst, Address origin) {
  RouteHeader r;
  r.final_dst = dst;
  r.origin = origin;
  r.ttl = 16;
  r.hops = 2;
  r.packet_id = 777;
  return r;
}

template <typename T>
T round_trip(const T& packet) {
  const auto frame = encode(Packet{packet});
  EXPECT_EQ(frame.size(), encoded_size(Packet{packet}));
  auto decoded = decode(frame);
  EXPECT_TRUE(decoded.has_value());
  EXPECT_TRUE(std::holds_alternative<T>(*decoded));
  return std::get<T>(*decoded);
}

TEST(PacketCodec, RoutingRoundTrip) {
  RoutingPacket p;
  p.link = LinkHeader{kBroadcast, 0x0001};
  p.entries = {{0x0002, 1}, {0x0003, 2}, {0x0010, 5}};
  EXPECT_EQ(round_trip(p), p);
}

TEST(PacketCodec, EmptyRoutingTableIsValid) {
  RoutingPacket p;
  p.link = LinkHeader{kBroadcast, 0x0001};
  EXPECT_EQ(round_trip(p), p);
  EXPECT_EQ(encoded_size(Packet{p}), kLinkHeaderSize + 1);
}

TEST(PacketCodec, DataRoundTrip) {
  DataPacket p;
  p.link = LinkHeader{0x0002, 0x0001};
  p.route = route(0x0005, 0x0001);
  p.payload = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(round_trip(p), p);
}

TEST(PacketCodec, EmptyDataPayloadRoundTrips) {
  DataPacket p;
  p.link = LinkHeader{0x0002, 0x0001};
  p.route = route(0x0005, 0x0001);
  EXPECT_EQ(round_trip(p), p);
}

TEST(PacketCodec, MaxSizeDataFitsIn255) {
  DataPacket p;
  p.link = LinkHeader{0x0002, 0x0001};
  p.route = route(0x0005, 0x0001);
  p.payload.assign(kMaxDataPayload, 0xEE);
  const auto frame = encode(Packet{p});
  EXPECT_EQ(frame.size(), 255u);
  EXPECT_EQ(round_trip(p), p);
}

TEST(PacketCodec, OversizedDataRejected) {
  DataPacket p;
  p.payload.assign(kMaxDataPayload + 1, 0);
  EXPECT_THROW(encode(Packet{p}), ContractViolation);
}

TEST(PacketCodec, SyncRoundTrip) {
  SyncPacket p;
  p.link = LinkHeader{0x0002, 0x0001};
  p.route = route(0x0005, 0x0001);
  p.seq = 42;
  p.fragment_count = 69;
  p.total_bytes = 16384;
  EXPECT_EQ(round_trip(p), p);
}

TEST(PacketCodec, SyncAckDonePollRoundTrip) {
  SyncAckPacket a;
  a.link = LinkHeader{0x0001, 0x0005};
  a.route = route(0x0001, 0x0005);
  a.seq = 42;
  EXPECT_EQ(round_trip(a), a);

  DonePacket d;
  d.link = LinkHeader{0x0001, 0x0005};
  d.route = route(0x0001, 0x0005);
  d.seq = 42;
  EXPECT_EQ(round_trip(d), d);

  PollPacket q;
  q.link = LinkHeader{0x0005, 0x0001};
  q.route = route(0x0005, 0x0001);
  q.seq = 42;
  EXPECT_EQ(round_trip(q), q);
}

TEST(PacketCodec, RouteDiscoveryFamilyRoundTrip) {
  RouteRequestPacket rreq;
  rreq.link = LinkHeader{kBroadcast, 0x0001};
  rreq.route = route(0x0009, 0x0001);
  rreq.origin_seq = 0x1234;
  rreq.dst_seq = 0xBEEF;
  rreq.dst_seq_known = 1;
  EXPECT_EQ(round_trip(rreq), rreq);

  RouteReplyPacket rrep;
  rrep.link = LinkHeader{0x0002, 0x0009};
  rrep.route = route(0x0001, 0x0009);
  rrep.dst_seq = 0xBEF0;
  EXPECT_EQ(round_trip(rrep), rrep);

  RouteErrorPacket rerr;
  rerr.link = LinkHeader{kBroadcast, 0x0002};
  rerr.route = route(kBroadcast, 0x0002);
  rerr.unreachable = 0x0009;
  rerr.seq = 0xBEF1;
  EXPECT_EQ(round_trip(rerr), rerr);
}

TEST(PacketCodec, GatewayTreeFamilyRoundTrip) {
  TreeBeaconPacket beacon;
  beacon.link = LinkHeader{kBroadcast, 0x0001};
  beacon.route = route(kBroadcast, 0x0001);
  EXPECT_EQ(round_trip(beacon), beacon);

  TreeReportPacket report;
  report.link = LinkHeader{0x0003, 0x0004};
  report.route = route(0x0001, 0x0004);
  report.parent = 0x0003;
  EXPECT_EQ(round_trip(report), report);
}

TEST(PacketCodec, DecodeRejectsTypeJustPastTreeReport) {
  TreeReportPacket report;
  report.link = LinkHeader{0x0003, 0x0004};
  report.route = route(0x0001, 0x0004);
  report.parent = 0x0003;
  auto frame = encode(Packet{report});
  ASSERT_TRUE(decode(frame).has_value());
  frame[4] = 0x10;  // TreeReport (0x0F) is the last assigned raw type
  EXPECT_FALSE(decode(frame).has_value());
}

TEST(PacketCodec, FragmentRoundTrip) {
  FragmentPacket p;
  p.link = LinkHeader{0x0002, 0x0001};
  p.route = route(0x0005, 0x0001);
  p.seq = 3;
  p.index = 1234;
  p.payload.assign(kMaxFragmentPayload, 0x5A);
  const auto frame = encode(Packet{p});
  EXPECT_EQ(frame.size(), 255u);
  EXPECT_EQ(round_trip(p), p);
}

TEST(PacketCodec, AckedDataRoundTrip) {
  AckedDataPacket p;
  p.link = LinkHeader{0x0002, 0x0001};
  p.route = route(0x0005, 0x0001);
  p.payload = {9, 8, 7};
  EXPECT_EQ(round_trip(p), p);
  // Same MTU as plain datagrams.
  p.payload.assign(kMaxDataPayload, 0x11);
  EXPECT_EQ(encode(Packet{p}).size(), 255u);
  p.payload.push_back(0);
  EXPECT_THROW(encode(Packet{p}), ContractViolation);
}

TEST(PacketCodec, AckRoundTrip) {
  AckPacket p;
  p.link = LinkHeader{0x0001, 0x0005};
  p.route = route(0x0001, 0x0005);
  p.acked_id = 0xBEEF;
  EXPECT_EQ(round_trip(p), p);
  auto frame = encode(Packet{p});
  frame.push_back(0x00);  // trailing garbage on a fixed-size packet
  EXPECT_FALSE(decode(frame).has_value());
}

TEST(PacketCodec, LostRoundTrip) {
  LostPacket p;
  p.link = LinkHeader{0x0001, 0x0005};
  p.route = route(0x0001, 0x0005);
  p.seq = 3;
  for (std::uint16_t i = 0; i < kMaxLostIndices; ++i) {
    p.missing.push_back(static_cast<std::uint16_t>(i * 3));
  }
  const auto frame = encode(Packet{p});
  EXPECT_LE(frame.size(), 255u);
  EXPECT_EQ(round_trip(p), p);
}

TEST(PacketCodec, LostOverCapacityRejected) {
  LostPacket p;
  p.missing.assign(kMaxLostIndices + 1, 0);
  EXPECT_THROW(encode(Packet{p}), ContractViolation);
}

TEST(PacketCodec, DecodeRejectsFramesOver255Bytes) {
  // A LOST frame listing 121 indices is 257 bytes: encode refuses it, so
  // decode must too, or a decoded packet could not always be sent on.
  LostPacket p;
  p.link = LinkHeader{0x0001, 0x0005};
  p.route = route(0x0001, 0x0005);
  p.missing.assign(kMaxLostIndices, 9);
  auto frame = encode(Packet{p});
  ASSERT_EQ(frame.size(), 255u);
  ASSERT_TRUE(decode(frame).has_value());
  frame[kLinkHeaderSize + kRouteHeaderSize + 1] = kMaxLostIndices + 1;
  frame.insert(frame.end(), {9, 0});
  EXPECT_EQ(frame.size(), 257u);
  EXPECT_FALSE(decode(frame).has_value());
}

TEST(PacketCodec, RoutingOverCapacityRejected) {
  RoutingPacket p;
  p.entries.assign(kMaxRoutingEntries + 1, RoutingEntry{});
  EXPECT_THROW(encode(Packet{p}), ContractViolation);
}

TEST(PacketCodec, DecodeRejectsTruncatedFrames) {
  DataPacket p;
  p.link = LinkHeader{0x0002, 0x0001};
  p.route = route(0x0005, 0x0001);
  p.payload = {1, 2, 3};
  const auto frame = encode(Packet{p});
  // Every prefix strictly inside the headers must fail cleanly.
  for (std::size_t len = 0; len < kLinkHeaderSize + kRouteHeaderSize; ++len) {
    const std::vector<std::uint8_t> truncated(frame.begin(),
                                              frame.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(decode(truncated).has_value()) << "length " << len;
  }
}

TEST(PacketCodec, DecodeRejectsUnknownType) {
  std::vector<std::uint8_t> frame{0xFF, 0xFF, 0x01, 0x00, 0x99};
  EXPECT_FALSE(decode(frame).has_value());
  frame[4] = 0x00;
  EXPECT_FALSE(decode(frame).has_value());
}

TEST(PacketCodec, DecodeRejectsTrailingGarbageOnFixedSizePackets) {
  SyncAckPacket a;
  a.link = LinkHeader{0x0001, 0x0005};
  a.route = route(0x0001, 0x0005);
  a.seq = 1;
  auto frame = encode(Packet{a});
  frame.push_back(0xAB);
  EXPECT_FALSE(decode(frame).has_value());
}

TEST(PacketCodec, DecodeRejectsTruncatedRoutingEntries) {
  RoutingPacket p;
  p.link = LinkHeader{kBroadcast, 0x0001};
  p.entries = {{0x0002, 1}, {0x0003, 2}};
  auto frame = encode(Packet{p});
  frame.pop_back();  // half an entry
  EXPECT_FALSE(decode(frame).has_value());
}

std::uint64_t pool_requests() {
  const support::PoolStats s = support::BlockPool::stats();
  return s.pool_hits + s.pool_refills + s.oversize;
}

TEST(PacketCodec, DecodingAFullBeaconCostsOnePoolBlock) {
  RoutingPacket p;
  p.link = LinkHeader{kBroadcast, 0x0001};
  for (std::size_t i = 0; i < kMaxRoutingEntries; ++i) {
    p.entries.push_back({static_cast<Address>(0x0100 + i),
                         static_cast<std::uint8_t>(1 + i % 15)});
  }
  const auto frame = encode(Packet{p});
  const std::uint64_t before = pool_requests();
  const auto decoded = decode(frame);
  EXPECT_EQ(pool_requests() - before, 1u);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<RoutingPacket>(*decoded), p);
}

TEST(PacketCodec, CraftedBeaconCountAllocatesNothing) {
  // A count byte of 255 over two real entries: decode rejects the frame
  // before reserving anything for the claimed entries.
  RoutingPacket p;
  p.link = LinkHeader{kBroadcast, 0x0001};
  p.entries = {{0x0002, 1}, {0x0003, 2}};
  auto frame = encode(Packet{p});
  frame[kLinkHeaderSize] = 0xFF;
  std::uint64_t before = pool_requests();
  EXPECT_FALSE(decode(frame).has_value());
  EXPECT_EQ(pool_requests() - before, 0u);

  // The same holds for a LOST frame claiming 255 indices over two.
  LostPacket lost;
  lost.link = LinkHeader{0x0001, 0x0005};
  lost.route = route(0x0001, 0x0005);
  lost.missing = {4, 7};
  frame = encode(Packet{lost});
  frame[kLinkHeaderSize + kRouteHeaderSize + 1] = 0xFF;
  before = pool_requests();
  EXPECT_FALSE(decode(frame).has_value());
  EXPECT_EQ(pool_requests() - before, 0u);
}

TEST(PacketCodec, LinkAndRouteAccessors) {
  DataPacket p;
  p.link = LinkHeader{0x0002, 0x0001};
  p.route = route(0x0005, 0x0001);
  Packet packet{p};
  EXPECT_EQ(link_of(packet).dst, 0x0002);
  ASSERT_NE(route_of(packet), nullptr);
  EXPECT_EQ(route_of(packet)->final_dst, 0x0005);

  RoutingPacket r;
  Packet routing{r};
  EXPECT_EQ(route_of(routing), nullptr);

  // Mutable accessors actually mutate.
  link_of(packet).dst = 0x0009;
  EXPECT_EQ(std::get<DataPacket>(packet).link.dst, 0x0009);
  route_of(packet)->ttl = 3;
  EXPECT_EQ(std::get<DataPacket>(packet).route.ttl, 3);
}

TEST(PacketCodec, DescribeMentionsTypeAndAddresses) {
  DataPacket p;
  p.link = LinkHeader{0x0002, 0x0001};
  p.route = route(0x0005, 0x0001);
  const std::string s = describe(Packet{p});
  EXPECT_NE(s.find("DATA"), std::string::npos);
  EXPECT_NE(s.find("0x0005"), std::string::npos);
}

TEST(PacketCodec, AddressToString) {
  EXPECT_EQ(to_string(Address{0x00A3}), "0x00A3");
  EXPECT_EQ(to_string(kBroadcast), "BCAST");
}

// Golden frames: byte-exact expectations pin the wire format. If one of
// these fails, the change breaks over-the-air compatibility — bump a
// protocol version, don't silently reshape frames.
TEST(PacketCodec, GoldenRoutingFrame) {
  RoutingPacket p;
  p.link = LinkHeader{kBroadcast, 0x0102};
  p.entries = {{0x0304, 2, roles::kGateway}};
  EXPECT_EQ(to_hex(encode(Packet{p})),
            "FF FF 02 01 01 01 04 03 02 01");
}

TEST(PacketCodec, GoldenDataFrame) {
  DataPacket p;
  p.link = LinkHeader{0x0A0B, 0x0102};
  p.route = RouteHeader{0x0C0D, 0x0102, 16, 3, 0xBEEF};
  p.payload = {0x11, 0x22};
  EXPECT_EQ(to_hex(encode(Packet{p})),
            "0B 0A 02 01 02 0D 0C 02 01 10 03 EF BE 11 22");
}

TEST(PacketCodec, GoldenSyncFrame) {
  SyncPacket p;
  p.link = LinkHeader{0x0A0B, 0x0102};
  p.route = RouteHeader{0x0C0D, 0x0102, 16, 0, 1};
  p.seq = 7;
  p.fragment_count = 0x0203;
  p.total_bytes = 0x04050607;
  EXPECT_EQ(to_hex(encode(Packet{p})),
            "0B 0A 02 01 03 0D 0C 02 01 10 00 01 00 07 03 02 07 06 05 04");
}

TEST(PacketCodec, GoldenAckFrame) {
  AckPacket p;
  p.link = LinkHeader{0x0A0B, 0x0102};
  p.route = RouteHeader{0x0C0D, 0x0102, 16, 0, 1};
  p.acked_id = 0x1234;
  EXPECT_EQ(to_hex(encode(Packet{p})),
            "0B 0A 02 01 0A 0D 0C 02 01 10 00 01 00 34 12");
}

TEST(PacketCodec, GoldenLostFrame) {
  LostPacket p;
  p.link = LinkHeader{0x0A0B, 0x0102};
  p.route = RouteHeader{0x0C0D, 0x0102, 16, 0, 1};
  p.seq = 7;
  p.missing = {0x0001, 0x0100};
  EXPECT_EQ(to_hex(encode(Packet{p})),
            "0B 0A 02 01 06 0D 0C 02 01 10 00 01 00 07 02 01 00 00 01");
}

TEST(PacketCodec, GoldenSyncAckFrame) {
  SyncAckPacket p;
  p.link = LinkHeader{0x0A0B, 0x0102};
  p.route = RouteHeader{0x0C0D, 0x0102, 16, 0, 1};
  p.seq = 7;
  EXPECT_EQ(to_hex(encode(Packet{p})),
            "0B 0A 02 01 04 0D 0C 02 01 10 00 01 00 07");
}

TEST(PacketCodec, GoldenFragmentFrame) {
  FragmentPacket p;
  p.link = LinkHeader{0x0A0B, 0x0102};
  p.route = RouteHeader{0x0C0D, 0x0102, 16, 0, 1};
  p.seq = 7;
  p.index = 0x0203;
  p.payload = {0x11, 0x22};
  EXPECT_EQ(to_hex(encode(Packet{p})),
            "0B 0A 02 01 05 0D 0C 02 01 10 00 01 00 07 03 02 11 22");
}

TEST(PacketCodec, GoldenDoneFrame) {
  DonePacket p;
  p.link = LinkHeader{0x0A0B, 0x0102};
  p.route = RouteHeader{0x0C0D, 0x0102, 16, 0, 1};
  p.seq = 7;
  EXPECT_EQ(to_hex(encode(Packet{p})),
            "0B 0A 02 01 07 0D 0C 02 01 10 00 01 00 07");
}

TEST(PacketCodec, GoldenPollFrame) {
  PollPacket p;
  p.link = LinkHeader{0x0A0B, 0x0102};
  p.route = RouteHeader{0x0C0D, 0x0102, 16, 0, 1};
  p.seq = 7;
  EXPECT_EQ(to_hex(encode(Packet{p})),
            "0B 0A 02 01 08 0D 0C 02 01 10 00 01 00 07");
}

TEST(PacketCodec, GoldenAckedDataFrame) {
  AckedDataPacket p;
  p.link = LinkHeader{0x0A0B, 0x0102};
  p.route = RouteHeader{0x0C0D, 0x0102, 16, 3, 0xBEEF};
  p.payload = {0x11, 0x22};
  EXPECT_EQ(to_hex(encode(Packet{p})),
            "0B 0A 02 01 09 0D 0C 02 01 10 03 EF BE 11 22");
}

TEST(PacketCodec, GoldenRouteRequestFrame) {
  RouteRequestPacket p;
  p.link = LinkHeader{kBroadcast, 0x0102};
  p.route = RouteHeader{0x0C0D, 0x0102, 16, 0, 1};
  p.origin_seq = 0x0203;
  p.dst_seq = 0x0405;
  p.dst_seq_known = 1;
  EXPECT_EQ(to_hex(encode(Packet{p})),
            "FF FF 02 01 0B 0D 0C 02 01 10 00 01 00 03 02 05 04 01");
}

TEST(PacketCodec, GoldenRouteReplyFrame) {
  RouteReplyPacket p;
  p.link = LinkHeader{0x0A0B, 0x0C0D};
  p.route = RouteHeader{0x0102, 0x0C0D, 16, 2, 1};
  p.dst_seq = 0x0203;
  EXPECT_EQ(to_hex(encode(Packet{p})),
            "0B 0A 0D 0C 0C 02 01 0D 0C 10 02 01 00 03 02");
}

TEST(PacketCodec, GoldenRouteErrorFrame) {
  RouteErrorPacket p;
  p.link = LinkHeader{kBroadcast, 0x0102};
  p.route = RouteHeader{kBroadcast, 0x0102, 1, 0, 0};
  p.unreachable = 0x0304;
  p.seq = 0x0506;
  EXPECT_EQ(to_hex(encode(Packet{p})),
            "FF FF 02 01 0D FF FF 02 01 01 00 00 00 04 03 06 05");
}

TEST(PacketCodec, GoldenTreeBeaconFrame) {
  TreeBeaconPacket p;
  p.link = LinkHeader{kBroadcast, 0x0102};
  p.route = RouteHeader{kBroadcast, 0x0102, 16, 0, 0x0304};
  EXPECT_EQ(to_hex(encode(Packet{p})),
            "FF FF 02 01 0E FF FF 02 01 10 00 04 03");
}

TEST(PacketCodec, GoldenTreeReportFrame) {
  TreeReportPacket p;
  p.link = LinkHeader{0x0A0B, 0x0102};
  p.route = RouteHeader{0x0C0D, 0x0102, 16, 0, 1};
  p.parent = 0x0A0B;
  EXPECT_EQ(to_hex(encode(Packet{p})),
            "0B 0A 02 01 0F 0D 0C 02 01 10 00 01 00 0B 0A");
}

TEST(PacketCodec, GoldenFramesDecodeToTheirPackets) {
  // Every golden type byte decodes back to its own alternative.
  const std::vector<std::pair<std::string, PacketType>> frames = {
      {"FF FF 02 01 01 01 04 03 02 01", PacketType::Routing},
      {"0B 0A 02 01 02 0D 0C 02 01 10 03 EF BE 11 22", PacketType::Data},
      {"0B 0A 02 01 03 0D 0C 02 01 10 00 01 00 07 03 02 07 06 05 04",
       PacketType::Sync},
      {"0B 0A 02 01 04 0D 0C 02 01 10 00 01 00 07", PacketType::SyncAck},
      {"0B 0A 02 01 05 0D 0C 02 01 10 00 01 00 07 03 02 11 22",
       PacketType::Fragment},
      {"0B 0A 02 01 06 0D 0C 02 01 10 00 01 00 07 02 01 00 00 01",
       PacketType::Lost},
      {"0B 0A 02 01 07 0D 0C 02 01 10 00 01 00 07", PacketType::Done},
      {"0B 0A 02 01 08 0D 0C 02 01 10 00 01 00 07", PacketType::Poll},
      {"0B 0A 02 01 09 0D 0C 02 01 10 03 EF BE 11 22", PacketType::AckedData},
      {"0B 0A 02 01 0A 0D 0C 02 01 10 00 01 00 34 12", PacketType::Ack},
      {"FF FF 02 01 0B 0D 0C 02 01 10 00 01 00 03 02 05 04 01",
       PacketType::RouteRequest},
      {"0B 0A 0D 0C 0C 02 01 0D 0C 10 02 01 00 03 02", PacketType::RouteReply},
      {"FF FF 02 01 0D FF FF 02 01 01 00 00 00 04 03 06 05",
       PacketType::RouteError},
      {"FF FF 02 01 0E FF FF 02 01 10 00 04 03", PacketType::TreeBeacon},
      {"0B 0A 02 01 0F 0D 0C 02 01 10 00 01 00 0B 0A", PacketType::TreeReport},
  };
  for (const auto& [hex, type] : frames) {
    std::vector<std::uint8_t> frame;
    for (std::size_t i = 0; i < hex.size(); i += 3) {
      frame.push_back(static_cast<std::uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
    }
    const auto packet = decode(frame);
    ASSERT_TRUE(packet.has_value()) << hex;
    EXPECT_EQ(packet->index() + 1, static_cast<std::size_t>(type)) << hex;
    EXPECT_EQ(to_hex(encode(*packet)), hex);
  }
}

TEST(PacketCodec, MtuConstantsAreConsistent) {
  EXPECT_EQ(kMaxDataPayload, 242u);
  EXPECT_EQ(kMaxFragmentPayload, 239u);
  EXPECT_EQ(kMaxLostIndices, 120u);
  EXPECT_EQ(kMaxRoutingEntries, 62u);
}

}  // namespace
}  // namespace lm::net
