// decode_shared(): the receive path's decode-once-per-transmission memo and
// its per-sender beacon content ids (net/link_layer.h). Every result must
// equal a fresh decode() of the same bytes; ids must be equal exactly when
// a sender repeats its entries.
#include <gtest/gtest.h>

#include <vector>

#include "net/link_layer.h"

namespace lm::net {
namespace {

std::vector<std::uint8_t> beacon_frame(Address src, std::vector<RoutingEntry> entries) {
  RoutingPacket beacon;
  beacon.link = LinkHeader{kBroadcast, src, PacketType::Routing};
  beacon.entries.assign(entries.begin(), entries.end());
  return encode(Packet{beacon});
}

std::vector<std::uint8_t> data_frame(Address src, std::uint8_t fill) {
  DataPacket data;
  data.link = LinkHeader{0x0009, src, PacketType::Data};
  data.route = RouteHeader{0x0009, src, 8, 0, 1};
  data.payload.assign(12, fill);
  return encode(Packet{data});
}

std::uint32_t id_of(const std::optional<Packet>& packet) {
  return std::get<RoutingPacket>(packet.value()).content_id;
}

TEST(DecodeMemo, RepeatedFrameReturnsTheSameDecode) {
  const auto frame = beacon_frame(0x0201, {{0x0201, 0}, {0x0202, 1}});
  const auto first = decode_shared(frame);
  const auto again = decode_shared(frame);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first, decode(frame));
  EXPECT_EQ(again, decode(frame));
  EXPECT_NE(id_of(first), 0u);
  EXPECT_EQ(id_of(again), id_of(first));
  EXPECT_EQ(std::get<RoutingPacket>(*decode(frame)).content_id, 0u);  // decode() names nothing
}

TEST(DecodeMemo, FrameOneByteOffDecodesFresh) {
  const auto frame = beacon_frame(0x0211, {{0x0211, 0}, {0x0212, 1}, {0x0213, 2}});
  const auto cached = decode_shared(frame);
  auto edited = frame;
  edited.back() ^= 0x01;  // the last entry's role
  const auto fresh = decode_shared(edited);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(fresh, decode(edited));
  EXPECT_NE(fresh, cached);
  EXPECT_NE(id_of(fresh), id_of(cached));

  // Same for a data frame's payload.
  const auto data = data_frame(0x0214, 7);
  ASSERT_EQ(decode_shared(data), decode(data));
  auto flipped = data;
  flipped[flipped.size() - 3] = 8;
  EXPECT_EQ(decode_shared(flipped), decode(flipped));
  EXPECT_NE(decode_shared(flipped), decode(data));
}

TEST(DecodeMemo, MalformedFrameAfterACachedGoodOneIsRejected) {
  const auto frame = beacon_frame(0x0221, {{0x0221, 0}, {0x0222, 1}});
  ASSERT_TRUE(decode_shared(frame).has_value());
  const std::span<const std::uint8_t> cut(frame.data(), frame.size() - 1);
  EXPECT_FALSE(decode_shared(cut).has_value());
  EXPECT_FALSE(decode_shared(cut).has_value());  // a cached rejection too
  EXPECT_TRUE(decode_shared(frame).has_value());
}

TEST(DecodeMemo, SenderKeepsItsIdWhileItsEntriesRepeat) {
  const auto v1 = beacon_frame(0x0231, {{0x0231, 0}, {0x0232, 1}});
  const auto v2 = beacon_frame(0x0231, {{0x0231, 0}, {0x0232, 2}});
  const auto other = beacon_frame(0x0233, {{0x0231, 0}, {0x0232, 1}});
  const std::uint32_t id1 = id_of(decode_shared(v1));
  ASSERT_TRUE(decode_shared(data_frame(0x0234, 1)).has_value());  // evicts the frame memo
  EXPECT_EQ(id_of(decode_shared(v1)), id1);  // same sender, same entries
  // The same entries from another sender, and new entries from this one,
  // are new contents.
  const std::uint32_t id_other = id_of(decode_shared(other));
  const std::uint32_t id2 = id_of(decode_shared(v2));
  EXPECT_NE(id_other, id1);
  EXPECT_NE(id2, id1);
  EXPECT_NE(id2, id_other);
  // Back to the first entries: a fresh id, never a reused one.
  const std::uint32_t id3 = id_of(decode_shared(v1));
  EXPECT_NE(id3, id1);
  EXPECT_NE(id3, id2);
}

}  // namespace
}  // namespace lm::net
