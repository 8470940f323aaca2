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
  beacon.link = LinkHeader{kBroadcast, src};
  beacon.entries.assign(entries.begin(), entries.end());
  return encode(Packet{beacon});
}

std::vector<std::uint8_t> data_frame(Address src, std::uint8_t fill) {
  DataPacket data;
  data.link = LinkHeader{0x0009, src};
  data.route = RouteHeader{0x0009, src, 8, 0, 1};
  data.payload.assign(12, fill);
  return encode(Packet{data});
}

std::uint32_t id_of(const Packet* packet) {
  EXPECT_NE(packet, nullptr);
  return packet == nullptr ? 0u : std::get<RoutingPacket>(*packet).content_id;
}

TEST(DecodeMemo, RepeatedFrameReturnsTheSameDecode) {
  const auto frame = beacon_frame(0x0201, {{0x0201, 0}, {0x0202, 1}});
  const Packet* first = decode_shared(frame);
  ASSERT_NE(first, nullptr);
  const std::uint32_t first_id = id_of(first);
  EXPECT_EQ(*first, decode(frame));
  const Packet* again = decode_shared(frame);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again, first);  // the memo's one packet, not a copy
  EXPECT_EQ(*again, decode(frame));
  EXPECT_NE(first_id, 0u);
  EXPECT_EQ(id_of(again), first_id);
  EXPECT_EQ(std::get<RoutingPacket>(*decode(frame)).content_id, 0u);  // decode() names nothing
}

TEST(DecodeMemo, FrameOneByteOffDecodesFresh) {
  const auto frame = beacon_frame(0x0211, {{0x0211, 0}, {0x0212, 1}, {0x0213, 2}});
  const Packet* cached_ptr = decode_shared(frame);
  ASSERT_NE(cached_ptr, nullptr);
  const Packet cached = *cached_ptr;  // the next call replaces the memo
  auto edited = frame;
  edited.back() ^= 0x01;  // the last entry's role
  const Packet* fresh = decode_shared(edited);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(*fresh, decode(edited));
  EXPECT_NE(*fresh, cached);
  EXPECT_NE(id_of(fresh), std::get<RoutingPacket>(cached).content_id);

  // Same for a data frame's payload.
  const auto data = data_frame(0x0214, 7);
  const Packet* data_decoded = decode_shared(data);
  ASSERT_NE(data_decoded, nullptr);
  ASSERT_EQ(*data_decoded, decode(data));
  auto flipped = data;
  flipped[flipped.size() - 3] = 8;
  const Packet* flipped_decoded = decode_shared(flipped);
  ASSERT_NE(flipped_decoded, nullptr);
  EXPECT_EQ(*flipped_decoded, decode(flipped));
  EXPECT_NE(*flipped_decoded, decode(data));
}

TEST(DecodeMemo, MalformedFrameAfterACachedGoodOneIsRejected) {
  const auto frame = beacon_frame(0x0221, {{0x0221, 0}, {0x0222, 1}});
  ASSERT_NE(decode_shared(frame), nullptr);
  const std::span<const std::uint8_t> cut(frame.data(), frame.size() - 1);
  EXPECT_EQ(decode_shared(cut), nullptr);
  EXPECT_EQ(decode_shared(cut), nullptr);  // a cached rejection too
  EXPECT_NE(decode_shared(frame), nullptr);
}

TEST(DecodeMemo, SenderKeepsItsIdWhileItsEntriesRepeat) {
  const auto v1 = beacon_frame(0x0231, {{0x0231, 0}, {0x0232, 1}});
  const auto v2 = beacon_frame(0x0231, {{0x0231, 0}, {0x0232, 2}});
  const auto other = beacon_frame(0x0233, {{0x0231, 0}, {0x0232, 1}});
  const std::uint32_t id1 = id_of(decode_shared(v1));
  ASSERT_NE(decode_shared(data_frame(0x0234, 1)), nullptr);  // evicts the frame memo
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
