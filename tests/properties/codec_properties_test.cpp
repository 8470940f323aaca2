// Property tests for the packet codec.
//
// Two core properties, swept over seeded random inputs:
//  (1) decode() is total — arbitrary bytes never crash it; and when it does
//      accept a frame, re-encoding reproduces the input byte-for-byte
//      (the wire format is canonical: no hidden state, no aliasing).
//  (2) encode()/decode() round-trips every representable packet.
#include <gtest/gtest.h>

#include "net/packet.h"
#include "support/rng.h"

namespace lm::net {
namespace {

class CodecProperty : public ::testing::TestWithParam<std::uint64_t> {};

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t max_len) {
  std::vector<std::uint8_t> out(
      static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(max_len))));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return out;
}

Address random_address(Rng& rng) {
  return static_cast<Address>(rng.uniform_int(0, 0xFFFF));
}

RouteHeader random_route(Rng& rng) {
  RouteHeader r;
  r.final_dst = random_address(rng);
  r.origin = random_address(rng);
  r.ttl = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  r.hops = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  r.packet_id = static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF));
  return r;
}

Packet random_packet(Rng& rng) {
  const int kind = static_cast<int>(rng.uniform_int(0, 14));
  switch (kind) {
    case 0: {
      RoutingPacket p;
      p.link = {kBroadcast, random_address(rng)};
      const auto n = rng.uniform_int(0, kMaxRoutingEntries);
      for (std::int64_t i = 0; i < n; ++i) {
        p.entries.push_back({random_address(rng),
                             static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
                             static_cast<Role>(rng.uniform_int(0, 255))});
      }
      return Packet{std::move(p)};
    }
    case 1: {
      DataPacket p;
      p.link = {random_address(rng), random_address(rng)};
      p.route = random_route(rng);
      const auto payload = random_bytes(rng, kMaxDataPayload);
      p.payload.assign(payload.begin(), payload.end());
      return Packet{std::move(p)};
    }
    case 2: {
      SyncPacket p;
      p.link = {random_address(rng), random_address(rng)};
      p.route = random_route(rng);
      p.seq = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      p.fragment_count = static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF));
      p.total_bytes = static_cast<std::uint32_t>(rng.next_u64());
      return Packet{p};
    }
    case 3: {
      SyncAckPacket p;
      p.link = {random_address(rng), random_address(rng)};
      p.route = random_route(rng);
      p.seq = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      return Packet{p};
    }
    case 4: {
      FragmentPacket p;
      p.link = {random_address(rng), random_address(rng)};
      p.route = random_route(rng);
      p.seq = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      p.index = static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF));
      const auto payload = random_bytes(rng, kMaxFragmentPayload);
      p.payload.assign(payload.begin(), payload.end());
      return Packet{std::move(p)};
    }
    case 5: {
      LostPacket p;
      p.link = {random_address(rng), random_address(rng)};
      p.route = random_route(rng);
      p.seq = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      const auto n = rng.uniform_int(0, kMaxLostIndices);
      for (std::int64_t i = 0; i < n; ++i) {
        p.missing.push_back(static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF)));
      }
      return Packet{std::move(p)};
    }
    case 6: {
      DonePacket p;
      p.link = {random_address(rng), random_address(rng)};
      p.route = random_route(rng);
      p.seq = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      return Packet{p};
    }
    case 7: {
      PollPacket p;
      p.link = {random_address(rng), random_address(rng)};
      p.route = random_route(rng);
      p.seq = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      return Packet{p};
    }
    case 8: {
      AckedDataPacket p;
      p.link = {random_address(rng), random_address(rng)};
      p.route = random_route(rng);
      const auto payload = random_bytes(rng, kMaxDataPayload);
      p.payload.assign(payload.begin(), payload.end());
      return Packet{std::move(p)};
    }
    case 9: {
      AckPacket p;
      p.link = {random_address(rng), random_address(rng)};
      p.route = random_route(rng);
      p.acked_id = static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF));
      return Packet{p};
    }
    case 10: {
      RouteRequestPacket p;
      p.link = {random_address(rng), random_address(rng)};
      p.route = random_route(rng);
      p.origin_seq = static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF));
      p.dst_seq = static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF));
      p.dst_seq_known = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      return Packet{p};
    }
    case 11: {
      RouteReplyPacket p;
      p.link = {random_address(rng), random_address(rng)};
      p.route = random_route(rng);
      p.dst_seq = static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF));
      return Packet{p};
    }
    case 12: {
      RouteErrorPacket p;
      p.link = {random_address(rng), random_address(rng)};
      p.route = random_route(rng);
      p.unreachable = static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF));
      p.seq = static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF));
      return Packet{p};
    }
    case 13: {
      TreeBeaconPacket p;
      p.link = {random_address(rng), random_address(rng)};
      p.route = random_route(rng);
      return Packet{p};
    }
    default: {
      TreeReportPacket p;
      p.link = {random_address(rng), random_address(rng)};
      p.route = random_route(rng);
      p.parent = random_address(rng);
      return Packet{p};
    }
  }
}

TEST_P(CodecProperty, DecodeIsTotalAndCanonical) {
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    const auto frame = random_bytes(rng, 255);
    const auto decoded = decode(frame);  // must never crash or UB
    if (decoded) {
      // Accepted frames re-encode to exactly the bytes that arrived.
      EXPECT_EQ(encode(*decoded), frame);
      EXPECT_EQ(encoded_size(*decoded), frame.size());
    }
  }
}

TEST_P(CodecProperty, FramesOver255BytesAreRejected) {
  // Whatever they hold — including LOST frames listing 121 to 127 indices,
  // which parse field by field — frames encode would refuse never decode.
  Rng rng(GetParam() ^ 0x0FF5);
  for (int i = 0; i < 100; ++i) {
    auto frame = random_bytes(rng, 255);
    frame.resize(256 + rng.index(64), 0x00);
    EXPECT_FALSE(decode(frame).has_value());

    LostPacket lost;
    lost.link = {random_address(rng), random_address(rng)};
    lost.route = random_route(rng);
    const std::size_t n = kMaxLostIndices + 1 + rng.index(7);
    auto wire = encode(Packet{lost});
    wire.back() = static_cast<std::uint8_t>(n);  // the index count
    for (std::size_t k = 0; k < 2 * n; ++k) {
      wire.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
    }
    EXPECT_FALSE(decode(wire).has_value());
  }
}

TEST_P(CodecProperty, RandomPacketsRoundTrip) {
  Rng rng(GetParam() ^ 0xBEEF);
  for (int i = 0; i < 300; ++i) {
    const Packet original = random_packet(rng);
    const auto frame = encode(original);
    ASSERT_LE(frame.size(), 255u);
    const auto decoded = decode(frame);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, original);
    EXPECT_EQ(encoded_size(original), frame.size());
  }
}

TEST_P(CodecProperty, SingleByteMutationIsHandled) {
  Rng rng(GetParam() ^ 0xFACE);
  for (int i = 0; i < 200; ++i) {
    auto frame = encode(random_packet(rng));
    const std::size_t pos = rng.index(frame.size());
    frame[pos] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto decoded = decode(frame);  // corruption must be survivable
    if (decoded) {
      EXPECT_EQ(encode(*decoded), frame);  // still canonical
    }
  }
}

TEST_P(CodecProperty, MultiByteMutationIsHandled) {
  Rng rng(GetParam() ^ 0xABCD);
  for (int i = 0; i < 200; ++i) {
    auto frame = encode(random_packet(rng));
    const auto mutations = rng.uniform_int(1, 8);
    for (std::int64_t m = 0; m < mutations; ++m) {
      frame[rng.index(frame.size())] =
          static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    const auto decoded = decode(frame);  // must survive arbitrary damage
    if (decoded) {
      EXPECT_EQ(encode(*decoded), frame);  // still canonical
    }
  }
}

TEST_P(CodecProperty, BitFlipFuzz) {
  Rng rng(GetParam() ^ 0x0B17);
  for (int i = 0; i < 200; ++i) {
    auto frame = encode(random_packet(rng));
    const auto flips = rng.uniform_int(1, 16);
    for (std::int64_t f = 0; f < flips; ++f) {
      frame[rng.index(frame.size())] ^=
          static_cast<std::uint8_t>(1u << rng.index(8));
    }
    const auto decoded = decode(frame);
    if (decoded) {
      EXPECT_EQ(encode(*decoded), frame);
      EXPECT_EQ(encoded_size(*decoded), frame.size());
    }
  }
}

TEST_P(CodecProperty, InsertAndDeleteFuzz) {
  // Length-changing damage: random insertions and deletions shift every
  // later field, so the decoder's length checks carry the whole weight.
  Rng rng(GetParam() ^ 0x1D31);
  for (int i = 0; i < 200; ++i) {
    auto frame = encode(random_packet(rng));
    const auto edits = rng.uniform_int(1, 4);
    for (std::int64_t e = 0; e < edits; ++e) {
      if (!frame.empty() && rng.bernoulli(0.5)) {
        frame.erase(frame.begin() +
                    static_cast<std::ptrdiff_t>(rng.index(frame.size())));
      } else {
        frame.insert(frame.begin() +
                         static_cast<std::ptrdiff_t>(rng.index(frame.size() + 1)),
                     static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
      }
    }
    if (frame.size() > 255) frame.resize(255);
    const auto decoded = decode(frame);
    if (decoded) {
      EXPECT_EQ(encode(*decoded), frame);
    }
  }
}

TEST_P(CodecProperty, SplicedFramesNeverCrash) {
  // A frame assembled from the head of one packet and the tail of another —
  // the shape a mid-air capture race would produce.
  Rng rng(GetParam() ^ 0x5F11CE);
  for (int i = 0; i < 200; ++i) {
    const auto a = encode(random_packet(rng));
    const auto b = encode(random_packet(rng));
    std::vector<std::uint8_t> spliced(
        a.begin(), a.begin() + static_cast<std::ptrdiff_t>(rng.index(a.size() + 1)));
    const std::size_t tail = rng.index(b.size() + 1);
    spliced.insert(spliced.end(), b.end() - static_cast<std::ptrdiff_t>(tail),
                   b.end());
    if (spliced.size() > 255) spliced.resize(255);
    const auto decoded = decode(spliced);
    if (decoded) {
      EXPECT_EQ(encode(*decoded), spliced);
      EXPECT_EQ(encoded_size(*decoded), spliced.size());
    }
  }
}

TEST_P(CodecProperty, TruncationNeverCrashes) {
  Rng rng(GetParam() ^ 0xD00D);
  for (int i = 0; i < 200; ++i) {
    const auto frame = encode(random_packet(rng));
    const std::size_t keep = rng.index(frame.size() + 1);
    const std::vector<std::uint8_t> cut(frame.begin(),
                                        frame.begin() + static_cast<std::ptrdiff_t>(keep));
    const auto decoded = decode(cut);
    if (decoded) {
      EXPECT_EQ(encode(*decoded), cut);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace lm::net
