#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "net/reliable_receiver.h"
#include "net/reliable_sender.h"
#include "sim/simulator.h"
#include "support/assert.h"

namespace lm::net {
namespace {

constexpr Address kSelf = 0x0001;
constexpr Address kPeer = 0x0002;

struct FakeSink final : PacketSink {
  std::vector<Packet> sent;
  std::uint16_t next_id = 1;

  void submit_control(Packet p) override { sent.push_back(std::move(p)); }
  void submit_data(Packet p) override { sent.push_back(std::move(p)); }
  Address self_address() const override { return kSelf; }
  RouteHeader make_route(Address d) override {
    RouteHeader r;
    r.final_dst = d;
    r.origin = kSelf;
    r.ttl = 16;
    r.packet_id = next_id++;
    return r;
  }

  template <typename T>
  std::vector<T> of_type() const {
    std::vector<T> out;
    for (const Packet& p : sent) {
      if (const T* t = std::get_if<T>(&p)) out.push_back(*t);
    }
    return out;
  }
  template <typename T>
  std::size_t count() const {
    return of_type<T>().size();
  }
};

MeshConfig fast_config() {
  MeshConfig c;
  c.reliable_retry_timeout = Duration::seconds(2);
  c.receiver_gap_timeout = Duration::seconds(3);
  c.receiver_session_timeout = Duration::seconds(60);
  c.fragment_spacing = Duration::milliseconds(10);
  c.sync_max_retries = 3;
  c.poll_max_retries = 2;
  return c;
}

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(i * 7 + 1);
  return v;
}

class ReliableSenderTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  FakeSink sink_;
  MeshConfig cfg_ = fast_config();
  // Sessions hang off the owning node's context (config, clock, tracer).
  LayerContext ctx_{sim_, kSelf, cfg_, Rng(1)};
  int completions_ = 0;
  bool last_result_ = false;

  std::unique_ptr<ReliableSender> make(std::size_t payload_bytes,
                                       std::uint8_t seq = 9) {
    return std::make_unique<ReliableSender>(
        ctx_, sink_, kPeer, seq, pattern(payload_bytes), [this](bool ok) {
          ++completions_;
          last_result_ = ok;
        });
  }

  /// One full retry window: timers are jittered up to 1.4x the configured
  /// timeout, and consecutive fires are >= 1.8x apart — so running 1.5x
  /// guarantees exactly one pending retry fires.
  Duration retry_window() const { return cfg_.reliable_retry_timeout * 1.5; }

  /// Pretends the node put every queued fragment on the air.
  void drain_fragments(ReliableSender& s) {
    std::size_t done = 0;
    while (true) {
      const auto frags = sink_.of_type<FragmentPacket>();
      if (frags.size() == done) {
        // Nothing new: let the (jittered, <= 1.5x) pacing timer fire.
        const std::size_t before = frags.size();
        sim_.run_for(cfg_.fragment_spacing * 2);
        if (sink_.of_type<FragmentPacket>().size() == before) break;
        continue;
      }
      for (; done < frags.size(); ++done) {
        s.on_fragment_transmitted(frags[done].index);
      }
    }
  }
};

TEST_F(ReliableSenderTest, SendsSyncImmediately) {
  auto s = make(1000);
  const auto syncs = sink_.of_type<SyncPacket>();
  ASSERT_EQ(syncs.size(), 1u);
  EXPECT_EQ(syncs[0].seq, 9);
  EXPECT_EQ(syncs[0].total_bytes, 1000u);
  EXPECT_EQ(syncs[0].fragment_count, 5u);  // ceil(1000 / 239)
  EXPECT_EQ(syncs[0].route.final_dst, kPeer);
  EXPECT_EQ(s->fragment_count(), 5u);
}

TEST_F(ReliableSenderTest, SingleFragmentPayload) {
  auto s = make(kMaxFragmentPayload);
  EXPECT_EQ(s->fragment_count(), 1u);
  auto s2 = std::make_unique<ReliableSender>(ctx_, sink_, kPeer, 1,
                                             pattern(kMaxFragmentPayload + 1),
                                             nullptr);
  EXPECT_EQ(s2->fragment_count(), 2u);
}

TEST_F(ReliableSenderTest, RetriesSyncThenGivesUp) {
  auto s = make(100);
  EXPECT_EQ(sink_.count<SyncPacket>(), 1u);
  sim_.run_for(retry_window());
  EXPECT_EQ(sink_.count<SyncPacket>(), 2u);
  sim_.run_for(retry_window());
  EXPECT_EQ(sink_.count<SyncPacket>(), 3u);  // attempt sync_max_retries
  EXPECT_EQ(completions_, 0);
  sim_.run_for(retry_window());
  EXPECT_EQ(sink_.count<SyncPacket>(), 3u);  // no more retries
  EXPECT_EQ(completions_, 1);
  EXPECT_FALSE(last_result_);
  EXPECT_TRUE(s->finished());
}

TEST_F(ReliableSenderTest, StreamsFragmentsAfterSyncAck) {
  auto s = make(1000);
  s->on_sync_ack();
  EXPECT_EQ(sink_.count<FragmentPacket>(), 1u);  // paced one at a time
  drain_fragments(*s);
  const auto frags = sink_.of_type<FragmentPacket>();
  ASSERT_EQ(frags.size(), 5u);
  // Indices in order, payload partitions the original.
  std::vector<std::uint8_t> reassembled;
  for (std::size_t i = 0; i < frags.size(); ++i) {
    EXPECT_EQ(frags[i].index, i);
    EXPECT_EQ(frags[i].seq, 9);
    reassembled.insert(reassembled.end(), frags[i].payload.begin(),
                       frags[i].payload.end());
  }
  EXPECT_EQ(reassembled, pattern(1000));
  EXPECT_EQ(s->fragments_sent(), 5u);
}

TEST_F(ReliableSenderTest, DuplicateSyncAckIgnored) {
  auto s = make(500);
  s->on_sync_ack();
  s->on_sync_ack();
  drain_fragments(*s);
  EXPECT_EQ(sink_.count<FragmentPacket>(), 3u);  // not doubled
}

TEST_F(ReliableSenderTest, DoneCompletesSuccessfully) {
  auto s = make(500);
  s->on_sync_ack();
  drain_fragments(*s);
  s->on_done();
  EXPECT_EQ(completions_, 1);
  EXPECT_TRUE(last_result_);
  EXPECT_TRUE(s->finished());
  s->on_done();  // duplicate DONE is harmless
  EXPECT_EQ(completions_, 1);
}

TEST_F(ReliableSenderTest, LostTriggersRetransmission) {
  auto s = make(1000);
  s->on_sync_ack();
  drain_fragments(*s);
  EXPECT_EQ(sink_.count<FragmentPacket>(), 5u);
  s->on_lost({1, 3});
  drain_fragments(*s);
  const auto frags = sink_.of_type<FragmentPacket>();
  ASSERT_EQ(frags.size(), 7u);
  EXPECT_EQ(frags[5].index, 1u);
  EXPECT_EQ(frags[6].index, 3u);
  EXPECT_EQ(s->fragments_retransmitted(), 2u);
  s->on_done();
  EXPECT_TRUE(last_result_);
}

TEST_F(ReliableSenderTest, LostIgnoresOutOfRangeAndDuplicates) {
  auto s = make(1000);
  s->on_sync_ack();
  drain_fragments(*s);
  s->on_lost({2, 2, 9999});
  drain_fragments(*s);
  EXPECT_EQ(sink_.count<FragmentPacket>(), 6u);  // only fragment 2 once
  EXPECT_EQ(s->fragments_retransmitted(), 1u);
}

TEST_F(ReliableSenderTest, SilenceAfterStreamingTriggersPollThenFailure) {
  auto s = make(500);
  s->on_sync_ack();
  drain_fragments(*s);
  EXPECT_EQ(sink_.count<PollPacket>(), 0u);
  sim_.run_for(retry_window());
  EXPECT_EQ(sink_.count<PollPacket>(), 1u);
  sim_.run_for(retry_window());
  EXPECT_EQ(sink_.count<PollPacket>(), 2u);  // poll_max_retries
  sim_.run_for(retry_window());
  EXPECT_EQ(completions_, 1);
  EXPECT_FALSE(last_result_);
}

TEST_F(ReliableSenderTest, LostAfterPollKeepsTransferAlive) {
  auto s = make(500);
  s->on_sync_ack();
  drain_fragments(*s);
  sim_.run_for(retry_window());  // first poll
  s->on_lost({0});
  drain_fragments(*s);
  s->on_done();
  EXPECT_TRUE(last_result_);
}

TEST_F(ReliableSenderTest, AbortFailsOnce) {
  auto s = make(500);
  s->abort();
  EXPECT_EQ(completions_, 1);
  EXPECT_FALSE(last_result_);
  s->abort();
  EXPECT_EQ(completions_, 1);
}

TEST_F(ReliableSenderTest, RejectsEmptyPayload) {
  EXPECT_THROW(ReliableSender(ctx_, sink_, kPeer, 1, {}, nullptr),
               ContractViolation);
}

TEST_F(ReliableSenderTest, RejectsBroadcastDestination) {
  EXPECT_THROW(ReliableSender(ctx_, sink_, kBroadcast, 1, pattern(10), nullptr),
               ContractViolation);
}

// --- Receiver ------------------------------------------------------------------

class ReliableReceiverTest : public ::testing::Test {
 protected:
  sim::Simulator sim_;
  FakeSink sink_;
  MeshConfig cfg_ = fast_config();
  LayerContext ctx_{sim_, kSelf, cfg_, Rng(1)};
  std::vector<std::uint8_t> delivered_;
  int deliveries_ = 0;

  SyncPacket sync(std::size_t total, std::uint8_t seq = 9) {
    SyncPacket p;
    p.link = LinkHeader{kSelf, kPeer};
    p.route.final_dst = kSelf;
    p.route.origin = kPeer;
    p.seq = seq;
    p.total_bytes = static_cast<std::uint32_t>(total);
    p.fragment_count = static_cast<std::uint16_t>(
        (total + kMaxFragmentPayload - 1) / kMaxFragmentPayload);
    return p;
  }

  FragmentPacket fragment(const std::vector<std::uint8_t>& payload,
                          std::uint16_t index, std::uint8_t seq = 9) {
    FragmentPacket p;
    p.route.origin = kPeer;
    p.route.final_dst = kSelf;
    p.seq = seq;
    p.index = index;
    const std::size_t begin = static_cast<std::size_t>(index) * kMaxFragmentPayload;
    const std::size_t end = std::min(begin + kMaxFragmentPayload, payload.size());
    p.payload.assign(payload.begin() + static_cast<std::ptrdiff_t>(begin),
                     payload.begin() + static_cast<std::ptrdiff_t>(end));
    return p;
  }

  std::unique_ptr<ReliableReceiver> make(const SyncPacket& s) {
    return std::make_unique<ReliableReceiver>(
        ctx_, sink_, kPeer, s,
        [this](Address, std::vector<std::uint8_t> payload) {
          ++deliveries_;
          delivered_ = std::move(payload);
        });
  }
};

TEST_F(ReliableReceiverTest, AcksSyncOnConstruction) {
  auto r = make(sync(1000));
  const auto acks = sink_.of_type<SyncAckPacket>();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].seq, 9);
  EXPECT_EQ(acks[0].route.final_dst, kPeer);
}

TEST_F(ReliableReceiverTest, DuplicateSyncReAcks) {
  auto r = make(sync(1000));
  r->on_sync(sync(1000));
  EXPECT_EQ(sink_.count<SyncAckPacket>(), 2u);
}

TEST_F(ReliableReceiverTest, InconsistentSyncRetryIgnored) {
  auto r = make(sync(1000));
  r->on_sync(sync(2000));  // different geometry: stale sender
  EXPECT_EQ(sink_.count<SyncAckPacket>(), 1u);
}

TEST_F(ReliableReceiverTest, ReassemblesInOrderDelivery) {
  const auto payload = pattern(1000);
  auto r = make(sync(1000));
  for (std::uint16_t i = 0; i < 5; ++i) r->on_fragment(fragment(payload, i));
  EXPECT_EQ(deliveries_, 1);
  EXPECT_EQ(delivered_, payload);
  EXPECT_EQ(sink_.count<DonePacket>(), 1u);
  EXPECT_TRUE(r->complete());
}

TEST_F(ReliableReceiverTest, ReassemblesOutOfOrderArrival) {
  const auto payload = pattern(1000);
  auto r = make(sync(1000));
  for (int i : {4, 0, 2, 1, 3}) {
    r->on_fragment(fragment(payload, static_cast<std::uint16_t>(i)));
  }
  EXPECT_EQ(deliveries_, 1);
  EXPECT_EQ(delivered_, payload);
}

TEST_F(ReliableReceiverTest, DuplicateFragmentCountedNotStoredTwice) {
  const auto payload = pattern(1000);
  auto r = make(sync(1000));
  r->on_fragment(fragment(payload, 0));
  r->on_fragment(fragment(payload, 0));
  EXPECT_EQ(r->duplicate_fragments(), 1u);
  EXPECT_EQ(r->received_count(), 1u);
}

TEST_F(ReliableReceiverTest, LateFragmentAfterCompletionDrawsDone) {
  const auto payload = pattern(500);
  auto r = make(sync(500));
  for (std::uint16_t i = 0; i < 3; ++i) r->on_fragment(fragment(payload, i));
  EXPECT_EQ(sink_.count<DonePacket>(), 1u);
  r->on_fragment(fragment(payload, 1));
  EXPECT_EQ(sink_.count<DonePacket>(), 2u);
  EXPECT_EQ(deliveries_, 1);  // delivered only once
}

TEST_F(ReliableReceiverTest, GapTimeoutRequestsMissing) {
  const auto payload = pattern(1000);
  auto r = make(sync(1000));
  r->on_fragment(fragment(payload, 0));
  r->on_fragment(fragment(payload, 3));
  sim_.run_for(cfg_.receiver_gap_timeout);
  const auto losts = sink_.of_type<LostPacket>();
  ASSERT_EQ(losts.size(), 1u);
  EXPECT_EQ(losts[0].missing, (std::vector<std::uint16_t>{1, 2, 4}));
  EXPECT_EQ(r->lost_requests_sent(), 1u);
}

TEST_F(ReliableReceiverTest, FragmentArrivalPostponesGapTimeout) {
  const auto payload = pattern(1000);
  auto r = make(sync(1000));
  r->on_fragment(fragment(payload, 0));
  sim_.run_for(cfg_.receiver_gap_timeout - Duration::seconds(1));
  r->on_fragment(fragment(payload, 1));  // resets the timer
  sim_.run_for(Duration::seconds(2));
  EXPECT_EQ(sink_.count<LostPacket>(), 0u);
}

TEST_F(ReliableReceiverTest, PollWhileIncompleteDrawsLost) {
  const auto payload = pattern(1000);
  auto r = make(sync(1000));
  r->on_fragment(fragment(payload, 2));
  r->on_poll();
  const auto losts = sink_.of_type<LostPacket>();
  ASSERT_EQ(losts.size(), 1u);
  EXPECT_EQ(losts[0].missing, (std::vector<std::uint16_t>{0, 1, 3, 4}));
}

TEST_F(ReliableReceiverTest, PollAfterCompletionDrawsDone) {
  const auto payload = pattern(500);
  auto r = make(sync(500));
  for (std::uint16_t i = 0; i < 3; ++i) r->on_fragment(fragment(payload, i));
  r->on_poll();
  EXPECT_EQ(sink_.count<DonePacket>(), 2u);
  EXPECT_EQ(sink_.count<LostPacket>(), 0u);
}

TEST_F(ReliableReceiverTest, OutOfRangeFragmentIgnored) {
  auto r = make(sync(1000));
  FragmentPacket bogus;
  bogus.seq = 9;
  bogus.index = 5;  // valid indices are 0..4
  bogus.payload = {1, 2, 3};
  r->on_fragment(bogus);
  EXPECT_EQ(r->received_count(), 0u);
}

TEST_F(ReliableReceiverTest, MissingListCappedToOneLostPacket) {
  // 500 fragments missing: one LOST carries at most kMaxLostIndices.
  auto r = make(sync(500 * kMaxFragmentPayload));
  r->on_poll();
  const auto losts = sink_.of_type<LostPacket>();
  ASSERT_EQ(losts.size(), 1u);
  EXPECT_EQ(losts[0].missing.size(), kMaxLostIndices);
  EXPECT_EQ(losts[0].missing.front(), 0u);
}

TEST_F(ReliableReceiverTest, SessionTimeoutExpiresAbandonedTransfer) {
  auto r = make(sync(1000));
  EXPECT_FALSE(r->expired());
  sim_.run_for(cfg_.receiver_session_timeout);
  EXPECT_TRUE(r->expired());
  // Expired sessions go quiet.
  const auto before = sink_.sent.size();
  r->on_poll();
  EXPECT_EQ(sink_.sent.size(), before);
}

TEST_F(ReliableReceiverTest, RejectsZeroFragmentSync) {
  SyncPacket bad = sync(1000);
  bad.fragment_count = 0;
  EXPECT_THROW(make(bad), ContractViolation);
}

}  // namespace
}  // namespace lm::net
