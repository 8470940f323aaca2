// Edge cases of the shared channel: bookkeeping under long runs, radios
// leaving mid-flight, fading-cache consistency, CAD window boundaries,
// stats accounting identities.
#include <gtest/gtest.h>

#include "phy/airtime.h"
#include "radio/channel.h"
#include "radio/virtual_radio.h"
#include "sim/simulator.h"

namespace lm::radio {
namespace {

struct Counter : RadioListener {
  int frames = 0;
  std::vector<bool> cads;
  void on_frame_received(std::span<const std::uint8_t>,
                         const FrameMeta&) override {
    ++frames;
  }
  void on_cad_done(bool busy) override { cads.push_back(busy); }
};

std::vector<std::uint8_t> frame(std::size_t n = 20) {
  return std::vector<std::uint8_t>(n, 0x11);
}

TEST(ChannelEdge, HistoryPruningSurvivesLongRuns) {
  // Thousands of transmissions over days of simulated time must not
  // accumulate channel state (the history is pruned by horizon).
  sim::Simulator sim;
  Channel channel(sim, PropagationConfig::free_space(), 1);
  VirtualRadio a(sim, channel, 1, {0, 0}, {});
  VirtualRadio b(sim, channel, 2, {100, 0}, {});
  Counter rx;
  b.set_listener(&rx);
  b.start_receive();
  for (int i = 0; i < 2000; ++i) {
    a.transmit(frame());
    sim.run_for(Duration::minutes(1));
  }
  EXPECT_EQ(rx.frames, 2000);
  EXPECT_EQ(channel.stats().receptions_delivered, 2000u);
}

TEST(ChannelEdge, TransmitterDestroyedMidFlightStillDelivers) {
  // The frame is on the air; the sender's hardware dying cannot recall it.
  sim::Simulator sim;
  Channel channel(sim, PropagationConfig::free_space(), 1);
  auto a = std::make_unique<VirtualRadio>(sim, channel, 1, phy::Position{0, 0},
                                          RadioConfig{});
  VirtualRadio b(sim, channel, 2, {100, 0}, {});
  Counter rx;
  b.set_listener(&rx);
  b.start_receive();
  a->transmit(frame());
  sim.run_for(Duration::milliseconds(5));  // mid-preamble
  a.reset();                               // radio vanishes
  sim.run_for(Duration::seconds(1));
  EXPECT_EQ(rx.frames, 1);
  // The one remaining radio received the frame; none was out of range (a
  // receiver count that still subtracted the departed transmitter would
  // wrap below zero here).
  EXPECT_EQ(channel.stats().receptions_delivered, 1u);
  EXPECT_EQ(channel.stats().dropped_out_of_range, 0u);
}

TEST(ChannelEdge, ReceiverDestroyedMidFlightIsSafe) {
  sim::Simulator sim;
  Channel channel(sim, PropagationConfig::free_space(), 1);
  VirtualRadio a(sim, channel, 1, {0, 0}, {});
  auto b = std::make_unique<VirtualRadio>(sim, channel, 2, phy::Position{100, 0},
                                          RadioConfig{});
  b->start_receive();
  a.transmit(frame());
  sim.run_for(Duration::milliseconds(5));
  b.reset();  // gone before the frame ends
  sim.run_for(Duration::seconds(1));  // must not touch the dead radio
  EXPECT_EQ(channel.stats().receptions_delivered, 0u);
}

TEST(ChannelEdge, FadingIsConsistentPerFrameAndReceiver) {
  // With fading enabled, the same transmission queried as signal and as
  // interference must see one consistent fading draw; across frames the
  // draws differ. Indirectly verified: two frames back-to-back on a
  // marginal link get independent outcomes, while one frame cannot both
  // decode and collide.
  sim::Simulator sim;
  PropagationConfig prop = PropagationConfig::free_space();
  prop.fading_sigma_db = 6.0;
  Channel channel(sim, prop, 99);
  VirtualRadio a(sim, channel, 1, {0, 0}, {});
  VirtualRadio b(sim, channel, 2, {100, 0}, {});
  Counter rx;
  b.set_listener(&rx);
  b.start_receive();
  for (int i = 0; i < 50; ++i) {
    a.transmit(frame());
    sim.run_for(Duration::seconds(1));
  }
  const auto& s = channel.stats();
  // Accounting identity: every reception opportunity is counted once.
  EXPECT_EQ(s.receptions_delivered + s.dropped_snr + s.dropped_collision +
                s.dropped_below_sensitivity + s.dropped_not_listening +
                s.dropped_blocked_link + s.dropped_modulation_mismatch +
                s.dropped_out_of_range,
            50u);
  EXPECT_EQ(rx.frames, static_cast<int>(s.receptions_delivered));
}

TEST(ChannelEdge, CadWindowBoundaryIsExclusive) {
  // A transmission that starts exactly when the CAD window closed is a
  // miss; one ending exactly at window start is also a miss.
  sim::Simulator sim;
  Channel channel(sim, PropagationConfig::free_space(), 1);
  VirtualRadio a(sim, channel, 1, {0, 0}, {});
  VirtualRadio b(sim, channel, 2, {100, 0}, {});
  Counter cad;
  b.set_listener(&cad);
  const Duration window = phy::cad_time(b.modulation());
  b.start_cad();
  // Frame starts exactly at window end: evaluation runs first (same-time
  // FIFO: CAD end was scheduled before this transmit).
  sim.schedule_at(TimePoint::origin() + window, [&] { a.transmit(frame()); });
  sim.run_for(Duration::seconds(1));
  ASSERT_EQ(cad.cads.size(), 1u);
  EXPECT_FALSE(cad.cads[0]);
}

TEST(ChannelEdge, BackToBackFramesDoNotInterfere) {
  // Frame 2 starts the instant frame 1 ends: no overlap, both deliver.
  sim::Simulator sim;
  Channel channel(sim, PropagationConfig::free_space(), 1);
  VirtualRadio a(sim, channel, 1, {0, 0}, {});
  VirtualRadio c(sim, channel, 3, {50, 0}, {});
  VirtualRadio b(sim, channel, 2, {100, 0}, {});
  Counter rx;
  b.set_listener(&rx);
  b.start_receive();
  a.transmit(frame(20));
  const Duration toa = phy::time_on_air(a.modulation(), 20);
  sim.schedule_at(TimePoint::origin() + toa, [&] { c.transmit(frame(20)); });
  sim.run_for(Duration::seconds(2));
  EXPECT_EQ(rx.frames, 2);
  EXPECT_EQ(channel.stats().dropped_collision, 0u);
}

TEST(ChannelEdge, ThreeWayCollisionAllLost) {
  sim::Simulator sim;
  Channel channel(sim, PropagationConfig::free_space(), 1);
  VirtualRadio b(sim, channel, 10, {0, 0}, {});
  VirtualRadio t1(sim, channel, 1, {100, 0}, {});
  VirtualRadio t2(sim, channel, 2, {0, 100}, {});
  VirtualRadio t3(sim, channel, 3, {-100, 0}, {});
  Counter rx;
  b.set_listener(&rx);
  b.start_receive();
  t1.transmit(frame(40));
  t2.transmit(frame(40));
  t3.transmit(frame(40));
  sim.run_for(Duration::seconds(2));
  EXPECT_EQ(rx.frames, 0);
  EXPECT_EQ(channel.stats().dropped_collision, 3u);
}

TEST(ChannelEdge, BlockedLinkStillSensedByCad) {
  // block_link models a data-plane obstruction used by experiments; CAD
  // checks detectable_by which honors blocks — verify the block applies to
  // sensing too (consistent world view).
  sim::Simulator sim;
  Channel channel(sim, PropagationConfig::free_space(), 1);
  VirtualRadio a(sim, channel, 1, {0, 0}, {});
  VirtualRadio b(sim, channel, 2, {100, 0}, {});
  channel.block_link(1, 2);
  Counter cad;
  b.set_listener(&cad);
  a.transmit(frame(100));
  sim.schedule_after(Duration::milliseconds(10), [&] { b.start_cad(); });
  sim.run_for(Duration::seconds(1));
  ASSERT_EQ(cad.cads.size(), 1u);
  EXPECT_FALSE(cad.cads[0]);  // the obstruction hides the carrier too
}

TEST(ChannelEdge, ResetStatsClears) {
  sim::Simulator sim;
  Channel channel(sim, PropagationConfig::free_space(), 1);
  VirtualRadio a(sim, channel, 1, {0, 0}, {});
  a.transmit(frame());
  sim.run_for(Duration::seconds(1));
  EXPECT_GT(channel.stats().frames_transmitted, 0u);
  channel.reset_stats();
  EXPECT_EQ(channel.stats().frames_transmitted, 0u);
}

}  // namespace
}  // namespace lm::radio
