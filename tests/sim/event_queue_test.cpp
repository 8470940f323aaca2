// Event-queue edge cases, exercised through the Simulator front end so the
// slab (TimerId generations, cancel, purge) is covered together
// with the (at, seq) heap. Firing order must always equal the (at, seq) sort
// of the live entries: the randomized test checks that against a reference
// model, including the phase-locked shape (thousands of timers on one µs).
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "support/rng.h"
#include "support/time.h"

namespace lm::sim {
namespace {

TEST(EventQueue, CancelThenFireLeavesOthersIntact) {
  Simulator sim;
  std::vector<int> fired;
  const TimerId a = sim.schedule_after(Duration::seconds(1), [&] { fired.push_back(1); });
  const TimerId b = sim.schedule_after(Duration::seconds(1), [&] { fired.push_back(2); });
  const TimerId c = sim.schedule_after(Duration::seconds(2), [&] { fired.push_back(3); });
  EXPECT_TRUE(sim.is_pending(a));
  sim.cancel(a);
  EXPECT_FALSE(sim.is_pending(a));
  EXPECT_TRUE(sim.is_pending(b));

  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{2, 3}));
  EXPECT_FALSE(sim.is_pending(b));
  // Cancelling fired or already-cancelled ids is a harmless no-op.
  sim.cancel(a);
  sim.cancel(b);
  sim.cancel(c);
}

TEST(EventQueue, SameTickFiresInScheduleOrder) {
  Simulator sim;
  const TimePoint t = TimePoint::origin() + Duration::seconds(5);
  std::vector<int> fired;
  // All share one timestamp and must come back in schedule (seq) order.
  for (int i = 0; i < 50; ++i) {
    sim.schedule_at(t, [&fired, i] { fired.push_back(i); });
  }
  sim.run();
  ASSERT_EQ(fired.size(), 50u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST(EventQueue, SameTickReentrantSchedulesFireAfterQueued) {
  Simulator sim;
  const TimePoint t = TimePoint::origin() + Duration::milliseconds(3);
  std::vector<int> fired;
  sim.schedule_at(t, [&] {
    fired.push_back(0);
    // Scheduled at the current tick from inside an event: fires after the
    // two already-queued same-tick events (higher seq), not before.
    sim.schedule_at(t, [&] { fired.push_back(3); });
  });
  sim.schedule_at(t, [&] { fired.push_back(1); });
  sim.schedule_at(t, [&] { fired.push_back(2); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, FarFutureTimersCascadeAcrossEveryLevel) {
  Simulator sim;
  // Delays from 3 µs to 300 days, roughly 64x apart: a plain ordering input
  // spanning every magnitude a protocol timer can take.
  std::vector<std::int64_t> fired_at;
  std::vector<Duration> delays = {
      Duration::microseconds(3),   Duration::microseconds(200),
      Duration::milliseconds(9),   Duration::milliseconds(600),
      Duration::seconds(20),       Duration::minutes(30),
      Duration::hours(40),         Duration::hours(24 * 300),
  };
  for (const Duration d : delays) {
    sim.schedule_after(d, [&fired_at, &sim] { fired_at.push_back(sim.now().us()); });
  }
  sim.run();
  ASSERT_EQ(fired_at.size(), delays.size());
  for (std::size_t i = 0; i < delays.size(); ++i) {
    EXPECT_EQ(fired_at[i], delays[i].us()) << "timer " << i;
  }
}

TEST(EventQueue, BeyondHorizonOverflowStillFiresInOrder) {
  Simulator sim;
  // Timers a decade or two out (Duration::max()-style sentinels) must still
  // fire after everything nearer, in time order.
  const Duration ten_years = Duration::hours(24 * 3650);
  const Duration twenty_years = ten_years * 2;
  std::vector<int> fired;
  sim.schedule_after(twenty_years, [&] { fired.push_back(3); });
  sim.schedule_after(Duration::seconds(1), [&] { fired.push_back(1); });
  sim.schedule_after(ten_years, [&] { fired.push_back(2); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().us(), twenty_years.us());
}

TEST(EventQueue, CancelHeavyWorkloadPurgesAndKeepsSurvivors) {
  Simulator sim;
  std::vector<int> fired;
  std::vector<TimerId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(sim.schedule_after(Duration::milliseconds(1 + i),
                                     [&fired, i] { fired.push_back(i); }));
  }
  // Cancel all but every 100th — the dead-entry purge must not disturb the
  // survivors or their order.
  for (int i = 0; i < 1000; ++i) {
    if (i % 100 != 0) sim.cancel(ids[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(sim.pending(), 10u);
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 100, 200, 300, 400, 500, 600, 700, 800, 900}));
}

TEST(EventQueue, InsertEarlierThanCachedMinimumAfterRunUntil) {
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_at(TimePoint::from_us(200), [&] { fired.push_back(200); });
  // run_until stops at its bound with the pending minimum still queued.
  sim.run_until(TimePoint::from_us(150));
  EXPECT_EQ(sim.now().us(), 150);
  EXPECT_TRUE(fired.empty());
  // A later insert below that minimum must fire first.
  sim.schedule_at(TimePoint::from_us(160), [&] { fired.push_back(160); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{160, 200}));
}

TEST(EventQueue, RandomizedScheduleCancelMatchesReferenceModel) {
  Simulator sim;
  Rng rng(0xB0C4D5E6F7081920ULL);

  // Model: every scheduled event as (time, seq, token); expected firing
  // order is the (time, seq) sort of the survivors.
  struct Expected {
    std::int64_t at;
    std::size_t seq;
    int token;
  };
  std::vector<Expected> model;
  std::vector<TimerId> ids;
  std::vector<int> fired;

  const std::int64_t spans[] = {50, 5'000, 500'000, 50'000'000, 5'000'000'000};
  int token = 0;
  for (int round = 0; round < 2000; ++round) {
    const std::int64_t span = spans[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(std::size(spans)) - 1))];
    const std::int64_t at = rng.uniform_int(0, span);
    const int tk = token++;
    ids.push_back(sim.schedule_at(TimePoint::from_us(at),
                                  [&fired, tk] { fired.push_back(tk); }));
    model.push_back({at, static_cast<std::size_t>(round), tk});
  }
  // Cancel roughly a third, including some double-cancels.
  std::vector<bool> cancelled(model.size(), false);
  for (int i = 0; i < 900; ++i) {
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(model.size()) - 1));
    sim.cancel(ids[pick]);
    cancelled[pick] = true;
  }
  std::vector<Expected> survivors;
  for (std::size_t i = 0; i < model.size(); ++i) {
    if (!cancelled[i]) survivors.push_back(model[i]);
  }
  std::sort(survivors.begin(), survivors.end(), [](const Expected& a, const Expected& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  });

  sim.run();
  ASSERT_EQ(fired.size(), survivors.size());
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    ASSERT_EQ(fired[i], survivors[i].token) << "position " << i;
  }
  EXPECT_EQ(sim.pending(), 0u);

  // Phase-locked round: every node arms its maintenance timer at the same
  // µs, so thousands of entries share one timestamp. Some handlers schedule
  // more work at the current tick, and some entries are rescheduled
  // (cancelled and re-armed at the same time, which must give them a fresh
  // seq). The reference mirrors every operation in a set ordered by
  // (at, seq).
  struct Ref {
    std::int64_t at;
    std::uint64_t seq;
    int token;
    bool operator<(const Ref& o) const { return at != o.at ? at < o.at : seq < o.seq; }
  };
  constexpr int kLocked = 4000;
  constexpr int kChild = 1'000'000;  // token offset of same-tick children
  const auto spawns = [](int tk) { return tk < kLocked && tk % 5 == 0; };
  const std::int64_t tick = sim.now().us() + 1000;
  std::set<Ref> ref;
  std::uint64_t ref_seq = 0;
  std::vector<Ref> entry;  // each locked token's current reference key
  std::vector<TimerId> locked_ids;
  std::vector<int> got;
  const auto arm = [&sim, &got, spawns](std::int64_t at, int tk) {
    return sim.schedule_at(TimePoint::from_us(at), [&sim, &got, spawns, tk] {
      got.push_back(tk);
      if (spawns(tk)) sim.schedule_at(sim.now(), [&got, tk] { got.push_back(kChild + tk); });
    });
  };
  for (int tk = 0; tk < kLocked; ++tk) {
    const std::int64_t at = tk % 8 == 0 ? tick + rng.uniform_int(-2, 2) : tick;
    locked_ids.push_back(arm(at, tk));
    entry.push_back({at, ref_seq++, tk});
    ref.insert(entry.back());
  }
  for (int i = 0; i < 1200; ++i) {
    const auto tk = static_cast<std::size_t>(rng.uniform_int(0, kLocked - 1));
    const bool was_live = ref.erase(entry[tk]) == 1;
    ASSERT_EQ(sim.is_pending(locked_ids[tk]), was_live) << "token " << tk;
    sim.cancel(locked_ids[tk]);
    if (i % 3 == 0 || !was_live) continue;
    locked_ids[tk] = arm(entry[tk].at, static_cast<int>(tk));
    entry[tk].seq = ref_seq++;
    ref.insert(entry[tk]);
  }
  EXPECT_EQ(sim.pending(), ref.size());

  std::vector<int> want;
  while (!ref.empty()) {
    const Ref r = *ref.begin();
    ref.erase(ref.begin());
    want.push_back(r.token);
    if (spawns(r.token)) ref.insert({r.at, ref_seq++, kChild + r.token});
  }
  sim.run();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "phase-locked position " << i;
  }
  EXPECT_EQ(sim.pending(), 0u);
}

}  // namespace
}  // namespace lm::sim
