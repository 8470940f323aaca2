#include "net/routing_table.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "support/assert.h"

namespace lm::net {
namespace {

constexpr Address kSelf = 0x0001;
constexpr Address kA = 0x000A;
constexpr Address kB = 0x000B;
constexpr Address kC = 0x000C;

const Duration kTimeout = Duration::minutes(10);

TimePoint at(int seconds) { return TimePoint::origin() + Duration::seconds(seconds); }

TEST(RoutingTable, StartsEmpty) {
  RoutingTable t(kSelf, kTimeout);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.has_route(kA));
  EXPECT_FALSE(t.next_hop(kA).has_value());
}

TEST(RoutingTable, LearnsSenderAsDirectNeighbor) {
  RoutingTable t(kSelf, kTimeout);
  EXPECT_TRUE(t.apply_beacon(kA, {}, at(0)));
  const auto r = t.route_to(kA);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->via, kA);
  EXPECT_EQ(r->metric, 1);
}

TEST(RoutingTable, LearnsAdvertisedRoutesPlusOneHop) {
  RoutingTable t(kSelf, kTimeout);
  t.apply_beacon(kA, {{kB, 1}, {kC, 3}}, at(0));
  ASSERT_TRUE(t.route_to(kB).has_value());
  EXPECT_EQ(t.route_to(kB)->metric, 2);
  EXPECT_EQ(t.route_to(kB)->via, kA);
  EXPECT_EQ(t.route_to(kC)->metric, 4);
}

TEST(RoutingTable, IgnoresAdvertisementsOfSelf) {
  RoutingTable t(kSelf, kTimeout);
  t.apply_beacon(kA, {{kSelf, 1}}, at(0));
  EXPECT_EQ(t.size(), 1u);  // only the neighbor itself
  EXPECT_FALSE(t.has_route(kSelf));
}

TEST(RoutingTable, IgnoresReservedAddresses) {
  RoutingTable t(kSelf, kTimeout);
  t.apply_beacon(kA, {{kBroadcast, 1}, {kUnassigned, 1}}, at(0));
  EXPECT_EQ(t.size(), 1u);
}

TEST(RoutingTable, AdoptsStrictlyBetterRoute) {
  RoutingTable t(kSelf, kTimeout);
  t.apply_beacon(kA, {{kC, 4}}, at(0));  // C at 5 via A
  EXPECT_EQ(t.route_to(kC)->metric, 5);
  EXPECT_TRUE(t.apply_beacon(kB, {{kC, 1}}, at(1)));  // C at 2 via B: better
  EXPECT_EQ(t.route_to(kC)->metric, 2);
  EXPECT_EQ(t.route_to(kC)->via, kB);
}

TEST(RoutingTable, KeepsCurrentRouteOnEqualMetric) {
  RoutingTable t(kSelf, kTimeout);
  t.apply_beacon(kA, {{kC, 2}}, at(0));
  t.apply_beacon(kB, {{kC, 2}}, at(1));  // same metric via B: no churn
  EXPECT_EQ(t.route_to(kC)->via, kA);
}

TEST(RoutingTable, FollowsNextHopWhenItsMetricWorsens) {
  RoutingTable t(kSelf, kTimeout);
  t.apply_beacon(kA, {{kC, 1}}, at(0));
  EXPECT_EQ(t.route_to(kC)->metric, 2);
  // A now reports C further away; we must follow (bad news sticks).
  EXPECT_TRUE(t.apply_beacon(kA, {{kC, 5}}, at(1)));
  EXPECT_EQ(t.route_to(kC)->metric, 6);
}

TEST(RoutingTable, WithdrawsRouteWhenNextHopSaturates) {
  RoutingTable t(kSelf, kTimeout);
  t.apply_beacon(kA, {{kC, 2}}, at(0));
  EXPECT_TRUE(t.has_route(kC));
  EXPECT_TRUE(t.apply_beacon(kA, {{kC, kInfiniteMetric}}, at(1)));
  EXPECT_FALSE(t.has_route(kC));
}

TEST(RoutingTable, NeverInstallsSaturatedRoute) {
  RoutingTable t(kSelf, kTimeout);
  t.apply_beacon(kA, {{kC, kInfiniteMetric - 1}}, at(0));
  // candidate = infinity: unreachable, not stored.
  EXPECT_FALSE(t.has_route(kC));
}

TEST(RoutingTable, IgnoresWorseRouteFromOtherNeighbor) {
  RoutingTable t(kSelf, kTimeout);
  t.apply_beacon(kA, {{kC, 1}}, at(0));
  EXPECT_FALSE(t.apply_beacon(kB, {{kC, 7}}, at(1)) &&
               t.route_to(kC)->via == kB);
  EXPECT_EQ(t.route_to(kC)->metric, 2);
  EXPECT_EQ(t.route_to(kC)->via, kA);
}

TEST(RoutingTable, DirectNeighborBeatsLongerPath) {
  RoutingTable t(kSelf, kTimeout);
  t.apply_beacon(kA, {{kB, 1}}, at(0));  // B at 2 via A
  t.apply_beacon(kB, {}, at(1));         // B heard directly
  EXPECT_EQ(t.route_to(kB)->metric, 1);
  EXPECT_EQ(t.route_to(kB)->via, kB);
}

TEST(RoutingTable, ExpiryRemovesSilentRoutes) {
  RoutingTable t(kSelf, kTimeout);
  t.apply_beacon(kA, {{kC, 1}}, at(0));
  EXPECT_EQ(t.expire(at(0) + kTimeout - Duration::seconds(1)), 0u);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.expire(at(0) + kTimeout), 2u);
  EXPECT_EQ(t.size(), 0u);
}

TEST(RoutingTable, RefreshPostponesExpiry) {
  RoutingTable t(kSelf, kTimeout);
  t.apply_beacon(kA, {{kC, 1}}, at(0));
  t.apply_beacon(kA, {{kC, 1}}, at(300));  // refresh at +5 min
  EXPECT_EQ(t.expire(at(0) + kTimeout), 0u);
  EXPECT_TRUE(t.has_route(kC));
  EXPECT_EQ(t.expire(at(300) + kTimeout), 2u);
}

TEST(RoutingTable, OtherNeighborsAdvertisementDoesNotRefresh) {
  RoutingTable t(kSelf, kTimeout);
  t.apply_beacon(kA, {{kC, 1}}, at(0));   // C via A
  t.apply_beacon(kB, {{kC, 5}}, at(500)); // worse; must not refresh C's timer
  t.expire(at(0) + kTimeout);
  EXPECT_FALSE(t.has_route(kC));
  EXPECT_TRUE(t.has_route(kB));  // B itself was refreshed at t=500
}

TEST(RoutingTable, SilentNeighborTakesItsRoutesWithIt) {
  // Every beacon from A refreshes both A's entry and the routes via A, so
  // when A goes silent they all lapse together: next_hop() can never return
  // a neighbor that is no longer in the table.
  RoutingTable t(kSelf, kTimeout);
  t.apply_beacon(kA, {}, at(0));
  t.apply_beacon(kA, {{kC, 1}}, at(100));
  const std::size_t removed = t.expire(at(100) + kTimeout);
  EXPECT_EQ(removed, 2u);
  EXPECT_FALSE(t.has_route(kC));
  EXPECT_FALSE(t.has_route(kA));
}

// --- Strategy-directed installs (upsert / invalidate / touch) --------------

TEST(RoutingTableUpsert, InstallsAndFiresObserverOnNewPairingOnly) {
  RoutingTable t(kSelf, kTimeout);
  std::vector<std::pair<Address, Address>> observed;  // (destination, via)
  t.set_observer([&](const RouteEntry& e) {
    observed.emplace_back(e.destination, e.via);
  });

  EXPECT_TRUE(t.upsert(kC, kA, 3, roles::kNone, at(0)));
  ASSERT_EQ(observed.size(), 1u);
  EXPECT_EQ(observed[0], (std::pair{kC, kA}));
  EXPECT_EQ(t.route_to(kC)->metric, 3);

  // Same pairing, different metric: a change, but not a new (dst, via).
  EXPECT_TRUE(t.upsert(kC, kA, 5, roles::kNone, at(1)));
  EXPECT_EQ(observed.size(), 1u);
  EXPECT_EQ(t.route_to(kC)->metric, 5);

  // Pure hold-timer refresh: no change reported at all.
  EXPECT_FALSE(t.upsert(kC, kA, 5, roles::kNone, at(2)));
  EXPECT_EQ(observed.size(), 1u);

  // Next-hop switch: the flight recorder needs the new pairing.
  EXPECT_TRUE(t.upsert(kC, kB, 5, roles::kNone, at(3)));
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[1], (std::pair{kC, kB}));
}

TEST(RoutingTableUpsert, AdoptsUnconditionallyEvenWhenWorse) {
  // Bellman-Ford would refuse a worse route from a third party; upsert is
  // the strategy's own decision (an AODV RREP outranks an old beacon).
  RoutingTable t(kSelf, kTimeout);
  t.apply_beacon(kA, {{kC, 1}}, at(0));  // C at metric 2 via A
  EXPECT_TRUE(t.upsert(kC, kB, 7, roles::kNone, at(1)));
  EXPECT_EQ(t.route_to(kC)->via, kB);
  EXPECT_EQ(t.route_to(kC)->metric, 7);
}

TEST(RoutingTableUpsert, ClampsMetricBelowInfinityAndRefusesSelf) {
  RoutingTable t(kSelf, kTimeout);
  EXPECT_TRUE(t.upsert(kC, kA, 200, roles::kNone, at(0)));
  EXPECT_EQ(t.route_to(kC)->metric, kInfiniteMetric - 1);
  EXPECT_FALSE(t.upsert(kSelf, kA, 1, roles::kNone, at(0)));
  EXPECT_FALSE(t.has_route(kSelf));
}

TEST(RoutingTableUpsert, InvalidateDropsImmediatelyAndKeepsIndexSound) {
  RoutingTable t(kSelf, kTimeout);
  t.upsert(kA, kA, 1, roles::kNone, at(0));
  t.upsert(kB, kA, 2, roles::kNone, at(0));
  t.upsert(kC, kA, 3, roles::kNone, at(0));
  EXPECT_TRUE(t.invalidate(kB));
  EXPECT_FALSE(t.invalidate(kB));  // already gone
  EXPECT_FALSE(t.has_route(kB));
  // Lookups survive the mid-vector removal.
  EXPECT_EQ(t.next_hop(kA), kA);
  EXPECT_EQ(t.route_to(kC)->metric, 3);
}

TEST(RoutingTableUpsert, TouchRefreshesOnlyExistingRoutes) {
  RoutingTable t(kSelf, kTimeout);
  t.upsert(kC, kA, 2, roles::kNone, at(0));
  EXPECT_TRUE(t.touch(kC, at(300)));
  EXPECT_FALSE(t.touch(kB, at(300)));  // unknown destination
  // The touch moved the deadline: the original deadline passes harmlessly.
  EXPECT_EQ(t.expire(at(0) + kTimeout), 0u);
  EXPECT_TRUE(t.has_route(kC));
  EXPECT_EQ(t.expire(at(300) + kTimeout), 1u);
  EXPECT_FALSE(t.has_route(kC));
}

// --- Expiry edge cases ------------------------------------------------------

TEST(RoutingTableExpiry, LapsedEntryResolvesUntilTheSweepRuns) {
  // Expiry is sweep-based, not read-based: a forward in flight between the
  // deadline and the next maintenance sweep still resolves (and its touch
  // legitimately revives the route — it just proved the path carries data).
  RoutingTable t(kSelf, kTimeout);
  t.upsert(kC, kA, 2, roles::kNone, at(0));
  const TimePoint past_deadline = at(5) + kTimeout;
  EXPECT_EQ(t.next_hop(kC), kA);             // racing forward wins
  EXPECT_TRUE(t.touch(kC, past_deadline));   // and re-arms the hold timer
  EXPECT_EQ(t.expire(past_deadline), 0u);    // the sweep now finds it fresh
  EXPECT_TRUE(t.has_route(kC));

  // Without the racing touch the sweep evicts, and only then do lookups
  // and touches see a dead route.
  t.invalidate(kC);
  t.upsert(kC, kA, 2, roles::kNone, at(0));
  EXPECT_EQ(t.expire(past_deadline), 1u);
  EXPECT_FALSE(t.next_hop(kC).has_value());
  EXPECT_FALSE(t.touch(kC, past_deadline));
}

TEST(RoutingTableExpiry, StaleRoutesEvictInDeadlineOrderNotInsertionOrder) {
  RoutingTable t(kSelf, kTimeout);
  t.upsert(kB, kB, 1, roles::kNone, at(20));  // freshest, inserted first
  t.upsert(kC, kA, 3, roles::kNone, at(0));   // stalest, inserted last
  t.upsert(kA, kA, 1, roles::kNone, at(10));
  EXPECT_EQ(t.expire(at(0) + kTimeout), 1u);  // only kC's deadline lapsed
  EXPECT_FALSE(t.has_route(kC));
  EXPECT_EQ(t.next_hop(kA), kA);  // survivors keep resolving mid-eviction
  EXPECT_EQ(t.next_hop(kB), kB);
  EXPECT_EQ(t.expire(at(10) + kTimeout), 1u);
  EXPECT_FALSE(t.has_route(kA));
  EXPECT_TRUE(t.has_route(kB));
  EXPECT_EQ(t.expire(at(20) + kTimeout), 1u);
  EXPECT_EQ(t.size(), 0u);
}

TEST(RoutingTableExpiry, DeadNeighborCascadesAheadOfItsDependentsDeadlines) {
  // kC's own hold timer is still fresh when kA lapses, but a route is only
  // usable while its next hop is a live neighbor: the sweep that evicts kA
  // takes kC with it (next_hop() must never return a vanished neighbor).
  RoutingTable t(kSelf, kTimeout);
  t.upsert(kA, kA, 1, roles::kNone, at(0));
  t.upsert(kC, kA, 2, roles::kNone, at(50));
  EXPECT_EQ(t.expire(at(0) + kTimeout), 2u);
  EXPECT_FALSE(t.has_route(kA));
  EXPECT_FALSE(t.has_route(kC));
  EXPECT_EQ(t.size(), 0u);
}

// expire() skips its scan while `now` is below a lower bound on every
// deadline. These pin the bound's bookkeeping: refreshes may only loosen
// it, and every deadline write — however early its clock — lowers it.
TEST(RoutingTableExpiry, RefreshingTheEarliestDeadlineHidesNoLaterEntry) {
  RoutingTable t(kSelf, kTimeout);
  t.upsert(kA, kA, 1, roles::kNone, at(0));  // holds the earliest deadline
  t.upsert(kB, kB, 1, roles::kNone, at(10));
  t.upsert(kC, kC, 1, roles::kNone, at(20));
  EXPECT_EQ(t.expire(at(5)), 0u);
  EXPECT_TRUE(t.touch(kA, at(100)));    // kA now lapses last...
  t.apply_beacon(kB, {}, at(30));       // ...and kB after kC
  EXPECT_EQ(t.expire(at(20) + kTimeout), 1u);  // kC is due first
  EXPECT_FALSE(t.has_route(kC));
  EXPECT_EQ(t.expire(at(30) + kTimeout), 1u);
  EXPECT_FALSE(t.has_route(kB));
  EXPECT_EQ(t.expire(at(99) + kTimeout), 0u);
  EXPECT_EQ(t.expire(at(100) + kTimeout), 1u);
  EXPECT_EQ(t.size(), 0u);
}

TEST(RoutingTableExpiry, EarlierClockLowersTheBound) {
  // A skewed node clock can hand the table a `now` earlier than the one
  // that set the current bound; the entry it writes lapses first.
  RoutingTable t(kSelf, kTimeout);
  t.upsert(kA, kA, 1, roles::kNone, at(100));
  EXPECT_EQ(t.expire(at(50) + kTimeout), 0u);
  t.upsert(kB, kB, 1, roles::kNone, at(0));
  EXPECT_EQ(t.expire(at(0) + kTimeout), 1u);
  EXPECT_FALSE(t.has_route(kB));
  EXPECT_TRUE(t.has_route(kA));

  t.apply_beacon(kC, {}, at(10));  // a beacon stamped early
  EXPECT_EQ(t.expire(at(10) + kTimeout), 1u);
  EXPECT_FALSE(t.has_route(kC));

  EXPECT_TRUE(t.touch(kA, at(20)));  // a touch stamped early
  EXPECT_EQ(t.expire(at(20) + kTimeout), 1u);
  EXPECT_EQ(t.size(), 0u);
}

TEST(RoutingTableUpsert, ObserverFiresAgainAfterExpiryReinstall) {
  // Expiry is invisible to the observer, but a re-install after expiry is a
  // new pairing again — the flight recorder must re-learn it or invariant 5
  // would flag the next unicast.
  RoutingTable t(kSelf, kTimeout);
  int fired = 0;
  t.set_observer([&](const RouteEntry&) { fired++; });
  t.upsert(kC, kA, 2, roles::kNone, at(0));
  EXPECT_EQ(fired, 1);
  t.expire(at(1) + kTimeout);
  EXPECT_FALSE(t.has_route(kC));
  t.upsert(kC, kA, 2, roles::kNone, at(1000));
  EXPECT_EQ(fired, 2);
}

TEST(RoutingTable, AdvertisementListsDestinationAndMetricSorted) {
  RoutingTable t(kSelf, kTimeout);
  t.apply_beacon(kB, {{kC, 1}}, at(0));
  t.apply_beacon(kA, {}, at(0));
  const auto adv = t.advertisement();
  ASSERT_EQ(adv.size(), 4u);
  EXPECT_EQ(adv[0].address, kSelf);  // metric-0 self entry carries the role
  EXPECT_EQ(adv[0].metric, 0);
  EXPECT_EQ(adv[1].address, kA);
  EXPECT_EQ(adv[2].address, kB);
  EXPECT_EQ(adv[3].address, kC);
  EXPECT_EQ(adv[3].metric, 2);
}

TEST(RoutingTable, AdvertisementTruncatesKeepingNearestRoutes) {
  RoutingTable t(kSelf, kTimeout);
  // One direct neighbor plus kMaxRoutingEntries far routes.
  std::vector<RoutingEntry> far;
  for (std::uint16_t i = 0; i < kMaxRoutingEntries; ++i) {
    far.push_back({static_cast<Address>(0x1000 + i), 10});
  }
  t.apply_beacon(kA, far, at(0));
  EXPECT_EQ(t.size(), kMaxRoutingEntries + 1);
  const auto adv = t.advertisement();
  EXPECT_EQ(adv.size(), kMaxRoutingEntries);
  // The 1-hop neighbor survived truncation.
  bool has_neighbor = false;
  for (const auto& e : adv) {
    if (e.address == kA) has_neighbor = (e.metric == 1);
  }
  EXPECT_TRUE(has_neighbor);
}

TEST(RoutingTable, OwnBeaconEchoIgnored) {
  RoutingTable t(kSelf, kTimeout);
  EXPECT_FALSE(t.apply_beacon(kSelf, {{kA, 1}}, at(0)));
  EXPECT_EQ(t.size(), 0u);
}

TEST(RoutingTable, MetricSaturatesAtMax) {
  RoutingTable t(kSelf, kTimeout);
  t.apply_beacon(kA, {{kC, kInfiniteMetric - 2}}, at(0));
  ASSERT_TRUE(t.has_route(kC));
  EXPECT_EQ(t.route_to(kC)->metric, kInfiniteMetric - 1);
  // One more hop would saturate: route_to treats it as unreachable.
  t.apply_beacon(kA, {{kC, kInfiniteMetric - 1}}, at(1));
  EXPECT_FALSE(t.has_route(kC));
}

TEST(RoutingTable, RejectsInvalidConstruction) {
  EXPECT_THROW(RoutingTable(kUnassigned, kTimeout), ContractViolation);
  EXPECT_THROW(RoutingTable(kBroadcast, kTimeout), ContractViolation);
  EXPECT_THROW(RoutingTable(kSelf, Duration::zero()), ContractViolation);
}

TEST(RoutingTable, RejectsZeroMetricClaimsForThirdParties) {
  // Only the sender's own self entry may carry metric 0; believing
  // (C, metric 0) from A would create a bogus 1-hop route to C via A.
  RoutingTable t(kSelf, kTimeout);
  t.apply_beacon(kA, {{kC, 0}}, at(0));
  EXPECT_FALSE(t.has_route(kC));
  EXPECT_TRUE(t.has_route(kA));
}

TEST(RoutingTable, RolesPropagateFromAdvertisements) {
  RoutingTable t(kSelf, kTimeout);
  t.apply_beacon(kA, {{kA, 0, roles::kGateway}, {kC, 1, roles::kSink}}, at(0));
  EXPECT_EQ(t.route_to(kA)->role, roles::kGateway);
  EXPECT_EQ(t.route_to(kC)->role, roles::kSink);
}

TEST(RoutingTable, RoleChangeIsAnUpdate) {
  RoutingTable t(kSelf, kTimeout);
  t.apply_beacon(kA, {{kA, 0, roles::kNone}}, at(0));
  EXPECT_TRUE(t.apply_beacon(kA, {{kA, 0, roles::kGateway}}, at(1)));
  EXPECT_EQ(t.route_to(kA)->role, roles::kGateway);
  EXPECT_FALSE(t.apply_beacon(kA, {{kA, 0, roles::kGateway}}, at(2)));
}

TEST(RoutingTable, NearestWithRolePicksLowestMetric) {
  RoutingTable t(kSelf, kTimeout);
  t.apply_beacon(kA, {{kA, 0, roles::kGateway}, {kC, 3, roles::kGateway}}, at(0));
  const auto gw = t.nearest_with_role(roles::kGateway);
  ASSERT_TRUE(gw.has_value());
  EXPECT_EQ(gw->destination, kA);
  EXPECT_EQ(gw->metric, 1);
  EXPECT_EQ(t.routes_with_role(roles::kGateway).size(), 2u);
}

TEST(RoutingTable, NearestWithRoleRequiresAllBits) {
  RoutingTable t(kSelf, kTimeout);
  t.apply_beacon(kA, {{kA, 0, roles::kGateway}}, at(0));
  t.apply_beacon(kB,
                 {{kB, 0, static_cast<Role>(roles::kGateway | roles::kSink)}},
                 at(0));
  const auto both = t.nearest_with_role(
      static_cast<Role>(roles::kGateway | roles::kSink));
  ASSERT_TRUE(both.has_value());
  EXPECT_EQ(both->destination, kB);
  EXPECT_FALSE(t.nearest_with_role(roles::kRelayOnly).has_value());
}

TEST(RoutingTable, NearestWithRoleTieBreaksByAddress) {
  RoutingTable t(kSelf, kTimeout);
  t.apply_beacon(kB, {{kB, 0, roles::kGateway}}, at(0));
  t.apply_beacon(kA, {{kA, 0, roles::kGateway}}, at(0));
  EXPECT_EQ(t.nearest_with_role(roles::kGateway)->destination, kA);
}

TEST(RoutingTable, OwnRoleAppearsInAdvertisement) {
  RoutingTable t(kSelf, kTimeout, kInfiniteMetric, roles::kSink);
  const auto adv = t.advertisement();
  ASSERT_EQ(adv.size(), 1u);
  EXPECT_EQ(adv[0].address, kSelf);
  EXPECT_EQ(adv[0].metric, 0);
  EXPECT_EQ(adv[0].role, roles::kSink);
  EXPECT_EQ(t.own_role(), roles::kSink);
}

TEST(RoutingTable, RoleToStringRendersBits) {
  EXPECT_EQ(role_to_string(roles::kNone), "-");
  EXPECT_EQ(role_to_string(roles::kGateway), "gateway");
  EXPECT_EQ(role_to_string(static_cast<Role>(roles::kGateway | roles::kSink)),
            "gateway|sink");
}

TEST(RoutingTable, ToStringListsEntries) {
  RoutingTable t(kSelf, kTimeout);
  t.apply_beacon(kA, {{kB, 1}}, at(0));
  const std::string s = t.to_string();
  EXPECT_NE(s.find("0x000A"), std::string::npos);
  EXPECT_NE(s.find("0x000B"), std::string::npos);
  EXPECT_NE(s.find("metric=2"), std::string::npos);
}

}  // namespace
}  // namespace lm::net

namespace lm::net {
namespace {

TEST(RoutingTableSnapshot, RoundTripsAcrossAReboot) {
  RoutingTable t(kSelf, kTimeout);
  t.apply_beacon(kA, {{kA, 0, roles::kGateway}, {kC, 2}}, at(0));
  t.apply_beacon(kB, {}, at(100));
  const auto snapshot = t.serialize(at(200));

  RoutingTable rebooted(kSelf, kTimeout);
  ASSERT_TRUE(rebooted.restore(snapshot, at(1000), Duration::seconds(30)));
  ASSERT_EQ(rebooted.size(), 3u);
  EXPECT_EQ(rebooted.route_to(kA)->role, roles::kGateway);
  EXPECT_EQ(rebooted.route_to(kC)->metric, 3);
  EXPECT_EQ(rebooted.route_to(kC)->via, kA);
  // Lifetimes were re-based: kA/kC had 400 s left at snapshot time, minus
  // 30 s of downtime — they lapse exactly at t=1370 s; kB (refreshed later)
  // survives until t=1470 s.
  EXPECT_EQ(rebooted.expire(at(1369)), 0u);
  EXPECT_EQ(rebooted.expire(at(1370)), 2u);
  EXPECT_TRUE(rebooted.has_route(kB));
  EXPECT_EQ(rebooted.expire(at(1470)), 1u);
}

TEST(RoutingTableSnapshot, LapsedEntriesAreSkipped) {
  RoutingTable t(kSelf, kTimeout);
  t.apply_beacon(kA, {}, at(0));
  const auto snapshot = t.serialize(at(0));
  RoutingTable rebooted(kSelf, kTimeout);
  // Down longer than the hold time: nothing survives (correct — the mesh
  // has moved on), but the restore itself succeeds.
  ASSERT_TRUE(rebooted.restore(snapshot, at(5000), kTimeout * 2));
  EXPECT_EQ(rebooted.size(), 0u);
}

TEST(RoutingTableSnapshot, RejectsForeignAndCorruptSnapshots) {
  RoutingTable t(kSelf, kTimeout);
  t.apply_beacon(kA, {}, at(0));
  auto snapshot = t.serialize(at(0));

  RoutingTable other(0x0099, kTimeout);
  EXPECT_FALSE(other.restore(snapshot, at(1)));  // different owner

  RoutingTable truncated_target(kSelf, kTimeout);
  auto truncated = snapshot;
  truncated.pop_back();
  EXPECT_FALSE(truncated_target.restore(truncated, at(1)));
  EXPECT_EQ(truncated_target.size(), 0u);

  auto corrupt = snapshot;
  corrupt[0] = 0x7F;  // wrong version
  EXPECT_FALSE(truncated_target.restore(corrupt, at(1)));

  // Metric byte corrupted to 0: refused wholesale.
  auto zero_metric = snapshot;
  zero_metric[9] = 0;  // metric field of the first entry
  EXPECT_FALSE(truncated_target.restore(zero_metric, at(1)));
}

TEST(RoutingTableSnapshot, RejectsADestinationListedTwice) {
  RoutingTable t(kSelf, kTimeout);
  t.apply_beacon(kA, {}, at(0));
  t.apply_beacon(kB, {}, at(0));
  auto snapshot = t.serialize(at(0));
  // Layout: version u8, owner u16, count u16, then 10-byte entries that
  // start with the destination. Point the second entry at the first's.
  ASSERT_EQ(snapshot.size(), 5u + 2 * 10);
  snapshot[15] = snapshot[5];
  snapshot[16] = snapshot[6];
  RoutingTable rebooted(kSelf, kTimeout);
  EXPECT_FALSE(rebooted.restore(snapshot, at(1)));
  EXPECT_EQ(rebooted.size(), 0u);
  EXPECT_EQ(rebooted.advertisement().size(), 1u);  // just the self entry
}

TEST(RoutingTableSnapshot, RestoredTableBehavesLikeTheLiveOne) {
  RoutingTable t(kSelf, kTimeout);
  t.apply_beacon(kB, {{kC, 1}}, at(0));
  t.apply_beacon(kA, {{kA, 0, roles::kGateway}}, at(60));
  RoutingTable rebooted(kSelf, kTimeout);
  ASSERT_TRUE(rebooted.restore(t.serialize(at(60)), at(60)));
  const auto& entries = rebooted.entries();
  EXPECT_TRUE(std::is_sorted(entries.begin(), entries.end(),
                             [](const RouteEntry& a, const RouteEntry& b) {
                               return a.destination < b.destination;
                             }));
  EXPECT_EQ(rebooted.advertisement(), t.advertisement());
  // Beacons merge into the restored table exactly as into the live one.
  const RoutingEntry beacon[] = {{kA, 0, roles::kGateway}, {0x0002, 1}, {kC, 3}};
  EXPECT_EQ(rebooted.apply_beacon(kA, beacon, at(61)), t.apply_beacon(kA, beacon, at(61)));
  EXPECT_EQ(rebooted.advertisement(), t.advertisement());
  // The restored deadlines arm the sweep: kB and kC (refreshed at 0) lapse
  // first, without a deadline write since the restore.
  EXPECT_EQ(rebooted.expire(at(0) + kTimeout - Duration::seconds(1)), 0u);
  EXPECT_EQ(rebooted.expire(at(0) + kTimeout), 2u);
  EXPECT_FALSE(rebooted.has_route(kC));
  EXPECT_TRUE(rebooted.has_route(0x0002));
  EXPECT_EQ(rebooted.expire(at(61) + kTimeout), 2u);
  EXPECT_EQ(rebooted.size(), 0u);
}

TEST(RoutingTableSnapshot, EmptyTableSnapshotsFine) {
  RoutingTable t(kSelf, kTimeout);
  const auto snapshot = t.serialize(at(0));
  RoutingTable rebooted(kSelf, kTimeout);
  EXPECT_TRUE(rebooted.restore(snapshot, at(1)));
  EXPECT_EQ(rebooted.size(), 0u);
}

// route_to()/next_hop() binary-search entries(), so entries() must stay
// strictly address-ordered and lookups must agree with a linear scan of it
// after every kind of table churn: installs, updates, withdrawals, expiry
// cascades, and snapshot restores.
namespace {
void expect_index_matches_entries(const RoutingTable& t) {
  EXPECT_TRUE(std::adjacent_find(t.entries().begin(), t.entries().end(),
                                 [](const RouteEntry& a, const RouteEntry& b) {
                                   return a.destination >= b.destination;
                                 }) == t.entries().end());
  // Every stored entry is found, with the right contents.
  for (const RouteEntry& e : t.entries()) {
    const auto r = t.route_to(e.destination);
    ASSERT_TRUE(r.has_value()) << "missing " << to_string(e.destination);
    EXPECT_EQ(r->via, e.via);
    EXPECT_EQ(r->metric, e.metric);
    EXPECT_EQ(r->role, e.role);
  }
  // A destination the table does not hold is not found.
  EXPECT_FALSE(t.route_to(0x7FFF).has_value());
}
}  // namespace

TEST(RoutingTableIndex, LookupMatchesLinearScanThroughChurn) {
  RoutingTable t(kSelf, kTimeout);

  // Two neighbors each advertise a block of destinations.
  std::vector<RoutingEntry> from_a, from_b;
  for (Address d = 0x0100; d < 0x0140; ++d) from_a.push_back({d, 2});
  for (Address d = 0x0120; d < 0x0160; ++d) from_b.push_back({d, 1});
  t.apply_beacon(kA, from_a, at(0));
  expect_index_matches_entries(t);
  t.apply_beacon(kB, from_b, at(1));  // overlapping block: updates + installs
  expect_index_matches_entries(t);
  EXPECT_EQ(t.size(), 2u + 0x60);

  // Overlap region adopted the better route via B.
  EXPECT_EQ(t.route_to(0x0130)->via, kB);
  EXPECT_EQ(t.route_to(0x0130)->metric, 2);
  EXPECT_EQ(t.route_to(0x0110)->via, kA);

  // Withdrawal: A saturates one of its exclusive destinations.
  t.apply_beacon(kA, {{0x0105, static_cast<std::uint8_t>(kInfiniteMetric)}},
                 at(2));
  EXPECT_FALSE(t.has_route(0x0105));
  expect_index_matches_entries(t);

  // Expiry cascade: refresh B just before A's block lapses, then expire.
  // Everything via A (including A itself) goes; everything via B stays.
  t.apply_beacon(kB, from_b, at(300));
  const std::size_t removed = t.expire(at(2) + kTimeout);
  EXPECT_GT(removed, 0u);
  EXPECT_FALSE(t.has_route(kA));
  EXPECT_FALSE(t.has_route(0x0110));
  EXPECT_TRUE(t.has_route(kB));
  EXPECT_TRUE(t.has_route(0x0130));
  expect_index_matches_entries(t);
  for (const RouteEntry& e : t.entries()) EXPECT_EQ(e.via, kB);

  // Restore puts the snapshot back in address order.
  const auto snapshot = t.serialize(at(400));
  RoutingTable rebooted(kSelf, kTimeout);
  ASSERT_TRUE(rebooted.restore(snapshot, at(401)));
  EXPECT_EQ(rebooted.size(), t.size());
  expect_index_matches_entries(rebooted);
  EXPECT_EQ(rebooted.next_hop(0x0130), kB);
}


// generation() moves exactly when advertisement() can: on every insert,
// erase and change of via, metric or role, and on nothing else.
namespace {
// Runs `step` and reports whether it bumped the generation (by exactly one
// when it did).
template <class Step>
bool bumps(RoutingTable& t, Step step) {
  const std::uint64_t before = t.generation();
  step();
  EXPECT_LE(t.generation(), before + 1);
  return t.generation() != before;
}
}  // namespace

TEST(RoutingTableGeneration, EveryMutationPathBumpsIt) {
  RoutingTable t(kSelf, kTimeout);
  EXPECT_EQ(t.generation(), 0u);
  // apply_beacon: a new neighbour and routes, a metric change, a role
  // change, a next-hop switch and a withdrawal.
  EXPECT_TRUE(bumps(t, [&] { t.apply_beacon(kA, {{kC, 3}}, at(0)); }));
  EXPECT_TRUE(bumps(t, [&] { t.apply_beacon(kA, {{kC, 4}}, at(1)); }));
  EXPECT_TRUE(bumps(t, [&] {
    t.apply_beacon(kA, {{kC, 4, roles::kGateway}}, at(2));
  }));
  EXPECT_TRUE(bumps(t, [&] { t.apply_beacon(kB, {{kC, 1}}, at(3)); }));
  EXPECT_EQ(t.route_to(kC)->via, kB);
  EXPECT_TRUE(bumps(t, [&] {
    t.apply_beacon(kB, {{kC, static_cast<std::uint8_t>(kInfiniteMetric)}},
                   at(4));
  }));
  EXPECT_FALSE(t.has_route(kC));
  // The sender of a direct route heard at a worse metric before.
  EXPECT_TRUE(bumps(t, [&] { t.upsert(0x0020, kA, 3, roles::kNone, at(5)); }));
  EXPECT_TRUE(bumps(t, [&] { t.apply_beacon(0x0020, {}, at(6)); }));
  // upsert: insert, and each of via, metric and role.
  EXPECT_TRUE(bumps(t, [&] { t.upsert(kC, kA, 2, roles::kNone, at(7)); }));
  EXPECT_TRUE(bumps(t, [&] { t.upsert(kC, kB, 2, roles::kNone, at(8)); }));
  EXPECT_TRUE(bumps(t, [&] { t.upsert(kC, kB, 3, roles::kNone, at(9)); }));
  EXPECT_TRUE(bumps(t, [&] { t.upsert(kC, kB, 3, roles::kSink, at(10)); }));
  // invalidate.
  EXPECT_TRUE(bumps(t, [&] { EXPECT_TRUE(t.invalidate(kC)); }));
  // restore into an empty table.
  t.upsert(kC, 0x0020, 2, roles::kNone, at(20));
  const auto snapshot = t.serialize(at(20));
  RoutingTable rebooted(kSelf, kTimeout);
  EXPECT_TRUE(bumps(rebooted, [&] {
    EXPECT_TRUE(rebooted.restore(snapshot, at(21)));
  }));
  // expire: kA, kB and 0x0020 lapse, and kC, still fresh, cascades out
  // through its lapsed next hop.
  EXPECT_TRUE(bumps(t, [&] { EXPECT_EQ(t.expire(at(19) + kTimeout), 4u); }));
  EXPECT_EQ(t.size(), 0u);
}

TEST(RoutingTableGeneration, DeadlinesAndMemoHitsLeaveItAlone) {
  RoutingTable t(kSelf, kTimeout);
  const std::vector<RoutingEntry> beacon = {{kA, 0}, {kC, 1}};
  t.apply_beacon(kA, beacon, at(0), /*content_id=*/7);
  // A refresh that changes nothing, then the repeat that arms the memo.
  EXPECT_FALSE(bumps(t, [&] { t.apply_beacon(kA, beacon, at(1), 7); }));
  // Memo hits: only owed deadlines.
  EXPECT_FALSE(bumps(t, [&] { t.apply_beacon(kA, beacon, at(2), 7); }));
  EXPECT_EQ(t.repeated_beacons(), 1u);
  // Writing the owed deadlines out (any deadline read) and touch().
  EXPECT_FALSE(bumps(t, [&] { EXPECT_TRUE(t.route_to(kC).has_value()); }));
  EXPECT_FALSE(bumps(t, [&] { EXPECT_TRUE(t.touch(kC, at(3))); }));
  // An upsert that only refreshes the hold timer, refusals and no-ops.
  EXPECT_FALSE(bumps(t, [&] {
    EXPECT_FALSE(t.upsert(kC, kA, 2, roles::kNone, at(4)));
  }));
  EXPECT_FALSE(bumps(t, [&] { EXPECT_FALSE(t.invalidate(kB)); }));
  EXPECT_FALSE(bumps(t, [&] { EXPECT_FALSE(t.touch(kB, at(5))); }));
  EXPECT_FALSE(bumps(t, [&] { EXPECT_EQ(t.expire(at(6)), 0u); }));
  EXPECT_FALSE(bumps(t, [&] { (void)t.advertisement(); }));
  EXPECT_FALSE(bumps(t, [&] { (void)t.serialize(at(7)); }));
  // A worse offer from a neighbour that is not the next hop changes nothing.
  EXPECT_TRUE(bumps(t, [&] { t.apply_beacon(kB, {}, at(8)); }));
  EXPECT_FALSE(bumps(t, [&] { t.apply_beacon(kB, {{kC, 5}}, at(9)); }));
}

}  // namespace
}  // namespace lm::net
