// Property tests for the routing table: invariants that must hold after
// ANY sequence of beacons and expirations, swept over random histories.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "net/routing_table.h"
#include "support/rng.h"

namespace lm::net {
namespace {

constexpr Address kSelf = 0x0042;

class RoutingProperty : public ::testing::TestWithParam<std::uint64_t> {};

RoutingEntry random_entry(Rng& rng) {
  RoutingEntry e;
  // Small address pool so destinations collide and update paths trigger.
  e.address = static_cast<Address>(rng.uniform_int(0x0040, 0x0050));
  e.metric = static_cast<std::uint8_t>(rng.uniform_int(0, kInfiniteMetric + 2));
  e.role = static_cast<Role>(rng.uniform_int(0, 7));
  return e;
}

void check_invariants(const RoutingTable& t) {
  std::set<Address> seen;
  for (const RouteEntry& e : t.entries()) {
    // Never a route to ourselves or to reserved addresses.
    ASSERT_NE(e.destination, kSelf);
    ASSERT_NE(e.destination, kBroadcast);
    ASSERT_NE(e.destination, kUnassigned);
    ASSERT_NE(e.via, kBroadcast);
    ASSERT_NE(e.via, kUnassigned);
    // Metrics stay inside [1, kInfiniteMetric].
    ASSERT_GE(e.metric, 1);
    ASSERT_LE(e.metric, kInfiniteMetric);
    // Exactly one entry per destination.
    ASSERT_TRUE(seen.insert(e.destination).second);
    // Direct neighbors route through themselves.
    if (e.metric == 1) {
      ASSERT_EQ(e.via, e.destination);
    }
  }
  // route_to never returns an unusable (saturated) route.
  for (const RouteEntry& e : t.entries()) {
    const auto r = t.route_to(e.destination);
    if (r) {
      ASSERT_LT(r->metric, kInfiniteMetric);
    }
  }
}

TEST_P(RoutingProperty, InvariantsSurviveRandomBeaconHistories) {
  Rng rng(GetParam());
  RoutingTable t(kSelf, Duration::minutes(10));
  TimePoint now;
  for (int step = 0; step < 600; ++step) {
    now += Duration::seconds(rng.uniform_int(1, 120));
    if (rng.bernoulli(0.15)) {
      t.expire(now);
    } else {
      const auto neighbor = static_cast<Address>(rng.uniform_int(0x0040, 0x0050));
      if (neighbor == kSelf) continue;
      std::vector<RoutingEntry> entries;
      const auto n = rng.uniform_int(0, 6);
      for (std::int64_t i = 0; i < n; ++i) entries.push_back(random_entry(rng));
      t.apply_beacon(neighbor, entries, now);
    }
    check_invariants(t);
  }
  // Total silence eventually clears everything.
  t.expire(now + Duration::hours(1));
  EXPECT_EQ(t.size(), 0u);
}

TEST_P(RoutingProperty, AdvertisementIsWellFormed) {
  Rng rng(GetParam() ^ 0xAD);
  Rng caps(GetParam() ^ 0xCA9);  // its own stream: the history is unchanged
  RoutingTable t(kSelf, Duration::minutes(10), kInfiniteMetric, roles::kSink);
  TimePoint now;
  for (int step = 0; step < 200; ++step) {
    now += Duration::seconds(30);
    const auto neighbor = static_cast<Address>(rng.uniform_int(0x0001, 0x0200));
    std::vector<RoutingEntry> entries;
    for (int i = 0; i < 4; ++i) {
      RoutingEntry e;
      e.address = static_cast<Address>(rng.uniform_int(0x0001, 0x0200));
      e.metric = static_cast<std::uint8_t>(rng.uniform_int(0, 10));
      entries.push_back(e);
    }
    if (neighbor != kSelf) t.apply_beacon(neighbor, entries, now);

    const auto adv = t.advertisement();
    ASSERT_LE(adv.size(), kMaxRoutingEntries);
    // Sorted by address, unique, and the metric-0 self entry survives any
    // truncation (it sorts first by metric).
    bool has_self = false;
    for (std::size_t i = 0; i < adv.size(); ++i) {
      if (i > 0) {
        ASSERT_LT(adv[i - 1].address, adv[i].address);
      }
      if (adv[i].address == kSelf) {
        has_self = true;
        ASSERT_EQ(adv[i].metric, 0);
        ASSERT_EQ(adv[i].role, roles::kSink);
      }
    }
    ASSERT_TRUE(has_self);

    // Under any cap (a dwell-capped frame), the self entry plus the nearest
    // (metric, address) destinations, still in address order.
    const std::size_t cap = 1 + caps.index(kMaxRoutingEntries);
    const auto capped = t.advertisement(cap);
    std::vector<RoutingEntry> nearest;
    for (const RouteEntry& e : t.entries()) {
      nearest.push_back({e.destination, e.metric, e.role});
    }
    std::ranges::sort(nearest, {}, [](const RoutingEntry& e) {
      return std::pair{e.metric, e.address};
    });
    nearest.resize(std::min(nearest.size(), cap - 1));
    nearest.push_back({kSelf, 0, roles::kSink});
    std::ranges::sort(nearest, {}, &RoutingEntry::address);
    ASSERT_EQ(std::vector<RoutingEntry>(capped.begin(), capped.end()), nearest)
        << "cap " << cap;
  }
}

TEST_P(RoutingProperty, TwoTablesExchangingBeaconsAgreeOnDistance) {
  // A micro-convergence property: if A hears B's table and vice versa
  // repeatedly (full exchange, no loss), their mutual metrics settle to 1
  // and shared destinations differ by at most 1 hop.
  Rng rng(GetParam() ^ 0x2B);
  RoutingTable a(0x00A0, Duration::minutes(10));
  RoutingTable b(0x00B0, Duration::minutes(10));
  TimePoint now;
  // Seed each with random third-party routes.
  for (int i = 0; i < 10; ++i) {
    now += Duration::seconds(1);
    a.apply_beacon(static_cast<Address>(0x0100 + i),
                   {random_entry(rng), random_entry(rng)}, now);
    b.apply_beacon(static_cast<Address>(0x0200 + i),
                   {random_entry(rng), random_entry(rng)}, now);
  }
  for (int round = 0; round < 4; ++round) {
    now += Duration::seconds(10);
    b.apply_beacon(0x00A0, a.advertisement(), now);
    a.apply_beacon(0x00B0, b.advertisement(), now);
  }
  ASSERT_EQ(a.route_to(0x00B0)->metric, 1);
  ASSERT_EQ(b.route_to(0x00A0)->metric, 1);
  for (const RouteEntry& e : a.entries()) {
    if (e.destination == 0x00B0) continue;
    const auto via_b = b.route_to(e.destination);
    if (via_b && a.route_to(e.destination)) {
      EXPECT_LE(std::abs(static_cast<int>(via_b->metric) -
                         static_cast<int>(e.metric)), 1)
          << "destination " << e.destination;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingProperty,
                         ::testing::Values(10u, 11u, 12u, 13u, 14u, 15u));

}  // namespace
}  // namespace lm::net
