// Differential oracle for RoutingTable.
//
// ReferenceTable is the straightforward distance-vector table: an
// insertion-ordered vector, a std::map index rebuilt after every removal,
// and an advertisement built by sort → truncate → sort (at any cap, as a
// dwell-capped frame asks for); every beacon runs
// the full merge. RoutingTable keeps one address-sorted vector, merges
// beacons with a cursor, cuts the advertisement with a metric histogram,
// skips idle expiry sweeps and answers a repeated beacon from its memo with
// deferred deadlines. Both are driven through the same seeded random
// histories and must agree after every step on lookups, size, every
// entry's deadline, next_expiry(), advertisement, observer notifications,
// snapshots and every return value.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/routing_table.h"
#include "support/byte_codec.h"
#include "support/rng.h"

namespace lm::net {
namespace {

class ReferenceTable {
 public:
  ReferenceTable(Address self, Duration timeout, std::uint8_t max_metric)
      : self_(self), timeout_(timeout), max_metric_(max_metric) {}

  std::vector<RouteEntry> notified;

  bool apply_beacon(Address neighbor, const std::vector<RoutingEntry>& entries,
                    TimePoint now) {
    if (neighbor == self_) return false;
    bool changed = false;
    const TimePoint deadline = now + timeout_;
    next_expiry_ = std::min(next_expiry_, deadline);
    if (RouteEntry* direct = find(neighbor)) {
      if (direct->metric != 1 || direct->via != neighbor) {
        direct->metric = 1;
        direct->via = neighbor;
        changed = true;
        notified.push_back(*direct);
      }
      direct->expires_at = deadline;
    } else {
      append(RouteEntry{neighbor, neighbor, 1, roles::kNone, deadline});
      changed = true;
    }
    for (const RoutingEntry& adv : entries) {
      if (adv.address == self_ || adv.address == kBroadcast ||
          adv.address == kUnassigned) {
        continue;
      }
      if (adv.metric == 0 && adv.address != neighbor) continue;
      const std::uint8_t candidate = static_cast<std::uint8_t>(
          std::min<int>(adv.metric + 1, max_metric_));
      RouteEntry* cur = find(adv.address);
      if (cur == nullptr) {
        if (candidate < max_metric_) {
          append(RouteEntry{adv.address, neighbor, candidate, adv.role, deadline});
          changed = true;
        }
        continue;
      }
      if (cur->via == neighbor) {
        if (candidate >= max_metric_ && adv.address != neighbor) {
          std::erase_if(entries_, [&](const RouteEntry& e) {
            return e.destination == adv.address;
          });
          reindex();
          changed = true;
          continue;
        }
        if (cur->metric != candidate && adv.address != neighbor) {
          cur->metric = candidate;
          changed = true;
        }
        if (cur->role != adv.role) {
          cur->role = adv.role;
          changed = true;
        }
        cur->expires_at = deadline;
      } else if (candidate < cur->metric) {
        cur->via = neighbor;
        cur->metric = candidate;
        cur->role = adv.role;
        cur->expires_at = deadline;
        changed = true;
        notified.push_back(*cur);
      }
    }
    return changed;
  }

  bool upsert(Address destination, Address via, std::uint8_t metric, Role role,
              TimePoint now) {
    if (destination == self_) return false;
    metric = std::min<std::uint8_t>(metric, max_metric_ - 1);
    const TimePoint deadline = now + timeout_;
    next_expiry_ = std::min(next_expiry_, deadline);
    RouteEntry* cur = find(destination);
    if (cur == nullptr) {
      append(RouteEntry{destination, via, metric, role, deadline});
      return true;
    }
    const bool new_pairing = cur->via != via;
    const bool changed = new_pairing || cur->metric != metric || cur->role != role;
    cur->via = via;
    cur->metric = metric;
    cur->role = role;
    cur->expires_at = deadline;
    if (new_pairing) notified.push_back(*cur);
    return changed;
  }

  bool invalidate(Address destination) {
    const std::size_t removed = std::erase_if(
        entries_, [&](const RouteEntry& e) { return e.destination == destination; });
    reindex();
    return removed != 0;
  }

  bool touch(Address destination, TimePoint now) {
    RouteEntry* cur = find(destination);
    if (cur == nullptr) return false;
    cur->expires_at = now + timeout_;
    next_expiry_ = std::min(next_expiry_, cur->expires_at);
    return true;
  }

  // The lower bound RoutingTable::next_expiry() documents: lowered by every
  // deadline written, recomputed exactly by every sweep that runs.
  TimePoint next_expiry() const { return next_expiry_; }

  std::size_t expire(TimePoint now) {
    const std::size_t removed = sweep(now);
    if (now >= next_expiry_) {
      next_expiry_ = TimePoint::max();
      for (const RouteEntry& e : entries_) {
        next_expiry_ = std::min(next_expiry_, e.expires_at);
      }
    }
    return removed;
  }

  std::optional<RouteEntry> route_to(Address destination) const {
    const auto it = index_.find(destination);
    if (it == index_.end() || entries_[it->second].metric >= max_metric_) {
      return std::nullopt;
    }
    return entries_[it->second];
  }

  std::size_t size() const { return entries_.size(); }

  std::vector<RouteEntry> sorted() const {
    std::vector<RouteEntry> out = entries_;
    std::ranges::sort(out, {}, &RouteEntry::destination);
    return out;
  }

  // Same snapshot format as RoutingTable::serialize.
  std::vector<std::uint8_t> serialize(TimePoint now) const {
    ByteWriter w;
    w.u8(1);
    w.u16(self_);
    w.u16(static_cast<std::uint16_t>(entries_.size()));
    for (const RouteEntry& e : sorted()) {
      w.u16(e.destination);
      w.u16(e.via);
      w.u8(e.metric);
      w.u8(e.role);
      w.u32(static_cast<std::uint32_t>(
          std::max<std::int64_t>(0, (e.expires_at - now).ms())));
    }
    return w.take();
  }

  // Restores a snapshot this table (or RoutingTable) serialized.
  void restore(const std::vector<std::uint8_t>& snapshot, TimePoint now,
               Duration downtime) {
    ByteReader r(snapshot);
    r.u8();
    r.u16();
    const std::uint16_t count = r.u16();
    for (std::uint16_t i = 0; i < count; ++i) {
      RouteEntry e;
      e.destination = r.u16();
      e.via = r.u16();
      e.metric = r.u8();
      e.role = r.u8();
      const Duration remaining = Duration::milliseconds(r.u32()) - downtime;
      if (remaining <= Duration::zero()) continue;
      e.expires_at = now + remaining;
      next_expiry_ = std::min(next_expiry_, e.expires_at);
      append(e);
    }
  }

  std::optional<TimePoint> earliest_deadline() const {
    if (entries_.empty()) return std::nullopt;
    return std::ranges::min(entries_, {}, &RouteEntry::expires_at).expires_at;
  }

  std::vector<RoutingEntry> advertisement(
      std::size_t max_entries = kMaxRoutingEntries) const {
    std::vector<RoutingEntry> adv;
    adv.push_back(RoutingEntry{self_, 0, roles::kNone});
    for (const RouteEntry& e : entries_) {
      adv.push_back(RoutingEntry{e.destination, e.metric, e.role});
    }
    std::sort(adv.begin(), adv.end(), [](const RoutingEntry& a, const RoutingEntry& b) {
      if (a.metric != b.metric) return a.metric < b.metric;
      return a.address < b.address;
    });
    if (adv.size() > max_entries) adv.resize(max_entries);
    std::sort(adv.begin(), adv.end(), [](const RoutingEntry& a, const RoutingEntry& b) {
      return a.address < b.address;
    });
    return adv;
  }

 private:
  RouteEntry* find(Address destination) {
    const auto it = index_.find(destination);
    return it == index_.end() ? nullptr : &entries_[it->second];
  }

  std::size_t sweep(TimePoint now) {
    std::size_t removed = std::erase_if(
        entries_, [now](const RouteEntry& e) { return e.expires_at <= now; });
    if (removed == 0) return 0;
    reindex();
    for (;;) {
      const std::size_t cascade = std::erase_if(entries_, [this](const RouteEntry& e) {
        return e.via != e.destination && !index_.contains(e.via);
      });
      reindex();
      if (cascade == 0) break;
      removed += cascade;
    }
    return removed;
  }

  void append(RouteEntry entry) {
    index_.emplace(entry.destination, entries_.size());
    entries_.push_back(entry);
    notified.push_back(entry);
  }

  void reindex() {
    index_.clear();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      index_.emplace(entries_[i].destination, i);
    }
  }

  Address self_;
  Duration timeout_;
  std::uint8_t max_metric_;
  std::vector<RouteEntry> entries_;
  std::map<Address, std::size_t> index_;
  TimePoint next_expiry_ = TimePoint::max();
};

constexpr Address kSelf = 0x0040;
const Duration kTimeout = Duration::seconds(600);

// 96 destinations around kSelf (more than one beacon can carry, so the
// advertisement truncates), the first 8 of which act as neighbors.
std::vector<Address> address_pool() {
  std::vector<Address> pool;
  for (Address a = 0x0010; pool.size() < 96; ++a) {
    if (a != kSelf) pool.push_back(a);
  }
  return pool;
}

struct History {
  Rng rng;
  std::uint8_t max_metric;
  std::vector<Address> pool = address_pool();
  std::int64_t clock_s = 0;
  double well_formed = 0.75;  // share of beacons in strict address order

  Address pick() { return pool[rng.index(pool.size())]; }
  Address neighbor() { return pool[rng.index(8)]; }
  Role role() { return static_cast<Role>(rng.index(4)); }

  std::uint8_t metric() {
    if (rng.bernoulli(0.05)) return static_cast<std::uint8_t>(max_metric + rng.index(3));
    return static_cast<std::uint8_t>(rng.uniform_int(1, max_metric - 1));
  }

  // Mostly forward, sometimes a skewed node clock that runs backwards.
  TimePoint now() {
    clock_s += rng.bernoulli(0.1) ? -rng.uniform_int(0, 400) : rng.uniform_int(0, 120);
    return TimePoint::origin() + Duration::seconds(clock_s + 10'000);
  }

  std::vector<RoutingEntry> beacon(Address sender) {
    std::vector<RoutingEntry> entries;
    const std::size_t n = rng.index(kMaxRoutingEntries + 1);
    for (std::size_t i = 0; i < n; ++i) entries.push_back({pick(), metric(), role()});
    if (rng.bernoulli(0.5)) entries.push_back({sender, 0, role()});  // self entry
    const double kind = rng.uniform();
    if (kind < 0.05) {
      entries.push_back({pick(), 0, role()});  // spoofed metric-0 claim
      entries.push_back({kSelf, 1, role()});
      entries.push_back({kBroadcast, 1, role()});
      entries.push_back({kUnassigned, 1, role()});
    }
    if (kind < well_formed) {
      // Well-formed: address order, one entry per address, as sent by
      // RoutingTable::advertisement().
      std::sort(entries.begin(), entries.end(),
                [](const RoutingEntry& a, const RoutingEntry& b) {
                  return a.address < b.address;
                });
      entries.erase(std::unique(entries.begin(), entries.end(),
                                [](const RoutingEntry& a, const RoutingEntry& b) {
                                  return a.address == b.address;
                                }),
                    entries.end());
    } else if (kind < well_formed + 0.6 * (1 - well_formed)) {
      // Sorted with duplicates left in (one address, several metrics).
      std::stable_sort(entries.begin(), entries.end(),
                       [](const RoutingEntry& a, const RoutingEntry& b) {
                         return a.address < b.address;
                       });
    }  // else: arbitrary order
    return entries;
  }
};

std::string describe(const std::vector<RouteEntry>& seq) {
  std::string out;
  for (const RouteEntry& e : seq) {
    out += to_string(e.destination) + "/" + to_string(e.via) + "/" +
           std::to_string(e.metric) + " ";
  }
  return out;
}

// How often a history reached the paths worth differencing.
struct Coverage {
  int truncated = 0;    // advertisements cut to one frame
  int capped = 0;       // ... cut to a smaller cap
  int expired = 0;      // sweeps that removed something
  int cascaded = 0;     // ... more than their lapsed entries alone
  int withdrawals = 0;  // beacons that shrank the table
};

void run_history(std::uint64_t seed, std::uint8_t max_metric, int steps,
                 Coverage& seen) {
  History h{Rng(seed), max_metric};
  Rng caps(seed ^ 0xCA9);  // its own stream: the histories stay as they were
  RoutingTable table(kSelf, kTimeout, max_metric);
  ReferenceTable ref(kSelf, kTimeout, max_metric);
  std::vector<RouteEntry> notified;
  table.set_observer([&](const RouteEntry& e) { notified.push_back(e); });

  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " step " + std::to_string(step));
    TimePoint now = h.now();
    const double op = h.rng.uniform();
    if (op < 0.45) {
      const Address sender = h.neighbor();
      const auto entries = h.beacon(sender);
      const std::size_t before = ref.size();
      ASSERT_EQ(table.apply_beacon(sender, entries, now),
                ref.apply_beacon(sender, entries, now));
      if (ref.size() < before) seen.withdrawals++;
    } else if (op < 0.6) {
      const Address dst = h.pick();
      const Address via = h.rng.bernoulli(0.3) ? dst : h.neighbor();
      const std::uint8_t metric = static_cast<std::uint8_t>(h.rng.uniform_int(1, 20));
      const Role role = h.role();
      ASSERT_EQ(table.upsert(dst, via, metric, role, now),
                ref.upsert(dst, via, metric, role, now));
    } else if (op < 0.7) {
      const Address dst = h.pick();
      ASSERT_EQ(table.invalidate(dst), ref.invalidate(dst));
    } else if (op < 0.8) {
      const Address dst = h.pick();
      ASSERT_EQ(table.touch(dst, now), ref.touch(dst, now));
    } else {
      // Half the sweeps probe exactly the earliest deadline: a skipped sweep
      // there means the table lost track of when its next entry lapses.
      const auto earliest = ref.earliest_deadline();
      if (earliest && h.rng.bernoulli(0.5)) now = *earliest;
      const std::size_t lapsed = static_cast<std::size_t>(std::count_if(
          table.entries().begin(), table.entries().end(),
          [now](const RouteEntry& e) { return e.expires_at <= now; }));
      const std::size_t removed = table.expire(now);
      ASSERT_EQ(removed, ref.expire(now));
      if (removed > 0) seen.expired++;
      if (removed > lapsed) seen.cascaded++;
    }
    if (ref.size() + 1 > kMaxRoutingEntries) seen.truncated++;

    ASSERT_EQ(table.size(), ref.size());
    for (const Address a : h.pool) {
      ASSERT_EQ(table.route_to(a), ref.route_to(a)) << to_string(a);
    }
    ASSERT_FALSE(table.route_to(kSelf).has_value());
    const auto adv = table.advertisement();
    ASSERT_EQ(std::vector<RoutingEntry>(adv.begin(), adv.end()), ref.advertisement());
    const std::size_t cap = 1 + caps.index(kMaxRoutingEntries);
    if (ref.size() + 1 > cap) seen.capped++;
    const auto capped = table.advertisement(cap);
    ASSERT_EQ(std::vector<RoutingEntry>(capped.begin(), capped.end()),
              ref.advertisement(cap))
        << "cap " << cap;
    ASSERT_EQ(notified, ref.notified) << "table: " << describe(notified)
                                      << "\nreference: " << describe(ref.notified);
  }
}

void expect_covered(const Coverage& seen) {
  EXPECT_GT(seen.truncated, 0);
  EXPECT_GT(seen.capped, 0);
  EXPECT_GT(seen.expired, 0);
  EXPECT_GT(seen.cascaded, 0);
  EXPECT_GT(seen.withdrawals, 0);
}

bool strictly_ascending(const std::vector<RoutingEntry>& entries) {
  return std::ranges::adjacent_find(entries, [](const auto& a, const auto& b) {
           return a.address >= b.address;
         }) == entries.end();
}

// Everything observable about the table. route_to() and entries() write
// out owed deadlines, so they read a copy and the table keeps its owed
// deadlines into the next step; has_route() and next_hop() read no deadline.
void expect_same_state(const RoutingTable& table, const ReferenceTable& ref,
                       const std::vector<Address>& pool) {
  ASSERT_EQ(table.next_expiry().us(), ref.next_expiry().us());
  ASSERT_EQ(table.size(), ref.size());
  const auto adv = table.advertisement();
  ASSERT_EQ(std::vector<RoutingEntry>(adv.begin(), adv.end()), ref.advertisement());
  const RoutingTable view = table;
  for (const Address a : pool) {
    const auto got = view.route_to(a);
    const auto want = ref.route_to(a);
    ASSERT_EQ(got, want) << to_string(a);
    if (got) {
      ASSERT_EQ(got->expires_at.us(), want->expires_at.us()) << to_string(a);
    }
    ASSERT_EQ(table.has_route(a), want.has_value()) << to_string(a);
    ASSERT_EQ(table.next_hop(a), want ? std::optional(want->via) : std::nullopt)
        << to_string(a);
  }
  const std::vector<RouteEntry> want = ref.sorted();
  ASSERT_EQ(view.entries().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const RouteEntry& got = view.entries()[i];
    ASSERT_EQ(got, want[i]) << to_string(want[i].destination);
    ASSERT_EQ(got.expires_at.us(), want[i].expires_at.us())
        << to_string(want[i].destination);
  }
}

struct RepeatCoverage {
  int beacons = 0;
  int fast = 0;              // answered from the memo
  int refused = 0;           // crafted repeats that had to run the merge
  int mutated_owing = 0;     // mutations right after a fast-path beacon
  int restored = 0;
};

// Mostly re-sends each neighbour's previous beacon with its content id, the
// converged steady state, interleaved with every other mutation and read.
void run_repeat_history(std::uint64_t seed, std::uint8_t max_metric, int steps,
                        RepeatCoverage& seen) {
  History h{Rng(seed), max_metric};
  h.well_formed = 0.95;
  RoutingTable table(kSelf, kTimeout, max_metric);
  ReferenceTable ref(kSelf, kTimeout, max_metric);
  std::vector<RouteEntry> notified;
  table.set_observer([&](const RouteEntry& e) { notified.push_back(e); });
  struct Sent {
    std::vector<RoutingEntry> entries;
    std::uint32_t id = 0;
  };
  std::map<Address, Sent> last;  // each neighbour's previous beacon
  std::uint32_t next_id = 1;
  bool owing = false;  // the previous step took the fast path

  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " step " + std::to_string(step));
    TimePoint now = h.now();
    const double op = h.rng.uniform();
    const bool mutation = op >= 0.82 && op < 0.97;
    if (mutation && owing) seen.mutated_owing++;
    owing = false;
    if (op < 0.82) {
      const Address sender = h.neighbor();
      auto it = last.find(sender);
      const bool repeat = it != last.end() && op < 0.78;
      if (!repeat) {
        Sent fresh{h.beacon(sender), h.rng.bernoulli(0.1) ? 0 : next_id++};
        it = last.insert_or_assign(sender, std::move(fresh)).first;
      }
      const Sent& sent = it->second;
      const std::uint64_t hits = table.repeated_beacons();
      ASSERT_EQ(table.apply_beacon(sender, sent.entries, now, sent.id),
                ref.apply_beacon(sender, sent.entries, now));
      seen.beacons++;
      if (table.repeated_beacons() != hits) {
        ASSERT_EQ(table.repeated_beacons(), hits + 1);
        ASSERT_TRUE(repeat) << "a fresh id took the fast path";
        ASSERT_NE(sent.id, 0u);
        ASSERT_TRUE(strictly_ascending(sent.entries)) << "crafted beacon memoized";
        seen.fast++;
        owing = true;
      } else if (repeat && !strictly_ascending(sent.entries)) {
        seen.refused++;
      }
    } else if (op < 0.84) {
      const Address dst = h.pick();
      const Address via = h.rng.bernoulli(0.3) ? dst : h.neighbor();
      const std::uint8_t metric = static_cast<std::uint8_t>(h.rng.uniform_int(1, 20));
      const Role role = h.role();
      ASSERT_EQ(table.upsert(dst, via, metric, role, now),
                ref.upsert(dst, via, metric, role, now));
    } else if (op < 0.85) {
      const Address dst = h.pick();
      ASSERT_EQ(table.invalidate(dst), ref.invalidate(dst));
    } else if (op < 0.91) {
      const Address dst = h.pick();
      ASSERT_EQ(table.touch(dst, now), ref.touch(dst, now));
    } else if (op < 0.97) {
      const auto earliest = ref.earliest_deadline();
      if (earliest && h.rng.bernoulli(0.5)) now = *earliest;
      ASSERT_EQ(table.expire(now), ref.expire(now));
    } else if (op < 0.99) {
      ASSERT_EQ(table.serialize(now), ref.serialize(now));
    } else {
      // Warm boot: snapshot, lose everything, restore after some downtime.
      const auto snapshot = table.serialize(now);
      ASSERT_EQ(snapshot, ref.serialize(now));
      const TimePoint end_of_time = TimePoint::origin() + Duration::hours(100'000);
      ASSERT_EQ(table.expire(end_of_time), ref.expire(end_of_time));
      ASSERT_EQ(table.size(), 0u);
      const Duration downtime = Duration::seconds(h.rng.uniform_int(0, 300));
      ASSERT_TRUE(table.restore(snapshot, now, downtime));
      ref.restore(snapshot, now, downtime);
      seen.restored++;
    }
    ASSERT_EQ(notified, ref.notified) << "table: " << describe(notified)
                                      << "\nreference: " << describe(ref.notified);
    ASSERT_NO_FATAL_FAILURE(expect_same_state(table, ref, h.pool));
  }
}

TEST(RoutingTableOracle, AgreesWithReferenceThroughRandomHistories) {
  Coverage seen;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    run_history(seed, kInfiniteMetric, 300, seen);
    if (HasFatalFailure()) return;
  }
  expect_covered(seen);
}

TEST(RoutingTableOracle, AgreesWithSmallMetricCeiling) {
  // A low ceiling makes saturation, withdrawal and clamping common.
  Coverage seen;
  for (std::uint64_t seed = 101; seed <= 120; ++seed) {
    run_history(seed, 4, 300, seen);
    if (HasFatalFailure()) return;
  }
  expect_covered(seen);
}

TEST(RoutingTableOracle, RepeatedBeaconsMatchTheFullMerge) {
  RepeatCoverage seen;
  std::uint64_t seed = 201;
  for (const std::uint8_t max_metric : {kInfiniteMetric, std::uint8_t{4}}) {
    for (int i = 0; i < 20; ++i, ++seed) {
      run_repeat_history(seed, max_metric, 400, seen);
      if (HasFatalFailure()) return;
    }
  }
  // The memo must carry a good share of the beacons (each mutation and fresh
  // beacon resets it), and every path around it must run.
  EXPECT_GT(seen.fast, seen.beacons / 8);
  EXPECT_GT(seen.refused, 0);
  EXPECT_GT(seen.mutated_owing, 0);
  EXPECT_GT(seen.restored, 0);
}

TEST(RoutingTableOracle, CraftedBeaconsNeverTakeTheFastPath) {
  constexpr Address kN = 0x0011;
  const std::vector<std::vector<RoutingEntry>> crafted = {
      {{kN, 0}, {0x0030, 2}, {0x0020, 3}},               // descending tail
      {{kN, 0}, {0x0020, 2}, {0x0020, 2}},               // duplicate address
      {{0x0020, 2}, {kN, 0}, {0x0030, 1}, {0x0020, 2}},  // address revisited
  };
  RoutingTable table(kSelf, kTimeout);
  ReferenceTable ref(kSelf, kTimeout, kInfiniteMetric);
  std::uint32_t id = 1;
  int second = 0;
  for (const auto& beacon : crafted) {
    for (int repeat = 0; repeat < 3; ++repeat, ++second) {
      const TimePoint now = TimePoint::origin() + Duration::seconds(second);
      ASSERT_EQ(table.apply_beacon(kN, beacon, now, id),
                ref.apply_beacon(kN, beacon, now));
      ASSERT_NO_FATAL_FAILURE(expect_same_state(table, ref, address_pool()));
    }
    ++id;
  }
  EXPECT_EQ(table.repeated_beacons(), 0u);

  // The same routes sent in address order: the second copy arms the memo,
  // the third is answered from it.
  const std::vector<RoutingEntry> sorted = {{kN, 0}, {0x0021, 2}, {0x0031, 1}};
  for (int repeat = 0; repeat < 3; ++repeat, ++second) {
    const TimePoint now = TimePoint::origin() + Duration::seconds(second);
    ASSERT_EQ(table.apply_beacon(kN, sorted, now, id),
              ref.apply_beacon(kN, sorted, now));
    ASSERT_NO_FATAL_FAILURE(expect_same_state(table, ref, address_pool()));
  }
  EXPECT_EQ(table.repeated_beacons(), 1u);
}

// A no-op merge arms the memo only when its id repeats the neighbour's
// previous one, so an id seen once costs no marks.
TEST(RoutingTableOracle, MemoArmsOnTheSecondBeaconOfAnId) {
  constexpr Address kN = 0x0011;
  const std::vector<RoutingEntry> beacon = {{kN, 0}, {0x0021, 2}, {0x0031, 1}};
  RoutingTable table(kSelf, kTimeout);
  ReferenceTable ref(kSelf, kTimeout, kInfiniteMetric);
  // Id 1 installs the routes; id 2 carries the same entries and changes
  // nothing on its first copy, arms the memo on its second and hits on its
  // third; id 3 starts over.
  const std::uint32_t ids[] = {1, 2, 2, 2, 3, 3, 3, 3};
  const std::uint64_t hits_after[] = {0, 0, 0, 1, 1, 1, 2, 3};
  for (std::size_t i = 0; i < std::size(ids); ++i) {
    const TimePoint now = TimePoint::origin() + Duration::seconds(static_cast<std::int64_t>(i));
    ASSERT_EQ(table.apply_beacon(kN, beacon, now, ids[i]),
              ref.apply_beacon(kN, beacon, now));
    ASSERT_NO_FATAL_FAILURE(expect_same_state(table, ref, address_pool()));
    EXPECT_EQ(table.repeated_beacons(), hits_after[i]) << "beacon " << i;
  }
}

}  // namespace
}  // namespace lm::net
