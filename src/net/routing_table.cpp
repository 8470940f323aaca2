#include "net/routing_table.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdio>

#include "support/assert.h"
#include "support/byte_codec.h"

namespace lm::net {

namespace {
// Neighbours whose memos fit the list's first block: the eight grid
// neighbours of a dense field.
constexpr std::size_t kMemoReserve = 8;
}  // namespace

RoutingTable::RoutingTable(Address self, Duration route_timeout,
                           std::uint8_t max_metric, Role own_role)
    : self_(self),
      max_metric_(max_metric),
      own_role_(own_role),
      route_timeout_(route_timeout) {
  LM_REQUIRE(self != kUnassigned && self != kBroadcast);
  LM_REQUIRE(route_timeout > Duration::zero());
  LM_REQUIRE(max_metric >= 2);
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Winvalid-offsetof"
  // The memo list's begin and end pointers lead std::vector.
  static_assert(offsetof(RoutingTable, memos_) + 2 * sizeof(void*) <=
                kReceiveHotBytes);
  static_assert(offsetof(RoutingTable, repeated_beacons_) < kReceiveHotBytes);
#pragma GCC diagnostic pop
  memos_.reserve(kMemoReserve);
}

RouteEntry* RoutingTable::find(Address destination) {
  const auto it = lower_bound(destination);
  return it != entries_.end() && it->destination == destination ? &*it : nullptr;
}

const RouteEntry* RoutingTable::find(Address destination) const {
  return const_cast<RoutingTable*>(this)->find(destination);
}

bool RoutingTable::apply_beacon(Address neighbor,
                                std::span<const RoutingEntry> entries,
                                TimePoint now, std::uint32_t content_id) {
  LM_REQUIRE(neighbor != kBroadcast && neighbor != kUnassigned);
  if (neighbor == self_) return false;  // own beacon echoed back — ignore
  bool changed = false;
  const TimePoint deadline = now + route_timeout_;
  next_expiry_ = std::min(next_expiry_, deadline);

  BeaconMemo* memo = nullptr;
  if (content_id != 0) {
    memo = &memo_of(neighbor);
    if (memo->armed && memo->content_id == content_id) {
      // The neighbour's last no-op beacon again, on an unchanged table: the
      // merge below would change nothing and refresh exactly the marked
      // entries, so only owe them the deadline.
      memo->owed = deadline;
      owed_ = true;
      ++repeated_beacons_;
      return false;
    }
  }
  flush();
  // The entries this merge refreshes are marked only on the second beacon
  // in a row with one id, so a sender whose beacons keep changing never
  // pays for marks. Marking stops at the first change.
  bool marking = false;
  std::span<std::uint64_t> marks;
  if (memo != nullptr) {
    marking = memo->content_id == content_id;
    memo->content_id = content_id;
    memo->armed = false;
    if (marking) marks = clear_marks(*memo);
  }
  const auto mark = [&marks](std::size_t i) {
    marks[i / 64] |= std::uint64_t{1} << (i % 64);
  };

  // (a) The sender itself is a 1-hop neighbor. Its role arrives with its
  // metric-0 self entry in step (b); keep whatever we know meanwhile.
  auto direct = lower_bound(neighbor);
  if (direct == entries_.end() || direct->destination != neighbor) {
    direct = entries_.insert(direct, {neighbor, neighbor, 1, roles::kNone, deadline});
    changed = true;
    notify(*direct);
  } else if (direct->metric != 1 || direct->via != neighbor) {
    direct->metric = 1;
    direct->via = neighbor;
    changed = true;
    notify(*direct);
  }
  direct->expires_at = deadline;
  if (marking && !changed) mark(static_cast<std::size_t>(direct - entries_.begin()));

  // (b) Bellman-Ford on the advertised entries. The sender's own metric-0
  // entry lands here too (adv.address == neighbor): it refreshes the direct
  // route and carries the sender's role. Beacons list addresses in
  // ascending order, so one forward cursor walks the table alongside them;
  // it rewinds only when an address does not ascend (a crafted frame).
  std::size_t cursor = 0;
  for (const RoutingEntry& adv : entries) {
    if (adv.address == self_ || adv.address == kBroadcast ||
        adv.address == kUnassigned) {
      continue;
    }
    // Only the sender may claim metric 0 (its self entry); a zero metric
    // for anyone else is a malformed or spoofed advertisement.
    if (adv.metric == 0 && adv.address != neighbor) continue;
    const std::uint8_t candidate = static_cast<std::uint8_t>(
        std::min<int>(adv.metric + 1, max_metric_));
    if (cursor > 0 && entries_[cursor - 1].destination >= adv.address) cursor = 0;
    while (cursor < entries_.size() && entries_[cursor].destination < adv.address) {
      ++cursor;
    }
    const auto cur = entries_.begin() + static_cast<std::ptrdiff_t>(cursor);
    if (cur == entries_.end() || cur->destination != adv.address) {
      if (candidate < max_metric_) {
        notify(*entries_.insert(
            cur, {adv.address, neighbor, candidate, adv.role, deadline}));
        changed = true;
      }
      continue;
    }
    if (cur->via == neighbor) {
      // Our next hop re-advertised the route: follow it unconditionally
      // (bad news must stick), withdrawing on saturation.
      if (candidate >= max_metric_ && adv.address != neighbor) {
        entries_.erase(cur);
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
      if (marking && !changed) mark(cursor);
    } else if (candidate < cur->metric) {
      cur->via = neighbor;
      cur->metric = candidate;
      cur->role = adv.role;
      cur->expires_at = deadline;
      changed = true;
      notify(*cur);
    }
  }
  if (changed) {
    note_change();
  } else if (marking && strictly_ascending(entries)) {  // crafted frames never arm
    memo->armed = true;
  }
  return changed;
}

bool RoutingTable::strictly_ascending(std::span<const RoutingEntry> entries) {
  return std::ranges::adjacent_find(entries, [](const auto& a, const auto& b) {
           return a.address >= b.address;
         }) == entries.end();
}

RoutingTable::BeaconMemo& RoutingTable::memo_of(Address neighbor) {
  for (BeaconMemo& memo : memos_) {
    if (memo.neighbor == neighbor) return memo;
  }
  return memos_.emplace_back(BeaconMemo{TimePoint::max(), 0, neighbor, false});
}

std::span<std::uint64_t> RoutingTable::clear_marks(const BeaconMemo& memo) {
  // Armed memos imply an unchanged table size, so growing the vector
  // keeps their runs in place.
  memo_bits_.resize(memos_.size() * memo_words());
  const std::span<std::uint64_t> bits = memo_bits_of(memo);
  std::ranges::fill(bits, 0);
  return bits;
}

void RoutingTable::note_change() {
  LM_ASSERT(!owed_);
  for (BeaconMemo& memo : memos_) memo.armed = false;
  ++generation_;
}

void RoutingTable::write_owed() const {
  for (BeaconMemo& memo : memos_) {
    if (memo.owed == TimePoint::max()) continue;
    const std::span<const std::uint64_t> bits = memo_bits_of(memo);
    for (std::size_t w = 0; w < bits.size(); ++w) {
      for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
        entries_[w * 64 + static_cast<std::size_t>(std::countr_zero(word))]
            .expires_at = memo.owed;
      }
    }
    memo.owed = TimePoint::max();
  }
  owed_ = false;
}

bool RoutingTable::upsert(Address destination, Address via,
                          std::uint8_t metric, Role role, TimePoint now) {
  LM_REQUIRE(destination != kBroadcast && destination != kUnassigned);
  LM_REQUIRE(via != kBroadcast && via != kUnassigned);
  LM_REQUIRE(metric >= 1);
  if (destination == self_) return false;
  metric = std::min<std::uint8_t>(metric, max_metric_ - 1);
  const TimePoint deadline = now + route_timeout_;
  next_expiry_ = std::min(next_expiry_, deadline);
  flush();
  const auto cur = lower_bound(destination);
  if (cur == entries_.end() || cur->destination != destination) {
    note_change();
    notify(*entries_.insert(cur, {destination, via, metric, role, deadline}));
    return true;
  }
  const bool new_pairing = cur->via != via;
  const bool changed = new_pairing || cur->metric != metric || cur->role != role;
  if (changed) note_change();
  cur->via = via;
  cur->metric = metric;
  cur->role = role;
  cur->expires_at = deadline;
  if (new_pairing) notify(*cur);
  return changed;
}

bool RoutingTable::invalidate(Address destination) {
  const auto at = lower_bound(destination);
  if (at == entries_.end() || at->destination != destination) return false;
  flush();
  note_change();
  entries_.erase(at);
  return true;
}

bool RoutingTable::touch(Address destination, TimePoint now) {
  RouteEntry* cur = find(destination);
  if (cur == nullptr) return false;
  flush();
  cur->expires_at = now + route_timeout_;
  next_expiry_ = std::min(next_expiry_, cur->expires_at);
  return true;
}

std::size_t RoutingTable::expire(TimePoint now) {
  if (now < next_expiry_) return 0;  // nothing can have lapsed yet
  flush();
  // Direct casualties: hold timer lapsed.
  std::size_t removed = std::erase_if(
      entries_, [now](const RouteEntry& e) { return e.expires_at <= now; });
  // Cascade: a route is only usable while its next hop is a live neighbor.
  // (Entries via a dead neighbor stop being refreshed and would lapse on
  // their own within one timeout; removing them now keeps the table
  // internally consistent — next_hop() never returns a vanished neighbor.)
  // Each pass marks against the table as it was before the pass (metric 0,
  // never stored, is the mark), then compacts, iterating to a fixed point.
  for (std::size_t cascade = removed; cascade != 0; removed += cascade) {
    for (RouteEntry& e : entries_) {
      if (e.via != e.destination && find(e.via) == nullptr) e.metric = 0;
    }
    cascade = std::erase_if(entries_, [](auto& e) { return e.metric == 0; });
  }
  if (removed != 0) {
    note_change();
    std::erase_if(memos_,
                  [this](const BeaconMemo& m) { return find(m.neighbor) == nullptr; });
  }
  next_expiry_ = TimePoint::max();
  for (const RouteEntry& e : entries_) {
    next_expiry_ = std::min(next_expiry_, e.expires_at);
  }
  return removed;
}

const RouteEntry* RoutingTable::usable(Address destination) const {
  const RouteEntry* e = find(destination);
  return e != nullptr && e->metric < max_metric_ ? e : nullptr;
}

std::optional<RouteEntry> RoutingTable::route_to(Address destination) const {
  const RouteEntry* e = usable(destination);
  if (e == nullptr) return std::nullopt;
  flush();
  return *e;
}

std::optional<Address> RoutingTable::next_hop(Address destination) const {
  const RouteEntry* e = usable(destination);
  if (e == nullptr) return std::nullopt;
  return e->via;
}

std::vector<RouteEntry> RoutingTable::routes_with_role(Role role_mask) const {
  flush();
  std::vector<RouteEntry> out;
  for (const RouteEntry& e : entries_) {
    if (e.metric < max_metric_ && (e.role & role_mask) == role_mask) {
      out.push_back(e);
    }
  }
  return out;
}

std::optional<RouteEntry> RoutingTable::nearest_with_role(Role role_mask) const {
  std::optional<RouteEntry> best;
  for (const RouteEntry& e : routes_with_role(role_mask)) {
    if (!best || e.metric < best->metric) best = e;  // ties keep the lower address
  }
  return best;
}

support::PooledVector<RoutingEntry> RoutingTable::advertisement(
    std::size_t max_entries) const {
  LM_REQUIRE(max_entries >= 1 && max_entries <= kMaxRoutingEntries);
  // The metric-0 self entry always makes the cut; the other slots go to the
  // lowest (metric, address) entries. A metric histogram finds the cut-off
  // metric; ties at the cut-off go to the lowest addresses, i.e. to the
  // first ones the address-ordered walk meets. Stored metrics lie in
  // [1, max_metric_], so only bins 0 to max_metric_ are zeroed, and the
  // cut-off search ends by max_metric_ because they sum to more than `room`.
  std::size_t room = max_entries - 1;
  std::size_t cutoff = 256;  // above every metric: no truncation
  if (entries_.size() > room) {
    std::array<std::uint32_t, 256> histogram;
    std::fill_n(histogram.begin(), max_metric_ + 1, 0);
    for (const RouteEntry& e : entries_) ++histogram[e.metric];
    for (cutoff = 0; histogram[cutoff] < room; ++cutoff) room -= histogram[cutoff];
  }
  support::PooledVector<RoutingEntry> adv;
  adv.reserve(std::min(entries_.size() + 1, max_entries));
  // The self entry goes in where the walk passes its address.
  const RoutingEntry own{self_, 0, own_role_};  // carries our role
  bool own_placed = false;
  for (const RouteEntry& e : entries_) {
    if (e.metric > cutoff || (e.metric == cutoff && room == 0)) continue;
    if (e.metric == cutoff) --room;
    if (!own_placed && e.destination > self_) {
      adv.push_back(own);
      own_placed = true;
    }
    adv.push_back(RoutingEntry{e.destination, e.metric, e.role});
  }
  if (!own_placed) adv.push_back(own);
  return adv;
}

namespace {
constexpr std::uint8_t kSnapshotVersion = 1;
}

std::vector<std::uint8_t> RoutingTable::serialize(TimePoint now) const {
  flush();
  ByteWriter w;
  w.u8(kSnapshotVersion);
  w.u16(self_);
  w.u16(static_cast<std::uint16_t>(entries_.size()));
  for (const RouteEntry& e : entries_) {
    w.u16(e.destination);
    w.u16(e.via);
    w.u8(e.metric);
    w.u8(e.role);
    const Duration remaining = e.expires_at - now;
    w.u32(static_cast<std::uint32_t>(
        std::max<std::int64_t>(0, remaining.ms())));
  }
  return w.take();
}

bool RoutingTable::restore(std::span<const std::uint8_t> snapshot, TimePoint now,
                           Duration downtime) {
  LM_REQUIRE(entries_.empty());
  LM_REQUIRE(!downtime.is_negative());
  ByteReader r(snapshot);
  if (r.u8() != kSnapshotVersion) return false;
  if (r.u16() != self_) return false;  // snapshot belongs to another node
  const std::uint16_t count = r.u16();
  std::vector<RouteEntry> restored;
  for (std::uint16_t i = 0; i < count; ++i) {
    RouteEntry e;
    e.destination = r.u16();
    e.via = r.u16();
    e.metric = r.u8();
    e.role = r.u8();
    const Duration remaining = Duration::milliseconds(r.u32()) - downtime;
    if (!r.ok()) return false;
    if (remaining <= Duration::zero()) continue;  // lapsed while powered off
    if (e.destination == self_ || e.destination == kBroadcast ||
        e.destination == kUnassigned || e.metric == 0 ||
        e.metric > max_metric_) {
      return false;  // corrupt snapshot: refuse it wholesale
    }
    e.expires_at = now + remaining;
    restored.push_back(e);
  }
  if (!r.exhausted()) return false;
  std::ranges::sort(restored, {}, &RouteEntry::destination);
  if (std::ranges::adjacent_find(restored, {}, &RouteEntry::destination) !=
      restored.end()) {
    return false;  // one destination listed twice: corrupt
  }
  note_change();
  entries_ = std::move(restored);
  for (const RouteEntry& e : entries_) {
    next_expiry_ = std::min(next_expiry_, e.expires_at);
    notify(e);
  }
  return true;
}

std::string RoutingTable::to_string() const {
  std::string out = "routing table of " + lm::net::to_string(self_) + " (" +
                    std::to_string(entries_.size()) + " entries)\n";
  char line[128];
  for (const RouteEntry& e : entries_) {
    std::snprintf(line, sizeof line, "  dst=%s via=%s metric=%u role=%s\n",
                  lm::net::to_string(e.destination).c_str(),
                  lm::net::to_string(e.via).c_str(), e.metric,
                  role_to_string(e.role).c_str());
    out += line;
  }
  return out;
}

}  // namespace lm::net
