// Distance-vector routing table — the heart of LoRaMesher.
//
// Every node periodically broadcasts its table as (destination, metric)
// pairs. A receiver (a) learns the sender as a 1-hop neighbor, and (b) runs
// the distributed Bellman-Ford update on each advertised entry: adopt a
// route when it is new or strictly better, and always follow the current
// next hop's own advertisement (even when it got worse) so bad news
// propagates. Convergence pathologies are bounded RIP-style: metrics
// saturate at kInfiniteMetric (treated as unreachable) and every entry
// carries a hold timer refreshed only by its own next hop, so silent
// neighbors age out together with everything learned through them.
// Storage is one destination-sorted vector: beacons (sent in address order)
// merge into it with one forward cursor, and advertisement() needs no sort.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/address.h"
#include "net/packet.h"
#include "support/time.h"

namespace lm::net {

/// Metric value meaning "unreachable" (RIP-style bounded infinity). With
/// hop-count metrics this also caps usable path length.
constexpr std::uint8_t kInfiniteMetric = 16;

struct RouteEntry {
  Address destination = kUnassigned;
  Address via = kUnassigned;  // next hop (a 1-hop neighbor)
  std::uint8_t metric = 0;    // hop count to destination
  Role role = roles::kNone;   // the destination's advertised role
  TimePoint expires_at;       // refreshed by advertisements from `via`

  friend bool operator==(const RouteEntry& a, const RouteEntry& b) {
    return a.destination == b.destination && a.via == b.via &&
           a.metric == b.metric && a.role == b.role;
  }
};

class RoutingTable {
 public:
  /// `self` is never stored as a destination; `route_timeout` is the hold
  /// time granted on each refresh; `own_role` is advertised with every
  /// beacon via the metric-0 self entry.
  RoutingTable(Address self, Duration route_timeout,
               std::uint8_t max_metric = kInfiniteMetric,
               Role own_role = roles::kNone);

  /// Applies one received beacon from `neighbor` (the frame's link source).
  /// Returns true when any entry was added, removed, or changed.
  bool apply_beacon(Address neighbor, std::span<const RoutingEntry> entries,
                    TimePoint now);
  bool apply_beacon(Address neighbor, std::initializer_list<RoutingEntry> entries,
                    TimePoint now) {
    return apply_beacon(
        neighbor, std::span<const RoutingEntry>(entries.begin(), entries.size()),
        now);
  }

  /// Strategy-directed route install (AODV reverse/forward routes, tree
  /// parent and backward-learned routes): adopts (via, metric, role)
  /// unconditionally — the caller, not Bellman-Ford, owns the policy — and
  /// refreshes the hold timer. Metrics saturating at max_metric are clamped
  /// to max_metric - 1 so the installed route stays usable. Fires the
  /// observer when the (destination, via) pairing is new. Returns true when
  /// anything beyond the hold timer changed.
  bool upsert(Address destination, Address via, std::uint8_t metric,
              Role role, TimePoint now);

  /// Drops the entry for `destination` immediately (RERR handling, broken
  /// next hop). Returns whether an entry was removed.
  bool invalidate(Address destination);

  /// Refreshes the hold timer of an existing route — "route in active use"
  /// semantics (AODV keeps a route alive only while data flows over it).
  /// Returns whether the destination was known.
  bool touch(Address destination, TimePoint now);

  /// Removes lapsed entries and, to a fixed point, routes whose next hop is
  /// gone. Returns how many; O(1) while `now` is before every deadline.
  std::size_t expire(TimePoint now);

  /// Lower bound on every entry's deadline: expire(now) is a no-op for any
  /// `now` below it. It never decreases while the table is non-empty —
  /// every deadline written is `now + route_timeout`, which is no earlier
  /// than any existing one (restore only fills an empty table) — so a timer
  /// armed for it cannot fire too late.
  TimePoint next_expiry() const { return next_expiry_; }

  /// Full route lookup. nullopt when the destination is unknown.
  std::optional<RouteEntry> route_to(Address destination) const;

  /// Next hop toward `destination`, if known.
  std::optional<Address> next_hop(Address destination) const;

  bool has_route(Address destination) const { return route_to(destination).has_value(); }

  /// All known destinations whose role matches every bit of `role_mask`.
  std::vector<RouteEntry> routes_with_role(Role role_mask) const;

  /// The closest destination carrying all bits of `role_mask` — e.g. the
  /// nearest gateway. Ties break toward the lower address (deterministic).
  std::optional<RouteEntry> nearest_with_role(Role role_mask) const;

  Role own_role() const { return own_role_; }

  /// Entries to advertise in the next beacon: a metric-0 self entry (which
  /// carries this node's role) plus (destination, metric, role) tuples, all
  /// in address order, truncated to what one frame can carry (the
  /// lowest-(metric, address) — nearest — destinations win when truncating,
  /// keeping the most reliable information flowing). Pool-backed so the
  /// periodic beacon path recycles its storage.
  support::PooledVector<RoutingEntry> advertisement() const;

  /// Every stored route, sorted by destination.
  const std::vector<RouteEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  Address self() const { return self_; }

  /// Multi-line human-readable dump (demo output).
  std::string to_string() const;

  /// Called whenever a route gains a (destination, via) pairing it did not
  /// hold before — adoption, next-hop switch, or warm-boot restore. Used by
  /// the flight recorder; withdrawals and expiry are not reported.
  void set_observer(std::function<void(const RouteEntry&)> observer) {
    observer_ = std::move(observer);
  }

  // --- Warm-boot snapshot ------------------------------------------------------
  /// Serializes the table (destination, via, metric, role, remaining
  /// lifetime) relative to `now` — the bytes a device would keep in flash
  /// across a reboot.
  std::vector<std::uint8_t> serialize(TimePoint now) const;

  /// Restores a snapshot into an empty table, re-basing lifetimes on `now`
  /// minus `downtime` already elapsed (entries whose lifetime lapsed are
  /// skipped). Returns false — leaving the table unchanged — on malformed
  /// input, including two live entries for one destination. Requires the
  /// table to be empty.
  bool restore(std::span<const std::uint8_t> snapshot, TimePoint now,
               Duration downtime = Duration::zero());

 private:
  std::vector<RouteEntry>::iterator lower_bound(Address destination) {
    return std::ranges::lower_bound(entries_, destination, {},
                                    &RouteEntry::destination);
  }
  RouteEntry* find(Address destination);
  const RouteEntry* find(Address destination) const;

  void notify(const RouteEntry& entry) {
    if (observer_) observer_(entry);
  }

  Address self_;
  Duration route_timeout_;
  std::function<void(const RouteEntry&)> observer_;
  std::uint8_t max_metric_;
  Role own_role_;
  std::vector<RouteEntry> entries_;  // sorted by destination, no duplicates
  // Lower bound on every expires_at: an idle expire() is one comparison.
  // Each deadline write lowers it; a postponing refresh leaves it loose,
  // costing one real sweep, which recomputes it exactly.
  TimePoint next_expiry_ = TimePoint::max();
};

}  // namespace lm::net
