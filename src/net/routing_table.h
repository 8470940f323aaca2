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
//
// Converged neighbours re-send byte-identical beacons, and merging one into
// a table that has not changed since that neighbour's previous beacon
// changes nothing again. So each neighbour whose beacons carry a content id
// (net/link_layer.h decode_shared) has a memo holding its last id. When the
// same id arrives twice in a row with strictly ascending addresses, the
// merge marks each entry whose hold timer it refreshes, and if it changed
// nothing the memo is armed. The same id from that neighbour then only
// records the deadline the marked entries are owed. Any insert, erase or
// change of via, metric or role disarms every memo and bumps generation(),
// which the sender's beacon cache keys on (DESIGN.md, "Beacon send path").
// Owed deadlines are
// written out before any structural change, touch(), an expire() sweep and
// any read of a deadline (route_to(), entries(), serialize(),
// routes_with_role()). Results, observer calls, deadlines and next_expiry()
// are exactly those of the full merge (DESIGN.md, "Beacon receive path").
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
  /// `content_id` is RoutingPacket::content_id (0: unknown); a repeat of
  /// the neighbour's last no-op beacon costs O(neighbours), not a merge.
  bool apply_beacon(Address neighbor, std::span<const RoutingEntry> entries,
                    TimePoint now, std::uint32_t content_id = 0);
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

  bool has_route(Address destination) const { return usable(destination) != nullptr; }

  /// All known destinations whose role matches every bit of `role_mask`.
  std::vector<RouteEntry> routes_with_role(Role role_mask) const;

  /// The closest destination carrying all bits of `role_mask` — e.g. the
  /// nearest gateway. Ties break toward the lower address (deterministic).
  std::optional<RouteEntry> nearest_with_role(Role role_mask) const;

  Role own_role() const { return own_role_; }

  /// Entries to advertise in the next beacon: a metric-0 self entry (which
  /// carries this node's role) plus (destination, metric, role) tuples, all
  /// in address order, at most `max_entries` of them (1 to
  /// kMaxRoutingEntries; a dwell-capped frame carries fewer). When
  /// truncating, the self entry is always kept and the other slots go to
  /// the lowest-(metric, address) — nearest — destinations, keeping the
  /// most reliable information flowing. Pool-backed so the periodic beacon
  /// path recycles its storage.
  support::PooledVector<RoutingEntry> advertisement(
      std::size_t max_entries = kMaxRoutingEntries) const;

  /// Bumped by every insert, erase and change of via, metric or role: the
  /// events that can change advertisement(). Deadline writes (touch(),
  /// refreshes, owed deadlines) and memo hits leave it alone.
  std::uint64_t generation() const { return generation_; }

  /// Every stored route, sorted by destination.
  const std::vector<RouteEntry>& entries() const {
    flush();
    return entries_;
  }
  std::size_t size() const { return entries_.size(); }
  Address self() const { return self_; }

  /// Multi-line human-readable dump (demo output).
  std::string to_string() const;

  /// Beacons answered from the repeat memo instead of a merge (tests).
  std::uint64_t repeated_beacons() const { return repeated_beacons_; }

  /// A beacon answered from the memo reads and writes only the table's
  /// first kReceiveHotBytes and the memo list (two lines for eight
  /// neighbours).
  static constexpr std::size_t kReceiveHotBytes = 48;
  /// Where the memos live: room for eight neighbours is reserved up front,
  /// so the address stays put unless a node hears more.
  const void* memo_storage() const { return memos_.data(); }

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
  // The entry for `destination` when its metric is below max_metric. Reads
  // no deadline, so it needs no flush.
  const RouteEntry* usable(Address destination) const;

  void notify(const RouteEntry& entry) {
    if (observer_) observer_(entry);
  }

  // A neighbour's last beacon id. Armed: a merge of it changed nothing and
  // memo_bits_of() marks the entries it refreshed.
  struct BeaconMemo {
    TimePoint owed;  // deadline not yet written to them; max(): none
    std::uint32_t content_id;
    Address neighbor;
    bool armed;
  };
  // While any memo is armed the table keeps its size, so each memo owns a
  // fixed run of words in memo_bits_, one bit per entry.
  std::size_t memo_words() const { return (entries_.size() + 63) / 64; }
  std::span<std::uint64_t> memo_bits_of(const BeaconMemo& memo) {
    const std::size_t words = memo_words();
    return std::span(memo_bits_).subspan(
        static_cast<std::size_t>(&memo - memos_.data()) * words, words);
  }
  std::span<const std::uint64_t> memo_bits_of(const BeaconMemo& memo) const {
    return const_cast<RoutingTable*>(this)->memo_bits_of(memo);
  }

  // Writes every owed deadline into entries_.
  void flush() const {
    if (owed_) write_owed();
  }
  void write_owed() const;
  static bool strictly_ascending(std::span<const RoutingEntry> entries);
  BeaconMemo& memo_of(Address neighbor);  // appends one if none
  std::span<std::uint64_t> clear_marks(const BeaconMemo& memo);
  // Every insert, erase or change of via, metric or role calls this: it
  // disarms every memo and bumps generation_.
  void note_change();

  // Receive-hot head, through the memo list's begin and end pointers
  // (kReceiveHotBytes, pinned in routing_table.cpp): what a beacon
  // answered from the memo touches.
  Address self_;
  std::uint8_t max_metric_;
  Role own_role_;
  mutable bool owed_ = false;  // some armed memo has an owed deadline
  Duration route_timeout_;
  // Lower bound on every expires_at: an idle expire() is one comparison.
  // Each deadline write lowers it; a postponing refresh leaves it loose,
  // costing one real sweep, which recomputes it exactly.
  TimePoint next_expiry_ = TimePoint::max();
  std::uint64_t repeated_beacons_ = 0;
  // Armed memos are valid for the current (destination, via, metric, role)
  // contents, so entry indices are stable while any is armed. A no-op merge
  // refreshes only routes via its sender, so no entry is marked twice.
  // expire() drops the memos of neighbours no longer in the table.
  mutable std::vector<BeaconMemo> memos_;

  std::function<void(const RouteEntry&)> observer_;
  // Sorted by destination, no duplicates. Mutable: const readers write out
  // owed deadlines first.
  mutable std::vector<RouteEntry> entries_;
  std::vector<std::uint64_t> memo_bits_;
  // Outside the receive-hot head: only changes and the beacon send read it.
  std::uint64_t generation_ = 0;
};

}  // namespace lm::net
