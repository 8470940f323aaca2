// AodvStrategy — on-demand route discovery in the AODV style (LoRaMesher's
// "automatic route discovery" direction; SNIPPETS snippet 3).
//
// No periodic beacons: a node learns routes only when it needs them. An
// origination toward an unknown destination is refused (DropReason::NoRoute
// — on-demand semantics surface the acquisition delay to the application)
// and simultaneously kicks off a discovery: a TTL-bounded RouteRequest
// broadcast flood, duplicate-suppressed by (requester, rreq_id). Every
// relay that carries the RREQ installs a *reverse* route to the requester
// (via the link source, metric = accumulated hops), so the destination's
// unicast RouteReply can walk back hop by hop — and every RREP relay
// installs the *forward* route to the destination the same way. Sequence
// numbers stamp route freshness: a node adopts advertised state only from
// a reply at least as fresh as the last sequence number it has seen for
// that destination.
//
// Routes live in the shared RoutingTable and age out on the node's
// maintenance sweep; forwarding traffic refreshes ("touches") the routes it
// uses, so only idle routes expire. A forward that finds no route
// broadcasts a RouteError naming the unreachable destination; receivers
// that routed through the sender invalidate and re-broadcast, walking the
// bad news down the dependent chain, and the next origination re-discovers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>

#include "net/routing_strategy.h"
#include "support/duplicate_filter.h"
#include "support/flat_map.h"

namespace lm::net {

class AodvStrategy final : public RoutingStrategy {
 public:
  /// Wait for a RouteReply before re-flooding the RouteRequest.
  static constexpr Duration kRreqRetryTimeout = Duration::seconds(6);
  /// RouteRequest re-floods after the first before a discovery gives up,
  /// so a discovery floods 1 + kRreqRefloods times (the next origination
  /// toward the destination starts a fresh discovery).
  static constexpr int kRreqRefloods = 2;

  ~AodvStrategy() override;

  void stop() override;
  const char* name() const override { return "aodv"; }

  /// True when the table holds a route; a pure query.
  bool has_route(Address dst) const override;
  /// The refusal doubles as the demand signal: a discovery for `dst`
  /// starts (unless one is already pending) and a later origination finds
  /// the route in place.
  void note_demand(Address dst) override;

  /// No proactive routing plane; distance-vector beacons sharing the
  /// channel are ignored.
  void on_routing(const RoutingPacket&) override {}
  void handle(Packet packet) override;
  std::optional<Address> resolve_next_hop(const RouteHeader& route) override;

  // Introspection for tests and the strategy matrix.
  std::uint64_t rreqs_sent() const { return rreqs_sent_; }
  std::uint64_t rreps_sent() const { return rreps_sent_; }
  std::uint64_t rerrs_sent() const { return rerrs_sent_; }
  std::uint64_t discoveries_started() const { return discoveries_started_; }
  bool discovery_pending(Address dst) const {
    return pending_.find(dst) != pending_.end();
  }

 private:
  struct PendingDiscovery {
    sim::TimerId retry_timer = 0;
    int attempts = 0;
  };

  void begin_discovery(Address dst);
  void send_rreq(Address dst);
  void on_retry_timer(Address dst);
  void finish_discovery(Address dst);

  void on_rreq(RouteRequestPacket packet);
  void on_rrep(RouteReplyPacket packet);
  void on_rerr(const RouteErrorPacket& packet);
  void send_rerr(Address unreachable);
  void forward(Packet packet);

  /// hops+1 as a table metric, saturating so hops == 255 cannot wrap to a
  /// zero metric.
  static std::uint8_t hop_metric(std::uint8_t hops) {
    return static_cast<std::uint8_t>(std::min<int>(hops + 1, 255));
  }
  /// True when `incoming` is newer than `known` under u16 wraparound.
  static bool seq_newer(std::uint16_t incoming, std::uint16_t known) {
    return static_cast<std::int16_t>(incoming - known) > 0;
  }
  /// Adopt-or-refresh the remembered sequence number for `addr`.
  void note_seq(Address addr, std::uint16_t seq);

  std::uint16_t own_seq_ = 0;
  std::uint16_t next_rreq_id_ = 1;
  std::uint16_t next_ctrl_id_ = 1;  // RREP / RERR packet ids
  support::FlatMap<Address, PendingDiscovery> pending_;
  support::FlatMap<Address, std::uint16_t> seq_of_;
  /// (requester, rreq_id) pairs remembered for RREQ duplicate suppression.
  static constexpr std::size_t kRreqWindow = 256;
  support::DuplicateFilter<std::pair<Address, std::uint16_t>> seen_rreqs_;
  std::uint64_t rreqs_sent_ = 0;
  std::uint64_t rreps_sent_ = 0;
  std::uint64_t rerrs_sent_ = 0;
  std::uint64_t discoveries_started_ = 0;
};

}  // namespace lm::net
