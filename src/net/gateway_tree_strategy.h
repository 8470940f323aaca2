// GatewayTreeStrategy — a gateway-rooted collection tree in the LoRa-QTree
// style (SNIPPETS snippet 2): the node carrying roles::kGateway seeds
// periodic TreeBeacon waves; members pick a parent by (hop depth, then
// received-SNR margin, then address) and rebroadcast the wave once per
// round with their own depth. Upward traffic follows the parent chain;
// downward routes are learned backward from the traffic itself plus
// periodic member -> root TreeReports, so the root (and every ancestor on
// the way) can reach any member that has reported.
//
// Parent selection re-runs every beacon round: each round's candidates are
// collected for a short settle window after the first beacon of the round
// arrives, then the best candidate wins and the node rebroadcasts. A
// silent parent stops appearing among a round's candidates and is replaced;
// routes through it age out of the shared RoutingTable on the maintenance
// sweep. Originations toward destinations the table does not know are
// carried up the tree (the tree's default route), materialized as real
// table entries so the flight recorder sees every (destination, via)
// pairing before it is used.
#pragma once

#include <cstdint>
#include <optional>

#include "net/routing_strategy.h"
#include "support/flat_map.h"

namespace lm::net {

struct GatewayTreeConfig {
  /// Root beacon-wave period; each wave after the first fires at
  /// beacon_interval * (1 ± 10 %).
  Duration beacon_interval = Duration::seconds(60);
  /// Member -> root report period (downward-route refresh); positive.
  Duration report_interval = Duration::seconds(90);
};

class GatewayTreeStrategy final : public RoutingStrategy {
 public:
  explicit GatewayTreeStrategy(GatewayTreeConfig config = {});
  ~GatewayTreeStrategy() override;

  void start() override;
  void stop() override;
  const char* name() const override { return "gateway-tree"; }

  /// Members with a parent can always try (unknown destinations ride the
  /// tree up toward the root); the root itself needs a learned downward
  /// route.
  bool has_route(Address dst) const override;

  void on_routing(const RoutingPacket&) override {}
  void handle(Packet packet) override;
  std::optional<Address> resolve_next_hop(const RouteHeader& route) override;

  // Introspection for tests and the strategy matrix.
  bool is_root() const { return is_root_; }
  std::optional<Address> parent() const { return parent_; }
  std::uint16_t depth() const { return depth_; }
  std::uint64_t beacons_relayed() const { return beacons_relayed_; }
  std::uint64_t reports_sent() const { return reports_sent_; }
  std::uint64_t reports_received() const { return reports_received_; }

 private:
  struct Candidate {
    std::uint8_t depth = 0;      // the neighbor's own depth
    std::uint16_t round = 0;     // last round it was heard in
    double snr_margin_db = 0.0;  // smoothed link margin at receive time
    bool has_snr = false;
  };

  void schedule_root_beacon(bool first);
  void send_root_beacon();
  void on_beacon(const TreeBeaconPacket& packet);
  void elect_and_rebroadcast();
  void schedule_report(bool first);
  void send_report();
  void on_report(Packet packet);
  void forward(Packet packet);
  /// Backward route learning: whoever relayed a packet from `origin` to us
  /// is a next hop toward `origin`.
  void learn_backward(const LinkHeader& link, const RouteHeader& route);

  /// True when `a` is a newer round than `b` under u16 wraparound.
  static bool round_newer(std::uint16_t a, std::uint16_t b) {
    return static_cast<std::int16_t>(a - b) > 0;
  }

  GatewayTreeConfig config_;
  bool is_root_ = false;
  std::optional<Address> root_;
  std::optional<Address> parent_;
  std::uint16_t depth_ = 0xFFFF;  // unjoined
  std::uint16_t round_ = 0;       // root: wave counter; member: last seen
  TimePoint round_heard_at_;      // member: when round_ last advanced
  bool election_scheduled_ = false;
  // Once-per-round guard: the round the last election ran for. Without it
  // a deeper neighbor's same-round relay would reopen the election and
  // adjacent members would re-trigger each other's rebroadcasts until a
  // collision broke the loop.
  std::uint16_t last_elected_round_ = 0;
  bool has_elected_ = false;
  support::FlatMap<Address, Candidate> candidates_;
  std::uint16_t next_report_id_ = 1;
  sim::TimerId beacon_timer_ = 0;
  sim::TimerId election_timer_ = 0;
  sim::TimerId report_timer_ = 0;
  std::uint64_t beacons_relayed_ = 0;
  std::uint64_t reports_sent_ = 0;
  std::uint64_t reports_received_ = 0;
};

}  // namespace lm::net
