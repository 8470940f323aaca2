// The one application traffic generator both passes use.
//
// Traffic replays a Workload's precomputed operation schedule against a
// Field by calling MeshNode::send_datagram / send_acked / send_reliable
// directly, and checks every delivery: the payload must carry a known
// token with an intact fill, and arrive at the operation's destination,
// from its source, through the handler of its kind. Each flow is chained
// on its source node's event loop, so in a PDES field every send runs on
// the worker that owns the sender.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "field.h"
#include "workload.h"

namespace meshbench {

struct OpOutcome {
  std::int64_t latency_us = -1;  // scheduled send to first delivery
  std::uint32_t deliveries = 0;  // at the destination application
  bool refused = false;          // the send call returned false
  bool confirmed = false;        // acked / reliable: done(true) at the sender
};

class Traffic {
 public:
  /// Installs delivery handlers on every node of `field`. Both arguments
  /// must outlive the traffic; destroy the field first (its teardown may
  /// still complete sends).
  Traffic(Field& field, const Workload& w);

  Traffic(const Traffic&) = delete;
  Traffic& operator=(const Traffic&) = delete;

  /// Schedules the first operation of every flow. Call once, with the
  /// field quiescent at or before the traffic start.
  void start();

  const std::vector<OpOutcome>& outcomes() const { return outcomes_; }
  /// Deliveries that matched no operation, or matched one but arrived at
  /// the wrong node, from the wrong origin, with the wrong size or kind.
  std::uint64_t bad_deliveries() const;

 private:
  void fire(std::size_t flow, std::size_t k);
  void on_delivery(std::size_t node, lm::net::Address origin,
                   std::span<const std::uint8_t> payload, bool reliable);

  Field& field_;
  const Workload& w_;
  std::vector<OpOutcome> outcomes_;
  // Per receiving node, so PDES workers never write the same counter.
  std::vector<std::uint64_t> bad_;
};

}  // namespace meshbench
