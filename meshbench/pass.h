// One simulation pass over a workload: build the field, boot it, warm up
// the routes, replay the traffic, drain, and collect every counter the
// report needs over the traffic phase (traffic + drain).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "field.h"
#include "radio/channel.h"
#include "workload.h"

namespace meshbench {

enum class PassKind {
  Plain,     // MeshScenario, no probes: the end-to-end measurement
  Timed,     // AssembledField with a TimedRadio under every node
  Recorded,  // MeshScenario with the flight recorder on a VectorSink
};

/// NodeStats fields the report reads, summed over all nodes.
struct StackCounters {
  std::uint64_t beacons_sent = 0;
  std::uint64_t beacons_received = 0;
  std::uint64_t routing_changes = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t no_route = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t forced_tx = 0;
  std::uint64_t duty_delays = 0;
  std::uint64_t acked_sent = 0;
  std::uint64_t acked_retx = 0;
  std::uint64_t fragments_sent = 0;
  std::uint64_t fragments_retx = 0;
  std::uint64_t sessions_rejected = 0;
  std::int64_t control_airtime_us = 0;
  std::int64_t data_airtime_us = 0;

  StackCounters minus(const StackCounters& base) const;
};

/// Application outcome totals (PacketTracker semantics for datagrams:
/// a refused send counts as attempted and undelivered).
struct OpTotals {
  std::uint64_t ops = 0;
  std::uint64_t succeeded = 0;  // delivered datagram, or confirmed acked/reliable
  std::uint64_t datagrams = 0;
  std::uint64_t datagrams_delivered = 0;
  std::uint64_t refused = 0;
  std::uint64_t bad = 0;  // deliveries that fail verification
  std::vector<double> latencies_s;  // datagrams, sorted
};

struct PassResult {
  double setup_s = 0.0;
  double phase_wall_s = 0.0;  // traffic + drain, host seconds
  double phase_sim_s = 0.0;
  std::size_t nodes = 0;
  std::uint64_t setup_events = 0;
  std::uint64_t phase_events = 0;
  std::size_t pending_peak = 0;
  std::optional<lm::radio::ChannelStats> channel;  // phase delta
  StackCounters stack;                             // phase delta
  OpTotals ops;
  double consumed_mah = 0.0;                       // phase delta
  double table_mean = 0.0;                         // at the end
  PdesCounters pdes;                               // phase delta
  std::size_t regions = 1;
  std::vector<std::uint64_t> region_events;        // phase delta per loop
  NodeSpans spans;                                 // Timed only
  std::uint64_t pool_hits = 0;                     // probed passes only
  std::uint64_t pool_refills = 0;
  std::uint64_t trace_records = 0;                 // Recorded only
  std::vector<std::string> violations;             // Recorded only
  std::uint64_t known_violations = 0;              // see is_transfer_key_collision
};

/// Runs one pass. With `probe_pool`, BlockPool counters are reset at the
/// traffic start and read at the end on every event loop's thread (two
/// extra events per loop, added identically to every probed pass).
PassResult run_pass(const Workload& w, PassKind kind, bool probe_pool);

}  // namespace meshbench
