// Workload definitions and the open-loop application traffic generator.
//
// A workload is a node field, a scenario configuration and a precomputed
// schedule of application operations, all derived from --seed. The schedule
// is an open loop in simulated time: every flow's Poisson (or periodic)
// send times are fixed before the run and never wait on deliveries, so a
// slow or saturated mesh receives the same offered load as a fast one.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "phy/geometry.h"
#include "support/time.h"
#include "testbed/scenario.h"

namespace meshbench {

using lm::Duration;
using lm::TimePoint;

enum class OpKind : std::uint8_t { Datagram, Acked, Reliable };

/// One application operation. Its index in Workload::ops is the token the
/// payload carries.
struct Op {
  TimePoint at;  // scheduled send time (latency counts from here)
  OpKind kind = OpKind::Datagram;
  std::uint32_t src = 0;  // node indices
  std::uint32_t dst = 0;
  std::uint32_t size = 0;  // payload bytes
};

struct Workload {
  std::string name;
  lm::testbed::ScenarioConfig config;
  std::vector<lm::phy::Position> positions;
  /// Boot to first application send: the route-convergence warm-up.
  Duration warmup;
  /// Span over which operations are scheduled.
  Duration traffic;
  /// Quiet period after the last send for deliveries and ARQ to finish.
  Duration drain;
  /// All operations, sorted by (at, index).
  std::vector<Op> ops;
  /// flows[f] lists indices into `ops` of one flow, in time order. A flow
  /// has one source node; its sends are chained on that node's event loop.
  std::vector<std::vector<std::uint32_t>> flows;

  TimePoint traffic_start() const { return TimePoint::origin() + warmup; }
  TimePoint end() const { return traffic_start() + traffic + drain; }
};

/// Builds workload `name` ("campus" or "city") for `seed`.
/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Regions and worker threads of the PDES pass in city's traced run.
inline constexpr std::size_t kPdesRegions = 16;
inline constexpr std::size_t kPdesWorkers = 2;

/// `w` on the conservative PDES engine: a tiled partition capped at
/// kPdesRegions regions, advanced by kPdesWorkers threads. The field, seed
/// and operations are unchanged.
Workload on_pdes(const Workload& w);

/// `w` with its traffic phase cut to `traffic`. The operations kept are a
/// prefix of w.ops, so every token keeps its meaning.
Workload truncated(const Workload& w, Duration traffic);

/// Payload of operation `token`: the token (8 bytes, little endian), then a
/// fill pattern derived from it, `size` bytes in all.
std::vector<std::uint8_t> make_payload(std::uint64_t token, std::size_t size);

/// Token of a payload built by make_payload, or UINT64_MAX when the payload
/// is too short or its fill does not match the token.
std::uint64_t verify_payload(const std::uint8_t* data, std::size_t size);

}  // namespace meshbench
