#include "workload.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "phy/path_loss.h"
#include "support/rng.h"
#include "testbed/topology.h"

namespace meshbench {
namespace {

// The campus propagation model the repository's experiments share:
// log-distance n = 3.5, so 400 m neighbours decode and 800 m ones do not,
// with deterministic links.
lm::testbed::ScenarioConfig campus_config(std::uint64_t seed) {
  lm::testbed::ScenarioConfig c;
  c.seed = seed;
  c.propagation.path_loss = lm::phy::make_log_distance(3.5, 40.0);
  c.propagation.shadowing_sigma_db = 0.0;
  c.propagation.fading_sigma_db = 0.0;
  return c;
}

struct FlowSpec {
  OpKind kind;
  std::uint32_t src;
  std::uint32_t dst;
  Duration mean_gap;
  bool poisson;
  std::uint32_t min_size;
  std::uint32_t max_size;
};

// Expands flow specs into the time-ordered operation list. Each flow draws
// from its own forked stream, so adding a flow never shifts another's times.
void schedule_flows(Workload& w, const std::vector<FlowSpec>& specs,
                    lm::Rng& rng) {
  const TimePoint start = w.traffic_start();
  const TimePoint stop = start + w.traffic;
  std::vector<Op> ops;
  std::vector<std::uint32_t> flow_of;
  for (std::size_t f = 0; f < specs.size(); ++f) {
    const FlowSpec& s = specs[f];
    lm::Rng flow_rng = rng.fork(f + 1);
    const double mean_s = s.mean_gap.seconds_d();
    // Periodic flows start at a random phase within one period.
    TimePoint t = start + lm::Duration::from_seconds(
                              s.poisson ? flow_rng.exponential(mean_s)
                                        : flow_rng.uniform(0.0, mean_s));
    while (t < stop) {
      const auto size = static_cast<std::uint32_t>(
          flow_rng.uniform_int(s.min_size, s.max_size));
      ops.push_back(Op{t, s.kind, s.src, s.dst, size});
      flow_of.push_back(static_cast<std::uint32_t>(f));
      t = t + (s.poisson ? lm::Duration::from_seconds(flow_rng.exponential(mean_s))
                         : s.mean_gap);
    }
  }
  std::vector<std::uint32_t> order(ops.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return ops[a].at < ops[b].at;
                   });
  w.ops.clear();
  w.flows.assign(specs.size(), {});
  for (const std::uint32_t i : order) {
    w.flows[flow_of[i]].push_back(static_cast<std::uint32_t>(w.ops.size()));
    w.ops.push_back(ops[i]);
  }
}

std::uint32_t pick_other(lm::Rng& rng, std::uint32_t n, std::uint32_t not_this) {
  for (;;) {
    const auto v = static_cast<std::uint32_t>(rng.uniform_int(0, n - 1));
    if (v != not_this) return v;
  }
}

Workload make_campus(std::uint64_t seed) {
  Workload w;
  w.name = "campus";
  w.config = campus_config(seed);
  // The released library's default. At 60 s the 64-entry beacons take most
  // of the 1 % duty budget, and the datagram p99 then swings with the seed.
  w.config.mesh.hello_interval = Duration::seconds(120);
  w.config.energy.enabled = true;  // infinite battery: metered, never browns out
  // The deployment (layout and flow endpoints) is fixed; the seed drives
  // the send schedule and every node's and the channel's randomness.
  lm::Rng deployment(0xCA3F05ULL);
  lm::Rng layout = deployment.fork(0);
  constexpr std::uint32_t kNodes = 64;
  w.positions = lm::testbed::connected_random_field(kNodes, 3000.0, 3000.0,
                                                    550.0, layout);
  w.warmup = Duration::minutes(20);
  w.traffic = Duration::hours(36);
  w.drain = Duration::minutes(15);

  lm::Rng pairs = deployment.fork(1);
  std::vector<FlowSpec> specs;
  auto add = [&](OpKind kind, int count, Duration gap, bool poisson,
                 std::uint32_t lo, std::uint32_t hi) {
    for (int i = 0; i < count; ++i) {
      const auto src = static_cast<std::uint32_t>(pairs.uniform_int(0, kNodes - 1));
      specs.push_back({kind, src, pick_other(pairs, kNodes, src), gap, poisson,
                       lo, hi});
    }
  };
  add(OpKind::Datagram, 32, Duration::seconds(300), true, 24, 24);
  add(OpKind::Acked, 16, Duration::seconds(600), true, 24, 24);
  add(OpKind::Reliable, 4, Duration::hours(2), false, 1024, 2048);
  lm::Rng times(seed ^ 0xCA3F05ULL);
  schedule_flows(w, specs, times);
  return w;
}

Workload make_city(std::uint64_t seed) {
  Workload w;
  w.name = "city";
  w.config = campus_config(seed);
  constexpr std::uint32_t kSide = 70;
  constexpr std::uint32_t kHopCols = 3;  // ~3 hops at 400 m spacing
  w.positions = lm::testbed::grid(kSide, kSide, 400.0);
  w.warmup = Duration::minutes(5);
  w.traffic = Duration::minutes(4);
  w.drain = Duration::minutes(1);

  lm::Rng pairs(0xC17EULL);
  std::vector<FlowSpec> specs;
  for (int i = 0; i < 800; ++i) {
    const auto src =
        static_cast<std::uint32_t>(pairs.uniform_int(0, kSide * kSide - 1));
    const std::uint32_t col = src % kSide;
    const std::uint32_t dst = col + kHopCols < kSide ? src + kHopCols : src - kHopCols;
    specs.push_back({OpKind::Datagram, src, dst, Duration::seconds(60), true,
                     24, 24});
  }
  lm::Rng times(seed ^ 0xC17EULL);
  schedule_flows(w, specs, times);
  return w;
}

std::uint8_t fill_byte(std::uint64_t token, std::size_t i) {
  return static_cast<std::uint8_t>((token * 0x9E3779B1ULL + i * 131) >> 3);
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "campus") return make_campus(seed);
  if (name == "city") return make_city(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

Workload on_pdes(const Workload& w) {
  Workload p = w;
  p.name = w.name + "_pdes";
  // The region cap and worker count are part of the pass: an uncapped
  // tiling of the city field yields hundreds of regions.
  p.config.pdes.workers = kPdesWorkers;
  p.config.pdes.tile = true;
  p.config.pdes.max_regions = kPdesRegions;
  return p;
}

Workload truncated(const Workload& w, Duration traffic) {
  Workload t = w;
  t.traffic = traffic;
  const TimePoint stop = t.traffic_start() + traffic;
  std::size_t kept = 0;
  while (kept < t.ops.size() && t.ops[kept].at < stop) ++kept;
  t.ops.resize(kept);
  for (auto& flow : t.flows) {
    std::erase_if(flow, [kept](std::uint32_t i) { return i >= kept; });
  }
  return t;
}

std::vector<std::uint8_t> make_payload(std::uint64_t token, std::size_t size) {
  std::vector<std::uint8_t> p(size);
  for (std::size_t i = 0; i < size; ++i) {
    p[i] = i < 8 ? static_cast<std::uint8_t>(token >> (8 * i)) : fill_byte(token, i);
  }
  return p;
}

std::uint64_t verify_payload(const std::uint8_t* data, std::size_t size) {
  constexpr std::uint64_t kBad = std::numeric_limits<std::uint64_t>::max();
  if (size < 8) return kBad;
  std::uint64_t token = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    token |= static_cast<std::uint64_t>(data[i]) << (8 * i);
  }
  for (std::size_t i = 8; i < size; ++i) {
    if (data[i] != fill_byte(token, i)) return kBad;
  }
  return token;
}

}  // namespace meshbench
