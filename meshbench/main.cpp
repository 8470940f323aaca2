// meshbench — the end-to-end benchmark of the LoRaMesher simulator.
//
//   meshbench --workload campus|city --seed N --seconds S --trace 0|1
//
// --trace 0 runs untraced passes of the workload until S host seconds have
// passed (at least kMinPasses) and reports the end-to-end metrics: host
// set-up time and speed as medians over the passes, peak memory, and the
// simulated outcome, which must repeat exactly in every pass.
//
// --trace 1 runs one untraced pass and one timed pass (a TimedRadio under
// every node) and reports the per-layer metrics. On campus two more passes
// over the first hours of traffic, untraced and with the flight recorder,
// give the recorder's cost and check the analyzer's invariants; on city a
// PDES pass of the same field (on_pdes) gives the pdes.* metrics and the
// serial-vs-PDES ratio.
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": ops, "failed": bad deliveries,
//    "metrics": {name: {"value": v, "unit": u}, ...}}
// A failed correctness gate prints it with "correct": false and exits 1.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "pass.h"
#include "workload.h"

namespace meshbench {
namespace {

constexpr std::size_t kMinPasses = 3;
/// Traffic span of campus's flight-recorder pass.
constexpr Duration kRecorderTraffic = Duration::hours(4);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      a.trace = std::strcmp(value, "0") != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

class Report {
 public:
  void add(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  void fail(const std::string& why) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
    correct_ = false;
  }
  bool correct() const { return correct_; }

  void print(std::uint64_t attempted, std::uint64_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
    }
    std::string json = "{\"correct\": ";
    json += correct_ ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", metrics_[i].value);
      if (i > 0) json += ", ";
      json += "\"" + metrics_[i].name + "\": {\"value\": " + buf +
              ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Metric> metrics_;
  bool correct_ = true;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of sorted samples.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q / 100.0 * static_cast<double>(sorted.size());
  std::size_t k = static_cast<std::size_t>(rank);
  if (static_cast<double>(k) < rank) ++k;
  return sorted[std::clamp<std::size_t>(k, 1, sorted.size()) - 1];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The counters a deterministic simulation must reproduce exactly.
struct Fingerprint {
  std::uint64_t setup_events, phase_events, delivered, succeeded, refused,
      channel_delivered;
  double latency_sum;

  static Fingerprint of(const PassResult& r) {
    double sum = 0.0;
    for (const double l : r.ops.latencies_s) sum += l;
    return {r.setup_events,
            r.phase_events,
            r.ops.datagrams_delivered,
            r.ops.succeeded,
            r.ops.refused,
            r.channel ? r.channel->receptions_delivered : 0,
            sum};
  }
  bool same(const Fingerprint& o) const {
    return setup_events == o.setup_events && phase_events == o.phase_events &&
           delivered == o.delivered && succeeded == o.succeeded &&
           refused == o.refused && latency_sum == o.latency_sum &&
           channel_delivered == o.channel_delivered;
  }
};

void check_outcome(const PassResult& r, const std::string& label, Report& rep) {
  if (r.ops.succeeded == 0) rep.fail(label + ": the workload delivered nothing");
  if (r.ops.bad != 0) {
    rep.fail(label + ": " + std::to_string(r.ops.bad) +
             " deliveries failed payload/address verification");
  }
}

int run_end_to_end(const Workload& w, const Args& args) {
  Report rep;
  std::vector<PassResult> passes;
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
  };
  while (passes.size() < kMinPasses || elapsed() < args.seconds) {
    passes.push_back(run_pass(w, PassKind::Plain, false));
    const PassResult& p = passes.back();
    std::fprintf(stderr, "pass %zu: setup %.4f s, traffic phase %.4f s, %.2f s/s\n",
                 passes.size(), p.setup_s, p.phase_wall_s,
                 p.phase_sim_s / p.phase_wall_s);
  }

  const PassResult& first = passes.front();
  const Fingerprint fp = Fingerprint::of(first);
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> setup;
  std::vector<double> speed;
  for (const PassResult& p : passes) {
    attempted += p.ops.ops;
    failed += p.ops.bad;
    setup.push_back(p.setup_s);
    speed.push_back(p.phase_sim_s / p.phase_wall_s);
    if (!Fingerprint::of(p).same(fp)) {
      rep.fail("simulated outcome differs between passes of one seed");
    }
  }
  check_outcome(first, "untraced", rep);

  const OpTotals& ops = first.ops;
  const std::int64_t airtime_us =
      first.stack.control_airtime_us + first.stack.data_airtime_us;
  rep.add("setup_s", median(setup), "s");
  rep.add("sim_s_per_wall_s", median(speed), "s/s");
  rep.add("peak_rss_mb", peak_rss_mb(), "MB");
  rep.add("ops_failed_pct",
          100.0 * ratio(static_cast<double>(ops.ops - ops.succeeded),
                        static_cast<double>(ops.ops)),
          "%");
  rep.add("pdr",
          ratio(static_cast<double>(ops.datagrams_delivered),
                static_cast<double>(ops.datagrams)),
          "ratio");
  rep.add("latency_p50_s", percentile(ops.latencies_s, 50.0), "s");
  if (ops.latencies_s.size() < 1000) {
    rep.fail("fewer than 1000 datagram deliveries: p99 is not reported");
  } else {
    rep.add("latency_p99_s", percentile(ops.latencies_s, 99.0), "s");
  }
  rep.add("airtime_ms_per_delivery",
          ratio(static_cast<double>(airtime_us) / 1e3,
                static_cast<double>(ops.succeeded)),
          "ms");
  std::printf("%s seed %llu: %zu passes, %llu ops/pass, %zu datagram deliveries\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              passes.size(), static_cast<unsigned long long>(ops.ops),
              ops.latencies_s.size());
  rep.print(attempted, failed);
  return rep.correct() ? 0 : 1;
}

int run_traced(const Workload& w) {
  Report rep;
  const PassResult plain = run_pass(w, PassKind::Plain, true);
  const PassResult timed = run_pass(w, PassKind::Timed, true);
  check_outcome(plain, "untraced", rep);
  check_outcome(timed, "timed", rep);
  if (!Fingerprint::of(plain).same(Fingerprint::of(timed))) {
    rep.fail("timed pass counters differ from the untraced pass");
  }
  std::uint64_t attempted = plain.ops.ops + timed.ops.ops;
  std::uint64_t failed = plain.ops.bad + timed.ops.bad;

  const double events = static_cast<double>(plain.phase_events);
  const NodeSpans& sp = timed.spans;
  const StackCounters& st = timed.stack;

  // sim (Simulator / TimerWheel)
  rep.add("sim.events", events, "count");
  rep.add("sim.events_per_node_s",
          events / (static_cast<double>(plain.nodes) * plain.phase_sim_s), "1/s");
  rep.add("sim.ns_per_event", 1e9 * plain.phase_wall_s / events, "ns");
  rep.add("sim.self_ns_per_event",
          std::max(0.0, 1e9 * timed.phase_wall_s - static_cast<double>(sp.outer_ns)) /
              events,
          "ns");
  rep.add("sim.pending_peak", static_cast<double>(plain.pending_peak), "count");

  // radio (VirtualRadio, Channel)
  rep.add("radio.tx_calls", static_cast<double>(sp.tx.calls), "count");
  rep.add("radio.tx_ns", sp.tx.mean_ns(), "ns");
  rep.add("radio.cad_calls", static_cast<double>(sp.cad.calls), "count");
  rep.add("radio.cad_ns", sp.cad.mean_ns(), "ns");
  const lm::radio::ChannelStats ch = timed.channel.value_or(lm::radio::ChannelStats{});
  const double walked = static_cast<double>(
      ch.receptions_delivered + ch.dropped_not_listening + ch.dropped_blocked_link +
      ch.dropped_below_sensitivity + ch.dropped_snr + ch.dropped_collision +
      ch.dropped_modulation_mismatch);
  rep.add("channel.frames", static_cast<double>(ch.frames_transmitted), "count");
  rep.add("channel.delivered", static_cast<double>(ch.receptions_delivered), "count");
  rep.add("channel.collisions", static_cast<double>(ch.dropped_collision), "count");
  rep.add("channel.culled", static_cast<double>(ch.dropped_out_of_range), "count");
  rep.add("channel.rx_per_frame",
          ratio(static_cast<double>(ch.receptions_delivered),
                static_cast<double>(ch.frames_transmitted)),
          "ratio");
  rep.add("channel.useful_ratio",
          ratio(static_cast<double>(ch.receptions_delivered), walked), "ratio");

  // net: link layer
  rep.add("link.cad_busy_ratio",
          ratio(static_cast<double>(sp.cad_busy), static_cast<double>(sp.cad.calls)),
          "ratio");
  rep.add("link.forced_tx", static_cast<double>(st.forced_tx), "count");
  rep.add("link.duty_delays", static_cast<double>(st.duty_delays), "count");
  rep.add("link.queue_drops", static_cast<double>(st.queue_drops), "count");
  rep.add("link.cad_done_ns", sp.cad_done.mean_ns(), "ns");

  // net: receive path
  rep.add("stack.rx_calls", static_cast<double>(sp.rx.calls), "count");
  rep.add("stack.rx_ns", sp.rx.mean_ns(), "ns");
  rep.add("stack.rx_share",
          ratio(static_cast<double>(sp.rx.ns), 1e9 * timed.phase_wall_s),
          "ratio");

  // net: network layer
  rep.add("net.beacons_sent", static_cast<double>(st.beacons_sent), "count");
  rep.add("net.beacons_received", static_cast<double>(st.beacons_received), "count");
  rep.add("net.routing_changes", static_cast<double>(st.routing_changes), "count");
  rep.add("net.forwarded", static_cast<double>(st.forwarded), "count");
  rep.add("net.no_route", static_cast<double>(st.no_route), "count");
  rep.add("net.table_mean", timed.table_mean, "count");
  rep.add("net.control_airtime_share",
          ratio(static_cast<double>(st.control_airtime_us),
                static_cast<double>(st.control_airtime_us + st.data_airtime_us)),
          "ratio");
  rep.add("net.send_ns", sp.send_datagram.mean_ns(), "ns");

  // net: transport layer
  rep.add("transport.acked_retx_ratio",
          ratio(static_cast<double>(st.acked_retx), static_cast<double>(st.acked_sent)),
          "ratio");
  rep.add("transport.frag_retx_ratio",
          ratio(static_cast<double>(st.fragments_retx),
                static_cast<double>(st.fragments_sent)),
          "ratio");
  rep.add("transport.sessions_rejected", static_cast<double>(st.sessions_rejected),
          "count");
  rep.add("transport.send_ns", sp.send_transport.mean_ns(), "ns");

  // radio: energy
  rep.add("energy.mah_per_delivery",
          ratio(timed.consumed_mah, static_cast<double>(timed.ops.succeeded)), "mAh");

  // sim/pdes + radio/pdes_bridge: city's field once more on the PDES engine.
  PassResult pdes;
  double imbalance = 0.0;
  double vs_serial = 0.0;
  if (w.name == "city") {
    const Workload pw = on_pdes(w);
    pdes = run_pass(pw, PassKind::Plain, false);
    check_outcome(pdes, "PDES", rep);
    if (pdes.regions != kPdesRegions) {
      rep.fail("the PDES pass ran " + std::to_string(pdes.regions) +
               " regions, configured " + std::to_string(kPdesRegions));
    }
    attempted += pdes.ops.ops;
    failed += pdes.ops.bad;
    double max_e = 0.0;
    double sum_e = 0.0;
    for (const std::uint64_t e : pdes.region_events) {
      max_e = std::max(max_e, static_cast<double>(e));
      sum_e += static_cast<double>(e);
    }
    imbalance = ratio(max_e, sum_e / static_cast<double>(pdes.region_events.size()));
    vs_serial = ratio(pdes.phase_sim_s / pdes.phase_wall_s,
                      plain.phase_sim_s / plain.phase_wall_s);
    std::printf("serial-vs-PDES (informational): PDES pass sim_s_per_wall_s / "
                "serial pass sim_s_per_wall_s = %.3f\n",
                vs_serial);
    if (pdes.ops.datagrams_delivered != plain.ops.datagrams_delivered) {
      std::printf("note: serial and PDES fields deliver %llu vs %llu datagrams "
                  "(region channels draw from their own streams)\n",
                  static_cast<unsigned long long>(plain.ops.datagrams_delivered),
                  static_cast<unsigned long long>(pdes.ops.datagrams_delivered));
    }
  }
  const PdesCounters& pd = pdes.pdes;
  const double pdes_events = static_cast<double>(pdes.phase_events);
  rep.add("pdes.regions", w.name == "city" ? static_cast<double>(pdes.regions) : 0.0,
          "count");
  rep.add("pdes.windows", static_cast<double>(pd.windows), "count");
  rep.add("pdes.events_per_window",
          ratio(pdes_events, static_cast<double>(pd.windows)), "count");
  rep.add("pdes.ghosts_per_event",
          ratio(static_cast<double>(pd.messages), pdes_events), "ratio");
  rep.add("pdes.widened_pct",
          100.0 * ratio(static_cast<double>(pd.widened), static_cast<double>(pd.windows)),
          "%");
  rep.add("pdes.imbalance", imbalance, "ratio");
  rep.add("pdes.vs_serial", vs_serial, "ratio");

  // support: block pool
  rep.add("pool.hit_rate",
          ratio(static_cast<double>(plain.pool_hits),
                static_cast<double>(plain.pool_hits + plain.pool_refills)),
          "ratio");
  rep.add("pool.refills", static_cast<double>(plain.pool_refills), "count");

  // trace: flight recorder, over the first hours of the traffic so the
  // captured trace stays small; its own untraced pass is the reference.
  double trace_overhead = 0.0;
  double records_per_event = 0.0;
  if (w.name == "campus") {
    const Workload head = truncated(w, kRecorderTraffic);
    const PassResult base = run_pass(head, PassKind::Plain, false);
    const PassResult recorded = run_pass(head, PassKind::Recorded, false);
    attempted += base.ops.ops + recorded.ops.ops;
    failed += base.ops.bad + recorded.ops.bad;
    if (!Fingerprint::of(base).same(Fingerprint::of(recorded))) {
      rep.fail("flight-recorder pass counters differ from the untraced pass");
    }
    for (const std::string& v : recorded.violations) {
      rep.fail("trace invariant: " + v);
    }
    std::printf("flight recorder: %llu records, %zu invariant violations, %llu "
                "reliable-transfer key collisions in the analyzer (not failures)\n",
                static_cast<unsigned long long>(recorded.trace_records),
                recorded.violations.size(),
                static_cast<unsigned long long>(recorded.known_violations));
    trace_overhead = 100.0 * (recorded.phase_wall_s / base.phase_wall_s - 1.0);
    records_per_event =
        ratio(static_cast<double>(recorded.trace_records),
              static_cast<double>(recorded.setup_events + recorded.phase_events));
  }
  rep.add("trace.overhead_pct", trace_overhead, "%");
  rep.add("trace.records_per_event", records_per_event, "ratio");
  rep.add("traced.overhead_pct",
          100.0 * (timed.phase_wall_s / plain.phase_wall_s - 1.0), "%");

  rep.print(attempted, failed);
  return rep.correct() ? 0 : 1;
}

}  // namespace
}  // namespace meshbench

int main(int argc, char** argv) {
  meshbench::Args args;
  if (!meshbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: meshbench --workload campus|city --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  try {
    const meshbench::Workload w = meshbench::make_workload(args.workload, args.seed);
    return args.trace ? meshbench::run_traced(w)
                      : meshbench::run_end_to_end(w, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "meshbench: %s\n", e.what());
    return 1;
  }
}
