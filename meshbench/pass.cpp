#include "pass.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "net/packet.h"
#include "support/pool.h"
#include "trace/trace_analyzer.h"
#include "trace/trace_sink.h"
#include "traffic.h"

namespace meshbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

StackCounters sum_stack(Field& field) {
  StackCounters c;
  for (std::size_t i = 0; i < field.size(); ++i) {
    const lm::net::NodeStats& s = field.node(i).stats();
    c.beacons_sent += s.beacons_sent;
    c.beacons_received += s.beacons_received;
    c.routing_changes += s.routing_changes;
    c.forwarded += s.packets_forwarded;
    c.no_route += s.dropped_no_route;
    c.queue_drops += s.dropped_queue_full;
    c.forced_tx += s.forced_transmissions;
    c.duty_delays += s.duty_cycle_delays;
    c.acked_sent += s.acked_sent;
    c.acked_retx += s.acked_retransmissions;
    c.fragments_sent += s.fragments_sent;
    c.fragments_retx += s.fragments_retransmitted;
    c.sessions_rejected += s.rx_sessions_rejected;
    c.control_airtime_us += s.control_airtime.us();
    c.data_airtime_us += s.data_airtime.us();
  }
  return c;
}

lm::radio::ChannelStats channel_minus(const lm::radio::ChannelStats& a,
                                      const lm::radio::ChannelStats& b) {
  lm::radio::ChannelStats d;
  d.frames_transmitted = a.frames_transmitted - b.frames_transmitted;
  d.receptions_delivered = a.receptions_delivered - b.receptions_delivered;
  d.dropped_not_listening = a.dropped_not_listening - b.dropped_not_listening;
  d.dropped_blocked_link = a.dropped_blocked_link - b.dropped_blocked_link;
  d.dropped_below_sensitivity =
      a.dropped_below_sensitivity - b.dropped_below_sensitivity;
  d.dropped_snr = a.dropped_snr - b.dropped_snr;
  d.dropped_collision = a.dropped_collision - b.dropped_collision;
  d.dropped_modulation_mismatch =
      a.dropped_modulation_mismatch - b.dropped_modulation_mismatch;
  d.dropped_out_of_range = a.dropped_out_of_range - b.dropped_out_of_range;
  return d;
}

OpTotals tally(const Workload& w, const Traffic& traffic) {
  OpTotals t;
  t.ops = w.ops.size();
  t.bad = traffic.bad_deliveries();
  for (std::size_t i = 0; i < w.ops.size(); ++i) {
    const OpOutcome& o = traffic.outcomes()[i];
    if (o.refused) ++t.refused;
    if (w.ops[i].kind == OpKind::Datagram) {
      ++t.datagrams;
      if (o.deliveries > 0) {
        ++t.datagrams_delivered;
        ++t.succeeded;
        t.latencies_s.push_back(static_cast<double>(o.latency_us) / 1e6);
      }
    } else if (o.confirmed) {
      ++t.succeeded;
    }
  }
  std::sort(t.latencies_s.begin(), t.latencies_s.end());
  return t;
}

// BlockPool counters are thread-local: a probe event reads them on the
// thread that runs its loop, and the last reading per thread wins.
class PoolProbe {
 public:
  void arm(const std::vector<lm::sim::Simulator*>& loops, TimePoint start,
           TimePoint end) {
    for (lm::sim::Simulator* s : loops) {
      s->schedule_at(start, [] { lm::support::BlockPool::reset_stats(); });
      s->schedule_at(end, [this] {
        const std::lock_guard<std::mutex> lock(mu_);
        by_thread_[std::this_thread::get_id()] = lm::support::BlockPool::stats();
      });
    }
  }
  void read(PassResult& r) const {
    for (const auto& [id, s] : by_thread_) {
      r.pool_hits += s.pool_hits;
      r.pool_refills += s.pool_refills;
    }
  }

 private:
  std::mutex mu_;
  std::map<std::thread::id, lm::support::PoolStats> by_thread_;
};

// The analyzer keys a reliable transfer's TransferStart/Deliver records by
// (origin, transfer seq, Sync) and a routed SYNC frame by (origin, network
// packet id, Sync). When the two numbers coincide, the transfer's Deliver
// record (hops 0, ttl 0) joins the frame's multi-hop journey and trips the
// hop/ttl monotonicity invariant although no packet misbehaved.
bool is_transfer_key_collision(const std::string& violation) {
  const std::string sync_type =
      " type " + std::to_string(static_cast<int>(lm::net::PacketType::Sync)) + " ";
  return violation.rfind("hop/ttl not monotone:", 0) == 0 &&
         violation.find(sync_type) != std::string::npos;
}

}  // namespace

StackCounters StackCounters::minus(const StackCounters& b) const {
  StackCounters d;
  d.beacons_sent = beacons_sent - b.beacons_sent;
  d.beacons_received = beacons_received - b.beacons_received;
  d.routing_changes = routing_changes - b.routing_changes;
  d.forwarded = forwarded - b.forwarded;
  d.no_route = no_route - b.no_route;
  d.queue_drops = queue_drops - b.queue_drops;
  d.forced_tx = forced_tx - b.forced_tx;
  d.duty_delays = duty_delays - b.duty_delays;
  d.acked_sent = acked_sent - b.acked_sent;
  d.acked_retx = acked_retx - b.acked_retx;
  d.fragments_sent = fragments_sent - b.fragments_sent;
  d.fragments_retx = fragments_retx - b.fragments_retx;
  d.sessions_rejected = sessions_rejected - b.sessions_rejected;
  d.control_airtime_us = control_airtime_us - b.control_airtime_us;
  d.data_airtime_us = data_airtime_us - b.data_airtime_us;
  return d;
}

PassResult run_pass(const Workload& w, PassKind kind, bool probe_pool) {
  PassResult r;
  lm::trace::VectorSink sink;
  lm::trace::Tracer tracer;
  tracer.attach(&sink);
  PoolProbe probe;

  // --- Set-up: construction, boot and the route-convergence warm-up. -------
  const Clock::time_point setup_start = Clock::now();
  std::unique_ptr<Field> field;
  if (kind == PassKind::Timed) {
    field = std::make_unique<AssembledField>(w);
  } else {
    field = std::make_unique<ScenarioField>(
        w, kind == PassKind::Recorded ? &tracer : nullptr);
  }
  Traffic traffic(*field, w);
  field->start_all();
  field->run_until(w.traffic_start());
  r.setup_s = seconds_since(setup_start);

  // --- Traffic phase: open-loop sends, then the drain. ---------------------
  const std::vector<lm::sim::Simulator*> loops = field->loops();
  r.nodes = field->size();
  r.regions = loops.size();
  r.setup_events = field->events();
  const std::optional<lm::radio::ChannelStats> channel0 = field->channel_stats();
  const StackCounters stack0 = sum_stack(*field);
  const double mah0 = field->consumed_mah();
  const PdesCounters pdes0 = field->pdes();
  std::vector<std::uint64_t> loop_events0;
  for (const lm::sim::Simulator* s : loops) {
    loop_events0.push_back(s->events_processed());
  }
  if (probe_pool) probe.arm(loops, w.traffic_start(), w.end());
  traffic.start();

  // Fixed one-second slices of simulated time, identical in every pass, so
  // PDES window boundaries and the pending() gauge line up across passes.
  const Clock::time_point phase_start = Clock::now();
  for (TimePoint t = w.traffic_start(); t < w.end();) {
    t = std::min(t + Duration::seconds(1), w.end());
    field->run_until(t);
    std::size_t pending = 0;
    for (const lm::sim::Simulator* s : loops) pending += s->pending();
    r.pending_peak = std::max(r.pending_peak, pending);
  }
  r.phase_wall_s = seconds_since(phase_start);
  r.phase_sim_s = (w.end() - w.traffic_start()).seconds_d();

  // --- Collection. ------------------------------------------------------------
  r.phase_events = field->events() - r.setup_events;
  if (const auto channel1 = field->channel_stats(); channel0 && channel1) {
    r.channel = channel_minus(*channel1, *channel0);
  }
  r.stack = sum_stack(*field).minus(stack0);
  r.consumed_mah = field->consumed_mah() - mah0;
  const PdesCounters pdes1 = field->pdes();
  r.pdes = {pdes1.windows - pdes0.windows, pdes1.widened - pdes0.widened,
            pdes1.messages - pdes0.messages};
  for (std::size_t l = 0; l < loops.size(); ++l) {
    r.region_events.push_back(loops[l]->events_processed() - loop_events0[l]);
  }
  double table_total = 0.0;
  for (std::size_t i = 0; i < field->size(); ++i) {
    table_total += static_cast<double>(field->node(i).routing_table().size());
    if (NodeSpans* s = field->spans(i)) r.spans.add(*s);
  }
  r.table_mean = table_total / static_cast<double>(field->size());
  if (probe_pool) probe.read(r);

  // The field goes first: node teardown may still complete sends.
  field.reset();
  r.ops = tally(w, traffic);

  if (kind == PassKind::Recorded) {
    r.trace_records = sink.events().size();
    const lm::trace::TraceAnalyzer analyzer(sink.take());
    lm::trace::InvariantOptions opts;
    opts.duty_cycle_limit = w.config.mesh.duty_cycle_limit;
    opts.duty_cycle_window = w.config.mesh.duty_cycle_window;
    for (std::string& v : analyzer.check_invariants(opts)) {
      if (is_transfer_key_collision(v)) {
        ++r.known_violations;
      } else {
        r.violations.push_back(std::move(v));
      }
    }
  }
  return r;
}

}  // namespace meshbench
