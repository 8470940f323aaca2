#include "trace/trace_analyzer.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <set>

namespace lm::trace {

namespace {

constexpr std::uint16_t kBroadcastAddr = 0xFFFF;
constexpr std::uint8_t kRoutingType = 1;
constexpr std::uint8_t kSyncType = 3;
constexpr std::uint8_t kAckedDataType = 9;

bool has_packet_identity(const TraceEvent& e) {
  switch (e.kind) {
    case EventKind::TxStart:
    case EventKind::TxEnd:
    case EventKind::CadDone:
    case EventKind::ChannelDeliver:
    case EventKind::ChannelDrop:
    case EventKind::RouteAdd:
    case EventKind::NodeUp:
    case EventKind::NodeDown:
      return false;
    default:
      return e.origin != 0 || e.packet_type != 0;
  }
}

}  // namespace

TraceAnalyzer::TraceAnalyzer(std::vector<TraceEvent> events)
    : events_(std::move(events)) {
  build_journeys();
}

void TraceAnalyzer::build_journeys() {
  // A node's MeshTx and the channel's TxStart for the same frame are
  // emitted back-to-back at the same timestamp (radio.transmit() runs
  // synchronously under transmit_now()), which is what lets the identity
  // cross the mesh/radio layer boundary without widening the radio API.
  struct LastTx {
    PacketKey key;
    std::int64_t t_us = -1;
  };
  std::map<std::uint32_t, LastTx> last_mesh_tx;

  for (const TraceEvent& e : events_) {
    if (has_packet_identity(e)) {
      const PacketKey key{e.origin, e.packet_id, e.packet_type};
      Journey& j = journeys_[key];
      j.key = key;
      j.events.push_back(e);
      if (e.kind == EventKind::Deliver) j.delivered = true;
      if (e.kind == EventKind::MeshTx) last_mesh_tx[e.node] = LastTx{key, e.t_us};
      continue;
    }
    if (e.kind == EventKind::TxStart) {
      const auto it = last_mesh_tx.find(e.node);
      if (it != last_mesh_tx.end() && it->second.t_us == e.t_us) {
        tx_owner_.emplace(e.tx_seq, it->second.key);
      }
    }
    if (e.kind == EventKind::TxStart || e.kind == EventKind::TxEnd ||
        e.kind == EventKind::ChannelDeliver ||
        e.kind == EventKind::ChannelDrop) {
      const auto owner = tx_owner_.find(e.tx_seq);
      if (owner != tx_owner_.end()) {
        journeys_[owner->second].events.push_back(e);
      }
    }
  }
}

std::map<DropReason, std::uint64_t> TraceAnalyzer::loss_by_cause() const {
  std::map<DropReason, std::uint64_t> out;
  for (const TraceEvent& e : events_) {
    if (e.kind == EventKind::Drop || e.kind == EventKind::QueueDrop) {
      out[e.reason]++;
    }
  }
  return out;
}

std::map<DropReason, std::uint64_t> TraceAnalyzer::channel_loss_by_cause()
    const {
  std::map<DropReason, std::uint64_t> out;
  for (const TraceEvent& e : events_) {
    if (e.kind != EventKind::ChannelDrop) continue;
    // Spatial-index culling reports whole batches: bytes carries the count.
    out[e.reason] += e.reason == DropReason::OutOfRange ? e.bytes : 1;
  }
  return out;
}

std::uint64_t TraceAnalyzer::delivered_count() const {
  std::uint64_t n = 0;
  for (const TraceEvent& e : events_) {
    if (e.kind == EventKind::Deliver) ++n;
  }
  return n;
}

std::string TraceAnalyzer::loss_table() const {
  std::string out;
  char line[128];
  out += "mesh-layer drops by cause:\n";
  for (const auto& [reason, count] : loss_by_cause()) {
    std::snprintf(line, sizeof line, "  %-20s %8llu\n", to_string(reason),
                  static_cast<unsigned long long>(count));
    out += line;
  }
  out += "channel receptions lost by cause:\n";
  for (const auto& [reason, count] : channel_loss_by_cause()) {
    std::snprintf(line, sizeof line, "  %-20s %8llu\n", to_string(reason),
                  static_cast<unsigned long long>(count));
    out += line;
  }
  std::snprintf(line, sizeof line, "delivered: %llu\n",
                static_cast<unsigned long long>(delivered_count()));
  out += line;
  return out;
}

std::string TraceAnalyzer::canonical_text(const std::vector<TraceEvent>& events) {
  std::string out;
  out.reserve(events.size() * 96);
  for (const TraceEvent& e : events) {
    out += canonical_line(e);
    out += '\n';
  }
  return out;
}

std::vector<std::string> TraceAnalyzer::check_invariants(
    const InvariantOptions& opts) const {
  std::vector<std::string> violations;
  char msg[256];
  auto report = [&](const char* text) { violations.emplace_back(text); };

  // --- 1. No double delivery without a duplicate event ----------------------
  std::map<std::pair<std::uint32_t, PacketKey>, std::uint64_t> delivers;
  for (const TraceEvent& e : events_) {
    if (e.kind != EventKind::Deliver) continue;
    const auto count =
        ++delivers[{e.node, PacketKey{e.origin, e.packet_id, e.packet_type}}];
    if (count > 1) {
      std::snprintf(msg, sizeof msg,
                    "double delivery: node %u origin %u id %u type %u",
                    e.node, e.origin, e.packet_id, e.packet_type);
      report(msg);
    }
  }

  // --- 2. Hop counts monotone along a journey -------------------------------
  // AckedData retries legitimately restart at hops 0 under one packet_id,
  // so the ARQ family is exempt. Broadcast-addressed wire copies (flood
  // relays: flooding data, RREQ waves, tree beacons) keep one packet_id
  // across every branch of the wave, and only *causal* order — not the
  // chronological interleaving of independent branches — guarantees
  // monotone hops, so they are exempt too; unicast chains are causal. A
  // completed reliable transfer logs one transfer-level Deliver (type Sync,
  // hops/ttl 0, packet_id = transfer seq) that is no wire copy at all; it
  // joins a routed SYNC frame's journey whenever the two ids collide, so it
  // is skipped here.
  for (const auto& [key, journey] : journeys_) {
    if (key.packet_type == kAckedDataType || key.packet_type == kRoutingType) {
      continue;
    }
    int last_hops = -1;
    int last_ttl = 256;
    for (const TraceEvent& e : journey.events) {
      if (e.kind != EventKind::MeshTx && e.kind != EventKind::RxFrame &&
          e.kind != EventKind::Forward && e.kind != EventKind::Deliver) {
        continue;
      }
      if (e.via == kBroadcastAddr) continue;
      if (e.kind == EventKind::Deliver && e.packet_type == kSyncType) continue;
      if (e.hops < last_hops || e.ttl > last_ttl) {
        std::snprintf(msg, sizeof msg,
                      "hop/ttl not monotone: origin %u id %u type %u at "
                      "t=%lld (hops %u after %d, ttl %u after %d)",
                      key.origin, key.packet_id, key.packet_type,
                      static_cast<long long>(e.t_us), e.hops, last_hops, e.ttl,
                      last_ttl);
        report(msg);
        break;
      }
      last_hops = e.hops;
      last_ttl = e.ttl;
    }
  }

  // --- 3. Every TX inside the duty-cycle budget -----------------------------
  // Replays the limiter's sliding window per node: an emission leaves the
  // window once start + window <= now; budget = window * limit, computed
  // with the same Duration arithmetic DutyCycleLimiter uses.
  if (opts.duty_cycle_limit < 1.0) {
    const Duration budget = opts.duty_cycle_window * opts.duty_cycle_limit;
    std::map<std::uint32_t, std::deque<std::pair<TimePoint, Duration>>> window;
    for (const TraceEvent& e : events_) {
      if (e.kind != EventKind::MeshTx) continue;
      const TimePoint now = TimePoint::from_us(e.t_us);
      const Duration airtime = Duration::microseconds(e.aux_us);
      auto& emissions = window[e.node];
      while (!emissions.empty() &&
             emissions.front().first + opts.duty_cycle_window <= now) {
        emissions.pop_front();
      }
      Duration used = Duration::zero();
      for (const auto& [start, spent] : emissions) used += spent;
      if (used + airtime > budget) {
        std::snprintf(msg, sizeof msg,
                      "duty budget exceeded: node %u at t=%lld (used %lld us "
                      "+ %lld us > budget %lld us)",
                      e.node, static_cast<long long>(e.t_us),
                      static_cast<long long>(used.us()),
                      static_cast<long long>(airtime.us()),
                      static_cast<long long>(budget.us()));
        report(msg);
      }
      emissions.emplace_back(now, airtime);
    }
  }

  // --- 4. Every RX matched to exactly one TX --------------------------------
  std::map<std::uint64_t, std::uint64_t> tx_starts;
  std::map<std::uint64_t, std::int64_t> tx_ends;
  for (const TraceEvent& e : events_) {
    if (e.kind == EventKind::TxStart) tx_starts[e.tx_seq]++;
    if (e.kind == EventKind::TxEnd) tx_ends.emplace(e.tx_seq, e.t_us);
  }
  for (const auto& [seq, count] : tx_starts) {
    if (count > 1) {
      std::snprintf(msg, sizeof msg, "tx_seq %llu started %llu times",
                    static_cast<unsigned long long>(seq),
                    static_cast<unsigned long long>(count));
      report(msg);
    }
  }
  std::set<std::pair<std::uint64_t, std::uint32_t>> seen_deliveries;
  std::multiset<std::pair<std::uint32_t, std::int64_t>> channel_deliveries;
  for (const TraceEvent& e : events_) {
    if (e.kind != EventKind::ChannelDeliver) continue;
    channel_deliveries.emplace(e.node, e.t_us);
    if (tx_starts.find(e.tx_seq) == tx_starts.end()) {
      std::snprintf(msg, sizeof msg,
                    "delivery at node %u references unknown tx_seq %llu",
                    e.node, static_cast<unsigned long long>(e.tx_seq));
      report(msg);
      continue;
    }
    if (!seen_deliveries.emplace(e.tx_seq, e.node).second) {
      std::snprintf(msg, sizeof msg,
                    "tx_seq %llu delivered twice to node %u",
                    static_cast<unsigned long long>(e.tx_seq), e.node);
      report(msg);
    }
    const auto end = tx_ends.find(e.tx_seq);
    if (end == tx_ends.end() || end->second != e.t_us) {
      std::snprintf(msg, sizeof msg,
                    "delivery of tx_seq %llu at t=%lld not at frame end",
                    static_cast<unsigned long long>(e.tx_seq),
                    static_cast<long long>(e.t_us));
      report(msg);
    }
  }
  for (const TraceEvent& e : events_) {
    if (e.kind != EventKind::RxFrame) continue;
    const auto it = channel_deliveries.find({e.node, e.t_us});
    if (it == channel_deliveries.end()) {
      std::snprintf(msg, sizeof msg,
                    "rx_frame at node %u t=%lld without a channel delivery",
                    e.node, static_cast<long long>(e.t_us));
      report(msg);
    } else {
      channel_deliveries.erase(it);
    }
  }

  // --- 5. No forward via a route the table never held -----------------------
  if (opts.check_routes) {
    std::set<std::tuple<std::uint32_t, std::uint16_t, std::uint16_t>> held;
    for (const TraceEvent& e : events_) {
      if (e.kind == EventKind::RouteAdd) {
        held.emplace(e.node, e.final_dst, e.via);
        continue;
      }
      if (e.kind != EventKind::MeshTx) continue;
      if (e.packet_type == kRoutingType) continue;   // beacons are broadcast
      if (e.via == 0 || e.via == kBroadcastAddr) continue;
      if (!held.contains({e.node, e.final_dst, e.via})) {
        std::snprintf(msg, sizeof msg,
                      "node %u transmitted toward %u via %u at t=%lld but "
                      "never held that route",
                      e.node, e.final_dst, e.via,
                      static_cast<long long>(e.t_us));
        report(msg);
      }
    }
  }

  // --- 6. Energy ledger consistent; dead nodes stay silent ------------------
  // EnergyState events chain per node: each reports the interval spent in
  // the state just left (aux_us), so consecutive events' timestamps must
  // differ by exactly that interval. After a Brownout a node must not
  // transmit (MeshTx) until the chaos machinery brings it back up.
  {
    std::map<std::uint32_t, std::int64_t> last_energy_t;
    std::set<std::uint32_t> browned_out;
    for (const TraceEvent& e : events_) {
      if (e.kind == EventKind::EnergyState) {
        const auto it = last_energy_t.find(e.node);
        if (it != last_energy_t.end() && e.t_us - it->second != e.aux_us) {
          std::snprintf(msg, sizeof msg,
                        "energy ledger gap: node %u at t=%lld reports %lld us "
                        "in state but %lld us elapsed since last settle",
                        e.node, static_cast<long long>(e.t_us),
                        static_cast<long long>(e.aux_us),
                        static_cast<long long>(e.t_us - it->second));
          report(msg);
        }
        last_energy_t[e.node] = e.t_us;
      } else if (e.kind == EventKind::Brownout) {
        browned_out.insert(e.node);
      } else if (e.kind == EventKind::NodeUp) {
        browned_out.erase(e.node);
      } else if (e.kind == EventKind::MeshTx && browned_out.contains(e.node)) {
        std::snprintf(msg, sizeof msg,
                      "node %u transmitted at t=%lld after brownout", e.node,
                      static_cast<long long>(e.t_us));
        report(msg);
      }
    }
  }

  return violations;
}

}  // namespace lm::trace
