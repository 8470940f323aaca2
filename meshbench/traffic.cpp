#include "traffic.h"

#include <optional>
#include <utility>

namespace meshbench {

Traffic::Traffic(Field& field, const Workload& w)
    : field_(field), w_(w), outcomes_(w.ops.size()), bad_(field.size(), 0) {
  for (std::size_t i = 0; i < field_.size(); ++i) {
    lm::net::MeshNode& node = field_.node(i);
    node.set_datagram_handler([this, i](lm::net::Address origin,
                                        const std::vector<std::uint8_t>& payload,
                                        std::uint8_t /*hops*/) {
      on_delivery(i, origin, payload, false);
    });
    node.set_reliable_handler(
        [this, i](lm::net::Address origin, std::vector<std::uint8_t> payload) {
          on_delivery(i, origin, payload, true);
        });
  }
}

void Traffic::start() {
  for (std::size_t f = 0; f < w_.flows.size(); ++f) {
    if (w_.flows[f].empty()) continue;
    const Op& first = w_.ops[w_.flows[f].front()];
    field_.simulator_for(first.src).schedule_at(first.at,
                                                [this, f] { fire(f, 0); });
  }
}

std::uint64_t Traffic::bad_deliveries() const {
  std::uint64_t n = 0;
  for (const std::uint64_t b : bad_) n += b;
  return n;
}

void Traffic::fire(std::size_t flow, std::size_t k) {
  const std::uint32_t token = w_.flows[flow][k];
  const Op& op = w_.ops[token];
  lm::net::MeshNode& node = field_.node(op.src);
  NodeSpans* spans = field_.spans(op.src);
  OpOutcome& out = outcomes_[token];
  const auto dst = static_cast<lm::net::Address>(op.dst + 1);
  auto payload = make_payload(token, op.size);
  auto done = [&out](bool success) { out.confirmed = success; };

  std::optional<ScopedSpan> span;
  bool accepted = false;
  switch (op.kind) {
    case OpKind::Datagram:
      if (spans != nullptr) span.emplace(spans->send_datagram, *spans);
      accepted = node.send_datagram(dst, std::move(payload));
      break;
    case OpKind::Acked:
      if (spans != nullptr) span.emplace(spans->send_transport, *spans);
      accepted = node.send_acked(dst, std::move(payload), done);
      break;
    case OpKind::Reliable:
      if (spans != nullptr) span.emplace(spans->send_transport, *spans);
      accepted = node.send_reliable(dst, std::move(payload), done);
      break;
  }
  span.reset();
  out.refused = !accepted;

  if (k + 1 < w_.flows[flow].size()) {
    const Op& next = w_.ops[w_.flows[flow][k + 1]];
    field_.simulator_for(op.src).schedule_at(
        next.at, [this, flow, k] { fire(flow, k + 1); });
  }
}

void Traffic::on_delivery(std::size_t node, lm::net::Address origin,
                          std::span<const std::uint8_t> payload,
                          bool reliable) {
  const std::uint64_t token = verify_payload(payload.data(), payload.size());
  if (token >= w_.ops.size()) {
    ++bad_[node];
    return;
  }
  const Op& op = w_.ops[token];
  const bool kind_ok = reliable == (op.kind == OpKind::Reliable);
  if (op.dst != node || origin != op.src + 1 || payload.size() != op.size ||
      !kind_ok) {
    ++bad_[node];
    return;
  }
  OpOutcome& out = outcomes_[token];
  if (out.deliveries++ == 0) {
    out.latency_us = (field_.simulator_for(node).now() - op.at).us();
  }
}

}  // namespace meshbench
