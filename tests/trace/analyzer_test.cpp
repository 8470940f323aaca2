// Unit tests for the trace layer itself: sinks, the canonical/JSONL
// renderers, journey reconstruction and every invariant checker, each
// exercised against small hand-built traces with known defects.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "trace/trace_analyzer.h"
#include "trace/trace_event.h"
#include "trace/trace_sink.h"

namespace lm::trace {
namespace {

TraceEvent make(EventKind kind, std::int64_t t_us, std::uint32_t node) {
  TraceEvent e;
  e.kind = kind;
  e.t_us = t_us;
  e.node = node;
  return e;
}

TraceEvent make_packet(EventKind kind, std::int64_t t_us, std::uint32_t node,
                       std::uint16_t origin, std::uint16_t packet_id,
                       std::uint8_t packet_type) {
  TraceEvent e = make(kind, t_us, node);
  e.origin = origin;
  e.packet_id = packet_id;
  e.packet_type = packet_type;
  return e;
}

constexpr std::uint8_t kDataType = 2;

// --- Sinks -----------------------------------------------------------------

TEST(Tracer, SilentWithoutSinkAndForwardsWithOne) {
  Tracer tracer;
  EXPECT_FALSE(tracer.on());
  tracer.emit(make(EventKind::NodeUp, 0, 1));  // must not crash

  VectorSink sink;
  tracer.attach(&sink);
  EXPECT_TRUE(tracer.on());
  tracer.emit(make(EventKind::NodeUp, 5, 1));
  ASSERT_EQ(sink.events().size(), 1u);
  EXPECT_EQ(sink.events()[0].kind, EventKind::NodeUp);
  EXPECT_EQ(sink.events()[0].t_us, 5);

  tracer.attach(nullptr);
  tracer.emit(make(EventKind::NodeDown, 9, 1));
  EXPECT_EQ(sink.events().size(), 1u);
}

TEST(VectorSink, TakeMovesAndClearEmpties) {
  VectorSink sink;
  sink.record(make(EventKind::NodeUp, 1, 1));
  sink.record(make(EventKind::NodeDown, 2, 1));
  const auto taken = sink.take();
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_TRUE(sink.events().empty());
  sink.record(make(EventKind::NodeUp, 3, 1));
  sink.clear();
  EXPECT_TRUE(sink.events().empty());
}

TEST(JsonlSink, WritesOneLinePerEvent) {
  const std::string path = ::testing::TempDir() + "lm_trace_jsonl_test.jsonl";
  {
    JsonlSink sink(path);
    ASSERT_TRUE(sink.ok());
    sink.record(make(EventKind::NodeUp, 1, 1));
    sink.record(make(EventKind::NodeDown, 2, 1));
    EXPECT_EQ(sink.lines_written(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
  std::remove(path.c_str());
}

TEST(JsonlSink, UnopenablePathIsInertNotFatal) {
  JsonlSink sink("/nonexistent-dir-for-lm-trace/x.jsonl");
  EXPECT_FALSE(sink.ok());
  sink.record(make(EventKind::NodeUp, 1, 1));  // must not crash
  EXPECT_EQ(sink.lines_written(), 0u);
}

// --- Renderers -------------------------------------------------------------

TEST(Renderers, CanonicalLineIsExactAndFloatFree) {
  TraceEvent e = make_packet(EventKind::Forward, 1234567, 2, 1, 42, kDataType);
  e.reason = DropReason::None;
  e.hops = 1;
  e.ttl = 15;
  e.final_dst = 4;
  e.via = 3;
  e.bytes = 27;
  e.tx_seq = 9;
  e.aux_us = 61696;
  e.value = 3.14159;  // must not appear in the canonical rendering
  EXPECT_EQ(canonical_line(e),
            "t=1234567 n=2 k=forward r=none pt=DATA o=1 d=4 id=42 via=3 h=1 "
            "ttl=15 b=27 seq=9 aux=61696");

  TraceEvent same_but_value = e;
  same_but_value.value = -99.5;
  EXPECT_EQ(canonical_line(e), canonical_line(same_but_value));
  EXPECT_NE(to_jsonl(e), to_jsonl(same_but_value));
}

TEST(Renderers, PacketTypeNamesMirrorNetPacketType) {
  EXPECT_EQ(packet_type_name(0), "-");
  EXPECT_EQ(packet_type_name(1), "ROUTING");
  EXPECT_EQ(packet_type_name(2), "DATA");
  EXPECT_EQ(packet_type_name(9), "ACKED_DATA");
  EXPECT_EQ(packet_type_name(10), "ACK");
  EXPECT_EQ(packet_type_name(77), "T77");
}

TEST(Renderers, JsonlCarriesKindReasonAndValue) {
  TraceEvent e = make(EventKind::ChannelDrop, 10, 3);
  e.reason = DropReason::Collision;
  e.value = -97.25;
  const std::string json = to_jsonl(e);
  EXPECT_NE(json.find("\"kind\":\"chan_drop\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"collision\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":-97.250"), std::string::npos);
}

// --- Journey reconstruction ------------------------------------------------

// A 2-hop synthetic journey: node 1 originates, node 2 forwards, node 3
// delivers. Channel events carry no identity; the analyzer must join them
// through the MeshTx -> TxStart same-node-same-time adjacency.
std::vector<TraceEvent> two_hop_journey() {
  std::vector<TraceEvent> t;
  t.push_back(make_packet(EventKind::AppSubmit, 0, 1, 1, 7, kDataType));
  t.push_back(make_packet(EventKind::Enqueue, 0, 1, 1, 7, kDataType));
  auto tx1 = make_packet(EventKind::MeshTx, 100, 1, 1, 7, kDataType);
  tx1.via = 2;
  t.push_back(tx1);
  auto start1 = make(EventKind::TxStart, 100, 1);
  start1.tx_seq = 1;
  t.push_back(start1);
  auto end1 = make(EventKind::TxEnd, 160, 1);
  end1.tx_seq = 1;
  t.push_back(end1);
  auto del1 = make(EventKind::ChannelDeliver, 160, 2);
  del1.tx_seq = 1;
  t.push_back(del1);
  t.push_back(make_packet(EventKind::RxFrame, 160, 2, 1, 7, kDataType));
  auto fwd = make_packet(EventKind::Forward, 160, 2, 1, 7, kDataType);
  fwd.hops = 1;
  t.push_back(fwd);
  auto tx2 = make_packet(EventKind::MeshTx, 300, 2, 1, 7, kDataType);
  tx2.hops = 1;
  tx2.via = 3;
  t.push_back(tx2);
  auto start2 = make(EventKind::TxStart, 300, 2);
  start2.tx_seq = 2;
  t.push_back(start2);
  auto end2 = make(EventKind::TxEnd, 360, 2);
  end2.tx_seq = 2;
  t.push_back(end2);
  auto del2 = make(EventKind::ChannelDeliver, 360, 3);
  del2.tx_seq = 2;
  t.push_back(del2);
  auto rx2 = make_packet(EventKind::RxFrame, 360, 3, 1, 7, kDataType);
  rx2.hops = 1;
  t.push_back(rx2);
  auto deliver = make_packet(EventKind::Deliver, 360, 3, 1, 7, kDataType);
  deliver.hops = 2;
  t.push_back(deliver);
  return t;
}

TEST(TraceAnalyzer, ReconstructsJourneyAcrossLayerBoundary) {
  TraceAnalyzer analyzer(two_hop_journey());
  ASSERT_EQ(analyzer.journeys().size(), 1u);
  const auto& [key, journey] = *analyzer.journeys().begin();
  EXPECT_EQ(key.origin, 1);
  EXPECT_EQ(key.packet_id, 7);
  EXPECT_EQ(key.packet_type, kDataType);
  EXPECT_TRUE(journey.delivered);
  // Every event — including the identity-less channel events of both hops —
  // lands in the one journey.
  EXPECT_EQ(journey.events.size(), analyzer.events().size());
  EXPECT_EQ(analyzer.delivered_count(), 1u);
}

TEST(TraceAnalyzer, CleanJourneySatisfiesAllInvariants) {
  TraceAnalyzer analyzer(two_hop_journey());
  InvariantOptions opts;
  opts.check_routes = false;  // synthetic trace has no RouteAdd events
  EXPECT_TRUE(analyzer.check_invariants(opts).empty());
}

TEST(TraceAnalyzer, LossAccountingByCause) {
  std::vector<TraceEvent> t;
  auto d1 = make_packet(EventKind::Drop, 1, 1, 1, 1, kDataType);
  d1.reason = DropReason::NoRoute;
  t.push_back(d1);
  auto d2 = make_packet(EventKind::Drop, 2, 1, 1, 2, kDataType);
  d2.reason = DropReason::NoRoute;
  t.push_back(d2);
  auto q = make_packet(EventKind::QueueDrop, 3, 1, 1, 3, kDataType);
  q.reason = DropReason::QueueFull;
  t.push_back(q);
  auto c = make(EventKind::ChannelDrop, 4, 2);
  c.reason = DropReason::Collision;
  t.push_back(c);
  auto culled = make(EventKind::ChannelDrop, 5, 0);
  culled.reason = DropReason::OutOfRange;
  culled.bytes = 7;  // bulk count from the spatial index
  t.push_back(culled);

  TraceAnalyzer analyzer(std::move(t));
  const auto mesh = analyzer.loss_by_cause();
  EXPECT_EQ(mesh.at(DropReason::NoRoute), 2u);
  EXPECT_EQ(mesh.at(DropReason::QueueFull), 1u);
  const auto chan = analyzer.channel_loss_by_cause();
  EXPECT_EQ(chan.at(DropReason::Collision), 1u);
  EXPECT_EQ(chan.at(DropReason::OutOfRange), 7u);

  const std::string table = analyzer.loss_table();
  EXPECT_NE(table.find("no_route"), std::string::npos);
  EXPECT_NE(table.find("out_of_range"), std::string::npos);
}

// --- Invariant violations on defective traces ------------------------------

TEST(Invariants, DetectsDoubleDelivery) {
  std::vector<TraceEvent> t;
  t.push_back(make_packet(EventKind::Deliver, 10, 3, 1, 7, kDataType));
  t.push_back(make_packet(EventKind::Deliver, 20, 3, 1, 7, kDataType));
  TraceAnalyzer analyzer(std::move(t));
  InvariantOptions opts;
  opts.check_routes = false;
  const auto violations = analyzer.check_invariants(opts);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("double delivery"), std::string::npos);
}

TEST(Invariants, DetectsHopRegression) {
  std::vector<TraceEvent> t;
  auto a = make_packet(EventKind::RxFrame, 10, 2, 1, 7, kDataType);
  a.hops = 2;
  t.push_back(a);
  auto b = make_packet(EventKind::Forward, 20, 2, 1, 7, kDataType);
  b.hops = 1;  // went backwards
  t.push_back(b);
  TraceAnalyzer analyzer(std::move(t));
  InvariantOptions opts;
  opts.check_routes = false;
  const auto violations = analyzer.check_invariants(opts);
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations[0].find("not monotone"), std::string::npos);
}

TEST(Invariants, DetectsTtlIncrease) {
  std::vector<TraceEvent> t;
  auto a = make_packet(EventKind::RxFrame, 10, 2, 1, 7, kDataType);
  a.ttl = 10;
  t.push_back(a);
  auto b = make_packet(EventKind::Forward, 20, 2, 1, 7, kDataType);
  b.ttl = 11;  // TTL must never grow
  t.push_back(b);
  TraceAnalyzer analyzer(std::move(t));
  InvariantOptions opts;
  opts.check_routes = false;
  EXPECT_FALSE(analyzer.check_invariants(opts).empty());
}

TEST(Invariants, AckedDataRetriesAreExemptFromMonotonicity) {
  // An ARQ retry legitimately re-sends the same packet_id from hop 0.
  constexpr std::uint8_t kAckedDataType = 9;
  std::vector<TraceEvent> t;
  auto a = make_packet(EventKind::MeshTx, 10, 2, 1, 7, kAckedDataType);
  a.hops = 2;  // forwarder re-emitting the first attempt
  t.push_back(a);
  auto b = make_packet(EventKind::MeshTx, 20, 1, 1, 7, kAckedDataType);
  b.hops = 0;  // origin retry restarts at hop zero
  t.push_back(b);
  TraceAnalyzer analyzer(std::move(t));
  InvariantOptions opts;
  opts.check_routes = false;
  EXPECT_TRUE(analyzer.check_invariants(opts).empty());
}

TEST(Invariants, TransferDeliverDoesNotJoinSyncFrameMonotonicity) {
  // A routed SYNC frame (origin 1, id 5) crosses two hops; node 3 then
  // completes a reliable transfer whose seq is also 5. The transfer-level
  // Deliver carries hops/ttl 0 and lands in the frame's journey, but it is
  // no wire copy and must not read as a hop regression.
  constexpr std::uint8_t kSyncType = 3;
  std::vector<TraceEvent> t;
  auto tx1 = make_packet(EventKind::MeshTx, 10, 1, 1, 5, kSyncType);
  tx1.ttl = 10;
  tx1.via = 2;
  t.push_back(tx1);
  auto fwd = make_packet(EventKind::Forward, 20, 2, 1, 5, kSyncType);
  fwd.hops = 1;
  fwd.ttl = 9;
  t.push_back(fwd);
  auto tx2 = make_packet(EventKind::MeshTx, 30, 2, 1, 5, kSyncType);
  tx2.hops = 1;
  tx2.ttl = 9;
  tx2.via = 3;
  t.push_back(tx2);
  auto done = make_packet(EventKind::Deliver, 40, 3, 1, 5, kSyncType);
  done.final_dst = 3;
  done.bytes = 1000;
  t.push_back(done);
  InvariantOptions opts;
  opts.check_routes = false;
  EXPECT_TRUE(TraceAnalyzer(t).check_invariants(opts).empty());

  // A wire copy of the same unicast going back a hop still reports.
  auto back = make_packet(EventKind::Forward, 35, 3, 1, 5, kSyncType);
  back.ttl = 9;  // hops 0 after 1
  t.insert(t.end() - 1, back);
  const auto violations = TraceAnalyzer(std::move(t)).check_invariants(opts);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("not monotone"), std::string::npos);
}

TEST(Invariants, DetectsDutyBudgetOverrun) {
  // limit 0.1 over a 1 s window = 100 ms budget; two 80 ms frames 100 ms
  // apart blow through it on the second emission.
  std::vector<TraceEvent> t;
  auto tx1 = make_packet(EventKind::MeshTx, 0, 1, 1, 1, kDataType);
  tx1.aux_us = 80000;
  t.push_back(tx1);
  auto tx2 = make_packet(EventKind::MeshTx, 100000, 1, 1, 2, kDataType);
  tx2.aux_us = 80000;
  t.push_back(tx2);
  TraceAnalyzer analyzer(std::move(t));
  InvariantOptions opts;
  opts.check_routes = false;
  opts.duty_cycle_limit = 0.1;
  opts.duty_cycle_window = Duration::seconds(1);
  const auto violations = analyzer.check_invariants(opts);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("duty budget exceeded"), std::string::npos);

  // The same trace is clean once the first frame has slid out of the window.
  std::vector<TraceEvent> spread = analyzer.events();
  spread[1].t_us = 1500000;
  TraceAnalyzer relaxed(std::move(spread));
  EXPECT_TRUE(relaxed.check_invariants(opts).empty());
}

TEST(Invariants, DetectsRxWithoutChannelDelivery) {
  std::vector<TraceEvent> t;
  t.push_back(make_packet(EventKind::RxFrame, 50, 2, 1, 7, kDataType));
  TraceAnalyzer analyzer(std::move(t));
  InvariantOptions opts;
  opts.check_routes = false;
  const auto violations = analyzer.check_invariants(opts);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("without a channel delivery"),
            std::string::npos);
}

TEST(Invariants, DetectsDeliveryFromUnknownTransmission) {
  std::vector<TraceEvent> t;
  auto d = make(EventKind::ChannelDeliver, 50, 2);
  d.tx_seq = 42;  // never started
  t.push_back(d);
  TraceAnalyzer analyzer(std::move(t));
  InvariantOptions opts;
  opts.check_routes = false;
  const auto violations = analyzer.check_invariants(opts);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("unknown tx_seq"), std::string::npos);
}

TEST(Invariants, DetectsDeliveryNotAtFrameEnd) {
  std::vector<TraceEvent> t;
  auto start = make(EventKind::TxStart, 0, 1);
  start.tx_seq = 1;
  t.push_back(start);
  auto end = make(EventKind::TxEnd, 100, 1);
  end.tx_seq = 1;
  t.push_back(end);
  auto d = make(EventKind::ChannelDeliver, 50, 2);  // mid-flight
  d.tx_seq = 1;
  t.push_back(d);
  TraceAnalyzer analyzer(std::move(t));
  InvariantOptions opts;
  opts.check_routes = false;
  const auto violations = analyzer.check_invariants(opts);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("not at frame end"), std::string::npos);
}

TEST(Invariants, DetectsForwardViaRouteNeverHeld) {
  std::vector<TraceEvent> t;
  auto tx = make_packet(EventKind::MeshTx, 10, 2, 1, 7, kDataType);
  tx.final_dst = 4;
  tx.via = 3;
  t.push_back(tx);
  TraceAnalyzer analyzer(t);
  InvariantOptions opts;  // check_routes defaults to true
  const auto violations = analyzer.check_invariants(opts);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("never held that route"), std::string::npos);

  // Prepending the matching RouteAdd makes the same trace clean.
  auto add = make(EventKind::RouteAdd, 5, 2);
  add.final_dst = 4;
  add.via = 3;
  t.insert(t.begin(), add);
  TraceAnalyzer fixed(std::move(t));
  EXPECT_TRUE(fixed.check_invariants(opts).empty());
}

TEST(Invariants, CanonicalTextJoinsOneLinePerEvent) {
  const auto events = two_hop_journey();
  const std::string text = TraceAnalyzer::canonical_text(events);
  std::size_t lines = 0;
  for (const char c : text) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, events.size());
  EXPECT_EQ(text.rfind("t=0 n=1 k=app_submit", 0), 0u);  // starts the text
}

}  // namespace
}  // namespace lm::trace
