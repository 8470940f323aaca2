// Golden-trace regression test.
//
// Runs the canonical traced chain scenario (tests/trace/trace_test_util.h)
// at a fixed seed and diffs the canonical trace rendering byte-for-byte
// against the checked-in golden file. Any behavioral change anywhere in the
// stack — routing metric, backoff policy, airtime rounding, queue order —
// shifts at least one event and flips this test.
//
// To regenerate after an intentional behavior change:
//   scripts/check_traces.sh --update-golden
// (or LM_UPDATE_GOLDEN=1 ./build/tests/test_trace
//      --gtest_filter='GoldenTrace.*MatchesCheckedInGolden')
// then inspect the diff of every file in tests/trace/golden/ (the
// distance-vector, AODV, gateway-tree and flooding chains) and commit it
// alongside the change that explains it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "net/aodv_strategy.h"
#include "net/flooding_strategy.h"
#include "net/gateway_tree_strategy.h"
#include "trace/trace_analyzer.h"
#include "trace_test_util.h"

namespace lm::testbed {
namespace {

constexpr std::uint64_t kGoldenSeed = 2022;
const char* const kGoldenPath = LM_TRACE_GOLDEN_DIR "/chain4_seed2022.trace";

std::string capture_canonical() {
  return lm::trace::TraceAnalyzer::canonical_text(
      trace_test::capture_chain_trace(kGoldenSeed));
}

// Golden check shared by the per-strategy traces: regenerate under
// LM_UPDATE_GOLDEN, otherwise byte-diff against the checked-in file.
void check_against_golden(const std::string& canonical, const char* path);

// First differing line between two multi-line strings, for a readable
// failure message instead of a megabyte of EXPECT_EQ dump.
std::string first_diff(const std::string& got, const std::string& want) {
  std::istringstream a(got), b(want);
  std::string la, lb;
  std::size_t line = 0;
  while (true) {
    const bool ha = static_cast<bool>(std::getline(a, la));
    const bool hb = static_cast<bool>(std::getline(b, lb));
    ++line;
    if (!ha && !hb) return "traces identical";
    if (la != lb || ha != hb) {
      return "line " + std::to_string(line) + ":\n  got:  " +
             (ha ? la : "<end of trace>") + "\n  want: " +
             (hb ? lb : "<end of golden>");
    }
  }
}

void check_against_golden(const std::string& canonical, const char* path) {
  ASSERT_FALSE(canonical.empty());

  if (std::getenv("LM_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << canonical;
    GTEST_SKIP() << "golden regenerated at " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — regenerate with LM_UPDATE_GOLDEN=1 and "
                            "commit it";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string golden = buf.str();

  EXPECT_EQ(canonical.size(), golden.size());
  EXPECT_TRUE(canonical == golden) << first_diff(canonical, golden);
}

TEST(GoldenTrace, MatchesCheckedInGolden) {
  check_against_golden(capture_canonical(), kGoldenPath);
}

// Per-strategy goldens on the same chain recipe: the reactive strategies
// run warm-up-for-time instead of converge (trace_test_util.h), so their
// control traffic — RREQ floods and tree beacons, not hop-count
// advertisements — is pinned byte-for-byte exactly like the
// distance-vector baseline above.
TEST(GoldenTrace, AodvChainMatchesCheckedInGolden) {
  const std::string canonical = lm::trace::TraceAnalyzer::canonical_text(
      trace_test::capture_strategy_chain_trace(
          [] { return std::make_unique<lm::net::AodvStrategy>(); },
          /*gateway_root=*/false, kGoldenSeed));
  check_against_golden(canonical,
                       LM_TRACE_GOLDEN_DIR "/aodv_chain4_seed2022.trace");
}

TEST(GoldenTrace, GatewayTreeChainMatchesCheckedInGolden) {
  const std::string canonical = lm::trace::TraceAnalyzer::canonical_text(
      trace_test::capture_strategy_chain_trace(
          [] {
            lm::net::GatewayTreeConfig cfg;
            cfg.beacon_interval = Duration::seconds(40);
            cfg.report_interval = Duration::seconds(60);
            return std::make_unique<lm::net::GatewayTreeStrategy>(cfg);
          },
          /*gateway_root=*/true, kGoldenSeed));
  check_against_golden(canonical,
                       LM_TRACE_GOLDEN_DIR "/tree_chain4_seed2022.trace");
}

// Flooding has no routing plane: the warm-up is silent and the traffic
// phase pins every relay's jitter draw and every duplicate drop.
TEST(GoldenTrace, FloodingChainMatchesCheckedInGolden) {
  const std::string canonical = lm::trace::TraceAnalyzer::canonical_text(
      trace_test::capture_strategy_chain_trace(
          [] { return std::make_unique<lm::net::FloodingStrategy>(); },
          /*gateway_root=*/false, kGoldenSeed));
  check_against_golden(canonical,
                       LM_TRACE_GOLDEN_DIR "/flood_chain4_seed2022.trace");
}

TEST(GoldenTrace, SameBinaryProducesIdenticalTraceTwice) {
  const std::string first = capture_canonical();
  const std::string second = capture_canonical();
  EXPECT_TRUE(first == second) << first_diff(second, first);
}

TEST(GoldenTrace, ScenarioExercisesTheFullLifecycle) {
  // Guard against the golden silently degenerating into a trivial trace:
  // the 4-node chain must show multi-hop forwarding, channel activity and
  // end-to-end deliveries.
  lm::trace::TraceAnalyzer analyzer(
      trace_test::capture_chain_trace(kGoldenSeed));
  EXPECT_GT(analyzer.events().size(), 100u);
  EXPECT_GT(analyzer.delivered_count(), 0u);
  bool saw_forward = false;
  bool saw_channel = false;
  for (const auto& e : analyzer.events()) {
    saw_forward |= e.kind == lm::trace::EventKind::Forward;
    saw_channel |= e.kind == lm::trace::EventKind::ChannelDeliver;
  }
  EXPECT_TRUE(saw_forward);
  EXPECT_TRUE(saw_channel);
}

}  // namespace
}  // namespace lm::testbed
