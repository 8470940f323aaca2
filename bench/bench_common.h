// Shared helpers for the experiment harnesses (bench_*).
//
// Each bench binary regenerates one table/figure from DESIGN.md's
// experiment index and prints it as an aligned text table, plus the
// paper-claim context so EXPERIMENTS.md can record paper-vs-measured.
//
// Perf trajectory: every bench constructs a Reporter, which times the whole
// binary and each sweep point, always prints one machine-readable
// BENCH_SUMMARY line, and — when invoked with --json — writes
// BENCH_<name>.json so successive PRs can diff wall time and events/sec
// without re-parsing prose output.
#pragma once

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "phy/path_loss.h"
#include "support/thread_pool.h"
#include "testbed/scenario.h"

namespace lm::bench {

/// Prints the experiment banner.
inline void banner(const char* id, const char* title, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("paper claim: %s\n", claim);
  std::printf("==============================================================\n");
}

/// printf into a std::string.
inline std::string format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

/// Monotonic wall-clock stopwatch (the simulation itself never sees this —
/// it only feeds perf reporting).
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Collects named metrics for one bench run; prints a single
/// `BENCH_SUMMARY {...}` JSON line on finish() and, with --json, writes the
/// same object to BENCH_<name>.json in the working directory.
class Reporter {
 public:
  Reporter(const char* name, int argc, char** argv) : name_(name) {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--json") == 0) json_ = true;
      else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
        const long parsed = std::strtol(argv[i] + 10, nullptr, 10);
        if (parsed > 0) threads_ = static_cast<std::size_t>(parsed);
      }
    }
    if (threads_ == 0) threads_ = ThreadPool::default_thread_count();
  }

  ~Reporter() { finish(); }

  bool json() const { return json_; }

  /// Worker count a bench should use: --threads=N, else LM_THREADS, else
  /// hardware concurrency.
  std::size_t threads() const { return threads_; }

  void metric(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }

  /// Records one sweep point's wall time and prints it inline, so slow
  /// points are attributable without any external timing.
  void point(const std::string& label, double wall_s) {
    metric("point." + label + ".wall_s", wall_s);
    std::printf("[point] %-32s %8.2f s wall\n", label.c_str(), wall_s);
  }

  /// Emits the summary (idempotent; also run by the destructor).
  void finish() {
    if (finished_) return;
    finished_ = true;
    metric("wall_s", timer_.seconds());
    metric("threads", static_cast<double>(threads_));
    const std::string body = to_json();
    std::printf("BENCH_SUMMARY %s\n", body.c_str());
    if (json_) {
      const std::string path = "BENCH_" + name_ + ".json";
      if (std::FILE* f = std::fopen(path.c_str(), "w")) {
        std::fprintf(f, "%s\n", body.c_str());
        std::fclose(f);
        std::printf("wrote %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
      }
    }
  }

 private:
  std::string to_json() const {
    std::string out = "{\"name\":\"" + name_ + "\"";
    for (const auto& [key, value] : metrics_) {
      // 10 significant digits keep event counters past a million exact.
      out += ",\"" + key + "\":" + format("%.10g", value);
    }
    out += "}";
    return out;
  }

  std::string name_;
  bool json_ = false;
  bool finished_ = false;
  std::size_t threads_ = 0;
  WallTimer timer_;
  std::vector<std::pair<std::string, double>> metrics_;
};

/// Fixed-width table printer: feed a header row then data rows.
class Table {
 public:
  explicit Table(std::vector<std::string> header) : header_(std::move(header)) {}

  void row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print() const {
    std::vector<std::size_t> width(header_.size());
    for (std::size_t i = 0; i < header_.size(); ++i) width[i] = header_[i].size();
    for (const auto& r : rows_) {
      for (std::size_t i = 0; i < r.size() && i < width.size(); ++i) {
        if (r[i].size() > width[i]) width[i] = r[i].size();
      }
    }
    auto print_row = [&](const std::vector<std::string>& r) {
      for (std::size_t i = 0; i < r.size(); ++i) {
        std::printf("%-*s  ", static_cast<int>(width[i]), r[i].c_str());
      }
      std::printf("\n");
    };
    print_row(header_);
    std::string rule;
    for (std::size_t i = 0; i < header_.size(); ++i) {
      rule += std::string(width[i], '-') + "  ";
    }
    std::printf("%s\n", rule.c_str());
    for (const auto& r : rows_) print_row(r);
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// The standard "campus testbed" scenario configuration used across
/// experiments: log-distance n=3.5 so that 400 m chain neighbors decode
/// cleanly while 800 m does not (multi-hop topologies emerge from physics),
/// deterministic links unless a bench opts into shadowing/fading.
inline testbed::ScenarioConfig campus_config(std::uint64_t seed) {
  testbed::ScenarioConfig c;
  c.seed = seed;
  c.propagation.path_loss = phy::make_log_distance(3.5, 40.0);
  c.propagation.shadowing_sigma_db = 0.0;
  c.propagation.fading_sigma_db = 0.0;
  return c;
}

/// Chain spacing (m) under campus_config where adjacent nodes decode and
/// two-hop neighbors sit below sensitivity.
constexpr double kChainSpacing = 400.0;

}  // namespace lm::bench
