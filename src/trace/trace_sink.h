// Trace sinks: where flight-recorder events go.
//
// Instrumented classes hold a `Tracer*` (null by default — the untraced hot
// path costs exactly one branch). A Tracer forwards to one TraceSink:
//   * VectorSink  — unbounded in-memory capture, for tests and analysis;
//   * JsonlSink   — one JSON object per line to a file, for offline tools.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "trace/trace_event.h"

namespace lm::trace {

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(const TraceEvent& event) = 0;
};

/// Dispatch point the instrumented layers talk to. Holding a Tracer with no
/// sink attached is valid and silent.
class Tracer {
 public:
  void attach(TraceSink* sink) { sink_ = sink; }
  TraceSink* sink() const { return sink_; }
  bool on() const { return sink_ != nullptr; }
  void emit(const TraceEvent& event) {
    if (sink_ != nullptr) sink_->record(event);
  }

 private:
  TraceSink* sink_ = nullptr;
};

/// Unbounded capture. The workhorse of the trace tests.
class VectorSink final : public TraceSink {
 public:
  void record(const TraceEvent& event) override { events_.push_back(event); }
  const std::vector<TraceEvent>& events() const { return events_; }
  std::vector<TraceEvent> take() { return std::move(events_); }
  void clear() { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

/// Streams events to a JSONL file as they happen. Failure to open leaves
/// the sink inert (ok() == false) rather than aborting a simulation.
class JsonlSink final : public TraceSink {
 public:
  explicit JsonlSink(const std::string& path);
  ~JsonlSink() override;

  JsonlSink(const JsonlSink&) = delete;
  JsonlSink& operator=(const JsonlSink&) = delete;

  void record(const TraceEvent& event) override;
  bool ok() const { return file_ != nullptr; }
  std::uint64_t lines_written() const { return lines_; }

 private:
  std::FILE* file_ = nullptr;
  std::uint64_t lines_ = 0;
};

}  // namespace lm::trace
