#include "trace/trace_sink.h"

namespace lm::trace {

JsonlSink::JsonlSink(const std::string& path) {
  file_ = std::fopen(path.c_str(), "w");
}

JsonlSink::~JsonlSink() {
  if (file_ != nullptr) std::fclose(file_);
}

void JsonlSink::record(const TraceEvent& event) {
  if (file_ == nullptr) return;
  const std::string line = to_jsonl(event);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  ++lines_;
}

}  // namespace lm::trace
