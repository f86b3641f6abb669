#include "perfbench/src/trace.h"

#include <cstdio>

namespace perfbench {

int Tracer::Begin(const char* name) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.start_ns = NowNs();
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  if (!enabled_ || id < 0) {
    return;
  }
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  // Spans close innermost first; tolerate a skipped End by unwinding to `id`.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) {
      break;
    }
  }
}

void Tracer::Counter(const std::string& name, double value) {
  if (!enabled_) {
    return;
  }
  counters_.push_back(
      CounterSample{name, value, NowNs(), open_.empty() ? -1 : open_.back()});
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0) {
      continue;
    }
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                 first ? "" : ",\n", span.name, static_cast<double>(span.start_ns) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3, i, span.parent);
    first = false;
  }
  for (const CounterSample& c : counters_) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"args\":{\"value\":%.17g,\"span\":%d}}",
                 first ? "" : ",\n", c.name.c_str(), static_cast<double>(c.at_ns) / 1e3,
                 c.value, c.span);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
