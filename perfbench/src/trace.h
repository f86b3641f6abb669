// In-memory span and counter recorder for the benchmark's traced runs.
//
// Spans wrap the benchmark's own calls into each layer (build, start, warm-up,
// step slices, stat folds, checkpoint save/load): name, start, end and the span
// that was open when it began. Counter samples are taken at the same boundaries
// and attached to the span that was open. Nothing is written until the run ends;
// WriteChromeTrace then emits Chrome trace-event JSON (timestamps in host
// microseconds since the tracer was created).
//
// A disabled tracer records nothing, so untimed and timed runs share one code
// path and pay only a branch per call.

#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open span; returns its id (-1 if disabled).
  int Begin(const char* name);
  void End(int id);

  void Counter(const std::string& name, double value);

  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = -1;  // -1 while open
    int parent = -1;      // index into spans_, -1 for a root span
  };

  struct CounterSample {
    std::string name;
    double value = 0.0;
    int64_t at_ns = 0;
    int span = -1;  // span open when sampled
  };

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // stack of open span ids
  std::vector<CounterSample> counters_;
};

// RAII form of Begin/End for a call that spans one scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
