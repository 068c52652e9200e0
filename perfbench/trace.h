// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code, around its calls into
// the library's public functions; nothing inside src/ is instrumented.
// Each span has a name, a start and end on the steady clock, the span
// that caused it, and an optional label (the attribute set S, the
// support). Spans stay in memory until the run ends, then go out as
// Chrome trace-event JSON (chrome://tracing, ui.perfetto.dev).

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::string name;
  std::string label;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index into Tracer::spans(), -1 = root
  std::uint64_t thread = 0;  // small per-thread number, for the timeline
  double seconds() const { return (end_ns - start_ns) * 1e-9; }
};

/// Thread-safe span store. A disabled tracer records nothing, so the
/// same code path serves the timed run (tracing off) and the traced run.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span whose parent is the innermost span open on this thread,
  /// or `parent` when this thread has none open (engine worker threads
  /// calling back into a wrapper). Returns its index, or -1 when disabled.
  std::int64_t Open(std::string name, std::string label = {},
                    std::int64_t parent = -1);
  void Close(std::int64_t index);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Sum, count and maximum of the durations of spans named `name`.
  struct Totals {
    double seconds = 0.0;
    std::uint64_t count = 0;
    double max_seconds = 0.0;
    std::int64_t max_index = -1;
  };
  Totals Sum(const std::string& name) const;

  /// Writes every span as a Chrome trace-event "X" event; false on I/O
  /// failure.
  bool WriteChromeTrace(const std::string& path) const;

  /// Per-name count, total and self time (total minus the time covered
  /// by child spans), one line per span name.
  std::string SelfTimeTable() const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;  // guards spans_
  std::vector<SpanRecord> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  Span(Tracer& tracer, std::string name, std::string label = {},
       std::int64_t parent = -1)
      : tracer_(tracer),
        index_(tracer.Open(std::move(name), std::move(label), parent)) {}
  ~Span() { tracer_.Close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::int64_t index() const { return index_; }

 private:
  Tracer& tracer_;
  const std::int64_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
