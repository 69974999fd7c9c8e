// In-memory span recorder for the traced runs: one span per call the
// harness makes into a library module, written out at the end as Chrome
// trace-event JSON (opens in Perfetto / chrome://tracing). Spans are kept in
// a vector and never touch the library's own tracer, so an untraced run
// pays nothing but a null check.
#ifndef DISPATCHBENCH_SPANS_H_
#define DISPATCHBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace dbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Single-threaded: every span is recorded from the harness's main thread.
class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}

  // `name` and `category` must be string literals (stored by pointer).
  void Add(const char* name, const char* category, Clock::time_point start,
           Clock::time_point end);

  std::size_t size() const { return spans_.size(); }

  // Writes {"traceEvents": [...]} with complete ("X") events in
  // microseconds since the recorder's origin. Returns false on IO error.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    const char* category;
    std::int64_t start_ns;
    std::int64_t duration_ns;
  };

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Records [construction, destruction) into `recorder`; no-op when null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, const char* category)
      : recorder_(recorder), name_(name), category_(category) {
    if (recorder_ != nullptr) start_ = Clock::now();
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->Add(name_, category_, start_, Clock::now());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  const char* name_;
  const char* category_;
  Clock::time_point start_;
};

}  // namespace dbench

#endif  // DISPATCHBENCH_SPANS_H_
