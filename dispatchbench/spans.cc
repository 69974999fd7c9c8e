#include "spans.h"

#include <cstdio>

namespace dbench {

void SpanRecorder::Add(const char* name, const char* category,
                       Clock::time_point start, Clock::time_point end) {
  using std::chrono::duration_cast;
  using std::chrono::nanoseconds;
  spans_.push_back(Span{name, category,
                        duration_cast<nanoseconds>(start - origin_).count(),
                        duration_cast<nanoseconds>(end - start).count()});
}

bool SpanRecorder::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  std::fputs(
      "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
      "\"args\": {\"name\": \"dispatchbench\"}}",
      f);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f}",
                 s.name, s.category, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.duration_ns) / 1e3);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace dbench
