#pragma once
// The benchmark's own tracer: one span per call the benchmark makes into
// a layer (name, start, end, parent, thread), kept in memory and written
// out as a Chrome trace when the run ends. Nothing inside src/ is
// instrumented for this; spans wrap public calls from the outside. The
// program's own obs::SpanBuffer keeps no parent links, and obs is itself
// one of the layers measured.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace fpbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  ///< since the recorder was created
  std::int64_t end_ns = -1;   ///< -1 while open
  int parent = -1;            ///< index of the enclosing span, -1 = root
  std::uint32_t tid = 0;     ///< OS thread id

  double seconds() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
};

class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span nested under the calling thread's innermost open span
  /// of this recorder; returns its index.
  int open(std::string name);
  void close(int index);

  std::vector<Span> spans() const;
  /// Seconds of span `index` not covered by its direct children.
  double self_seconds(int index) const;
  void write_chrome_trace(const std::string& path) const;

 private:
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Elapsed seconds so far (the span's duration once it has closed).
  double seconds() const { return seconds_since(start_); }
  /// Index in the recorder.
  int index() const { return index_; }

 private:
  SpanRecorder& recorder_;
  int index_;
  Clock::time_point start_;
};

}  // namespace fpbench
