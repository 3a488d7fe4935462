#pragma once
// Per-job distributed tracing (docs/OBSERVABILITY.md "Traces").
//
// Spans are recorded by RAII `ScopedSpan` objects at fm/kway/ml/svc call
// sites. Every span routes, at destruction, to two sinks:
//
//   1. The *current trace context* — a thread-local stack pushed by
//      `ScopedTraceContext`, carrying a deterministic per-job trace id
//      (`trace_id_for(job id)`) and a bounded per-job `SpanBuffer` owned
//      by the job record. This is how `PartitionServer` and
//      `run_supervised_job` attribute engine spans to a request with no
//      call-site churn, how `fixedpart-worker` collects spans for
//      streaming over the `'T'` frame (src/obs/trace_wire.hpp), and how
//      a benchmark's traced run captures a whole run.
//   2. The always-on `FlightRecorder` ring (src/obs/flight.hpp).
//
// Timestamps come from one process-wide steady epoch (`trace_now_ns`);
// wall-clock jumps cannot reorder spans, and the worker/parent epoch
// offset is estimated once per job attempt when merging worker spans.
//
// Span names and arg keys are either string literals or pointers from
// `intern_name()` (a bounded process-lifetime pool), so events can store
// raw pointers safely; the `ScopedSpan(const std::string&)` overload
// interns dynamically-built names.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace fixedpart::obs {

struct TraceArg {
  const char* key = nullptr;
  bool is_int = true;
  std::int64_t int_value = 0;
  double double_value = 0.0;
};

struct TraceEvent {
  const char* name = "";
  std::uint32_t tid = 0;
  /// Originating process: 0 = this process (rendered as pid 1); worker
  /// spans merged over the 'T' frame carry the worker's real pid.
  std::uint32_t pid = 0;
  std::uint64_t trace_id = 0;
  std::int64_t start_ns = 0;  ///< steady time (see class comments)
  std::int64_t dur_ns = 0;
  std::array<TraceArg, 4> args{};
  std::uint32_t num_args = 0;
};

/// Chrome trace JSON ({"traceEvents": [...], "displayTimeUnit": "ms"}) for
/// an event list (a job's trace, a --trace-out dump).
std::string trace_events_to_json(const std::vector<TraceEvent>& events);

/// Deterministic trace id for a job: FNV-1a of the job id (itself derived
/// from the canonical content hash in PartitionServer::submit), so the
/// same job gets the same trace id on every attempt, restart and host.
std::uint64_t trace_id_for(const std::string& job_id);

/// Seconds attributed to the multilevel phases of a job's trace, summed
/// from the "ml.coarsen_level" / "ml.initial" / "ml.refine_level" spans.
struct PhaseBreakdown {
  double coarsen_seconds = 0.0;
  double initial_seconds = 0.0;
  double refine_seconds = 0.0;
};
PhaseBreakdown phase_breakdown(const std::vector<TraceEvent>& events);

/// Nanoseconds since the process-wide steady trace epoch (latched on
/// first use). The common timebase of every TraceEvent in this process.
std::int64_t trace_now_ns();

/// Small sequential id of the calling thread (1, 2, ...): the "tid" of
/// every span/flight entry this thread records.
std::uint32_t trace_local_tid();

/// Copies `name` into a bounded process-lifetime intern pool and returns
/// a stable pointer. Past kMaxInternedNames distinct names (a cap that
/// also bounds what a malicious worker can allocate via 'T' frames) the
/// overflow marker "trace.name_overflow" is returned instead.
const char* intern_name(const std::string& name);
constexpr std::size_t kMaxInternedNames = 4096;

/// Bounded, thread-safe per-job span store. Owned by the job record
/// (ServerJob / worker serve()); full buffers drop and count (surfaced as
/// the obs.trace.dropped counter).
class SpanBuffer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  explicit SpanBuffer(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}
  SpanBuffer(const SpanBuffer&) = delete;
  SpanBuffer& operator=(const SpanBuffer&) = delete;

  /// Appends one event (fills tid from the calling thread when 0).
  void record(TraceEvent event);
  /// Snapshot of the buffered events.
  std::vector<TraceEvent> events() const;
  /// Moves the buffered events out (the worker's streaming path).
  std::vector<TraceEvent> drain();
  std::size_t size() const;
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Folds drops observed remotely (a worker's 'T' header, malformed
  /// wire lines) into dropped() and the obs.trace.dropped counter.
  void add_remote_dropped(std::uint64_t count);

 private:
  const std::size_t capacity_;
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

/// The ambient trace attribution for the calling thread.
struct TraceContext {
  std::uint64_t trace_id = 0;
  SpanBuffer* buffer = nullptr;
  bool active() const { return buffer != nullptr; }
};

/// RAII push/pop of the thread-local trace-context stack. The pushed
/// buffer must outlive the scope; spans recorded on this thread inside
/// the scope land in it, tagged with `trace_id`.
class ScopedTraceContext {
 public:
  ScopedTraceContext(std::uint64_t trace_id, SpanBuffer* buffer);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

  /// The top of the calling thread's context stack ({} when empty).
  static TraceContext current();

 private:
  TraceContext prev_;
};

/// RAII span. Always live (the flight recorder never disarms): records
/// into the current TraceContext buffer and the flight-recorder ring at
/// destruction.
class ScopedSpan {
 public:
  /// `name` must be a string literal (or otherwise immortal).
  explicit ScopedSpan(const char* name);
  /// Dynamically-built names are interned (safe after `name` dies).
  explicit ScopedSpan(const std::string& name);
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Attaches a numeric argument (first 4 kept). `key` must be a string
  /// literal or interned.
  ScopedSpan& arg(const char* key, std::int64_t value) {
    if (num_args_ < args_.size()) {
      args_[num_args_++] = TraceArg{key, true, value, 0.0};
    }
    return *this;
  }
  ScopedSpan& arg(const char* key, double value) {
    if (num_args_ < args_.size()) {
      args_[num_args_++] = TraceArg{key, false, 0, value};
    }
    return *this;
  }

  ~ScopedSpan();

 private:
  const char* name_ = "";
  std::int64_t start_ns_ = 0;
  std::uint64_t trace_id_ = 0;
  std::array<TraceArg, 4> args_{};
  std::uint32_t num_args_ = 0;
};

}  // namespace fixedpart::obs
