#pragma once
// Always-on flight recorder (docs/ROBUSTNESS.md "Flight recorder").
//
// A fixed-size ring of the most recent spans and log events, built from
// lock-free thread-local shards like obs::Registry: each thread owns one
// shard and is its only writer; entry fields are individual atomics with
// a publish stamp, so readers (the dump paths, /debug/flight, a fatal
// signal handler) can walk every shard without taking a lock and without
// data races under TSan. A torn read across a ring-wraparound rewrite is
// detected by re-checking the stamp and the entry is skipped.
//
// Name/message pointers stored in entries are string literals or
// obs::intern_name pointers — immortal, so a dump never dereferences
// freed memory even from a signal handler.
//
// Dumps: dump() writes <dir>/<reason>-<job>.json atomically (watchdog
// fire, worker crash/hang classification); arm_signal_dump() installs
// fatal-signal handlers (SEGV/ABRT/BUS/ILL/FPE) that write a best-effort
// <dir>/fatal-sig<N>-<pid>.json using only write(2)-level I/O, then
// re-raise for the default action.
//
// Each shard additionally tracks its stack of *open* spans (pushed by
// ScopedSpan construction), which is what current_phase() scans so
// /progress can say where a running job is stuck right now.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace fixedpart::obs {

/// The deepest currently-open span attributed to a trace id.
struct FlightPhase {
  std::string name;
  double seconds = 0.0;  ///< time since the span opened
  bool found = false;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kShardEntries = 512;
  static constexpr std::size_t kOpenDepth = 16;

  /// The process-wide recorder (immortal: never destroyed, so late
  /// threads and signal handlers can always reach it).
  static FlightRecorder& global();

  /// Appends a completed span to the calling thread's shard.
  void record_span(const char* name, std::uint64_t trace_id,
                   std::int64_t start_ns, std::int64_t dur_ns);
  /// Appends a log event (message is interned; level/subsystem must be
  /// literals). Hooked from obs::Log::write.
  void record_event(const char* level, const char* subsystem,
                    const std::string& message);

  /// Open-span stack maintenance (ScopedSpan ctor/dtor).
  void push_open(const char* name, std::uint64_t trace_id,
                 std::int64_t start_ns);
  void pop_open();

  /// Scans every shard's open-span stack for the most recently opened
  /// span with this trace id.
  FlightPhase current_phase(std::uint64_t trace_id) const;

  /// {"entries": [...], "recorded": N, "retained": M} — entries sorted
  /// by publish order, oldest first.
  std::string to_json() const;

  /// Atomically writes <dir>/<reason>-<job>.json with a header naming
  /// the reason/job/phase plus to_json(). Creates <dir> if needed.
  /// Returns the path written, or "" on failure (best-effort: a failed
  /// dump never takes down the server).
  std::string dump(const std::string& dir, const std::string& reason,
                   const std::string& job_id, const std::string& phase) const;

  /// Installs fatal-signal handlers that dump into `dir` and re-raise.
  /// Call once at process start (partitiond / fixedpart-worker).
  void arm_signal_dump(const std::string& dir);

 private:
  FlightRecorder() = default;
  struct Shard;
  Shard& local_shard();
  friend void flight_signal_handler_entry(int);

  std::atomic<Shard*> head_{nullptr};  ///< signal-safe shard list
};

}  // namespace fixedpart::obs
