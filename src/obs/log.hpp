#pragma once
// Leveled structured logging (docs/OBSERVABILITY.md): one JSON object per
// line, so fleet logs are greppable/jq-able next to the JSONL manifests
// and journals the svc layer already emits. Each line carries the level,
// the subsystem, a wall-clock timestamp ("ts_ms", system_clock epoch
// milliseconds, for correlation with the outside world) and a monotonic
// timestamp ("mono_ms", steady_clock milliseconds since logger creation,
// for durations — a wall-clock step cannot reorder lines), the message,
// and any number of typed key=value fields.
//
// Lines at or above the sink level are written to the sink (stderr by
// default, or an append-mode file) immediately. Every line — including
// suppressed ones — also lands in a fixed-size in-memory ring; a kFatal
// write (or an explicit flush_ring(), e.g. from a SIGTERM drain path)
// dumps the suppressed context lines and fsyncs the sink, so the last
// kRingCapacity lines survive a crash that manages to log at all.
//
// Logging is mutex-serialized — it is for job boundaries and operator
// events, not for per-move hot paths (use obs::Registry there).

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <mutex>
#include <string>
#include <vector>

namespace fixedpart::obs {

enum class LogLevel : std::uint8_t {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kFatal = 4,
};

const char* to_string(LogLevel level);
/// "debug"/"info"/"warn"/"error"/"fatal" -> level; anything else kInfo.
LogLevel log_level_from_string(const std::string& text);

/// One typed key=value attachment. Keys must be plain identifiers (they
/// are emitted as JSON keys after escaping); values are escaped strings,
/// integers, doubles, or booleans.
struct LogField {
  enum class Kind : std::uint8_t { kString, kInt, kDouble, kBool };

  LogField(const char* k, const std::string& v)
      : key(k), kind(Kind::kString), str(v) {}
  LogField(const char* k, const char* v)
      : key(k), kind(Kind::kString), str(v) {}
  LogField(const char* k, std::int64_t v)
      : key(k), kind(Kind::kInt), int_value(v) {}
  LogField(const char* k, int v)
      : key(k), kind(Kind::kInt), int_value(v) {}
  LogField(const char* k, double v)
      : key(k), kind(Kind::kDouble), double_value(v) {}
  LogField(const char* k, bool v)
      : key(k), kind(Kind::kBool), bool_value(v) {}

  const char* key;
  Kind kind;
  std::string str;
  std::int64_t int_value = 0;
  double double_value = 0.0;
  bool bool_value = false;
};

class Log {
 public:
  static constexpr std::size_t kRingCapacity = 256;

  Log();
  ~Log();
  Log(const Log&) = delete;
  Log& operator=(const Log&) = delete;

  /// The process-wide logger the log_*() helpers write to.
  static Log& global();

  /// Lines below this level skip the sink (but still enter the ring).
  void set_min_level(LogLevel level);
  LogLevel min_level() const;

  /// Redirects the sink to an append-mode file (throws std::runtime_error
  /// on open failure) or back to stderr. Flushes the old sink first.
  void set_sink_path(const std::string& path);
  void set_sink_stderr();

  /// Formats and emits one line. kFatal implies flush_ring() + flush().
  void write(LogLevel level, const char* subsystem, const std::string& msg,
             std::initializer_list<LogField> fields = {});

  /// fflush + best-effort fsync of the sink.
  void flush();
  /// Writes every ring line not yet on the sink (i.e. suppressed by the
  /// level filter), oldest first, then flush(). Crash/drain path.
  void flush_ring();

  /// The ring contents, oldest first (test hook; takes the lock).
  std::vector<std::string> ring_lines() const;
  std::uint64_t lines_written() const;

 private:
  struct RingEntry {
    std::string line;
    bool on_sink = false;
  };

  void emit_locked(const std::string& line);

  mutable std::mutex mu_;
  LogLevel min_level_ = LogLevel::kInfo;
  std::FILE* sink_ = nullptr;  ///< nullptr = stderr
  std::string sink_path_;
  std::vector<RingEntry> ring_;
  std::size_t ring_next_ = 0;
  std::uint64_t lines_written_ = 0;
  const std::int64_t epoch_steady_ns_;
};

// Convenience wrappers over Log::global().
inline void log_debug(const char* subsystem, const std::string& msg,
                      std::initializer_list<LogField> fields = {}) {
  Log::global().write(LogLevel::kDebug, subsystem, msg, fields);
}
inline void log_info(const char* subsystem, const std::string& msg,
                     std::initializer_list<LogField> fields = {}) {
  Log::global().write(LogLevel::kInfo, subsystem, msg, fields);
}
inline void log_warn(const char* subsystem, const std::string& msg,
                     std::initializer_list<LogField> fields = {}) {
  Log::global().write(LogLevel::kWarn, subsystem, msg, fields);
}
inline void log_error(const char* subsystem, const std::string& msg,
                      std::initializer_list<LogField> fields = {}) {
  Log::global().write(LogLevel::kError, subsystem, msg, fields);
}
inline void log_fatal(const char* subsystem, const std::string& msg,
                      std::initializer_list<LogField> fields = {}) {
  Log::global().write(LogLevel::kFatal, subsystem, msg, fields);
}

}  // namespace fixedpart::obs
