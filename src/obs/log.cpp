#include "obs/log.hpp"

#include <chrono>

#include "obs/flight.hpp"
#include <cmath>
#include <sstream>
#include <stdexcept>

#ifdef __unix__
#include <unistd.h>
#endif

namespace fixedpart::obs {

const char* to_string(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kFatal: return "fatal";
  }
  return "info";
}

LogLevel log_level_from_string(const std::string& text) {
  if (text == "debug") return LogLevel::kDebug;
  if (text == "warn" || text == "warning") return LogLevel::kWarn;
  if (text == "error") return LogLevel::kError;
  if (text == "fatal") return LogLevel::kFatal;
  return LogLevel::kInfo;
}

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t wall_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void append_json_escaped(std::string& out, const std::string& text) {
  static const char* hex = "0123456789abcdef";
  for (const char c : text) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (u < 0x20) {
      out += "\\u00";
      out += hex[u >> 4];
      out += hex[u & 0xF];
    } else {
      out += c;
    }
  }
}

void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    // JSON has no inf/NaN literal; stringify so the line stays parseable.
    out += '"';
    out += std::isnan(v) ? "nan" : (v > 0 ? "inf" : "-inf");
    out += '"';
    return;
  }
  std::ostringstream text;
  text.precision(6);
  text << v;
  out += text.str();
}

}  // namespace

Log::Log() : epoch_steady_ns_(steady_ns()) {}

Log::~Log() {
  std::lock_guard<std::mutex> lock(mu_);
  if (sink_ != nullptr) std::fclose(sink_);
}

Log& Log::global() {
  static Log log;
  return log;
}

void Log::set_min_level(LogLevel level) {
  std::lock_guard<std::mutex> lock(mu_);
  min_level_ = level;
}

LogLevel Log::min_level() const {
  std::lock_guard<std::mutex> lock(mu_);
  return min_level_;
}

void Log::set_sink_path(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "a");
  if (file == nullptr) {
    throw std::runtime_error("obs::Log: cannot open sink " + path);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (sink_ != nullptr) std::fclose(sink_);
  sink_ = file;
  sink_path_ = path;
}

void Log::set_sink_stderr() {
  std::lock_guard<std::mutex> lock(mu_);
  if (sink_ != nullptr) std::fclose(sink_);
  sink_ = nullptr;
  sink_path_.clear();
}

void Log::emit_locked(const std::string& line) {
  std::FILE* out = sink_ != nullptr ? sink_ : stderr;
  std::fputs(line.c_str(), out);
  std::fputc('\n', out);
  ++lines_written_;
}

void Log::write(LogLevel level, const char* subsystem, const std::string& msg,
                std::initializer_list<LogField> fields) {
  std::string line;
  line.reserve(128 + msg.size());
  line += "{\"ts_ms\": ";
  line += std::to_string(wall_ms());
  line += ", \"mono_ms\": ";
  append_double(line, static_cast<double>(steady_ns() - epoch_steady_ns_) /
                          1e6);
  line += ", \"level\": \"";
  line += to_string(level);
  line += "\", \"sub\": \"";
  append_json_escaped(line, subsystem != nullptr ? subsystem : "");
  line += "\", \"msg\": \"";
  append_json_escaped(line, msg);
  line += '"';
  for (const LogField& field : fields) {
    line += ", \"";
    append_json_escaped(line, field.key != nullptr ? field.key : "");
    line += "\": ";
    switch (field.kind) {
      case LogField::Kind::kString:
        line += '"';
        append_json_escaped(line, field.str);
        line += '"';
        break;
      case LogField::Kind::kInt:
        line += std::to_string(field.int_value);
        break;
      case LogField::Kind::kDouble:
        append_double(line, field.double_value);
        break;
      case LogField::Kind::kBool:
        line += field.bool_value ? "true" : "false";
        break;
    }
  }
  line += '}';

  // Mirror into the always-on flight recorder so a crash dump carries the
  // recent log timeline next to the spans (docs/ROBUSTNESS.md).
  FlightRecorder::global().record_event(to_string(level), subsystem, msg);

  std::lock_guard<std::mutex> lock(mu_);
  const bool on_sink = level >= min_level_;
  if (ring_.size() < kRingCapacity) {
    ring_.push_back({line, on_sink});
  } else {
    ring_[ring_next_] = {line, on_sink};
  }
  ring_next_ = (ring_next_ + 1) % kRingCapacity;
  if (on_sink) emit_locked(line);
  if (level == LogLevel::kFatal) {
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      RingEntry& entry = ring_[(ring_next_ + i) % ring_.size()];
      if (!entry.on_sink) {
        emit_locked(entry.line);
        entry.on_sink = true;
      }
    }
    std::FILE* out = sink_ != nullptr ? sink_ : stderr;
    std::fflush(out);
#ifdef __unix__
    if (sink_ != nullptr) ::fsync(::fileno(sink_));
#endif
  }
}

void Log::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* out = sink_ != nullptr ? sink_ : stderr;
  std::fflush(out);
#ifdef __unix__
  if (sink_ != nullptr) ::fsync(::fileno(sink_));
#endif
}

void Log::flush_ring() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      RingEntry& entry = ring_[(ring_next_ + i) % ring_.size()];
      if (!entry.on_sink) {
        emit_locked(entry.line);
        entry.on_sink = true;
      }
    }
  }
  flush();
}

std::vector<std::string> Log::ring_lines() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> lines;
  lines.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    lines.push_back(ring_[(ring_next_ + i) % ring_.size()].line);
  }
  return lines;
}

std::uint64_t Log::lines_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lines_written_;
}

}  // namespace fixedpart::obs
