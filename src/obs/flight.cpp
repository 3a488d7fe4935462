#include "obs/flight.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <vector>

#ifdef __unix__
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>
#endif

#include "obs/trace.hpp"
#include "util/atomic_file.hpp"

namespace fixedpart::obs {

namespace {

/// Global publish order across all shards; 0 marks an empty/torn entry.
std::atomic<std::uint64_t> g_stamp{1};

std::string json_escape(const char* text) {
  std::string out;
  for (const char* p = text; p != nullptr && *p != '\0'; ++p) {
    const char c = *p;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string format_us(std::int64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns < 0 ? 0 : ns % 1000));
  return buf;
}

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace

struct FlightRecorder::Shard {
  struct Entry {
    std::atomic<std::uint64_t> stamp{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<const char*> level{nullptr};      ///< nullptr for spans
    std::atomic<const char*> subsystem{nullptr};  ///< nullptr for spans
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<std::int64_t> start_ns{0};
    std::atomic<std::int64_t> dur_ns{0};
  };
  struct OpenSlot {
    std::atomic<const char*> name{nullptr};
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<std::int64_t> start_ns{0};
  };

  std::atomic<std::uint64_t> next{0};  ///< total writes; ring index mod cap
  Entry entries[kShardEntries];
  std::atomic<std::uint32_t> open_depth{0};
  OpenSlot open[kOpenDepth];
  std::uint32_t tid = 0;
  Shard* next_shard = nullptr;  ///< linked before head_ publish, then const

  void write(const char* name, const char* level, const char* subsystem,
             std::uint64_t trace_id, std::int64_t start_ns,
             std::int64_t dur_ns) {
    const std::uint64_t slot = next.fetch_add(1, std::memory_order_relaxed);
    Entry& e = entries[slot % kShardEntries];
    // Invalidate while rewriting so a concurrent reader skips the entry
    // instead of seeing half-old, half-new fields.
    e.stamp.store(0, std::memory_order_release);
    e.name.store(name, std::memory_order_relaxed);
    e.level.store(level, std::memory_order_relaxed);
    e.subsystem.store(subsystem, std::memory_order_relaxed);
    e.trace_id.store(trace_id, std::memory_order_relaxed);
    e.start_ns.store(start_ns, std::memory_order_relaxed);
    e.dur_ns.store(dur_ns, std::memory_order_relaxed);
    e.stamp.store(g_stamp.fetch_add(1, std::memory_order_relaxed),
                  std::memory_order_release);
  }
};

FlightRecorder& FlightRecorder::global() {
  // Intentionally immortal (never destroyed): shards stay reachable for
  // signal handlers and for threads that outlive static destruction.
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

FlightRecorder::Shard& FlightRecorder::local_shard() {
  thread_local Shard* shard = nullptr;
  if (shard == nullptr) {
    shard = new Shard();  // owned by the recorder's list, never freed
    shard->tid = trace_local_tid();
    Shard* head = head_.load(std::memory_order_relaxed);
    do {
      shard->next_shard = head;
    } while (!head_.compare_exchange_weak(head, shard,
                                          std::memory_order_release,
                                          std::memory_order_relaxed));
  }
  return *shard;
}

void FlightRecorder::record_span(const char* name, std::uint64_t trace_id,
                                 std::int64_t start_ns, std::int64_t dur_ns) {
  local_shard().write(name, nullptr, nullptr, trace_id, start_ns, dur_ns);
}

void FlightRecorder::record_event(const char* level, const char* subsystem,
                                  const std::string& message) {
  local_shard().write(intern_name(message), level,
                      subsystem != nullptr ? subsystem : "", 0,
                      trace_now_ns(), 0);
}

void FlightRecorder::push_open(const char* name, std::uint64_t trace_id,
                               std::int64_t start_ns) {
  Shard& shard = local_shard();
  const std::uint32_t depth = shard.open_depth.load(std::memory_order_relaxed);
  if (depth < kOpenDepth) {
    Shard::OpenSlot& slot = shard.open[depth];
    slot.name.store(name, std::memory_order_relaxed);
    slot.trace_id.store(trace_id, std::memory_order_relaxed);
    slot.start_ns.store(start_ns, std::memory_order_relaxed);
  }
  shard.open_depth.store(depth + 1, std::memory_order_release);
}

void FlightRecorder::pop_open() {
  Shard& shard = local_shard();
  const std::uint32_t depth = shard.open_depth.load(std::memory_order_relaxed);
  if (depth > 0) {
    shard.open_depth.store(depth - 1, std::memory_order_release);
  }
}

FlightPhase FlightRecorder::current_phase(std::uint64_t trace_id) const {
  FlightPhase best;
  std::int64_t best_start = 0;
  for (const Shard* shard = head_.load(std::memory_order_acquire);
       shard != nullptr; shard = shard->next_shard) {
    const std::uint32_t depth =
        std::min<std::uint32_t>(shard->open_depth.load(
                                    std::memory_order_acquire),
                                kOpenDepth);
    for (std::uint32_t i = 0; i < depth; ++i) {
      const Shard::OpenSlot& slot = shard->open[i];
      if (slot.trace_id.load(std::memory_order_acquire) != trace_id) continue;
      const char* name = slot.name.load(std::memory_order_acquire);
      const std::int64_t start = slot.start_ns.load(std::memory_order_acquire);
      if (name == nullptr) continue;
      if (!best.found || start >= best_start) {
        best.name = name;
        best_start = start;
        best.found = true;
      }
    }
  }
  if (best.found) {
    best.seconds =
        static_cast<double>(trace_now_ns() - best_start) / 1e9;
    if (best.seconds < 0) best.seconds = 0;
  }
  return best;
}

std::string FlightRecorder::to_json() const {
  struct Row {
    std::uint64_t stamp;
    const char* name;
    const char* level;
    const char* subsystem;
    std::uint64_t trace_id;
    std::int64_t start_ns;
    std::int64_t dur_ns;
    std::uint32_t tid;
  };
  std::vector<Row> rows;
  std::uint64_t recorded = 0;
  for (const Shard* shard = head_.load(std::memory_order_acquire);
       shard != nullptr; shard = shard->next_shard) {
    recorded += shard->next.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kShardEntries; ++i) {
      const Shard::Entry& e = shard->entries[i];
      const std::uint64_t s1 = e.stamp.load(std::memory_order_acquire);
      if (s1 == 0) continue;
      Row row;
      row.stamp = s1;
      row.name = e.name.load(std::memory_order_acquire);
      row.level = e.level.load(std::memory_order_acquire);
      row.subsystem = e.subsystem.load(std::memory_order_acquire);
      row.trace_id = e.trace_id.load(std::memory_order_acquire);
      row.start_ns = e.start_ns.load(std::memory_order_acquire);
      row.dur_ns = e.dur_ns.load(std::memory_order_acquire);
      row.tid = shard->tid;
      // Skip entries rewritten underneath us (ring wraparound).
      if (e.stamp.load(std::memory_order_acquire) != s1) continue;
      if (row.name == nullptr) continue;
      rows.push_back(row);
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.stamp < b.stamp; });

  std::string out = "{\"entries\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out += i == 0 ? "\n" : ",\n";
    if (r.level == nullptr) {
      out += "{\"kind\": \"span\", \"name\": \"" + json_escape(r.name) +
             "\", \"trace\": \"" + hex64(r.trace_id) + "\", \"tid\": " +
             std::to_string(r.tid) + ", \"ts_us\": " + format_us(r.start_ns) +
             ", \"dur_us\": " + format_us(r.dur_ns) + "}";
    } else {
      out += "{\"kind\": \"log\", \"level\": \"" + json_escape(r.level) +
             "\", \"sub\": \"" + json_escape(r.subsystem) + "\", \"msg\": \"" +
             json_escape(r.name) + "\", \"tid\": " + std::to_string(r.tid) +
             ", \"ts_us\": " + format_us(r.start_ns) + "}";
    }
  }
  out += rows.empty() ? "" : "\n";
  out += "], \"recorded\": " + std::to_string(recorded) +
         ", \"retained\": " + std::to_string(rows.size()) + "}";
  return out;
}

std::string FlightRecorder::dump(const std::string& dir,
                                 const std::string& reason,
                                 const std::string& job_id,
                                 const std::string& phase) const {
  try {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::string body = "{\"reason\": \"" + json_escape(reason.c_str()) +
                       "\", \"job\": \"" + json_escape(job_id.c_str()) +
                       "\", \"phase\": \"" + json_escape(phase.c_str()) +
                       "\", \"pid\": ";
#ifdef __unix__
    body += std::to_string(static_cast<long long>(::getpid()));
#else
    body += "0";
#endif
    body += ", \"flight\": " + to_json() + "}\n";
    const std::string path = dir + "/" + reason + "-" +
                             (job_id.empty() ? "unknown" : job_id) + ".json";
    util::write_file_atomic(path, body);
    return path;
  } catch (...) {
    return "";
  }
}

#ifdef __unix__

namespace {

char g_signal_dir[512] = {0};

void signal_write(int fd, const char* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ::ssize_t n = ::write(fd, data + off, size - off);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

/// Copies `src` into `dst`, replacing JSON-breaking bytes: interned
/// worker-supplied names may contain anything, and a signal handler
/// cannot heap-allocate an escaped copy.
void signal_sanitize(char* dst, std::size_t cap, const char* src) {
  std::size_t i = 0;
  for (; src != nullptr && src[i] != '\0' && i + 1 < cap; ++i) {
    const char c = src[i];
    dst[i] =
        (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) ? '_'
                                                                        : c;
  }
  dst[i] = '\0';
}

}  // namespace

void flight_signal_handler_entry(int sig) {
  char path[640];
  std::snprintf(path, sizeof path, "%s/fatal-sig%d-%d.json", g_signal_dir,
                sig, static_cast<int>(::getpid()));
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    char buf[512];
    int n = std::snprintf(buf, sizeof buf,
                          "{\"reason\": \"fatal-sig%d\", \"pid\": %d, "
                          "\"entries\": [",
                          sig, static_cast<int>(::getpid()));
    signal_write(fd, buf, static_cast<std::size_t>(n));
    bool first = true;
    FlightRecorder& recorder = FlightRecorder::global();
    for (const FlightRecorder::Shard* shard =
             recorder.head_.load(std::memory_order_acquire);
         shard != nullptr; shard = shard->next_shard) {
      for (std::size_t i = 0; i < FlightRecorder::kShardEntries; ++i) {
        const auto& e = shard->entries[i];
        if (e.stamp.load(std::memory_order_acquire) == 0) continue;
        char name[128];
        signal_sanitize(name, sizeof name,
                        e.name.load(std::memory_order_acquire));
        const char* level = e.level.load(std::memory_order_acquire);
        n = std::snprintf(
            buf, sizeof buf,
            "%s\n{\"kind\": \"%s\", \"name\": \"%s\", \"tid\": %u, "
            "\"ts_us\": %lld, \"dur_us\": %lld}",
            first ? "" : ",", level == nullptr ? "span" : "log", name,
            shard->tid,
            static_cast<long long>(
                e.start_ns.load(std::memory_order_acquire) / 1000),
            static_cast<long long>(
                e.dur_ns.load(std::memory_order_acquire) / 1000));
        signal_write(fd, buf, static_cast<std::size_t>(n));
        first = false;
      }
    }
    signal_write(fd, "\n]}\n", 4);
    ::fsync(fd);
    ::close(fd);
  }
  ::raise(sig);  // SA_RESETHAND reinstated the default action
}

void FlightRecorder::arm_signal_dump(const std::string& dir) {
  std::snprintf(g_signal_dir, sizeof g_signal_dir, "%s", dir.c_str());
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = flight_signal_handler_entry;
  sa.sa_flags = SA_RESETHAND;
  sigemptyset(&sa.sa_mask);
  const int signals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGILL, SIGFPE};
  for (const int sig : signals) ::sigaction(sig, &sa, nullptr);
}

#else

void FlightRecorder::arm_signal_dump(const std::string&) {}

#endif  // __unix__

}  // namespace fixedpart::obs
