#include "obs/trace.hpp"

#include <cstdio>
#include <cstring>
#include <sstream>
#include <unordered_set>

#include "obs/flight.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"

namespace fixedpart::obs {

namespace {

std::string json_escape(const char* text) {
  std::string out;
  for (const char* p = text; *p != '\0'; ++p) {
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

/// Microseconds with sub-microsecond fraction: chrome://tracing's "ts" and
/// "dur" are in us; many spans here are shorter than one.
std::string format_us(std::int64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns < 0 ? 0 : ns % 1000));
  return buf;
}

std::string format_arg(const TraceArg& arg) {
  if (arg.is_int) return std::to_string(arg.int_value);
  std::ostringstream out;
  out.precision(6);
  out << arg.double_value;
  return out.str();
}

}  // namespace

std::string trace_events_to_json(const std::vector<TraceEvent>& events) {
  std::ostringstream out;
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "{\"name\": \"" << json_escape(e.name)
        << "\", \"cat\": \"fixedpart\", \"ph\": \"X\", \"ts\": "
        << format_us(e.start_ns) << ", \"dur\": " << format_us(e.dur_ns)
        << ", \"pid\": " << (e.pid != 0 ? e.pid : 1u)
        << ", \"tid\": " << e.tid;
    if (e.num_args > 0) {
      out << ", \"args\": {";
      for (std::uint32_t a = 0; a < e.num_args && a < e.args.size(); ++a) {
        out << (a == 0 ? "" : ", ") << "\"" << json_escape(e.args[a].key)
            << "\": " << format_arg(e.args[a]);
      }
      out << "}";
    }
    out << "}";
  }
  out << (events.empty() ? "" : "\n") << "], \"displayTimeUnit\": \"ms\"}\n";
  return out.str();
}

std::uint64_t trace_id_for(const std::string& job_id) {
  return util::fnv1a(job_id);
}

PhaseBreakdown phase_breakdown(const std::vector<TraceEvent>& events) {
  PhaseBreakdown out;
  for (const TraceEvent& e : events) {
    if (e.name == nullptr) continue;
    // Worker-decoded names are interned copies: compare by content.
    if (std::strcmp(e.name, "ml.coarsen_level") == 0) {
      out.coarsen_seconds += static_cast<double>(e.dur_ns) / 1e9;
    } else if (std::strcmp(e.name, "ml.initial") == 0) {
      out.initial_seconds += static_cast<double>(e.dur_ns) / 1e9;
    } else if (std::strcmp(e.name, "ml.refine_level") == 0) {
      out.refine_seconds += static_cast<double>(e.dur_ns) / 1e9;
    }
  }
  return out;
}

namespace {

using Clock = std::chrono::steady_clock;
static_assert(Clock::is_steady, "trace timestamps must be jump-immune");

std::uint32_t local_thread_id() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

MetricId dropped_metric() {
  static const MetricId id = Registry::global().counter("obs.trace.dropped");
  return id;
}

thread_local TraceContext t_context;

}  // namespace

std::int64_t trace_now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

std::uint32_t trace_local_tid() { return local_thread_id(); }

const char* intern_name(const std::string& name) {
  static std::mutex mu;
  // node-based: element addresses (and so c_str()) are stable forever.
  static std::unordered_set<std::string>* pool =
      new std::unordered_set<std::string>();
  std::lock_guard<std::mutex> lock(mu);
  auto it = pool->find(name);
  if (it != pool->end()) return it->c_str();
  if (pool->size() >= kMaxInternedNames) return "trace.name_overflow";
  return pool->insert(name).first->c_str();
}

void SpanBuffer::record(TraceEvent event) {
  if (event.tid == 0) event.tid = local_thread_id();
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    Registry::global().add(dropped_metric());
    return;
  }
  events_.push_back(event);
}

std::vector<TraceEvent> SpanBuffer::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::vector<TraceEvent> SpanBuffer::drain() {
  std::vector<TraceEvent> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.swap(events_);
  return out;
}

std::size_t SpanBuffer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

void SpanBuffer::add_remote_dropped(std::uint64_t count) {
  if (count == 0) return;
  dropped_.fetch_add(count, std::memory_order_relaxed);
  Registry::global().add(dropped_metric(), static_cast<std::int64_t>(count));
}

ScopedTraceContext::ScopedTraceContext(std::uint64_t trace_id,
                                       SpanBuffer* buffer)
    : prev_(t_context) {
  t_context = TraceContext{trace_id, buffer};
}

ScopedTraceContext::~ScopedTraceContext() { t_context = prev_; }

TraceContext ScopedTraceContext::current() { return t_context; }

ScopedSpan::ScopedSpan(const char* name)
    : name_(name != nullptr ? name : ""), start_ns_(trace_now_ns()) {
  trace_id_ = t_context.trace_id;
  FlightRecorder::global().push_open(name_, trace_id_, start_ns_);
}

ScopedSpan::ScopedSpan(const std::string& name)
    : ScopedSpan(intern_name(name)) {}

ScopedSpan::~ScopedSpan() {
  FlightRecorder::global().pop_open();
  TraceEvent event;
  event.name = name_;
  event.tid = local_thread_id();
  event.trace_id = trace_id_;
  event.start_ns = start_ns_;
  event.dur_ns = trace_now_ns() - start_ns_;
  event.args = args_;
  event.num_args = num_args_;
  const TraceContext& ctx = t_context;
  if (ctx.buffer != nullptr) ctx.buffer->record(event);
  FlightRecorder::global().record_span(name_, trace_id_, start_ns_,
                                       event.dur_ns);
}

}  // namespace fixedpart::obs
