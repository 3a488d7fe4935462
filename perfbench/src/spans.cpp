#include "spans.hpp"

#include <unistd.h>

#include <fstream>
#include <stdexcept>
#include <utility>

namespace fpbench {

namespace {

// Open spans of the calling thread, innermost last, tagged by recorder.
thread_local std::vector<std::pair<const SpanRecorder*, int>> t_open;

}  // namespace

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

int SpanRecorder::open(std::string name) {
  int parent = -1;
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it) {
    if (it->first == this) {
      parent = it->second;
      break;
    }
  }
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.tid = static_cast<std::uint32_t>(::gettid());
  int index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - epoch_)
                        .count();
    index = static_cast<int>(spans_.size());
    spans_.push_back(std::move(span));
  }
  t_open.emplace_back(this, index);
  return index;
}

void SpanRecorder::close(int index) {
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count();
  for (auto it = t_open.rbegin(); it != t_open.rend(); ++it) {
    if (it->first == this && it->second == index) {
      t_open.erase(std::next(it).base());
      break;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(index)).end_ns = now;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double SpanRecorder::self_seconds(int index) const {
  std::lock_guard<std::mutex> lock(mu_);
  double self = spans_.at(static_cast<std::size_t>(index)).seconds();
  for (const Span& span : spans_) {
    if (span.parent == index && span.end_ns >= 0) self -= span.seconds();
  }
  return self;
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    if (span.end_ns < 0) continue;
    out << (first ? "\n" : ",\n") << "{\"name\": " << json_quote(span.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << span.tid
        << ", \"ts\": " << static_cast<double>(span.start_ns) / 1e3
        << ", \"dur\": " << static_cast<double>(span.end_ns - span.start_ns) / 1e3
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << span.parent
        << "}}";
    first = false;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("short write to trace " + path);
}

ScopedSpan::ScopedSpan(SpanRecorder& recorder, std::string name)
    : recorder_(recorder),
      index_(recorder.open(std::move(name))),
      start_(Clock::now()) {}

ScopedSpan::~ScopedSpan() { recorder_.close(index_); }

}  // namespace fpbench
