#include "obs/registry.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace fixedpart::obs {

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';  // metric names are plain identifiers; keep it simple
    } else {
      out += c;
    }
  }
  return out;
}

std::string format_double(double value) {
  std::ostringstream out;
  out.precision(6);
  out << value;
  return out.str();
}

}  // namespace

std::string labeled(
    const std::string& name,
    std::initializer_list<std::pair<const char*, std::string>> labels) {
  std::string out = name;
  out += '{';
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ',';
    first = false;
    out += key;
    out += "=\"";
    for (const char c : value) {
      if (c == '\\' || c == '"') {
        out += '\\';
        out += c;
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out += c;
      }
    }
    out += '"';
  }
  out += '}';
  return out;
}

std::int64_t Snapshot::counter(const std::string& name) const {
  for (const CounterValue& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

const GaugeValue* Snapshot::gauge(const std::string& name) const {
  for (const GaugeValue& g : gauges) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const HistogramValue* Snapshot::histogram(const std::string& name) const {
  for (const HistogramValue& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

std::string Snapshot::to_json() const {
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \"" << json_escape(counters[i].name)
        << "\": " << counters[i].value;
  }
  out << (counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \"" << json_escape(gauges[i].name)
        << "\": " << format_double(gauges[i].value);
  }
  out << (gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramValue& h = histograms[i];
    out << (i == 0 ? "\n" : ",\n") << "    \"" << json_escape(h.name)
        << "\": {\"lo\": " << format_double(h.lo)
        << ", \"hi\": " << format_double(h.hi) << ", \"counts\": [";
    for (std::size_t b = 0; b < h.counts.size(); ++b) {
      out << (b == 0 ? "" : ", ") << h.counts[b];
    }
    out << "], \"total\": " << h.total << ", \"sum\": " << format_double(h.sum)
        << ", \"dropped\": " << h.dropped << "}";
  }
  out << (histograms.empty() ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

namespace {

std::uint64_t next_registry_uid() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

/// Relaxed floating-point accumulation (CAS loop: std::atomic<double>::
/// fetch_add is C++20 but not yet universal across toolchains).
void atomic_add_double(std::atomic<double>& cell, double delta) {
  double expected = cell.load(std::memory_order_relaxed);
  while (!cell.compare_exchange_weak(expected, expected + delta,
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

/// Enforces Registry::kMaxLabelSets: a labeled name ("family{...}") may
/// coexist with at most kMaxLabelSets - 1 other members of its family.
void check_label_cap(const std::vector<std::string>& names,
                     const std::string& name) {
  const std::size_t brace = name.find('{');
  if (brace == std::string::npos) return;
  const std::string prefix = name.substr(0, brace + 1);
  std::uint32_t members = 0;
  for (const std::string& existing : names) {
    if (existing.compare(0, prefix.size(), prefix) == 0) ++members;
  }
  if (members >= Registry::kMaxLabelSets) {
    throw std::length_error("obs::Registry: label-set capacity exhausted for "
                            "family \"" +
                            name.substr(0, brace) + "\"");
  }
}

}  // namespace

Registry::Registry() : uid_(next_registry_uid()) {}

Registry::~Registry() = default;

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

MetricId Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    if (counter_names_[i] == name) return static_cast<MetricId>(i);
  }
  if (counter_names_.size() >= kMaxCounters) {
    throw std::length_error("obs::Registry: counter capacity exhausted");
  }
  check_label_cap(counter_names_, name);
  counter_names_.push_back(name);
  return static_cast<MetricId>(counter_names_.size() - 1);
}

MetricId Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    if (gauge_names_[i] == name) return static_cast<MetricId>(i);
  }
  if (gauge_names_.size() >= kMaxGauges) {
    throw std::length_error("obs::Registry: gauge capacity exhausted");
  }
  check_label_cap(gauge_names_, name);
  gauge_names_.push_back(name);
  return static_cast<MetricId>(gauge_names_.size() - 1);
}

MetricId Registry::histogram(const std::string& name, double lo, double hi,
                             std::uint32_t bins) {
  if (bins == 0) throw std::invalid_argument("obs histogram: zero bins");
  if (!(lo < hi)) throw std::invalid_argument("obs histogram: lo >= hi");
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < histogram_names_.size(); ++i) {
    if (histogram_names_[i] != name) continue;
    const HistogramMeta& meta = histogram_meta_[i];
    if (meta.lo != lo || meta.hi != hi || meta.bins != bins) {
      throw std::invalid_argument("obs histogram \"" + name +
                                  "\": re-registered with different shape");
    }
    return static_cast<MetricId>(i);
  }
  if (histogram_names_.size() >= kMaxHistograms) {
    throw std::length_error("obs::Registry: histogram capacity exhausted");
  }
  if (next_cell_ + bins > kMaxHistogramCells) {
    throw std::length_error("obs::Registry: histogram cell capacity exhausted");
  }
  check_label_cap(histogram_names_, name);
  const auto id = static_cast<MetricId>(histogram_names_.size());
  histogram_names_.push_back(name);
  HistogramMeta& meta = histogram_meta_[id];
  meta.lo = lo;
  meta.hi = hi;
  meta.scale = static_cast<double>(bins) / (hi - lo);
  meta.bins = bins;
  meta.offset = next_cell_;
  next_cell_ += bins;
  // Publish: observe() loads num_histograms_ with acquire, so the meta
  // writes above are visible to any thread holding a valid id.
  num_histograms_.store(id + 1, std::memory_order_release);
  return id;
}

Registry::Shard& Registry::local_shard() const {
  struct CacheEntry {
    std::uint64_t registry_uid;
    std::shared_ptr<Shard> shard;
  };
  thread_local std::vector<CacheEntry> cache;
  for (CacheEntry& entry : cache) {
    if (entry.registry_uid == uid_) return *entry.shard;
  }
  auto shard = std::make_shared<Shard>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shards_.push_back(shard);
  }
  cache.push_back({uid_, shard});
  return *cache.back().shard;
}

void Registry::add(MetricId id, std::int64_t delta) {
  if (id >= kMaxCounters) return;
  local_shard().counters[id].fetch_add(delta, std::memory_order_relaxed);
}

void Registry::set(MetricId id, double value) {
  if (id >= kMaxGauges || std::isnan(value)) return;
  // Tag the write with a registry-wide sequence so scrape() can decide
  // which thread's shard holds the newest value. Value first (relaxed),
  // then seq with release: a reader that observes seq also observes the
  // matching (or a newer) value.
  const std::uint64_t seq =
      gauge_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  GaugeCell& cell = local_shard().gauges[id];
  cell.value.store(value, std::memory_order_relaxed);
  cell.seq.store(seq, std::memory_order_release);
}

void Registry::observe(MetricId id, double x) {
  if (id >= num_histograms_.load(std::memory_order_acquire)) return;
  const HistogramMeta& meta = histogram_meta_[id];
  Shard& shard = local_shard();
  if (std::isnan(x)) {
    shard.dropped[id].fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Clamp in the double domain before any integer cast: +/-inf and values
  // far outside [lo, hi) land in the edge bins instead of invoking UB.
  std::uint32_t bin;
  if (x <= meta.lo) {
    bin = 0;
  } else if (x >= meta.hi) {
    bin = meta.bins - 1;
  } else {
    bin = std::min(static_cast<std::uint32_t>((x - meta.lo) * meta.scale),
                   meta.bins - 1);
  }
  shard.cells[meta.offset + bin].fetch_add(1, std::memory_order_relaxed);
  // The exposition `_sum` series; clamped so +/-inf cannot poison it.
  atomic_add_double(shard.sums[id],
                    std::min(std::max(x, meta.lo), meta.hi));
}

Snapshot Registry::scrape() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.counters.reserve(counter_names_.size());
  for (std::size_t i = 0; i < counter_names_.size(); ++i) {
    std::int64_t sum = 0;
    for (const auto& shard : shards_) {
      sum += shard->counters[i].load(std::memory_order_relaxed);
    }
    snap.counters.push_back({counter_names_[i], sum});
  }
  snap.gauges.reserve(gauge_names_.size());
  for (std::size_t i = 0; i < gauge_names_.size(); ++i) {
    double value = 0.0;
    std::uint64_t best_seq = 0;
    for (const auto& shard : shards_) {
      const GaugeCell& cell = shard->gauges[i];
      const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
      if (seq > best_seq) {
        best_seq = seq;
        value = cell.value.load(std::memory_order_relaxed);
      }
    }
    snap.gauges.push_back({gauge_names_[i], value});
  }
  snap.histograms.reserve(histogram_names_.size());
  for (std::size_t i = 0; i < histogram_names_.size(); ++i) {
    const HistogramMeta& meta = histogram_meta_[i];
    HistogramValue value;
    value.name = histogram_names_[i];
    value.lo = meta.lo;
    value.hi = meta.hi;
    value.counts.assign(meta.bins, 0);
    for (const auto& shard : shards_) {
      for (std::uint32_t b = 0; b < meta.bins; ++b) {
        value.counts[b] +=
            shard->cells[meta.offset + b].load(std::memory_order_relaxed);
      }
      value.dropped += shard->dropped[i].load(std::memory_order_relaxed);
      value.sum += shard->sums[i].load(std::memory_order_relaxed);
    }
    for (const std::uint64_t c : value.counts) value.total += c;
    snap.histograms.push_back(std::move(value));
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& shard : shards_) {
    for (auto& cell : shard->counters) {
      cell.store(0, std::memory_order_relaxed);
    }
    for (GaugeCell& cell : shard->gauges) {
      cell.value.store(0.0, std::memory_order_relaxed);
      cell.seq.store(0, std::memory_order_relaxed);
    }
    for (auto& cell : shard->cells) cell.store(0, std::memory_order_relaxed);
    for (auto& cell : shard->dropped) {
      cell.store(0, std::memory_order_relaxed);
    }
    for (auto& cell : shard->sums) cell.store(0.0, std::memory_order_relaxed);
  }
}

}  // namespace fixedpart::obs
