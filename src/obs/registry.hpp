#pragma once
// Low-overhead named metrics: monotonic counters, last-write-wins gauges
// and fixed-bin histograms (docs/OBSERVABILITY.md). The hot path —
// Registry::add / Registry::set / Registry::observe
// — touches only a thread-local shard with relaxed atomic increments: no
// locks, no shared cache lines between threads. scrape() takes the registry
// mutex, sums every shard ever created (shards of exited threads are kept
// alive by the registry and retain their final values) and returns a
// consistent-enough Snapshot: each cell is read atomically; cells may be
// torn *relative to each other* while writers are still running, which is
// the standard monotonic-counter contract.
//
// Registration (counter()/histogram()) is the cold path and takes a lock;
// call it once and cache the MetricId (a function-local static is the
// idiomatic pattern, see src/part/fm.cpp). Capacities are fixed so shards
// never reallocate under concurrent readers: kMaxCounters counters,
// kMaxHistograms histograms, kMaxHistogramCells total bins per registry.

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace fixedpart::obs {

/// Dense handle for a registered metric; stable for the registry lifetime.
using MetricId = std::uint32_t;

struct CounterValue {
  std::string name;
  std::int64_t value = 0;
};

/// Last-write-wins scalar (queue depth, heartbeat age, best cut so far).
struct GaugeValue {
  std::string name;
  double value = 0.0;
};

struct HistogramValue {
  std::string name;
  double lo = 0.0;
  double hi = 1.0;
  std::vector<std::uint64_t> counts;  ///< one entry per bin
  std::uint64_t total = 0;            ///< sum of counts
  std::uint64_t dropped = 0;          ///< NaN observations, excluded above
  /// Sum of observed values, each clamped into [lo, hi] (so +/-inf cannot
  /// poison it); the `_sum` series of the Prometheus exposition.
  double sum = 0.0;
};

/// Point-in-time merge of every shard, in registration order.
struct Snapshot {
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// Value of a counter by name; 0 when the name was never registered.
  std::int64_t counter(const std::string& name) const;
  /// Gauge by name; nullptr when never registered.
  const GaugeValue* gauge(const std::string& name) const;
  /// Histogram by name; nullptr when never registered.
  const HistogramValue* histogram(const std::string& name) const;
  /// Three-section JSON object:
  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  std::string to_json() const;
};

/// Renders a labeled-family member name, `name{key="value",...}`, with
/// Prometheus label-value escaping. The result is an ordinary metric name:
/// register it with counter()/gauge()/histogram() and the exposition layer
/// re-emits the label set verbatim. Distinct label values of one family
/// are capped at Registry::kMaxLabelSets (mirroring kMaxCounters, so an
/// unbounded label domain cannot exhaust the registry).
std::string labeled(
    const std::string& name,
    std::initializer_list<std::pair<const char*, std::string>> labels);

class Registry {
 public:
  static constexpr std::uint32_t kMaxCounters = 256;
  static constexpr std::uint32_t kMaxGauges = 128;
  static constexpr std::uint32_t kMaxHistograms = 64;
  static constexpr std::uint32_t kMaxHistogramCells = 4096;
  /// Cap on distinct label sets per family name (the part before '{').
  static constexpr std::uint32_t kMaxLabelSets = 64;

  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Process-wide registry used by the built-in instrumentation.
  static Registry& global();

  /// Registers (or finds) a monotonic counter. Idempotent per name.
  /// Throws std::length_error past kMaxCounters (or, for a labeled name,
  /// past kMaxLabelSets members of its family).
  MetricId counter(const std::string& name);

  /// Registers (or finds) a last-write-wins gauge. Idempotent per name.
  /// Throws std::length_error past kMaxGauges / kMaxLabelSets.
  MetricId gauge(const std::string& name);

  /// Registers (or finds) a histogram over [lo, hi) with `bins` equal
  /// bins. Re-registration with different parameters throws
  /// std::invalid_argument; values outside the range clamp into the edge
  /// bins; NaN observations are dropped (and counted).
  MetricId histogram(const std::string& name, double lo, double hi,
                     std::uint32_t bins);

  /// Hot path: adds `delta` to this thread's shard of the counter.
  void add(MetricId id, std::int64_t delta = 1);

  /// Hot path: sets the gauge, last write (across all threads) wins.
  /// NaN values are ignored (a gauge must always render as a number).
  void set(MetricId id, double value);

  /// Hot path: bins `x` into this thread's shard of the histogram.
  void observe(MetricId id, double x);

  /// Merges all shards into a Snapshot (takes the registry lock).
  Snapshot scrape() const;

  /// Zeroes every cell of every shard. Keeps registrations. Concurrent
  /// adds during a reset land on either side of it (test/tool use only).
  void reset();

 private:
  /// One gauge slot per shard. Last-write-wins across threads is resolved
  /// at scrape time: set() tags the value with a registry-wide sequence
  /// number (value stored relaxed, then seq with release; the scraper
  /// loads seq with acquire first), and the shard holding the highest
  /// sequence owns the current value.
  struct GaugeCell {
    std::atomic<double> value{0.0};
    std::atomic<std::uint64_t> seq{0};
  };
  struct Shard {
    std::array<std::atomic<std::int64_t>, kMaxCounters> counters{};
    std::array<GaugeCell, kMaxGauges> gauges{};
    std::array<std::atomic<std::uint64_t>, kMaxHistogramCells> cells{};
    std::array<std::atomic<std::uint64_t>, kMaxHistograms> dropped{};
    std::array<std::atomic<double>, kMaxHistograms> sums{};
  };
  struct HistogramMeta {
    double lo = 0.0;
    double hi = 1.0;
    double scale = 0.0;  ///< bins / (hi - lo), for the hot-path bin compute
    std::uint32_t bins = 0;
    std::uint32_t offset = 0;  ///< first cell index in Shard::cells
  };

  Shard& local_shard() const;

  /// Distinguishes registries in the thread-local shard cache even when a
  /// destroyed registry's address is reused.
  const std::uint64_t uid_;

  mutable std::mutex mu_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> gauge_names_;
  std::vector<std::string> histogram_names_;
  /// Tags gauge writes so scrape() can pick the globally newest one.
  std::atomic<std::uint64_t> gauge_seq_{0};
  std::array<HistogramMeta, kMaxHistograms> histogram_meta_{};
  std::uint32_t next_cell_ = 0;
  /// Published count of registered histograms; the release store in
  /// histogram() / acquire load in observe() orders the meta writes.
  std::atomic<std::uint32_t> num_histograms_{0};
  mutable std::vector<std::shared_ptr<Shard>> shards_;
};

}  // namespace fixedpart::obs
