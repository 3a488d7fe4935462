#pragma once
// Shared pieces of the benchmark driver: run options, the metric lists a
// run prints, the output checks every workload counts into its failures,
// and small statistics, memory and host helpers.

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hg/fixed.hpp"
#include "hg/hypergraph.hpp"
#include "part/balance.hpp"

namespace fpbench {

namespace hg = fixedpart::hg;
namespace part = fixedpart::part;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Per-run scratch directory (inputs, journals, spools); removed at exit.
  std::string work_dir;
  /// Where the traced run writes its Chrome trace.
  std::string trace_dir;
};

/// An ordered list of (name, value, unit), printed as one JSON object.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of v.
  std::string to_json() const;

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// Counts checked outputs and the ones that failed their check.
class Tally {
 public:
  /// Records one attempted output; `failure` empty means it passed.
  void check(const std::string& failure);
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  double ok_frac() const;
  /// The first few failure messages, for stderr.
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// What one workload run produces.
struct Report {
  /// The metrics BENCHMARK.json lists for this mode: end-to-end when
  /// untraced, per-layer when traced.
  Metrics metrics;
  /// The workload's own metric names (solve_s, sweep_s, job_p50_s, ...),
  /// printed on an earlier line for people reading the output.
  Metrics detail;
  Tally tally;
  /// Why the workload exists and how its load is generated (one line each).
  std::string why;
  std::string load;
};

/// `text` as a JSON string literal (quotes and backslashes escaped).
std::string json_quote(const std::string& text);

using Clock = std::chrono::steady_clock;
double seconds_since(Clock::time_point start);

double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty input.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

/// Resets the kernel's peak-RSS mark (VmHWM) so a later peak_rss_mb()
/// covers only what follows.
void reset_peak_rss();
/// VmHWM of this process in MiB.
double peak_rss_mb();
/// CPUs this process may run on (what `nproc` prints).
int cpus();

/// Checks a bipartition: complete, fixed vertices honoured
/// (part::check_respects_fixed), every side within `balance` unless
/// part::check_feasibility proves the fixed vertices alone make that
/// impossible, and the cut recomputed net by net (independent of
/// part::PartitionState) equal to `reported_cut`. Returns ""
/// when all hold, else what failed.
std::string check_partition(const hg::Hypergraph& graph,
                            const hg::FixedAssignment& fixed,
                            const part::BalanceConstraint& balance,
                            std::span<const hg::PartitionId> assignment,
                            hg::Weight reported_cut);

/// Seed of the j-th independent stream derived from a run's seed.
std::uint64_t derived_seed(std::uint64_t seed, int j);

}  // namespace fpbench
