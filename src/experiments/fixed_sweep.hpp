#pragma once
// The Section II experiment behind Figs. 1 and 2: for each percentage of
// fixed vertices, for the "good" and "rand" regimes, run T independent
// trials of the multilevel partitioner with 1/2/4/8 starts and report the
// average best cut (raw), the normalized best cut, and the average CPU
// time per trial.
//
// Multistart is realized as best-of-prefix: each trial performs
// max(starts) independent runs, and the s-start result is the best of the
// first s runs — its expectation is identical to s fresh runs, at a
// quarter of the compute.
//
// Normalization follows the paper exactly: good-regime costs are divided
// by the single good reference cut; rand-regime costs are divided by the
// best cut seen across *all* starts of *all* trials for that percentage
// (each rand percentage is a distinct instance).

#include <atomic>
#include <optional>
#include <string>
#include <vector>

#include "experiments/context.hpp"
#include "svc/executor.hpp"

namespace fixedpart::exp {

struct SweepConfig {
  std::vector<double> percentages = {0.0, 0.1, 0.5, 1.0,  2.0,  5.0,
                                     10.0, 15.0, 20.0, 30.0, 40.0, 50.0};
  std::vector<int> starts = {1, 2, 4, 8};
  int trials = 50;
  ml::MultilevelConfig ml;
};

/// One (regime, percentage, starts) data point.
struct SweepCell {
  double avg_best_cut = 0.0;   ///< mean over trials of best-of-starts cut
  double normalized = 0.0;     ///< avg_best_cut / regime normalizer
  double avg_seconds = 0.0;    ///< mean total CPU per trial (all starts)
};

struct SweepSeries {
  /// cells[pct_index][starts_index]
  std::vector<std::vector<SweepCell>> cells;
  /// Best cut seen over every run at each percentage (rand normalizer).
  std::vector<Weight> best_seen;
};

struct SweepResult {
  std::vector<double> percentages;
  std::vector<int> starts;
  SweepSeries good;
  SweepSeries rand;
  /// A deadline in SweepConfig::ml expired during the sweep: every cell is
  /// still populated (each run degrades to its best-so-far, see
  /// MultilevelConfig::deadline), but cuts from degraded runs are not
  /// comparable to full runs and the sweep should be reported as such.
  bool truncated = false;
};

// The experiment runs as a fleet of svc::JobSpecs — one job per (regime,
// percentage, trial, run) — on svc::PartitionServer through
// svc::run_batch, so the paper reproductions inherit the service's
// guarantees: per-job deadlines, retry-with-backoff, hang cancellation,
// graceful drain, and crash-safe checkpoint/resume. Every job's seed is
// pre-forked from `seed` in manifest order, so results are deterministic
// regardless of worker count and a resumed sweep is bit-identical to an
// uninterrupted one.

struct SupervisedSweepOptions {
  int workers = 1;
  /// Seeds the fixed-vertex series and every job's RNG stream.
  std::uint64_t seed = 20260707;
  /// Checkpoint journal path; empty = run without checkpointing. Without
  /// `resume`, an existing journal is replaced.
  std::string journal_path;
  bool resume = false;
  /// Per-job wall-clock budget (0 = unlimited); expired jobs degrade to
  /// best-so-far and are flagged truncated.
  double job_budget_seconds = 0.0;
  svc::RetryPolicy retry;
  double hang_seconds = 0.0;
  const std::atomic<bool>* drain = nullptr;  ///< SIGINT/SIGTERM drain flag
};

struct SupervisedSweepRun {
  svc::BatchReport report;
  /// Populated only when every job finished with a usable result (ok or
  /// truncated); a drained/halted or failure-ridden fleet leaves it empty
  /// (rerun with resume to finish).
  std::optional<SweepResult> result;
};

SupervisedSweepRun run_supervised_sweep(const InstanceContext& context,
                                        const SweepConfig& config,
                                        const SupervisedSweepOptions& options);

}  // namespace fixedpart::exp
