#pragma once
// The job boundary shared by every supervised run: run_supervised_job
// keeps one partitioning job making progress when its attempts crash,
// hang or run out of budget, and run_partition_job is the standard
// runner. svc::PartitionServer is the one supervisor around it (worker
// pool, heartbeat watchdog, drain); batch fleets and sweeps are
// in-process manifest clients of that server (svc::run_batch).
//
// Per job: its own util::Deadline (budget + a supervisor-owned cancel
// flag), every exception caught at the job boundary and classified via
// the PR-2 taxonomy, transient failures (bad_alloc, TransientError,
// internal errors, deadline truncation) retried with exponential backoff
// and deterministic jitter, permanent failures (InputError,
// InfeasibleError) failed fast, jobs poisoned after max_attempts.
//
// Determinism: a job's result depends only on its JobSpec (seed included)
// — never on worker count, scheduling, or other jobs — so the canonical
// journal of a (manifest, seed) pair is byte-identical across runs.
// docs/ROBUSTNESS.md documents the job lifecycle state machine.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "svc/job.hpp"
#include "util/deadline.hpp"

namespace fixedpart::svc {

/// What one successful attempt reports back to the supervisor.
struct JobResult {
  Weight cut = 0;
  bool truncated = false;
  /// Engine effort metrics (FM moves/passes summed over the multistart);
  /// deterministic given the spec, carried into JobOutcome.
  std::int64_t moves = 0;
  std::int64_t passes = 0;
};

/// Runs one attempt of one job under the supervisor's deadline. Must be
/// callable concurrently from multiple workers, and for determinism must
/// derive all randomness from the spec (not from shared mutable state).
using JobRunner =
    std::function<JobResult(const JobSpec&, const util::Deadline&)>;

struct RetryPolicy {
  /// Total attempts per job (first try included). >= 1.
  int max_attempts = 3;
  /// First retry waits base, then base*2, base*4, ... capped.
  double backoff_base_seconds = 0.5;
  double backoff_cap_seconds = 30.0;
  /// Multiplicative jitter in [0, fraction), deterministic from
  /// (job id, attempt) so reruns back off identically.
  double jitter_fraction = 0.25;
  /// Deadline truncation counts as transient: retry with a fresh budget
  /// (the expiry may be machine load); the best attempt is kept either
  /// way, so exhausting attempts yields kTruncated, never kPoisoned.
  bool retry_truncated = true;
};

/// Monotonic milliseconds (steady_clock), the time base for AttemptSlot
/// heartbeats — exposed so the PartitionServer watchdog and the process
/// pool age slots against the same clock.
std::int64_t steady_ms();

/// Per-attempt heartbeat a supervisor watches: `busy` + `start_ms` say how
/// long the current attempt has been running; `cancel` is the supervisor's
/// lever, wired into the attempt's Deadline (cooperative — the engine
/// unwinds at its next deadline check and the attempt reports truncated).
struct AttemptSlot {
  std::atomic<bool> busy{false};
  std::atomic<std::int64_t> start_ms{0};
  std::atomic<bool> cancel{false};
};

/// Test and policy hooks for run_supervised_job. All optional.
struct SupervisedHooks {
  /// Called on the attempt thread before each attempt (1-based); may throw
  /// to inject failures (tests/fault_inject.hpp spirit).
  std::function<void(const JobSpec&, int attempt)> fault_hook;
  /// Backoff sleep override (tests capture delays instead of sleeping).
  std::function<void(double seconds)> sleep_fn;
  /// Polled between attempts: true stops retrying (drain, user
  /// cancellation) — the best result so far is committed as-is.
  std::function<bool()> stop_retrying;
  /// Per-job span buffer: run_supervised_job pushes a trace context
  /// (trace id = obs::trace_id_for(spec.id)) around the attempt loop so
  /// every engine span — and, in process isolation, every span streamed
  /// back over 'T' frames — lands here. When null a private buffer is
  /// used, so the phase breakdown on JobOutcome is filled either way.
  std::shared_ptr<obs::SpanBuffer> spans;
};

/// Runs every attempt of one job under the retry policy and never throws
/// (this IS the job boundary): exceptions are classified via the PR-2
/// taxonomy, transient/internal failures retried with deterministic
/// backoff, permanent ones failed fast, the job poisoned once attempts run
/// out. `slot` carries the live heartbeat; a supervisor watching it may
/// set slot.cancel to cut the running attempt short. Called by every
/// svc::PartitionServer worker.
JobOutcome run_supervised_job(const JobRunner& runner, const JobSpec& spec,
                              const RetryPolicy& retry, AttemptSlot& slot,
                              const SupervisedHooks& hooks = {});

struct BatchReport {
  /// One entry per finished job, in manifest order (resumed jobs keep
  /// their journaled outcome). Jobs never dispatched — drain/halt — are
  /// absent and counted in `abandoned`.
  std::vector<JobOutcome> outcomes;
  std::int64_t ok = 0;
  std::int64_t truncated = 0;
  std::int64_t failed = 0;    ///< permanent input/infeasible errors
  std::int64_t poisoned = 0;
  std::int64_t retried = 0;   ///< jobs that needed more than one attempt
  std::int64_t resumed = 0;   ///< skipped because the journal had them
  std::int64_t abandoned = 0; ///< not run: drain, halt, or journal loss
  bool drained = false;       ///< stopped early (drain flag or halt_after)

  bool complete() const { return abandoned == 0; }
  /// PR-2 exit code for the fleet: 0 when every job completed (ok or
  /// truncated); otherwise the highest-severity class — poisoned or an
  /// incomplete run -> 1, input failures -> 3, infeasible failures -> 4.
  int exit_code() const;
  /// One-line counts for logs: "ok=5 truncated=1 ...".
  std::string summary() const;
};

/// The standard runner: materializes the instance described by the spec
/// (reads .fpb/.hgr files, or generates the ibm-like circuit; applies the
/// good/rand fixed-vertex regime) and runs the multilevel multistart
/// under the deadline. Instances and good-regime references are memoized
/// process-wide, keyed by everything that affects them.
JobResult run_partition_job(const JobSpec& spec,
                            const util::Deadline& deadline);

}  // namespace fixedpart::svc
