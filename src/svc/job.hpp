#pragma once
// Batch-job descriptions for the supervised execution engine (svc). A
// JobSpec says *what* to partition — an on-disk instance or a generated
// IBM-like circuit, plus regime/engine knobs — and a JobOutcome records
// what happened to it: result, attempts, error class, wall time. Both are
// serialized as flat single-line JSON objects so a manifest (one JobSpec
// per line) and a checkpoint journal (one JobOutcome per line) are plain
// JSONL files, diffable and greppable. Parsing reuses the hardened
// hg::LineReader, so malformed manifests fail with source:line context
// through the PR-2 error taxonomy (util::InputError, exit code 3).

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "hg/io_common.hpp"
#include "hg/types.hpp"

namespace fixedpart::svc {

using hg::Weight;

/// One unit of supervised work: an instance, a fixed-vertex regime, and
/// the multilevel engine knobs. Defaults describe a tiny smoke job.
struct JobSpec {
  /// Unique within a manifest; names the job in the journal and logs.
  std::string id;
  /// On-disk instance (.fpb or hMETIS .hgr); empty = generated circuit.
  std::string instance;
  /// Generator parameters (used when `instance` is empty).
  int circuit = 1;             ///< ibm-like preset index (1..5)
  std::string scale = "smoke"; ///< smoke | default | paper
  /// Fixed-vertex regime layered on top: free keeps the instance's own
  /// fixed vertices; good/rand fix `fixed_pct`% per the paper's protocol.
  std::string regime = "free"; ///< free | good | rand
  double fixed_pct = 0.0;
  /// Engine knobs.
  int starts = 1;                ///< multistart runs, best kept
  /// Shared-memory threads one job may use for its multistart. 1 (the
  /// default) runs the starts one after another on one RNG (best_of);
  /// > 1 fans them out over the process-wide util::ThreadPool
  /// (best_of_parallel), one pre-forked RNG stream per start. Both run
  /// the same serial multilevel engine per start, but the stream
  /// derivation differs, so 1 and > 1 can give different cuts; every
  /// value > 1 yields the same outcome, only wall-clock changes. Total
  /// process concurrency stays bounded by server workers + pool size
  /// however large this knob is, because jobs borrow workers from one
  /// shared pool instead of spawning threads (docs/PARALLELISM.md).
  int threads_per_job = 1;
  std::uint64_t seed = 1;        ///< RNG seed; fully determines the result
  double tolerance_pct = 2.0;    ///< relative balance tolerance
  double budget_seconds = 0.0;   ///< per-attempt deadline; 0 = unlimited
  bool preflight = false;        ///< strict feasibility pre-flight
};

/// Terminal states of a job (docs/ROBUSTNESS.md has the state machine).
enum class JobStatus : std::uint8_t {
  kOk,         ///< completed within budget
  kTruncated,  ///< completed, but degraded by an expired deadline/cancel
  kFailed,     ///< permanent error (input/infeasible); never retried
  kPoisoned,   ///< transient errors exhausted max_attempts
};

/// Error classification at the job boundary (PR-2 taxonomy).
enum class ErrorClass : std::uint8_t {
  kNone,
  kTransient,   ///< bad_alloc, TransientError: retried with backoff
  kInput,       ///< util::InputError: permanent, failed fast
  kInfeasible,  ///< util::InfeasibleError: permanent, failed fast
  kInternal,    ///< unclassified exception: retried, then poisoned
  kCrash,       ///< worker process died (signal/OOM/hang): retried in a
                ///< fresh worker, poisoned after max_job_crashes
};

/// Retryable failure injected by infrastructure (IO hiccups, test fault
/// hooks). run_supervised_job backs off and retries these like bad_alloc.
class TransientError : public std::runtime_error {
 public:
  explicit TransientError(const std::string& msg) : std::runtime_error(msg) {}
};

/// A worker process died mid-attempt (signal, OOM kill, protocol EOF,
/// heartbeat-silent hang). Transient: the supervised loop retries the job
/// in a fresh worker with the usual backoff.
class WorkerCrashError : public TransientError {
 public:
  explicit WorkerCrashError(const std::string& msg) : TransientError(msg) {}
};

/// The same job has now crashed `max_job_crashes` workers — the circuit
/// breaker trips and the job is failed permanently as failed(crash)
/// instead of burning workers forever. NOT transient by design.
class WorkerPoisonedError : public std::runtime_error {
 public:
  explicit WorkerPoisonedError(const std::string& msg)
      : std::runtime_error(msg) {}
};

/// What happened to one job, as recorded in the checkpoint journal.
struct JobOutcome {
  std::string id;
  JobStatus status = JobStatus::kOk;
  ErrorClass error = ErrorClass::kNone;
  std::string message;   ///< diagnostic for failed/poisoned jobs
  int attempts = 1;
  Weight cut = 0;
  bool truncated = false;
  /// Engine effort of the winning attempt: FM moves/passes summed over
  /// the multistart. Deterministic given the spec (unlike `seconds`), so
  /// they are part of the canonical form. 0 for failed/poisoned jobs and
  /// for journals written before these fields existed.
  std::int64_t moves = 0;
  std::int64_t passes = 0;
  double seconds = 0.0;  ///< total wall time across attempts (a timestamp:
                         ///< excluded from the canonical form)
  /// Per-phase wall seconds of the winning job's trace, summed from the
  /// ml.coarsen_level / ml.initial / ml.refine_level spans
  /// (obs::phase_breakdown). Timing like `seconds`: excluded from the
  /// canonical form, serialized only when non-zero.
  double coarsen_seconds = 0.0;
  double initial_seconds = 0.0;
  double refine_seconds = 0.0;
};

const char* to_string(JobStatus status);
const char* to_string(ErrorClass error);
JobStatus job_status_from_string(const std::string& text);
ErrorClass error_class_from_string(const std::string& text);

/// One-line JSON serializations (no trailing newline).
std::string to_json_line(const JobSpec& spec);
std::string to_json_line(const JobOutcome& outcome);
/// The outcome minus wall-time: for a given manifest and seed this line is
/// byte-identical regardless of worker count or machine load, so sorted
/// canonical journals can be compared bit-for-bit (the determinism guard).
std::string to_canonical_json_line(const JobOutcome& outcome);

/// Parse one JSON line; failures throw hg::ParseError anchored at `at`.
JobSpec job_spec_from_json(const std::string& line, const hg::LineReader& at);
JobOutcome job_outcome_from_json(const std::string& line,
                                 const hg::LineReader& at);

/// Loads a JSONL manifest ('#' comments and blank lines allowed). Rejects
/// duplicate or empty ids and out-of-range knobs via util::InputError.
std::vector<JobSpec> load_manifest(std::istream& in,
                                   const std::string& source);
std::vector<JobSpec> load_manifest_file(const std::string& path);

}  // namespace fixedpart::svc
