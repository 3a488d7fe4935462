#pragma once
// Crash-isolated job execution: every attempt runs in a fork/exec'd
// `fixedpart-worker` process instead of the caller's address space, so a
// pathological instance — OOM, heap corruption, an assert, a runaway
// loop — kills one worker and not the daemon (docs/ROBUSTNESS.md
// "Process supervision tree").
//
// ProcessPool::attempt has the exact JobRunner shape, so
// svc::PartitionServer — daemon and batch fleets alike — gains isolation
// by swapping the runner (--isolation=process), and a crashed attempt
// re-enters the *existing* retry/backoff loop in run_supervised_job: the
// pool reports a crash by throwing WorkerCrashError (transient → retried
// in a fresh worker) or, once the same job has crashed max_job_crashes
// workers, WorkerPoisonedError (the circuit breaker → failed(crash), never
// retried again). Because the job protocol — spec in, outcome out — is the same
// JSONL the journals use, journal bytes are identical across isolation
// modes for crash-free fleets.
//
// Supervision per attempt:
//   * the worker is spawned under SpawnLimits (RLIMIT_AS / RLIMIT_CPU /
//     RLIMIT_CORE) with the frame protocol on fds 3/4;
//   * the attendant (the calling worker thread) feeds the 'J' spec frame,
//     consumes 'H' heartbeats, and waits for the single 'O' outcome;
//   * a pool-wide reaper thread scans every live worker and SIGKILLs any
//     that has been heartbeat-silent past heartbeat_timeout_seconds (a
//     wedged worker cannot rent its attendant forever);
//   * when the attendant's own deadline expires (budget, user cancel,
//     watchdog) it sends one 'C' frame and gives the worker
//     cancel_grace_seconds to unwind cooperatively — the worker's
//     best-so-far truncated outcome still counts — before SIGKILL;
//   * every exit is classified: clean outcome; nonzero exit, fatal signal
//     (SIGSEGV/SIGABRT/...), SIGXCPU and protocol EOF → crash; SIGKILL →
//     OOM kill unless the reaper/grace timer marked it a hang.
//
// Respawn after a crash backs off exponentially with deterministic jitter
// (same discipline as the retry loop), so a crash-looping fleet cannot
// fork-bomb the host. svc.worker.{spawned,crashed,oom_kills,respawns,
// rss_peak_kb} flow into the obs registry.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "svc/executor.hpp"
#include "svc/job.hpp"
#include "util/deadline.hpp"
#include "util/subprocess.hpp"

namespace fixedpart::svc {

struct ProcessPoolConfig {
  /// Path to the fixedpart-worker binary. Required; the constructor
  /// throws util::InputError if it does not name an executable file.
  std::string worker_path;
  /// setrlimit caps applied to every worker (0 = inherit).
  long long rlimit_as_bytes = 0;
  long long rlimit_cpu_seconds = 0;
  bool allow_core = false;
  /// A worker silent (no frame of any kind) this long is presumed wedged
  /// and SIGKILLed by the reaper; its job crash-retries. Workers beat
  /// ~every 50 ms, so this measures real hangs, not load. <= 0 disables.
  double heartbeat_timeout_seconds = 10.0;
  /// After the attendant sends a cancel frame (budget expiry, user
  /// cancel), how long the worker gets to unwind and deliver its
  /// best-so-far outcome before SIGKILL.
  double cancel_grace_seconds = 5.0;
  /// A job that has crashed this many workers is poisoned as
  /// failed(crash) instead of retried (the circuit breaker). >= 1.
  int max_job_crashes = 2;
  /// Exponential respawn backoff applied before spawning while the pool
  /// is in a crash streak (deterministic jitter from the job id).
  double respawn_backoff_base_seconds = 0.05;
  double respawn_backoff_cap_seconds = 2.0;
  double respawn_jitter_fraction = 0.25;
  /// Backoff sleep override (tests capture delays instead of sleeping).
  std::function<void(double seconds)> sleep_fn;
  /// When non-empty, every crash/hang classification dumps the flight
  /// recorder to <flight_dir>/<crash|hang>-<jobid>.json naming the job
  /// and the worker's last streamed span (docs/ROBUSTNESS.md "Flight
  /// recorder").
  std::string flight_dir;
};

/// Counters the tests and /progress read back; mirrors the svc.worker.*
/// registry metrics.
struct ProcessPoolStats {
  std::int64_t spawned = 0;    ///< workers forked (respawns included)
  std::int64_t crashed = 0;    ///< exits without a clean outcome
  std::int64_t oom_kills = 0;  ///< SIGKILLed (not by us) or worker-reported
                               ///< out-of-memory under RLIMIT_AS
  std::int64_t respawns = 0;   ///< spawns that paid a crash-streak backoff
  std::int64_t hang_kills = 0; ///< reaper/grace SIGKILLs of silent workers
  long rss_peak_kb = 0;        ///< max ru_maxrss over all reaped workers
};

class ProcessPool {
 public:
  explicit ProcessPool(ProcessPoolConfig config);
  ~ProcessPool();
  ProcessPool(const ProcessPool&) = delete;
  ProcessPool& operator=(const ProcessPool&) = delete;

  /// Runs one attempt of `spec` in a fresh worker process. JobRunner
  /// shape: returns the worker's result, or throws per the taxonomy —
  /// worker-reported errors are rethrown as their original classes
  /// (InputError/InfeasibleError/TransientError/runtime_error), a dead
  /// worker as WorkerCrashError/WorkerPoisonedError.
  JobResult attempt(const JobSpec& spec, const util::Deadline& deadline);

  /// The pool as a JobRunner (binds `this`; the pool must outlive it).
  JobRunner runner() {
    return [this](const JobSpec& spec, const util::Deadline& deadline) {
      return attempt(spec, deadline);
    };
  }

  ProcessPoolStats stats() const;
  /// `"workers": {...}` fragment (no braces balance issues: a complete
  /// JSON object) for merging into /progress bodies.
  std::string stats_json() const;

 private:
  struct LiveWorker {
    long long pid = -1;
    std::string job;  ///< set before publication into live_, then const
    std::atomic<std::int64_t> last_beat_ms{0};
    std::atomic<bool> hang_killed{false};
    /// Name of the last span streamed over a 'T' frame (an interned
    /// pointer — immortal), i.e. the worker's last recorded phase.
    std::atomic<const char*> last_span{nullptr};
  };

  void reaper_loop();

  ProcessPoolConfig config_;

  mutable std::mutex mu_;
  std::set<std::shared_ptr<LiveWorker>> live_;
  std::map<std::string, int> crash_counts_;  ///< per job id
  int crash_streak_ = 0;  ///< consecutive crashes pool-wide, for backoff
  ProcessPoolStats stats_;

  std::atomic<bool> stopping_{false};
  std::thread reaper_;
};

/// Resolves the worker binary: `flag` if non-empty, else
/// "fixedpart-worker" next to the running executable. Throws
/// util::InputError when the result does not exist.
std::string resolve_worker_path(const std::string& flag);

}  // namespace fixedpart::svc
