#pragma once
// Partition-as-a-service (docs/ROBUSTNESS.md "Server lifecycle"): a
// long-running front end over the supervised job machinery, designed so a
// fleet of remote callers can share one partitioning daemon without any
// one of them wedging, starving, or losing work:
//
//  * POST /partition submits work — a raw hypergraph upload (hMETIS .hgr
//    or .fpb text, spooled to disk) or a flat-JSON job spec referencing a
//    server-side instance — and returns an async job handle;
//  * GET /jobs/<id> polls the handle; DELETE /jobs/<id> cancels
//    (cooperatively: a running attempt unwinds at its next deadline
//    check and commits its best-so-far result);
//  * admission is a bounded priority queue: when it is full the server
//    sheds load with 429 + Retry-After derived from the observed service
//    rate rather than accepting work it cannot start;
//  * the job id IS the canonical content hash of (instance, engine
//    knobs), so resubmitting the same work is idempotent and a finished
//    job's record doubles as a result cache entry (a repeat instance is
//    answered 200 from memory without touching the queue);
//  * per-request budgets map onto util::Deadline: an expired budget
//    degrades to the best partition found so far ("truncated": true)
//    instead of an error;
//  * accepted/done/cancelled transitions are journaled through the same
//    fsync-durable LineJournal discipline as batch checkpoints, so
//    kill -9 loses at most in-flight attempts — a restarted server
//    re-serves every journaled result and re-enqueues accepted-but-
//    unfinished jobs;
//  * drain() (SIGTERM) finishes running jobs, refuses new submissions
//    with 503, and leaves queued jobs journaled for the next start.
//
// The class is HTTP-agnostic at its core (submit/status_json/cancel are
// plain functions — that is what the unit tests drive); handle() adapts
// it to obs::HttpEndpoint's handler callback, and examples/partitiond.cpp
// is the daemon around it. It is also the only job supervisor: run_batch
// drives batch fleets and the paper sweeps through it as an in-process
// manifest client (submit(JobSpec, priority) + ServerConfig::on_commit).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/http.hpp"
#include "svc/checkpoint.hpp"
#include "svc/executor.hpp"
#include "svc/job.hpp"
#include "util/stats.hpp"

namespace fixedpart::svc {

/// Where a submitted job is in its life (docs/ROBUSTNESS.md diagram).
enum class JobState : std::uint8_t {
  kQueued,     ///< admitted, waiting for a worker
  kRunning,    ///< an attempt is executing
  kDone,       ///< outcome committed (ok/truncated/failed/poisoned)
  kCancelled,  ///< cancelled by DELETE; may still carry a partial outcome
};

const char* to_string(JobState state);

struct ServerConfig {
  int workers = 1;
  /// Queued (not running) jobs the admission queue holds; submissions
  /// past this are shed with 429.
  std::size_t queue_capacity = 16;
  RetryPolicy retry;
  /// Cancel attempts running longer than this (0 = no watchdog). The
  /// cancellation is cooperative — the engine unwinds at its next
  /// deadline check and the attempt reports truncated.
  double hang_seconds = 0.0;
  /// Budget applied when a request does not name one (0 = unlimited).
  double default_budget_seconds = 10.0;
  /// Hard per-request ceiling; larger asks are clamped, and 0 (unlimited)
  /// requests become this when it is set. Keeps one caller from renting
  /// a worker forever.
  double max_budget_seconds = 60.0;
  /// Finished-job records kept in memory (the result cache). Oldest are
  /// evicted first; journaled results survive eviction across restarts
  /// but evicted ids answer 404 until resubmitted.
  std::size_t done_capacity = 4096;
  /// Retry-After (seconds) returned on 429 while no job has completed
  /// yet: with no observed service rate there is nothing to extrapolate
  /// from, so the estimate is this deterministic configured default
  /// instead of a backlog multiple of the budget ceiling.
  double retry_after_no_data_seconds = 2.0;
  /// Event journal path; "" runs without durability (no recovery).
  std::string journal_path;
  /// Compact the event journal once this many lines have been appended
  /// since the last compaction (or replay): superseded accept/done/cancel
  /// lines of evicted jobs are dropped in one atomic rewrite, bounding a
  /// long-lived daemon's replay cost and disk footprint by the live job
  /// set (~3 lines x done_capacity) instead of its lifetime traffic.
  /// 0 disables compaction.
  std::int64_t journal_compact_every = 4096;
  /// Directory for uploaded hypergraphs; "" rejects uploads (manifest
  /// references still work).
  std::string spool_dir;
  /// Directory for flight-recorder dumps (watchdog fires, worker
  /// crash/hang classification, fatal signals). "" disables dumping;
  /// the in-memory recorder and /debug/flight work either way.
  std::string flight_dir;
  /// The job runner; null = run_partition_job. Tests inject fakes.
  JobRunner runner;
  /// Fault/sleep test hooks forwarded into run_supervised_job.
  SupervisedHooks hooks;
  /// Called once per committed outcome (done or cancelled-while-running),
  /// on the worker thread, after the done line is journaled and outside
  /// the server lock; it may call request_drain(), cancel() and the
  /// read-only accessors. Queued jobs cancelled before they ran never
  /// produce an outcome.
  std::function<void(const JobOutcome&)> on_commit;
};

/// What submit() decided, pre-shaped for HTTP but usable without it.
struct SubmitResult {
  int http_status = 0;  ///< 200 cache hit, 202 accepted, 400/413/429/503
  std::string id;       ///< canonical content hash ("" on 400/413/503)
  std::string body;     ///< one-line JSON response body
  double retry_after_seconds = 0.0;  ///< > 0 only on 429
};

class PartitionServer {
 public:
  explicit PartitionServer(ServerConfig config);
  ~PartitionServer();  ///< drains
  PartitionServer(const PartitionServer&) = delete;
  PartitionServer& operator=(const PartitionServer&) = delete;

  /// Replays the journal (recovering accepted-but-unfinished jobs and the
  /// result cache) and starts the worker + watchdog threads.
  void start();
  /// Graceful drain: refuse new work, finish running jobs, join every
  /// thread. Queued jobs stay journaled for the next start. Idempotent.
  void drain();
  /// The non-blocking half of drain(): refuse new work and stop
  /// dispatching queued jobs. Safe from any thread, on_commit included.
  void request_drain();
  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  /// POST /partition: `body` is a raw .hgr/.fpb upload or a flat-JSON
  /// spec; `query` tunes priority and engine knobs
  /// ("priority=2&starts=4&budget_seconds=1.5&seed=7..."). Applies the
  /// budget default and ceiling, names the job by its content hash and
  /// hands it to the admission overload below. Never throws.
  SubmitResult submit(const std::string& body, const std::string& query);
  /// Admission: cache hit or in-flight dedupe by spec.id, the capacity
  /// check (429), the journaled accept, the enqueue. The spec is taken as
  /// given — id and budget included — so in-process clients keep their
  /// own ids. A non-empty `upload` is spooled to spec.instance once the
  /// job is admitted. Never throws.
  SubmitResult submit(JobSpec spec, int priority,
                      const std::string& upload = "");
  /// GET /jobs/<id>: one-line JSON job record. Sets `http_status` to 200
  /// or 404.
  std::string status_json(const std::string& id, int* http_status);
  /// GET /jobs/<id>/trace: the job's Chrome trace JSON, rendered once at
  /// commit time and cached with the result (FIFO-evicted alongside it).
  /// 404 for unknown/unfinished jobs, journal-replayed results (only the
  /// outcome survives kill -9, never a partial trace), and OBS=OFF
  /// builds — a trace is always whole or absent, never truncated.
  std::string trace_json(const std::string& id, int* http_status);
  /// DELETE /jobs/<id>: 200 cancelled (queued), 202 cancellation
  /// requested (running, cooperative), 409 already done, 404 unknown.
  int cancel(const std::string& id, std::string* body);

  /// obs::HttpEndpoint handler adapter: POST /partition, GET|DELETE
  /// /jobs/<id>, GET /jobs. Returns false for unclaimed routes.
  bool handle(const obs::HttpRequest& request, obs::HttpResponse& response);
  /// One-line JSON for /progress: worker, queue/running/done counts, shed
  /// and cache-hit totals, observed service rate, drain flag.
  std::string progress_json() const;

  // Introspection (tests, daemon logs).
  std::size_t queued() const;
  std::size_t running() const;
  std::int64_t done_total() const;
  std::int64_t shed_total() const;
  std::int64_t cache_hit_total() const;
  std::int64_t recovered() const;
  /// Journal compactions performed since start (tests, daemon logs).
  std::int64_t journal_compactions() const;
  /// The Retry-After a 429 would carry right now.
  double retry_after_seconds() const;

 private:
  struct ServerJob;

  std::shared_ptr<ServerJob> pop_best_locked();
  void worker_loop(AttemptSlot& slot);
  void supervisor_loop();
  void finish_job(const std::shared_ptr<ServerJob>& job, JobOutcome outcome);
  void journal_append(const std::string& line);
  void replay_journal();
  /// Compacts once journal_compact_every appends have accumulated. Runs
  /// under mu_, on the commit path before the job is visible as done
  /// (and in start(), after a long replay).
  void compact_journal_if_due_locked();
  std::string job_json_locked(const ServerJob& job) const;
  double retry_after_locked() const;

  ServerConfig config_;
  JobRunner runner_;

  mutable std::mutex mu_;
  std::condition_variable cv_;             ///< workers: queue or drain
  std::condition_variable supervisor_cv_;  ///< supervisor ready / workers gone
  std::map<std::string, std::shared_ptr<ServerJob>> jobs_;
  std::vector<std::shared_ptr<ServerJob>> queue_;
  std::vector<std::shared_ptr<ServerJob>> running_;
  std::deque<std::string> done_order_;  ///< eviction order for the cache
  std::uint64_t next_seq_ = 0;
  util::RunningStat service_seconds_;
  std::int64_t done_total_ = 0;
  std::int64_t shed_total_ = 0;
  std::int64_t cache_hits_ = 0;
  std::int64_t cancelled_total_ = 0;
  std::int64_t recovered_ = 0;
  /// Bytes of cached per-job trace JSON currently held (the
  /// svc.trace_bytes gauge); grows at commit, shrinks at eviction.
  std::int64_t trace_bytes_ = 0;

  std::mutex journal_mu_;  ///< always acquired after mu_ (or without it)
  std::unique_ptr<LineJournal> journal_;
  /// Lines appended since the last compaction/replay; the commit path
  /// compacts once it crosses journal_compact_every.
  std::atomic<std::int64_t> appended_since_compact_{0};
  std::atomic<std::int64_t> compactions_{0};

  std::atomic<bool> draining_{false};  ///< written under mu_
  bool workers_joined_ = false;        ///< guarded by mu_; stops the watchdog
  bool supervisor_ready_ = false;      ///< guarded by mu_; see start()
  bool started_ = false;
  std::mutex drain_mu_;  ///< makes drain() idempotent across threads
  bool joined_ = false;  ///< guarded by drain_mu_
  std::vector<std::unique_ptr<AttemptSlot>> slots_;
  std::vector<std::thread> workers_;
  std::thread supervisor_;
};

/// Runs a manifest to completion as an in-process client of a
/// PartitionServer built from `config` — the one worker pool, watchdog
/// and metric family — with no event journal and a queue that holds
/// every pending job. Manifest ids must be unique and are kept as job
/// ids; budgets are taken as given. `journal` (may be null) is the
/// resumable checkpoint: jobs it already holds are skipped, and every
/// commit appends exactly one outcome line. When `*drain` becomes true,
/// running jobs finish and are checkpointed and nothing new starts.
/// `halt_after` >= 0 simulates kill -9 after that many checkpointed
/// outcomes: dispatch stops and in-flight results are discarded.
/// `attach` (optional) sees the live server after start and nullptr
/// before it is destroyed (batch_runner serves /progress from it).
/// Runner exceptions never escape; journal IO errors and invalid
/// manifests do.
BatchReport run_batch(
    const std::vector<JobSpec>& manifest, ServerConfig config,
    CheckpointJournal* journal, const std::atomic<bool>* drain = nullptr,
    std::int64_t halt_after = -1,
    const std::function<void(const PartitionServer*)>& attach = {});

}  // namespace fixedpart::svc
