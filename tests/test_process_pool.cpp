// Process-isolated execution (PR 8; ctest label: isolate): the
// svc::ProcessPool + fixedpart-worker supervision tree. Covers the clean
// path (a worker process produces the same deterministic result as the
// in-process runner), the crash taxonomy (abort -> WorkerCrashError,
// repeat crasher -> WorkerPoisonedError -> failed(crash) through
// run_supervised_job), crash-exactly-once retry in a fresh worker, the
// reaper's hang kill of a heartbeat-silent worker, cooperative budget
// truncation across the process boundary, worker-reported permanent
// errors rethrown as their original classes, and the deterministic
// respawn backoff. Fault hooks ride on FIXEDPART_WORKER_* env vars
// (tests/fault_inject.hpp ScopedEnv), never on spec fields, so job ids
// stay identical across isolation modes.
//
// The binary is ASan-certified via scripts/check.sh; it is excluded from
// TSan runs because the pool forks from a threaded test process, which
// TSan's runtime does not support.

#include "svc/process_pool.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault_inject.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "obs/trace_wire.hpp"
#include "svc/executor.hpp"
#include "svc/job.hpp"
#include "util/deadline.hpp"
#include "util/errors.hpp"

#ifndef FIXEDPART_WORKER_BIN
#error "FIXEDPART_WORKER_BIN must point at the fixedpart-worker binary"
#endif

#ifdef __unix__

#include <fcntl.h>
#include <unistd.h>

namespace fixedpart::svc {
namespace {

namespace fs = std::filesystem;
using fixedpart::testing::ScopedEnv;

JobSpec make_spec(const std::string& id, std::uint64_t seed) {
  JobSpec spec;
  spec.id = id;
  spec.circuit = 1;
  spec.scale = "smoke";
  spec.starts = 1;
  spec.seed = seed;
  return spec;
}

ProcessPoolConfig base_config() {
  ProcessPoolConfig config;
  config.worker_path = FIXEDPART_WORKER_BIN;
  // Tests never really sleep through a backoff.
  config.sleep_fn = [](double) {};
  return config;
}

TEST(ProcessPool, CleanJobMatchesInProcessResult) {
  ProcessPool pool(base_config());
  const JobSpec spec = make_spec("clean-1", 11);
  const util::Deadline unlimited;

  const JobResult isolated = pool.attempt(spec, unlimited);
  const JobResult inproc = run_partition_job(spec, unlimited);
  // Determinism across the process boundary: the worker ran the same
  // engine on the same spec, so everything but wall time must agree.
  EXPECT_EQ(isolated.cut, inproc.cut);
  EXPECT_EQ(isolated.moves, inproc.moves);
  EXPECT_EQ(isolated.passes, inproc.passes);
  EXPECT_EQ(isolated.truncated, inproc.truncated);

  const ProcessPoolStats stats = pool.stats();
  EXPECT_EQ(stats.spawned, 1);
  EXPECT_EQ(stats.crashed, 0);
  EXPECT_EQ(stats.respawns, 0);
  EXPECT_GT(stats.rss_peak_kb, 0);
}

TEST(ProcessPool, SpawnSurvivesOccupiedLowParentFds) {
  // Regression: pipe() hands out the lowest free fds, so with fd 3
  // occupied in the parent (exactly what a test runner's inherited fds
  // produce) a pipe end used to land ON fd 4 and get closed by the
  // child's post-dup2 cleanup — every worker died with exit code 2 on
  // its first heartbeat. Pin both layouts: only-3 busy, only-4 busy.
  for (const int busy : {3, 4}) {
    const int devnull = ::open("/dev/null", O_RDWR);
    ASSERT_GE(devnull, 0);
    const int saved = ::fcntl(busy, F_DUPFD, 10);  // restore point if open
    ASSERT_EQ(::dup2(devnull, busy), busy);
    ::close(devnull);

    ProcessPool pool(base_config());
    const JobSpec spec = make_spec("fdlayout-" + std::to_string(busy), 11);
    const JobResult result = pool.attempt(spec, util::Deadline());
    EXPECT_GT(result.moves, 0);
    EXPECT_EQ(pool.stats().crashed, 0) << "busy fd " << busy;

    if (saved >= 0) {
      ::dup2(saved, busy);
      ::close(saved);
    } else {
      ::close(busy);
    }
  }
}

TEST(ProcessPool, CrashingWorkerThrowsThenPoisons) {
  ScopedEnv crash("FIXEDPART_WORKER_CRASH_SEED", "777");
  ProcessPoolConfig config = base_config();
  config.max_job_crashes = 2;
  ProcessPool pool(config);
  const JobSpec spec = make_spec("crasher-1", 777);
  const util::Deadline unlimited;

  // First crash: transient, the supervised loop would retry it.
  EXPECT_THROW(pool.attempt(spec, unlimited), WorkerCrashError);
  // Second crash of the SAME job: the circuit breaker trips.
  EXPECT_THROW(pool.attempt(spec, unlimited), WorkerPoisonedError);

  const ProcessPoolStats stats = pool.stats();
  EXPECT_EQ(stats.spawned, 2);
  EXPECT_EQ(stats.crashed, 2);
  EXPECT_EQ(stats.respawns, 1);  // the second spawn paid the crash streak
}

TEST(ProcessPool, CrashOnceJobSucceedsOnRetryInFreshWorker) {
  const std::string flag =
      (fs::temp_directory_path() /
       ("fp_crash_once_flag_" + std::to_string(::getpid())))
          .string();
  fs::remove(flag);
  ScopedEnv crash_once("FIXEDPART_WORKER_CRASH_ONCE_SEED", "888");
  ScopedEnv flag_env("FIXEDPART_WORKER_CRASH_FLAG", flag);
  ProcessPool pool(base_config());
  const JobSpec spec = make_spec("crash-once-1", 888);

  RetryPolicy retry;
  retry.max_attempts = 3;
  AttemptSlot slot;
  SupervisedHooks hooks;
  hooks.sleep_fn = [](double) {};
  const JobOutcome outcome =
      run_supervised_job(pool.runner(), spec, retry, slot, hooks);
  fs::remove(flag);

  // The first worker aborted after planting the flag; the retry ran in a
  // fresh worker and completed. Exactly the existing retry loop at work.
  EXPECT_EQ(outcome.status, JobStatus::kOk);
  EXPECT_EQ(outcome.attempts, 2);
  const ProcessPoolStats stats = pool.stats();
  EXPECT_EQ(stats.spawned, 2);
  EXPECT_EQ(stats.crashed, 1);
  EXPECT_EQ(stats.respawns, 1);
}

TEST(ProcessPool, RepeatCrasherIsPoisonedAsFailedCrash) {
  ScopedEnv crash("FIXEDPART_WORKER_CRASH_SEED", "999");
  ProcessPoolConfig config = base_config();
  config.max_job_crashes = 2;
  ProcessPool pool(config);
  const JobSpec spec = make_spec("poison-1", 999);

  RetryPolicy retry;
  retry.max_attempts = 10;  // the breaker, not attempt exhaustion, stops it
  AttemptSlot slot;
  SupervisedHooks hooks;
  hooks.sleep_fn = [](double) {};
  const JobOutcome outcome =
      run_supervised_job(pool.runner(), spec, retry, slot, hooks);

  EXPECT_EQ(outcome.status, JobStatus::kFailed);
  EXPECT_EQ(outcome.error, ErrorClass::kCrash);
  EXPECT_EQ(outcome.attempts, 2);  // one per allowed crash, then fail-fast
  EXPECT_FALSE(outcome.message.empty());
  EXPECT_EQ(pool.stats().crashed, 2);
}

TEST(ProcessPool, HeartbeatSilentWorkerIsHangKilled) {
  ScopedEnv stall("FIXEDPART_WORKER_STALL_SEED", "555");
  ProcessPoolConfig config = base_config();
  config.heartbeat_timeout_seconds = 0.3;
  ProcessPool pool(config);
  const JobSpec spec = make_spec("stall-1", 555);
  const util::Deadline unlimited;

  EXPECT_THROW(pool.attempt(spec, unlimited), WorkerCrashError);
  const ProcessPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hang_kills, 1);
  EXPECT_EQ(stats.crashed, 1);
  EXPECT_EQ(stats.oom_kills, 0);  // our own SIGKILL must not count as OOM
}

TEST(ProcessPool, BudgetExpiryTruncatesCooperativelyAcrossTheBoundary) {
  ScopedEnv slow("FIXEDPART_WORKER_SLOW_MS", "30000");
  ProcessPool pool(base_config());
  JobSpec spec = make_spec("slow-1", 21);
  spec.budget_seconds = 0.2;  // the worker rebuilds this deadline itself

  const util::Deadline deadline = util::Deadline::after_seconds(10.0);
  const JobResult result = pool.attempt(spec, deadline);
  EXPECT_TRUE(result.truncated);
  EXPECT_EQ(pool.stats().crashed, 0);  // a degraded outcome is not a crash
}

TEST(ProcessPool, WorkerReportedInputErrorRethrownAsInputError) {
  ProcessPool pool(base_config());
  JobSpec spec = make_spec("badinput-1", 31);
  spec.instance = "/nonexistent/fp_no_such_instance.hgr";
  const util::Deadline unlimited;

  // The worker exits cleanly with a failed(input) outcome; the pool
  // rethrows the original class so run_supervised_job fails it fast
  // (permanent), exactly like the in-process path.
  EXPECT_THROW(pool.attempt(spec, unlimited), util::InputError);
  EXPECT_EQ(pool.stats().crashed, 0);
}

TEST(ProcessPool, RespawnBackoffIsDeterministic) {
  ScopedEnv crash("FIXEDPART_WORKER_CRASH_SEED", "666");
  const auto run_streak = [](std::vector<double>* delays) {
    ProcessPoolConfig config = base_config();
    config.max_job_crashes = 3;
    config.sleep_fn = [delays](double seconds) {
      delays->push_back(seconds);
    };
    ProcessPool pool(config);
    const JobSpec spec = make_spec("backoff-1", 666);
    const util::Deadline unlimited;
    for (int i = 0; i < 3; ++i) {
      try {
        pool.attempt(spec, unlimited);
      } catch (const WorkerCrashError&) {
      } catch (const WorkerPoisonedError&) {
      }
    }
  };
  std::vector<double> first;
  std::vector<double> second;
  run_streak(&first);
  run_streak(&second);
  // Crash-streak backoff before the 2nd and 3rd spawns, growing, capped,
  // and bit-identical across runs (jitter is derived from the job id and
  // the streak, not from wall clock or a global RNG).
  ASSERT_EQ(first.size(), 2u);
  EXPECT_GT(first[0], 0.0);
  EXPECT_GT(first[1], first[0]);
  EXPECT_EQ(first, second);
}

TEST(ProcessPool, StatsJsonIsACompleteObject) {
  ProcessPool pool(base_config());
  const std::string json = pool.stats_json();
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key :
       {"spawned", "crashed", "oom_kills", "respawns", "hang_kills",
        "rss_peak_kb"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(ProcessPool, ResolveWorkerPathValidates) {
  EXPECT_THROW(resolve_worker_path("/nonexistent/fp_worker"),
               util::InputError);
  EXPECT_EQ(resolve_worker_path(FIXEDPART_WORKER_BIN),
            std::string(FIXEDPART_WORKER_BIN));
}

TEST(ProcessPool, ConstructorRejectsBadConfig) {
  ProcessPoolConfig config = base_config();
  config.worker_path = "/nonexistent/fp_worker";
  EXPECT_THROW(ProcessPool pool(config), util::InputError);
  ProcessPoolConfig zero = base_config();
  zero.max_job_crashes = 0;
  EXPECT_THROW(ProcessPool pool(zero), std::invalid_argument);
}

// --- span streaming over the 'T' frame (PR 10) -----------------------------

TEST(ProcessPool, WorkerSpansMergeTimeAlignedAndPidTagged) {
  ProcessPool pool(base_config());
  const JobSpec spec = make_spec("traced-1", 11);
  obs::SpanBuffer spans;
  // The same arrangement run_supervised_job makes: the attendant inherits
  // this thread's context, so worker spans land in the job's buffer.
  obs::ScopedTraceContext context(obs::trace_id_for(spec.id), &spans);
  const std::int64_t before_ns = obs::trace_now_ns();
  const JobResult result = pool.attempt(spec, util::Deadline());
  const std::int64_t after_ns = obs::trace_now_ns();
  EXPECT_GT(result.moves, 0);

  const std::vector<obs::TraceEvent> events = spans.events();
  ASSERT_FALSE(events.empty());
  bool saw_marker = false;
  bool saw_engine_span = false;
  for (const obs::TraceEvent& event : events) {
    // Every merged span is tagged with the worker's real pid (never 0 =
    // local) and the job's trace id.
    EXPECT_NE(event.pid, 0u);
    EXPECT_EQ(event.trace_id, obs::trace_id_for(spec.id));
    // Time alignment: the estimated epoch offset never undershoots the
    // true one (it is a min over one-way transit times), so every
    // rebased span lands inside the parent-side attempt window.
    EXPECT_GE(event.start_ns, before_ns);
    EXPECT_LE(event.start_ns, after_ns);
    if (std::string(event.name) == "worker.start") saw_marker = true;
    if (std::string(event.name).rfind("ml.", 0) == 0) saw_engine_span = true;
  }
  EXPECT_TRUE(saw_marker);
  EXPECT_TRUE(saw_engine_span);
}

TEST(ProcessPool, MaliciousSpanFramesCorruptOnlyTheirOwnTrace) {
  ScopedEnv bad("FIXEDPART_WORKER_BAD_SPANS_SEED", "555");
  ProcessPool pool(base_config());

  // The hostile job: floods the parent with corrupt 'T' frames, then
  // runs normally. The attempt must still succeed, and the garbage is
  // confined to this job's buffer (bounded names, counted drops).
  const JobSpec hostile = make_spec("hostile-1", 555);
  obs::SpanBuffer hostile_spans;
  {
    obs::ScopedTraceContext context(obs::trace_id_for(hostile.id),
                                    &hostile_spans);
    const JobResult result = pool.attempt(hostile, util::Deadline());
    EXPECT_GT(result.moves, 0);
  }
  EXPECT_GT(hostile_spans.dropped(), 0u);  // remote drops + malformed lines
  for (const obs::TraceEvent& event : hostile_spans.events()) {
    EXPECT_LE(std::string(event.name).size(), obs::kMaxWireNameBytes);
  }

  // A clean job through the same pool afterwards: its trace contains
  // exactly its own worker's spans, none of the hostile leftovers.
  const JobSpec clean = make_spec("clean-after-hostile", 11);
  obs::SpanBuffer clean_spans;
  {
    obs::ScopedTraceContext context(obs::trace_id_for(clean.id),
                                    &clean_spans);
    const JobResult result = pool.attempt(clean, util::Deadline());
    EXPECT_GT(result.moves, 0);
  }
  EXPECT_EQ(clean_spans.dropped(), 0u);
  bool saw_marker = false;
  for (const obs::TraceEvent& event : clean_spans.events()) {
    EXPECT_EQ(event.trace_id, obs::trace_id_for(clean.id));
    const std::string name = event.name;
    EXPECT_EQ(name.find("future"), std::string::npos);
    EXPECT_EQ(name.find("torn"), std::string::npos);
    if (name == "worker.start") saw_marker = true;
  }
  EXPECT_TRUE(saw_marker);
  EXPECT_EQ(pool.stats().crashed, 0);
}

TEST(ProcessPool, CrashedWorkerLeavesFlightDumpNamingTheJob) {
  const fs::path dir =
      fs::temp_directory_path() / "fp_pool_flight_crash_dump";
  fs::remove_all(dir);
  ScopedEnv crash("FIXEDPART_WORKER_CRASH_SEED", "777");
  ProcessPoolConfig config = base_config();
  config.flight_dir = dir.string();
  config.max_job_crashes = 2;
  ProcessPool pool(config);
  const JobSpec spec = make_spec("crash-dump-1", 777);
  EXPECT_THROW(pool.attempt(spec, util::Deadline()), WorkerCrashError);
  const fs::path expected = dir / ("crash-" + spec.id + ".json");
  ASSERT_TRUE(fs::exists(expected)) << expected;
  std::ifstream in(expected);
  std::stringstream content;
  content << in.rdbuf();
  const std::string dump = content.str();
  EXPECT_NE(dump.find("\"reason\": \"crash\""), std::string::npos);
  EXPECT_NE(dump.find("\"job\": \"" + spec.id + "\""), std::string::npos);
  EXPECT_NE(dump.find("\"phase\""), std::string::npos);
  EXPECT_NE(dump.find("\"entries\""), std::string::npos);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace fixedpart::svc

#endif  // __unix__
