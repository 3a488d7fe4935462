// Tests for supervised batch execution (src/svc): JSONL round-trips,
// manifest validation, journal durability (torn trailing lines,
// compaction), and batch fleets on PartitionServer via run_batch —
// retry/backoff classification, crash simulation + resume, the
// determinism guard across worker counts, the hang watchdog, and
// graceful drain. ctest label: svc.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hg/io_common.hpp"
#include "svc/checkpoint.hpp"
#include "svc/job.hpp"
#include "svc/server.hpp"
#include "util/errors.hpp"

namespace fixedpart::svc {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = fs::temp_directory_path() /
            ("fp_svc_" + std::string(info ? info->name() : "test") + "_" +
             std::to_string(counter_++));
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
  static inline int counter_ = 0;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

hg::LineReader reader_at(std::istringstream& stream,
                         const std::string& source = "test") {
  return hg::LineReader(stream, source, '#');
}

/// A runner that never touches the filesystem: cut = seed so outcomes are
/// trivially deterministic, and specific job ids trigger failures.
JobResult scripted_runner(const JobSpec& spec, const util::Deadline&) {
  if (spec.regime == "rand" && spec.instance == "explode") {
    throw std::runtime_error("scripted internal failure");
  }
  return JobResult{static_cast<Weight>(spec.seed % 1000), false};
}

JobSpec simple_spec(const std::string& id, std::uint64_t seed) {
  JobSpec spec;
  spec.id = id;
  spec.seed = seed;
  return spec;
}

// ---------------------------------------------------------------- JSON --

TEST(SvcJob, FileSpecRoundTripsThroughJson) {
  JobSpec spec;
  spec.id = "weird \"id\"\twith\\escapes";
  spec.instance = "data/ibm01.hgr";
  spec.regime = "rand";
  spec.fixed_pct = 12.5;
  spec.starts = 8;
  spec.seed = 123456789012345ULL;
  spec.tolerance_pct = 10.0;
  spec.budget_seconds = 1.5;
  spec.preflight = true;

  const std::string line = to_json_line(spec);
  // File-backed specs carry no generator params.
  EXPECT_EQ(line.find("circuit"), std::string::npos);
  std::istringstream stream;
  const JobSpec back = job_spec_from_json(line, reader_at(stream));
  EXPECT_EQ(back.id, spec.id);
  EXPECT_EQ(back.instance, spec.instance);
  EXPECT_EQ(back.regime, spec.regime);
  EXPECT_DOUBLE_EQ(back.fixed_pct, spec.fixed_pct);
  EXPECT_EQ(back.starts, spec.starts);
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_DOUBLE_EQ(back.tolerance_pct, spec.tolerance_pct);
  EXPECT_DOUBLE_EQ(back.budget_seconds, spec.budget_seconds);
  EXPECT_TRUE(back.preflight);
}

TEST(SvcJob, GeneratedSpecRoundTripsThroughJson) {
  JobSpec spec;
  spec.id = "gen-job";
  spec.circuit = 3;
  spec.scale = "paper";
  spec.regime = "good";
  spec.fixed_pct = 40.0;
  spec.seed = 99;

  const std::string line = to_json_line(spec);
  std::istringstream stream;
  const JobSpec back = job_spec_from_json(line, reader_at(stream));
  EXPECT_TRUE(back.instance.empty());
  EXPECT_EQ(back.circuit, spec.circuit);
  EXPECT_EQ(back.scale, spec.scale);
  EXPECT_EQ(back.regime, spec.regime);
  EXPECT_DOUBLE_EQ(back.fixed_pct, spec.fixed_pct);
  EXPECT_EQ(back.seed, spec.seed);
}

TEST(SvcJob, OutcomeRoundTripsThroughJson) {
  JobOutcome outcome;
  outcome.id = "job-42";
  outcome.status = JobStatus::kPoisoned;
  outcome.error = ErrorClass::kTransient;
  outcome.message = "line1\nline2 \"quoted\"";
  outcome.attempts = 3;
  outcome.cut = 777;
  outcome.truncated = true;
  outcome.seconds = 1.25;

  const std::string line = to_json_line(outcome);
  std::istringstream stream;
  const JobOutcome back = job_outcome_from_json(line, reader_at(stream));
  EXPECT_EQ(back.id, outcome.id);
  EXPECT_EQ(back.status, outcome.status);
  EXPECT_EQ(back.error, outcome.error);
  EXPECT_EQ(back.message, outcome.message);
  EXPECT_EQ(back.attempts, outcome.attempts);
  EXPECT_EQ(back.cut, outcome.cut);
  EXPECT_TRUE(back.truncated);
  EXPECT_DOUBLE_EQ(back.seconds, outcome.seconds);
}

TEST(SvcJob, CanonicalLineOmitsWallTime) {
  JobOutcome a;
  a.id = "j";
  a.cut = 5;
  a.seconds = 0.001;
  JobOutcome b = a;
  b.seconds = 99.9;
  EXPECT_EQ(to_canonical_json_line(a), to_canonical_json_line(b));
  EXPECT_NE(to_json_line(a), to_json_line(b));
  EXPECT_EQ(to_canonical_json_line(a).find("seconds"), std::string::npos);
}

TEST(SvcJob, MalformedJsonFailsWithLineContext) {
  std::istringstream stream;
  const auto at = reader_at(stream, "bad.jsonl");
  EXPECT_THROW(job_spec_from_json("{\"id\": \"x\"", at), hg::ParseError);
  EXPECT_THROW(job_spec_from_json("{\"id\": \"x\"} trailing", at),
               hg::ParseError);
  EXPECT_THROW(
      job_spec_from_json("{\"id\": \"x\", \"id\": \"y\"}", at),
      hg::ParseError);
  EXPECT_THROW(job_spec_from_json("{\"id\": \"x\", \"circuit\": \"NaN\"}", at),
               hg::ParseError);
  try {
    job_spec_from_json("not json at all", at);
    FAIL() << "expected ParseError";
  } catch (const hg::ParseError& error) {
    EXPECT_NE(std::string(error.what()).find("bad.jsonl"), std::string::npos);
  }
}

// ------------------------------------------------------------ manifest --

TEST(SvcManifest, LoadsCommentsAndBlankLines) {
  std::istringstream in(
      "# a manifest\n"
      "\n" +
      to_json_line(simple_spec("a", 1)) + "\n" +
      to_json_line(simple_spec("b", 2)) + "\n");
  const auto manifest = load_manifest(in, "m.jsonl");
  ASSERT_EQ(manifest.size(), 2u);
  EXPECT_EQ(manifest[0].id, "a");
  EXPECT_EQ(manifest[1].id, "b");
}

TEST(SvcManifest, RejectsDuplicateIds) {
  std::istringstream in(to_json_line(simple_spec("a", 1)) + "\n" +
                        to_json_line(simple_spec("a", 2)) + "\n");
  EXPECT_THROW(load_manifest(in, "m.jsonl"), util::InputError);
}

TEST(SvcManifest, RejectsOutOfRangeKnobs) {
  JobSpec bad = simple_spec("a", 1);
  bad.fixed_pct = 120.0;
  std::istringstream in(to_json_line(bad) + "\n");
  EXPECT_THROW(load_manifest(in, "m.jsonl"), util::InputError);

  JobSpec bad2 = simple_spec("b", 1);
  bad2.regime = "sideways";
  std::istringstream in2(to_json_line(bad2) + "\n");
  EXPECT_THROW(load_manifest(in2, "m.jsonl"), util::InputError);
}

TEST(SvcManifest, MissingFileIsInputError) {
  EXPECT_THROW(load_manifest_file("/nonexistent/manifest.jsonl"),
               util::InputError);
}

// ------------------------------------------------------------- journal --

TEST(SvcJournal, MissingFileLoadsEmpty) {
  TempDir dir;
  CheckpointJournal journal(dir.file("none.jsonl"));
  EXPECT_TRUE(journal.load().empty());
}

TEST(SvcJournal, AppendThenLoadRoundTrips) {
  TempDir dir;
  CheckpointJournal journal(dir.file("j.jsonl"));
  JobOutcome outcome;
  outcome.id = "a";
  outcome.cut = 11;
  journal.append(outcome);
  outcome.id = "b";
  outcome.cut = 22;
  journal.append(outcome);
  const auto loaded = journal.load();
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].id, "a");
  EXPECT_EQ(loaded[1].cut, 22);
}

TEST(SvcJournal, TornTrailingLineIsDiscardedAndCompacted) {
  TempDir dir;
  const std::string path = dir.file("torn.jsonl");
  JobOutcome outcome;
  outcome.id = "whole";
  const std::string good_line = to_json_line(outcome) + "\n";
  {
    std::ofstream out(path, std::ios::binary);
    out << good_line << "{\"id\": \"torn";  // crash mid-write, no newline
  }
  CheckpointJournal journal(path);
  auto loaded = journal.load();
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].id, "whole");

  // open_for_append compacts the file to the parseable prefix on disk.
  loaded = journal.open_for_append();
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(read_file(path), good_line);
}

TEST(SvcJournal, CompleteCorruptLineThrows) {
  TempDir dir;
  const std::string path = dir.file("corrupt.jsonl");
  {
    std::ofstream out(path, std::ios::binary);
    out << "{\"id\": \"ok\"}\n"
        << "{\"id\": \"dup\", \"id\": \"dup\"}\n";  // complete but invalid
  }
  CheckpointJournal journal(path);
  EXPECT_THROW(journal.load(), hg::ParseError);
}

TEST(SvcJournal, CanonicalJournalSortsAndStripsTiming) {
  JobOutcome b;
  b.id = "b";
  b.seconds = 2.0;
  JobOutcome a;
  a.id = "a";
  a.seconds = 1.0;
  const auto lines = canonical_journal({b, a});
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_LT(lines[0], lines[1]);
  EXPECT_NE(lines[0].find("\"a\""), std::string::npos);
}

// ------------------------------------------------------ batch fleets --
//
// Fleets run through run_batch, i.e. on PartitionServer's worker pool and
// watchdog; only how a fleet is configured differs from a daemon.

/// A fleet configuration around `runner` (otherwise ServerConfig's
/// defaults: one worker, three attempts, no watchdog).
ServerConfig fleet(JobRunner runner) {
  ServerConfig config;
  config.runner = std::move(runner);
  return config;
}

TEST(SvcExecutor, RunsAllJobsAndReportsCounts) {
  std::vector<JobSpec> manifest = {simple_spec("a", 10), simple_spec("b", 20),
                                   simple_spec("c", 30)};
  ServerConfig config = fleet(scripted_runner);
  config.workers = 2;
  const BatchReport report = run_batch(manifest, config, nullptr);
  ASSERT_EQ(report.outcomes.size(), 3u);
  EXPECT_EQ(report.ok, 3);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.exit_code(), 0);
  // Outcomes come back in manifest order regardless of completion order.
  EXPECT_EQ(report.outcomes[0].id, "a");
  EXPECT_EQ(report.outcomes[1].id, "b");
  EXPECT_EQ(report.outcomes[2].id, "c");
  EXPECT_EQ(report.outcomes[1].cut, 20);
}

TEST(SvcExecutor, RejectsDuplicateManifestIds) {
  std::vector<JobSpec> manifest = {simple_spec("a", 1), simple_spec("a", 2)};
  EXPECT_THROW(run_batch(manifest, fleet(scripted_runner), nullptr),
               util::InputError);
}

TEST(SvcExecutor, TransientFailuresRetryWithDeterministicBackoff) {
  std::atomic<int> calls{0};
  std::vector<double> delays;
  ServerConfig config = fleet(scripted_runner);
  config.retry.max_attempts = 4;
  config.retry.backoff_base_seconds = 0.5;
  config.retry.jitter_fraction = 0.25;
  config.hooks.fault_hook = [&](const JobSpec&, int attempt) {
    calls.fetch_add(1);
    if (attempt <= 2) throw TransientError("injected hiccup");
  };
  config.hooks.sleep_fn = [&](double seconds) { delays.push_back(seconds); };
  const BatchReport report =
      run_batch({simple_spec("flaky", 7)}, config, nullptr);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].status, JobStatus::kOk);
  EXPECT_EQ(report.outcomes[0].error, ErrorClass::kNone);
  EXPECT_EQ(report.outcomes[0].attempts, 3);
  EXPECT_EQ(report.retried, 1);
  EXPECT_EQ(calls.load(), 3);
  // Two backoffs: base*[1,2) then 2*base*[1,2) — exponential with jitter.
  ASSERT_EQ(delays.size(), 2u);
  EXPECT_GE(delays[0], 0.5);
  EXPECT_LT(delays[0], 0.5 * 1.25);
  EXPECT_GE(delays[1], 1.0);
  EXPECT_LT(delays[1], 1.0 * 1.25);

  // Deterministic: the same fleet backs off identically.
  std::vector<double> delays2;
  config.hooks.sleep_fn = [&](double seconds) { delays2.push_back(seconds); };
  run_batch({simple_spec("flaky", 7)}, config, nullptr);
  EXPECT_EQ(delays, delays2);
}

TEST(SvcExecutor, PermanentFailuresFailFastWithoutRetry) {
  std::atomic<int> calls{0};
  ServerConfig config = fleet(scripted_runner);
  config.retry.max_attempts = 5;
  config.hooks.sleep_fn = [](double) {};
  config.hooks.fault_hook = [&](const JobSpec& spec, int) {
    calls.fetch_add(1);
    if (spec.id == "badfile") throw util::InputError("no such instance");
    if (spec.id == "overfull") throw util::InfeasibleError("pins overflow");
  };
  const BatchReport report = run_batch(
      {simple_spec("badfile", 1), simple_spec("overfull", 2)}, config,
      nullptr);
  ASSERT_EQ(report.outcomes.size(), 2u);
  EXPECT_EQ(report.outcomes[0].status, JobStatus::kFailed);
  EXPECT_EQ(report.outcomes[0].error, ErrorClass::kInput);
  EXPECT_EQ(report.outcomes[0].attempts, 1);
  EXPECT_EQ(report.outcomes[1].status, JobStatus::kFailed);
  EXPECT_EQ(report.outcomes[1].error, ErrorClass::kInfeasible);
  EXPECT_EQ(report.outcomes[1].attempts, 1);
  EXPECT_EQ(calls.load(), 2);  // one attempt each, no retries
  EXPECT_EQ(report.failed, 2);
  // Input outranks infeasible in the fleet exit code.
  EXPECT_EQ(report.exit_code(), util::kExitInput);
}

TEST(SvcExecutor, PoisonedAfterMaxAttempts) {
  ServerConfig config = fleet(scripted_runner);
  config.retry.max_attempts = 3;
  config.hooks.sleep_fn = [](double) {};
  config.hooks.fault_hook = [](const JobSpec&, int) {
    throw TransientError("always down");
  };
  const BatchReport report =
      run_batch({simple_spec("cursed", 3)}, config, nullptr);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].status, JobStatus::kPoisoned);
  EXPECT_EQ(report.outcomes[0].error, ErrorClass::kTransient);
  EXPECT_EQ(report.outcomes[0].attempts, 3);
  EXPECT_NE(report.outcomes[0].message.find("always down"),
            std::string::npos);
  EXPECT_EQ(report.poisoned, 1);
  EXPECT_EQ(report.exit_code(), util::kExitInternal);
}

TEST(SvcExecutor, InternalErrorsAreRetriedThenPoisoned) {
  ServerConfig config = fleet(scripted_runner);
  config.retry.max_attempts = 2;
  config.hooks.sleep_fn = [](double) {};
  std::vector<JobSpec> manifest = {simple_spec("boom", 1)};
  manifest[0].regime = "rand";
  manifest[0].instance = "explode";  // scripted_runner throws runtime_error
  const BatchReport report = run_batch(manifest, config, nullptr);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].status, JobStatus::kPoisoned);
  EXPECT_EQ(report.outcomes[0].error, ErrorClass::kInternal);
  EXPECT_EQ(report.outcomes[0].attempts, 2);
}

TEST(SvcExecutor, TruncatedAttemptsKeepBestResult) {
  // Attempt 1 truncates with cut 90; attempt 2 completes with cut 50.
  std::atomic<int> attempt_no{0};
  ServerConfig config = fleet([&](const JobSpec&, const util::Deadline&) {
    const int attempt = attempt_no.fetch_add(1) + 1;
    if (attempt == 1) return JobResult{90, true};
    return JobResult{50, false};
  });
  config.retry.max_attempts = 3;
  config.hooks.sleep_fn = [](double) {};
  const BatchReport report = run_batch({simple_spec("t", 1)}, config, nullptr);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].status, JobStatus::kOk);
  EXPECT_EQ(report.outcomes[0].cut, 50);
  EXPECT_FALSE(report.outcomes[0].truncated);
  EXPECT_EQ(report.outcomes[0].attempts, 2);
}

TEST(SvcExecutor, AlwaysTruncatedEndsTruncatedNotPoisoned) {
  ServerConfig config = fleet([](const JobSpec&, const util::Deadline&) {
    return JobResult{70, true};
  });
  config.retry.max_attempts = 2;
  config.hooks.sleep_fn = [](double) {};
  const BatchReport report = run_batch({simple_spec("t", 1)}, config, nullptr);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].status, JobStatus::kTruncated);
  EXPECT_TRUE(report.outcomes[0].truncated);
  EXPECT_EQ(report.outcomes[0].cut, 70);
  EXPECT_EQ(report.truncated, 1);
  EXPECT_EQ(report.exit_code(), 0);  // a truncated fleet still completed
}

TEST(SvcExecutor, RetryTruncatedFalseAcceptsFirstResult) {
  std::atomic<int> calls{0};
  ServerConfig config = fleet([&](const JobSpec&, const util::Deadline&) {
    calls.fetch_add(1);
    return JobResult{70, true};
  });
  config.retry.retry_truncated = false;
  config.hooks.sleep_fn = [](double) {};
  const BatchReport report = run_batch({simple_spec("t", 1)}, config, nullptr);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(report.outcomes[0].status, JobStatus::kTruncated);
  EXPECT_EQ(report.outcomes[0].attempts, 1);
}

TEST(SvcExecutor, BudgetSecondsAttachesADeadline) {
  std::vector<JobSpec> manifest = {simple_spec("budgeted", 1)};
  manifest[0].budget_seconds = 0.05;
  ServerConfig config = fleet([](const JobSpec&,
                                 const util::Deadline& deadline) {
    // A cooperative engine loop: unwinds when the budget expires.
    while (!deadline.expired()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return JobResult{5, true};
  });
  config.retry.max_attempts = 1;
  const BatchReport report = run_batch(manifest, config, nullptr);
  EXPECT_EQ(report.outcomes[0].status, JobStatus::kTruncated);
}

TEST(SvcExecutor, HangWatchdogCancelsStuckAttempts) {
  ServerConfig config = fleet([](const JobSpec&,
                                 const util::Deadline& deadline) {
    // Simulated hang: no internal budget, loops until the supervisor's
    // heartbeat watchdog flips the cancel flag.
    while (!deadline.expired()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return JobResult{1, true};
  });
  config.hang_seconds = 0.05;
  config.retry.retry_truncated = false;
  config.hooks.sleep_fn = [](double) {};
  const BatchReport report =
      run_batch({simple_spec("stuck", 1)}, config, nullptr);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].status, JobStatus::kTruncated);
}

TEST(SvcExecutor, DrainStopsDispatchingButKeepsFinished) {
  std::atomic<bool> drain{false};
  ServerConfig config = fleet(scripted_runner);
  config.workers = 1;
  config.hooks.fault_hook = [&](const JobSpec& spec, int) {
    if (spec.id == "b") drain.store(true);  // raised mid-fleet
  };
  const BatchReport report = run_batch(
      {simple_spec("a", 1), simple_spec("b", 2), simple_spec("c", 3)},
      config, nullptr, &drain);
  // a and b finish (b was already claimed when the flag flipped); c is
  // abandoned, and the report says the fleet is incomplete.
  EXPECT_EQ(report.ok, 2);
  EXPECT_EQ(report.abandoned, 1);
  EXPECT_TRUE(report.drained);
  EXPECT_FALSE(report.complete());
  EXPECT_EQ(report.exit_code(), util::kExitInternal);
}

// ---------------------------------------------------- crash and resume --

TEST(SvcExecutor, HaltSimulatesKillAndResumeCompletes) {
  TempDir dir;
  const std::string path = dir.file("journal.jsonl");
  std::vector<JobSpec> manifest;
  for (int j = 0; j < 6; ++j) {
    manifest.push_back(simple_spec("job" + std::to_string(j), 100 + j));
  }
  ServerConfig config = fleet(scripted_runner);
  config.workers = 2;

  // Fleet 1 "crashes" after 2 checkpointed outcomes: in-flight results
  // are discarded exactly as a kill -9 between claim and commit would.
  {
    CheckpointJournal journal(path);
    const BatchReport report =
        run_batch(manifest, config, &journal, nullptr, 2);
    EXPECT_EQ(report.ok, 2);
    EXPECT_EQ(report.abandoned, 4);
    EXPECT_FALSE(report.complete());
  }
  {
    CheckpointJournal journal(path);
    EXPECT_EQ(journal.load().size(), 2u);
  }

  // Fleet 2 resumes: journaled jobs are skipped, the rest run, and the
  // merged journal has exactly one outcome per manifest job.
  CheckpointJournal journal(path);
  const BatchReport report = run_batch(manifest, config, &journal);
  EXPECT_EQ(report.resumed, 2);
  EXPECT_EQ(report.ok, 6);
  EXPECT_TRUE(report.complete());
  ASSERT_EQ(report.outcomes.size(), 6u);

  CheckpointJournal reread(path);
  const auto merged = reread.load();
  ASSERT_EQ(merged.size(), 6u);
  std::vector<std::string> ids;
  for (const auto& outcome : merged) ids.push_back(outcome.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::string>{"job0", "job1", "job2", "job3",
                                           "job4", "job5"}));

  // Bit-identical to an uninterrupted run, modulo order and timing.
  const BatchReport uninterrupted =
      run_batch(manifest, fleet(scripted_runner), nullptr);
  EXPECT_EQ(canonical_journal(merged),
            canonical_journal(uninterrupted.outcomes));
}

TEST(SvcExecutor, ResumeSkipsJournaledJobsWithoutRerunningThem) {
  TempDir dir;
  const std::string path = dir.file("journal.jsonl");
  std::vector<JobSpec> manifest = {simple_spec("a", 1), simple_spec("b", 2)};
  std::atomic<int> runs{0};
  const ServerConfig counting =
      fleet([&](const JobSpec& spec, const util::Deadline& deadline) {
        runs.fetch_add(1);
        return scripted_runner(spec, deadline);
      });
  {
    CheckpointJournal journal(path);
    run_batch(manifest, counting, &journal, nullptr, 1);
  }
  EXPECT_EQ(runs.load(), 1);
  CheckpointJournal journal(path);
  const BatchReport report = run_batch(manifest, counting, &journal);
  EXPECT_EQ(runs.load(), 2);  // only the missing job ran
  EXPECT_EQ(report.resumed, 1);
  EXPECT_TRUE(report.complete());
}

TEST(SvcExecutor, JournaledOutcomeForUnknownJobIsIgnored) {
  TempDir dir;
  const std::string path = dir.file("journal.jsonl");
  {
    CheckpointJournal journal(path);
    JobOutcome stray;
    stray.id = "not-in-manifest";
    journal.append(stray);
  }
  CheckpointJournal journal(path);
  const BatchReport report =
      run_batch({simple_spec("a", 1)}, fleet(scripted_runner), &journal);
  EXPECT_EQ(report.resumed, 0);
  EXPECT_EQ(report.ok, 1);
  EXPECT_TRUE(report.complete());
}

// ------------------------------------------------- determinism guard ----

TEST(SvcDeterminism, CanonicalJournalIdenticalAcrossWorkerCounts) {
  // Real partitioning jobs (smoke circuits, both regimes) run with one
  // worker and with two; the canonical journals must be byte-identical.
  std::vector<JobSpec> manifest;
  const char* regimes[] = {"free", "good", "rand"};
  for (int j = 0; j < 6; ++j) {
    JobSpec spec;
    spec.id = "d" + std::to_string(j);
    spec.circuit = 1 + j % 2;
    spec.scale = "smoke";
    spec.regime = regimes[j % 3];
    spec.fixed_pct = spec.regime == std::string("free") ? 0.0 : 15.0;
    spec.starts = 1 + j % 2;
    spec.seed = 9000 + static_cast<std::uint64_t>(j);
    manifest.push_back(spec);
  }

  ServerConfig one = fleet(run_partition_job);
  one.workers = 1;
  const BatchReport serial = run_batch(manifest, one, nullptr);

  ServerConfig two = fleet(run_partition_job);
  two.workers = 2;
  const BatchReport parallel = run_batch(manifest, two, nullptr);

  ASSERT_TRUE(serial.complete());
  ASSERT_TRUE(parallel.complete());
  EXPECT_EQ(canonical_journal(serial.outcomes),
            canonical_journal(parallel.outcomes));
  for (const auto& outcome : serial.outcomes) {
    EXPECT_EQ(outcome.status, JobStatus::kOk) << outcome.id;
  }
}

}  // namespace
}  // namespace fixedpart::svc
