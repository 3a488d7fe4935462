// PartitionServer + partitiond surface (ISSUE 7; ctest label: serve):
// admission and the bounded priority queue (429 + Retry-After from the
// observed service rate), idempotent submission via the canonical content
// hash (cache hits, whitespace/comment-invariant upload hashing),
// per-request budgets degrading to best-so-far ("truncated": true),
// cooperative cancellation of queued and running jobs, graceful drain
// (503, zero lost completed work), and crash recovery replaying the
// fsync-durable event journal — empty journals, torn trailing lines,
// vanished spool files, and byte-identical re-serving across a restart.
// The HTTP half drives a live obs::HttpEndpoint through the socket fault
// helpers in fault_inject.hpp (torn writes, stalled slowloris clients,
// oversized bodies). The binary carries the `serve` label so the whole
// surface runs under ASan and TSan on its own (docs/ROBUSTNESS.md).

#include "svc/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault_inject.hpp"
#include "hg/builder.hpp"
#include "hg/io_binary.hpp"
#include "hg/io_hmetis.hpp"
#include "obs/flight.hpp"
#include "obs/http.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "svc/executor.hpp"
#include "svc/job.hpp"
#include "util/deadline.hpp"

namespace fixedpart::svc {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

class TempDir {
 public:
  TempDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = fs::temp_directory_path() /
            ("fp_serve_" + std::string(info ? info->name() : "test") + "_" +
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

std::size_t count_lines(const std::string& path) {
  const std::string text = read_file(path);
  return static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n'));
}

/// Polls `predicate` every 2 ms for up to `limit`; true iff it held.
template <typename Pred>
bool eventually(Pred&& predicate, std::chrono::milliseconds limit = 5000ms) {
  const auto until = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < until) {
    if (predicate()) return true;
    std::this_thread::sleep_for(2ms);
  }
  return predicate();
}

/// Blocks workers until released — the lever for deterministic "queue is
/// backed up" and "job is mid-run" states.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> entered{0};

  void release() {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
    cv.notify_all();
  }
  /// Waits for release() or deadline expiry (so cancellation/budgets
  /// still unwind a gated attempt cooperatively).
  void await(const util::Deadline& deadline) {
    ++entered;
    std::unique_lock<std::mutex> lock(mu);
    while (!open && !deadline.expired()) cv.wait_for(lock, 2ms);
  }
};

/// Instant runner: cut derived from the seed, no filesystem.
JobResult fast_runner(const JobSpec& spec, const util::Deadline&) {
  JobResult result;
  result.cut = static_cast<Weight>(spec.seed % 1000);
  result.moves = 3;
  result.passes = 1;
  return result;
}

/// Runner that parks on `gate`; reports truncated when it was unwound by
/// an expired deadline (budget, cancel, watchdog) instead of the gate.
JobRunner gated_runner(Gate* gate) {
  return [gate](const JobSpec& spec, const util::Deadline& deadline) {
    gate->await(deadline);
    JobResult result;
    result.cut = static_cast<Weight>(spec.seed % 1000);
    result.truncated = deadline.expired();
    return result;
  };
}

ServerConfig base_config() {
  ServerConfig config;
  config.workers = 1;
  config.queue_capacity = 4;
  config.retry.max_attempts = 1;
  config.retry.retry_truncated = false;
  config.default_budget_seconds = 30.0;
  config.max_budget_seconds = 60.0;
  config.runner = fast_runner;
  return config;
}

constexpr const char* kSpecBody =
    "{\"circuit\": 1, \"scale\": \"smoke\", \"starts\": 1, \"seed\": 7}";

/// A tiny well-formed hMETIS upload (3 nets, 4 vertices).
constexpr const char* kUpload = "3 4\n1 2\n2 3 4\n1 4\n";

// --- admission, polling, idempotency -------------------------------------

TEST(Server, SubmitRunsToCompletionAndPollsDone) {
  PartitionServer server(base_config());
  server.start();
  const SubmitResult submitted = server.submit(kSpecBody, "priority=2");
  ASSERT_EQ(submitted.http_status, 202);
  ASSERT_EQ(submitted.id.size(), 32u);  // two hex64 halves
  EXPECT_NE(submitted.body.find("\"state\": \"queued\""), std::string::npos);
  EXPECT_NE(submitted.body.find("\"priority\": 2"), std::string::npos);
  EXPECT_NE(submitted.body.find(submitted.id), std::string::npos);

  int status = 0;
  ASSERT_TRUE(eventually([&] {
    return server.status_json(submitted.id, &status)
               .find("\"state\": \"done\"") != std::string::npos;
  }));
  const std::string done = server.status_json(submitted.id, &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(done.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(done.find("\"cut\": 7"), std::string::npos);  // seed % 1000
  EXPECT_EQ(server.done_total(), 1);
  server.drain();
}

TEST(Server, ResubmissionOfDoneJobIsACacheHit) {
  PartitionServer server(base_config());
  server.start();
  const SubmitResult first = server.submit(kSpecBody, "");
  ASSERT_EQ(first.http_status, 202);
  ASSERT_TRUE(eventually([&] { return server.done_total() == 1; }));

  int status = 0;
  const std::string done = server.status_json(first.id, &status);
  const SubmitResult again = server.submit(kSpecBody, "");
  EXPECT_EQ(again.http_status, 200);
  EXPECT_EQ(again.id, first.id);
  EXPECT_EQ(again.body, done);  // the cache answers with the full record
  EXPECT_EQ(server.cache_hit_total(), 1);
  EXPECT_EQ(server.done_total(), 1);  // nothing re-ran
  server.drain();
}

TEST(Server, InFlightResubmissionReturnsTheSameHandle) {
  Gate gate;
  ServerConfig config = base_config();
  config.runner = gated_runner(&gate);
  PartitionServer server(config);
  server.start();
  const SubmitResult first = server.submit(kSpecBody, "");
  ASSERT_EQ(first.http_status, 202);
  ASSERT_TRUE(eventually([&] { return gate.entered.load() == 1; }));

  const SubmitResult again = server.submit(kSpecBody, "");
  EXPECT_EQ(again.http_status, 202);  // idempotent: same bytes, same handle
  EXPECT_EQ(again.id, first.id);
  EXPECT_NE(again.body.find("\"state\": \"running\""), std::string::npos);
  gate.release();
  ASSERT_TRUE(eventually([&] { return server.done_total() == 1; }));
  server.drain();
}

TEST(Server, UploadHashIsWhitespaceAndCommentInvariant) {
  TempDir dir;
  Gate gate;
  ServerConfig config = base_config();
  config.spool_dir = dir.file("spool");
  config.runner = gated_runner(&gate);
  PartitionServer server(config);
  server.start();

  const SubmitResult original = server.submit(kUpload, "seed=5");
  ASSERT_EQ(original.http_status, 202);
  // Same hypergraph, cosmetically different bytes: extra spaces, tabs,
  // CRLF endings, comment and blank lines.
  const std::string cosmetic =
      "% a comment\n\n  3   4 \r\n 1\t2\n2 3 4\n\n1    4\n% trailing\n";
  const SubmitResult same = server.submit(cosmetic, "seed=5");
  EXPECT_EQ(same.http_status, 202);
  EXPECT_EQ(same.id, original.id);

  // Different content (a net rewired) or different knobs: different job.
  const SubmitResult other = server.submit("3 4\n1 3\n2 3 4\n1 4\n", "seed=5");
  EXPECT_NE(other.id, original.id);
  const SubmitResult reseeded = server.submit(kUpload, "seed=6");
  EXPECT_NE(reseeded.id, original.id);

  gate.release();
  server.drain();
}

TEST(Server, FpbinUploadHashMatchesEquivalentHgr) {
  TempDir dir;
  Gate gate;
  ServerConfig config = base_config();
  config.spool_dir = dir.file("spool");
  config.runner = gated_runner(&gate);
  PartitionServer server(config);
  server.start();

  // One hypergraph, two encodings: the canonical .hgr serialization and
  // the .fpbin container. Uploading either must land on the same job id
  // (content-hash idempotency is format-independent).
  hg::HypergraphBuilder b;
  b.add_vertex(3);
  b.add_vertex(1);
  b.add_vertex(2);
  b.add_net(std::vector<hg::VertexId>{0, 1});
  b.add_net(std::vector<hg::VertexId>{1, 2}, 5);
  const hg::Hypergraph graph = b.build();

  std::ostringstream hgr;
  hg::write_hmetis(hgr, graph);
  const std::string fpbin_path = dir.file("instance.fpbin");
  hg::write_fpbin_file(fpbin_path, graph);
  const std::string fpbin_bytes = read_file(fpbin_path);
  ASSERT_TRUE(hg::is_fpbin(fpbin_bytes));

  const SubmitResult as_text = server.submit(hgr.str(), "seed=5");
  ASSERT_EQ(as_text.http_status, 202);
  const SubmitResult as_binary = server.submit(fpbin_bytes, "seed=5");
  EXPECT_EQ(as_binary.http_status, 202);
  EXPECT_EQ(as_binary.id, as_text.id);

  // A different graph in .fpbin form is a different job.
  hg::HypergraphBuilder b2;
  b2.add_vertex(3);
  b2.add_vertex(1);
  b2.add_vertex(2);
  b2.add_net(std::vector<hg::VertexId>{0, 2});
  b2.add_net(std::vector<hg::VertexId>{1, 2}, 5);
  const std::string other_path = dir.file("other.fpbin");
  hg::write_fpbin_file(other_path, b2.build());
  const SubmitResult other = server.submit(read_file(other_path), "seed=5");
  EXPECT_EQ(other.http_status, 202);
  EXPECT_NE(other.id, as_text.id);

  // A corrupted binary body is a 400, not an accepted garbage job.
  std::string corrupt = fpbin_bytes;
  corrupt[corrupt.size() - 1] =
      static_cast<char>(corrupt[corrupt.size() - 1] ^ 0x01);
  EXPECT_EQ(server.submit(corrupt, "seed=5").http_status, 400);

  gate.release();
  server.drain();
}

TEST(Server, FpbinUploadIsSpooledWithBinaryExtension) {
  TempDir dir;
  std::mutex mu;
  std::string seen_instance;
  ServerConfig config = base_config();
  config.spool_dir = dir.file("spool");
  config.runner = [&](const JobSpec& spec, const util::Deadline&) {
    std::lock_guard<std::mutex> lock(mu);
    seen_instance = spec.instance;
    return JobResult{};
  };
  PartitionServer server(config);
  server.start();

  hg::HypergraphBuilder b;
  b.add_vertex(1);
  b.add_vertex(1);
  b.add_net(std::vector<hg::VertexId>{0, 1});
  const std::string path = dir.file("up.fpbin");
  hg::write_fpbin_file(path, b.build());
  const std::string bytes = read_file(path);

  const SubmitResult submitted = server.submit(bytes, "");
  ASSERT_EQ(submitted.http_status, 202);
  ASSERT_TRUE(eventually([&] { return server.done_total() == 1; }));
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_FALSE(seen_instance.empty());
  EXPECT_TRUE(seen_instance.ends_with(".fpbin"));
  EXPECT_EQ(read_file(seen_instance), bytes);  // spooled verbatim
  server.drain();
}

TEST(Server, UploadIsSpooledAndRunnerSeesTheSpoolPath) {
  TempDir dir;
  std::mutex mu;
  std::string seen_instance;
  ServerConfig config = base_config();
  config.spool_dir = dir.file("spool");
  config.runner = [&](const JobSpec& spec, const util::Deadline&) {
    std::lock_guard<std::mutex> lock(mu);
    seen_instance = spec.instance;
    return JobResult{};
  };
  PartitionServer server(config);
  server.start();
  const SubmitResult submitted = server.submit(kUpload, "");
  ASSERT_EQ(submitted.http_status, 202);
  ASSERT_TRUE(eventually([&] { return server.done_total() == 1; }));
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_FALSE(seen_instance.empty());
  EXPECT_EQ(read_file(seen_instance), kUpload);  // spooled verbatim
  server.drain();
}

TEST(Server, RawUploadWithoutSpoolDirIsRejected) {
  PartitionServer server(base_config());  // no spool_dir
  server.start();
  const SubmitResult rejected = server.submit(kUpload, "");
  EXPECT_EQ(rejected.http_status, 400);
  EXPECT_NE(rejected.body.find("spool"), std::string::npos);
  server.drain();
}

TEST(Server, MalformedRequestsAre400NeverCrashes) {
  PartitionServer server(base_config());
  server.start();
  EXPECT_EQ(server.submit("", "").http_status, 400);             // empty
  EXPECT_EQ(server.submit("   \n  ", "").http_status, 400);      // blank
  EXPECT_EQ(server.submit("{\"circuit\": 99}", "").http_status, 400);
  EXPECT_EQ(server.submit("{broken", "").http_status, 400);
  EXPECT_EQ(server.submit("{}\n{}", "").http_status, 400);       // two lines
  EXPECT_EQ(server.submit(kSpecBody, "starts=zero").http_status, 400);
  EXPECT_EQ(server.submit(kSpecBody, "starts=-3").http_status, 400);
  EXPECT_EQ(server.submit(kSpecBody, "nosuchknob=1").http_status, 400);
  EXPECT_EQ(server.done_total(), 0);
  server.drain();
}

TEST(Server, EmptySpecGetsDefaultsAndRuns) {
  PartitionServer server(base_config());
  server.start();
  const SubmitResult submitted = server.submit("{}", "");
  ASSERT_EQ(submitted.http_status, 202);
  ASSERT_TRUE(eventually([&] { return server.done_total() == 1; }));
  server.drain();
}

// --- load shedding ---------------------------------------------------------

TEST(Server, FullQueueShedsWith429AndRetryAfter) {
  Gate gate;
  ServerConfig config = base_config();
  config.queue_capacity = 1;
  config.runner = gated_runner(&gate);
  PartitionServer server(config);
  server.start();

  // First job occupies the worker, second fills the queue.
  ASSERT_EQ(server.submit("{\"seed\": 1}", "").http_status, 202);
  ASSERT_TRUE(eventually([&] { return gate.entered.load() == 1; }));
  ASSERT_EQ(server.submit("{\"seed\": 2}", "").http_status, 202);

  const SubmitResult shed = server.submit("{\"seed\": 3}", "");
  EXPECT_EQ(shed.http_status, 429);
  EXPECT_GE(shed.retry_after_seconds, 1.0);
  EXPECT_LE(shed.retry_after_seconds, 600.0);
  EXPECT_NE(shed.body.find("retry_after_seconds"), std::string::npos);
  EXPECT_EQ(server.shed_total(), 1);

  // Shedding is not sticky: released capacity admits again.
  gate.release();
  ASSERT_TRUE(eventually([&] { return server.done_total() == 2; }));
  EXPECT_EQ(server.submit("{\"seed\": 3}", "").http_status, 202);
  ASSERT_TRUE(eventually([&] { return server.done_total() == 3; }));
  server.drain();
}

TEST(Server, RetryAfterBeforeFirstCompletionIsConfiguredDefault) {
  Gate gate;
  ServerConfig config = base_config();
  config.queue_capacity = 1;
  config.retry_after_no_data_seconds = 7.0;
  // Must NOT leak into the estimate: the old behaviour multiplied this
  // ceiling by the backlog and told the first wave of shed clients to
  // come back in minutes.
  config.default_budget_seconds = 30.0;
  config.runner = gated_runner(&gate);
  PartitionServer server(config);
  server.start();
  ASSERT_EQ(server.submit("{\"seed\": 1}", "").http_status, 202);
  ASSERT_TRUE(eventually([&] { return gate.entered.load() == 1; }));
  ASSERT_EQ(server.submit("{\"seed\": 2}", "").http_status, 202);

  const SubmitResult shed = server.submit("{\"seed\": 3}", "");
  ASSERT_EQ(shed.http_status, 429);
  // Zero jobs completed: no observed service rate exists, so the
  // estimate is exactly the configured constant — deterministic across
  // runs and independent of backlog depth.
  EXPECT_EQ(shed.retry_after_seconds, 7.0);
  EXPECT_EQ(server.retry_after_seconds(), 7.0);
  gate.release();
  server.drain();
}

TEST(Server, RetryAfterNoDataDefaultIsClampedToFloor) {
  Gate gate;
  ServerConfig config = base_config();
  config.queue_capacity = 1;
  config.retry_after_no_data_seconds = 0.01;  // nonsense-small
  config.runner = gated_runner(&gate);
  PartitionServer server(config);
  server.start();
  ASSERT_EQ(server.submit("{\"seed\": 1}", "").http_status, 202);
  ASSERT_TRUE(eventually([&] { return gate.entered.load() == 1; }));
  EXPECT_EQ(server.retry_after_seconds(), 1.0);  // clamp floor, HTTP-sane
  gate.release();
  server.drain();
}

TEST(Server, HigherPriorityJumpsTheQueue) {
  Gate gate;
  std::mutex order_mu;
  std::vector<std::uint64_t> order;
  ServerConfig config = base_config();
  config.runner = [&](const JobSpec& spec, const util::Deadline& deadline) {
    {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(spec.seed);
    }
    gate.await(deadline);
    return JobResult{};
  };
  PartitionServer server(config);
  server.start();
  // Occupy the single worker, then queue low before high.
  ASSERT_EQ(server.submit("{\"seed\": 1}", "").http_status, 202);
  ASSERT_TRUE(eventually([&] { return gate.entered.load() == 1; }));
  ASSERT_EQ(server.submit("{\"seed\": 2}", "priority=-1").http_status, 202);
  ASSERT_EQ(server.submit("{\"seed\": 3}", "priority=9").http_status, 202);

  gate.release();
  ASSERT_TRUE(eventually([&] { return server.done_total() == 3; }));
  std::lock_guard<std::mutex> lock(order_mu);
  // Seed 3 (priority 9) must run before seed 2 (priority -1).
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1u);  // was already running
  EXPECT_EQ(order[1], 3u);
  EXPECT_EQ(order[2], 2u);
  server.drain();
}

// --- budgets and cancellation ----------------------------------------------

TEST(Server, BudgetExpiryDegradesToTruncatedNotError) {
  Gate gate;  // never released: only the budget can unwind the attempt
  ServerConfig config = base_config();
  config.runner = gated_runner(&gate);
  PartitionServer server(config);
  server.start();
  const SubmitResult submitted =
      server.submit(kSpecBody, "budget_seconds=0.05");
  ASSERT_EQ(submitted.http_status, 202);
  int status = 0;
  ASSERT_TRUE(eventually([&] {
    return server.status_json(submitted.id, &status)
               .find("\"state\": \"done\"") != std::string::npos;
  }));
  const std::string done = server.status_json(submitted.id, &status);
  EXPECT_NE(done.find("\"status\": \"truncated\""), std::string::npos);
  EXPECT_NE(done.find("\"truncated\": true"), std::string::npos);
  server.drain();
}

TEST(Server, BudgetIsClampedToTheCeiling) {
  std::atomic<bool> oversized{false};
  ServerConfig config = base_config();
  config.max_budget_seconds = 2.0;
  config.runner = [&](const JobSpec& spec, const util::Deadline&) {
    if (spec.budget_seconds > 2.0) oversized.store(true);
    return JobResult{};
  };
  PartitionServer server(config);
  server.start();
  ASSERT_EQ(server.submit(kSpecBody, "budget_seconds=9999").http_status, 202);
  ASSERT_TRUE(eventually([&] { return server.done_total() == 1; }));
  EXPECT_FALSE(oversized.load());
  server.drain();
}

TEST(Server, CancelQueuedJobRemovesItBeforeItRuns) {
  Gate gate;
  ServerConfig config = base_config();
  config.runner = gated_runner(&gate);
  PartitionServer server(config);
  server.start();
  ASSERT_EQ(server.submit("{\"seed\": 1}", "").http_status, 202);
  ASSERT_TRUE(eventually([&] { return gate.entered.load() == 1; }));
  const SubmitResult queued = server.submit("{\"seed\": 2}", "");
  ASSERT_EQ(queued.http_status, 202);

  std::string body;
  EXPECT_EQ(server.cancel(queued.id, &body), 200);
  EXPECT_NE(body.find("\"state\": \"cancelled\""), std::string::npos);
  EXPECT_EQ(server.cancel(queued.id, &body), 200);  // idempotent
  gate.release();
  ASSERT_TRUE(eventually([&] { return server.done_total() == 1; }));
  EXPECT_EQ(server.done_total(), 1);  // the cancelled job never ran
  server.drain();
}

TEST(Server, CancelRunningJobUnwindsCooperatively) {
  Gate gate;  // never released: only the cancel can unwind it
  ServerConfig config = base_config();
  config.runner = gated_runner(&gate);
  PartitionServer server(config);
  server.start();
  const SubmitResult submitted = server.submit(kSpecBody, "");
  ASSERT_EQ(submitted.http_status, 202);
  ASSERT_TRUE(eventually([&] { return gate.entered.load() == 1; }));

  std::string body;
  EXPECT_EQ(server.cancel(submitted.id, &body), 202);  // cooperative
  int status = 0;
  ASSERT_TRUE(eventually([&] {
    return server.status_json(submitted.id, &status)
               .find("\"state\": \"cancelled\"") != std::string::npos;
  }));
  // The best-so-far outcome is still recorded (truncated), not lost.
  const std::string record = server.status_json(submitted.id, &status);
  EXPECT_NE(record.find("\"truncated\": true"), std::string::npos);
  server.drain();
}

TEST(Server, CancelStatusCodesForUnknownAndDone) {
  PartitionServer server(base_config());
  server.start();
  std::string body;
  EXPECT_EQ(server.cancel("deadbeef", &body), 404);
  const SubmitResult submitted = server.submit(kSpecBody, "");
  ASSERT_TRUE(eventually([&] { return server.done_total() == 1; }));
  EXPECT_EQ(server.cancel(submitted.id, &body), 409);  // done is immutable
  EXPECT_NE(body.find("\"state\": \"done\""), std::string::npos);
  server.drain();
}

// --- watchdog ---------------------------------------------------------------

TEST(Server, WatchdogCancelsAStuckAttempt) {
  Gate gate;  // never released: the attempt is genuinely stuck
  ServerConfig config = base_config();
  config.hang_seconds = 0.1;
  config.runner = gated_runner(&gate);
  PartitionServer server(config);
  server.start();
  const SubmitResult submitted = server.submit(kSpecBody, "");
  ASSERT_EQ(submitted.http_status, 202);
  int status = 0;
  ASSERT_TRUE(eventually([&] {
    return server.status_json(submitted.id, &status)
               .find("\"state\": \"done\"") != std::string::npos;
  }));
  const std::string done = server.status_json(submitted.id, &status);
  EXPECT_NE(done.find("\"truncated\": true"), std::string::npos);
  server.drain();
}

// --- drain ------------------------------------------------------------------

TEST(Server, DrainRefusesNewWorkAndKeepsCompletedResults) {
  PartitionServer server(base_config());
  server.start();
  const SubmitResult submitted = server.submit(kSpecBody, "");
  ASSERT_TRUE(eventually([&] { return server.done_total() == 1; }));
  server.drain();
  EXPECT_TRUE(server.draining());

  const SubmitResult refused = server.submit("{\"seed\": 9}", "");
  EXPECT_EQ(refused.http_status, 503);
  // Completed results stay servable through the drain.
  int status = 0;
  EXPECT_NE(server.status_json(submitted.id, &status)
                .find("\"state\": \"done\""),
            std::string::npos);
  EXPECT_EQ(status, 200);
  server.drain();  // idempotent
}

TEST(Server, DrainLeavesQueuedJobsJournaledForRestart) {
  TempDir dir;
  Gate gate;
  ServerConfig config = base_config();
  config.journal_path = dir.file("jobs.journal");
  config.runner = gated_runner(&gate);
  {
    PartitionServer server(config);
    server.start();
    ASSERT_EQ(server.submit("{\"seed\": 1}", "").http_status, 202);
    ASSERT_TRUE(eventually([&] { return gate.entered.load() == 1; }));
    ASSERT_EQ(server.submit("{\"seed\": 2}", "").http_status, 202);
    // Drain while the first job is mid-run: the worker must finish and
    // journal it, but never pop the queued one.
    std::thread drainer([&] { server.drain(); });
    ASSERT_TRUE(eventually([&] { return server.draining(); }));
    gate.release();
    drainer.join();
    EXPECT_EQ(server.done_total(), 1);
    EXPECT_EQ(server.queued(), 1u);
  }
  ServerConfig fresh = base_config();
  fresh.journal_path = config.journal_path;
  PartitionServer restarted(fresh);
  restarted.start();
  // Everything accepted is either already done (journaled result) or
  // re-enqueued — no submission is forgotten by a graceful drain.
  EXPECT_EQ(restarted.recovered(), 1);
  ASSERT_TRUE(eventually([&] { return restarted.done_total() == 2; }));
  restarted.drain();
}

// --- journal replay edge cases ---------------------------------------------

TEST(Server, EmptyJournalStartsCleanly) {
  TempDir dir;
  ServerConfig config = base_config();
  config.journal_path = dir.file("jobs.journal");
  std::ofstream(config.journal_path).close();  // exists, zero bytes
  PartitionServer server(config);
  server.start();
  EXPECT_EQ(server.recovered(), 0);
  EXPECT_EQ(server.done_total(), 0);
  ASSERT_EQ(server.submit(kSpecBody, "").http_status, 202);
  ASSERT_TRUE(eventually([&] { return server.done_total() == 1; }));
  server.drain();
}

TEST(Server, TornTrailingJournalLineIsDiscardedOnReplay) {
  TempDir dir;
  const std::string journal_path = dir.file("jobs.journal");
  std::string accept_line;
  {
    ServerConfig config = base_config();
    config.journal_path = journal_path;
    Gate gate;
    config.runner = gated_runner(&gate);
    PartitionServer server(config);
    server.start();
    ASSERT_EQ(server.submit(kSpecBody, "").http_status, 202);
    gate.release();
    ASSERT_TRUE(eventually([&] { return server.done_total() == 1; }));
    server.drain();
  }
  // Simulate a crash mid-append: a second accept line cut off mid-write.
  {
    std::ofstream out(journal_path, std::ios::app | std::ios::binary);
    out << "{\"event\": \"accept\", \"priority\": 0, \"id\": \"torn";
  }
  ServerConfig config = base_config();
  config.journal_path = journal_path;
  PartitionServer server(config);
  server.start();
  EXPECT_EQ(server.done_total(), 1);  // the complete record survived
  EXPECT_EQ(server.recovered(), 0);   // the torn accept did not resurrect
  int status = 0;
  server.status_json("torn", &status);
  EXPECT_EQ(status, 404);
  // The journal was compacted: the torn tail is gone from disk.
  EXPECT_EQ(read_file(journal_path).find("torn"), std::string::npos);
  server.drain();
}

TEST(Server, ReplayedJobWithVanishedInputFailsPermanentlyNotFatally) {
  TempDir dir;
  const std::string journal_path = dir.file("jobs.journal");
  {
    // Journal an accepted job whose spooled input no longer exists, as
    // after a crash that lost the spool volume but kept the journal.
    JobSpec spec;
    spec.id = "0123456789abcdef0123456789abcdef";
    spec.instance = dir.file("vanished.hgr");  // never written
    std::ofstream out(journal_path, std::ios::binary);
    out << "{\"event\": \"accept\", \"priority\": 0, "
        << to_json_line(spec).substr(1) << "\n";
  }
  ServerConfig config = base_config();
  config.journal_path = journal_path;
  config.runner = {};  // the real runner: it must hit the missing file
  PartitionServer server(config);
  server.start();
  EXPECT_EQ(server.recovered(), 1);
  int status = 0;
  ASSERT_TRUE(eventually([&] {
    return server.status_json("0123456789abcdef0123456789abcdef", &status)
               .find("\"state\": \"done\"") != std::string::npos;
  }));
  const std::string done =
      server.status_json("0123456789abcdef0123456789abcdef", &status);
  EXPECT_NE(done.find("\"status\": \"failed\""), std::string::npos);
  EXPECT_NE(done.find("\"error\": \"input\""), std::string::npos);
  server.drain();
}

TEST(Server, RestartServesJournaledResultsByteIdentically) {
  TempDir dir;
  ServerConfig config = base_config();
  config.journal_path = dir.file("jobs.journal");
  std::vector<std::string> ids;
  std::vector<std::string> records;
  {
    PartitionServer server(config);
    server.start();
    for (int seed = 1; seed <= 3; ++seed) {
      const SubmitResult submitted = server.submit(
          "{\"seed\": " + std::to_string(seed) + "}", "priority=1");
      ASSERT_EQ(submitted.http_status, 202);
      ids.push_back(submitted.id);
    }
    ASSERT_TRUE(eventually([&] { return server.done_total() == 3; }));
    int status = 0;
    for (const std::string& id : ids) {
      records.push_back(server.status_json(id, &status));
    }
    server.drain();
  }
  ServerConfig fresh = base_config();
  fresh.journal_path = config.journal_path;
  std::atomic<int> reruns{0};
  fresh.runner = [&](const JobSpec& spec, const util::Deadline& deadline) {
    ++reruns;
    return fast_runner(spec, deadline);
  };
  PartitionServer restarted(fresh);
  restarted.start();
  EXPECT_EQ(restarted.done_total(), 3);
  EXPECT_EQ(restarted.recovered(), 0);
  int status = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(restarted.status_json(ids[i], &status), records[i]);
    EXPECT_EQ(status, 200);
  }
  // Resubmitting replayed work is a cache hit, not a re-run.
  EXPECT_EQ(restarted.submit("{\"seed\": 1}", "priority=1").http_status, 200);
  EXPECT_EQ(restarted.cache_hit_total(), 1);
  EXPECT_EQ(reruns.load(), 0);
  restarted.drain();
}

TEST(Server, CancelEventsReplayAsCancelled) {
  TempDir dir;
  ServerConfig config = base_config();
  config.journal_path = dir.file("jobs.journal");
  std::string cancelled_id;
  {
    Gate gate;
    ServerConfig first = config;
    first.runner = gated_runner(&gate);
    PartitionServer server(first);
    server.start();
    ASSERT_EQ(server.submit("{\"seed\": 1}", "").http_status, 202);
    ASSERT_TRUE(eventually([&] { return gate.entered.load() == 1; }));
    const SubmitResult queued = server.submit("{\"seed\": 2}", "");
    cancelled_id = queued.id;
    std::string body;
    ASSERT_EQ(server.cancel(queued.id, &body), 200);
    gate.release();
    ASSERT_TRUE(eventually([&] { return server.done_total() == 1; }));
    server.drain();
  }
  PartitionServer restarted(config);
  restarted.start();
  int status = 0;
  const std::string record = restarted.status_json(cancelled_id, &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(record.find("\"state\": \"cancelled\""), std::string::npos);
  EXPECT_EQ(restarted.recovered(), 0);  // cancelled jobs stay cancelled
  restarted.drain();
}

// --- journal compaction -----------------------------------------------------

// The core equivalence: a journal that has been compacted (atomically
// rewritten to the live job set) and the raw uncompacted journal it came
// from must recover byte-identical job records on restart. Runs the
// workload once without compaction, snapshots the records, then restarts
// on a copy with aggressive compaction and compares — before and after
// the compactor has rewritten the file.
TEST(Server, CompactedJournalRecoversByteIdenticalRecords) {
  TempDir dir;
  ServerConfig config = base_config();
  config.journal_path = dir.file("raw.journal");
  config.queue_capacity = 16;  // hold all 10 at once, no shedding
  config.journal_compact_every = 0;  // uncompacted reference run
  std::vector<std::string> ids;
  std::vector<std::string> records;
  {
    PartitionServer server(config);
    server.start();
    for (int seed = 1; seed <= 10; ++seed) {
      const SubmitResult submitted = server.submit(
          "{\"seed\": " + std::to_string(seed) + "}", "priority=2");
      ASSERT_EQ(submitted.http_status, 202);
      ids.push_back(submitted.id);
    }
    ASSERT_TRUE(eventually([&] { return server.done_total() == 10; }));
    int status = 0;
    for (const std::string& id : ids) {
      records.push_back(server.status_json(id, &status));
    }
    server.drain();
    EXPECT_EQ(server.journal_compactions(), 0);
  }
  const std::size_t raw_lines = count_lines(config.journal_path);
  EXPECT_EQ(raw_lines, 20u);  // accept + done per job

  // Restart on a copy with an aggressive compaction threshold. Replay
  // counts the 20 replayed lines toward the trigger, so the supervisor
  // compacts shortly after start without any fresh appends.
  const std::string copy_path = dir.file("compacting.journal");
  fs::copy_file(config.journal_path, copy_path);
  ServerConfig compacting = base_config();
  compacting.journal_path = copy_path;
  compacting.journal_compact_every = 4;
  {
    PartitionServer server(compacting);
    server.start();
    EXPECT_EQ(server.done_total(), 10);
    ASSERT_TRUE(eventually([&] { return server.journal_compactions() >= 1; }));
    int status = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(server.status_json(ids[i], &status), records[i]);
      EXPECT_EQ(status, 200);
    }
    server.drain();
  }
  // Every job is still live (nothing evicted), so compaction preserves
  // all 20 lines — normalized to per-job accept/done order.
  EXPECT_EQ(count_lines(copy_path), 20u);

  // Restart on the compacted file: same records, byte for byte.
  ServerConfig fresh = base_config();
  fresh.journal_path = copy_path;
  PartitionServer restarted(fresh);
  restarted.start();
  EXPECT_EQ(restarted.done_total(), 10);
  EXPECT_EQ(restarted.recovered(), 0);
  int status = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(restarted.status_json(ids[i], &status), records[i]);
    EXPECT_EQ(status, 200);
  }
  restarted.drain();
}

// The boundedness claim: with a small result cache, a long-lived server's
// journal stays proportional to the live job set, not lifetime traffic —
// compaction drops the accept/done lines of evicted jobs.
TEST(Server, CompactionBoundsJournalByLiveJobSet) {
  TempDir dir;
  ServerConfig config = base_config();
  config.journal_path = dir.file("bounded.journal");
  config.done_capacity = 2;
  config.journal_compact_every = 4;
  PartitionServer server(config);
  server.start();
  for (int seed = 1; seed <= 12; ++seed) {
    const SubmitResult submitted =
        server.submit("{\"seed\": " + std::to_string(seed) + "}", "");
    ASSERT_EQ(submitted.http_status, 202);
    ASSERT_TRUE(eventually([&] { return server.done_total() == seed; }));
  }
  // 12 jobs wrote 24 lines; after the final compaction only the 2 cached
  // jobs' lines remain (plus at most one compaction window of appends).
  ASSERT_TRUE(eventually([&] { return server.journal_compactions() >= 3; }));
  ASSERT_TRUE(eventually([&] {
    // <= live-set lines plus one compaction window of fresh appends;
    // far below the 24 lines an unbounded journal would hold.
    return count_lines(config.journal_path) <= 10;
  }));
  server.drain();

  // The survivors replay; the evicted majority is genuinely gone (404),
  // which is the documented price of a bounded journal.
  ServerConfig fresh = base_config();
  fresh.journal_path = config.journal_path;
  PartitionServer restarted(fresh);
  restarted.start();
  EXPECT_LE(restarted.done_total(), 4);
  EXPECT_GE(restarted.done_total(), 2);
  restarted.drain();
}

// Cancelled jobs must survive compaction as cancelled: the rewritten
// journal re-emits their cancel line, not just the accept.
TEST(Server, CancelledStateSurvivesCompaction) {
  TempDir dir;
  ServerConfig config = base_config();
  config.journal_path = dir.file("cancel.journal");
  config.journal_compact_every = 1;  // compact at every opportunity
  std::string cancelled_id;
  {
    Gate gate;
    ServerConfig first = config;
    first.runner = gated_runner(&gate);
    PartitionServer server(first);
    server.start();
    ASSERT_EQ(server.submit("{\"seed\": 1}", "").http_status, 202);
    ASSERT_TRUE(eventually([&] { return gate.entered.load() == 1; }));
    const SubmitResult queued = server.submit("{\"seed\": 2}", "");
    cancelled_id = queued.id;
    std::string body;
    ASSERT_EQ(server.cancel(queued.id, &body), 200);
    gate.release();
    ASSERT_TRUE(eventually([&] { return server.done_total() == 1; }));
    ASSERT_TRUE(eventually([&] { return server.journal_compactions() >= 1; }));
    server.drain();
  }
  PartitionServer restarted(config);
  restarted.start();
  int status = 0;
  const std::string record = restarted.status_json(cancelled_id, &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(record.find("\"state\": \"cancelled\""), std::string::npos);
  EXPECT_EQ(restarted.recovered(), 0);
  restarted.drain();
}

// --- progress ---------------------------------------------------------------

TEST(Server, ProgressJsonTracksCounts) {
  PartitionServer server(base_config());
  server.start();
  ASSERT_EQ(server.submit(kSpecBody, "").http_status, 202);
  ASSERT_TRUE(eventually([&] { return server.done_total() == 1; }));
  const std::string progress = server.progress_json();
  EXPECT_NE(progress.find("\"done\": 1"), std::string::npos);
  EXPECT_NE(progress.find("\"queued\": 0"), std::string::npos);
  EXPECT_NE(progress.find("\"draining\": false"), std::string::npos);
  EXPECT_NE(progress.find("\"retry_after_seconds\""), std::string::npos);
  server.drain();
}

// --- per-job traces + flight recorder (PR 10) ------------------------------

/// Runner that opens a recognizable span so the job's trace has a known
/// marker (lands in the per-job buffer via the thread-local context that
/// run_supervised_job pushes around the attempt).
JobResult traced_runner(const JobSpec& spec, const util::Deadline& deadline) {
  obs::ScopedSpan span("test.phase");
  return fast_runner(spec, deadline);
}

TEST(ServerTrace, TraceIsServedAfterCompletionAnd404Before) {
  ServerConfig config = base_config();
  config.runner = traced_runner;
  PartitionServer server(config);
  server.start();
  int status = 0;
  server.trace_json("0123456789abcdef0123456789abcdef", &status);
  EXPECT_EQ(status, 404);  // unknown job: clean 404, not an empty trace
  const SubmitResult submitted = server.submit(kSpecBody, "");
  ASSERT_EQ(submitted.http_status, 202);
  ASSERT_TRUE(eventually([&] { return server.done_total() == 1; }));
  const std::string trace = server.trace_json(submitted.id, &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"test.phase\""), std::string::npos);
  // Rendered once and cached: byte-identical on re-read.
  EXPECT_EQ(trace, server.trace_json(submitted.id, &status));
  server.drain();
}

TEST(ServerTrace, TraceBytesGaugeGrowsAndShrinksWithEviction) {
  ServerConfig config = base_config();
  config.runner = traced_runner;
  config.done_capacity = 1;
  PartitionServer server(config);
  server.start();
  const SubmitResult first = server.submit(kSpecBody, "");
  ASSERT_EQ(first.http_status, 202);
  ASSERT_TRUE(eventually([&] { return server.done_total() == 1; }));
  const obs::Snapshot after_first = obs::Registry::global().scrape();
  const obs::GaugeValue* gauge = after_first.gauge("svc.trace_bytes");
  ASSERT_NE(gauge, nullptr);
  EXPECT_GT(gauge->value, 0.0);

  // A second distinct job evicts the first (done_capacity = 1): its
  // cached trace goes with it and the gauge tracks only the survivor.
  const SubmitResult second = server.submit(
      "{\"circuit\": 1, \"scale\": \"smoke\", \"starts\": 1, \"seed\": 8}",
      "");
  ASSERT_EQ(second.http_status, 202);
  ASSERT_TRUE(eventually([&] { return server.done_total() == 2; }));
  int status = 0;
  server.trace_json(first.id, &status);
  EXPECT_EQ(status, 404);  // evicted with the result record
  const std::string survivor = server.trace_json(second.id, &status);
  EXPECT_EQ(status, 200);
  const obs::Snapshot after_evict = obs::Registry::global().scrape();
  gauge = after_evict.gauge("svc.trace_bytes");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->value, static_cast<double>(survivor.size()));
  server.drain();
}

TEST(ServerTrace, RestartAnswers404NotAPartialTrace) {
  TempDir dir;
  ServerConfig config = base_config();
  config.runner = traced_runner;
  config.journal_path = dir.file("jobs.journal");
  std::string id;
  {
    PartitionServer server(config);
    server.start();
    const SubmitResult submitted = server.submit(kSpecBody, "");
    ASSERT_EQ(submitted.http_status, 202);
    id = submitted.id;
    ASSERT_TRUE(eventually([&] { return server.done_total() == 1; }));
    int status = 0;
    server.trace_json(id, &status);
    ASSERT_EQ(status, 200);
    server.drain();
  }
  // The journal replays the outcome, never in-flight spans: the restarted
  // server re-serves the result but answers the trace route with a clean
  // 404 — whole trace or nothing, never a truncated one.
  PartitionServer restarted(config);
  restarted.start();
  int status = 0;
  const std::string record = restarted.status_json(id, &status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(record.find("\"state\": \"done\""), std::string::npos);
  restarted.trace_json(id, &status);
  EXPECT_EQ(status, 404);
  restarted.drain();
}

TEST(ServerTrace, ProgressListsRunningJobsWithLivePhase) {
  Gate gate;
  ServerConfig config = base_config();
  config.runner = [&gate](const JobSpec& spec,
                          const util::Deadline& deadline) {
    // The span stays open while the job is parked on the gate — exactly
    // what /progress should report as the current phase.
    obs::ScopedSpan span("test.gated_phase");
    gate.await(deadline);
    return fast_runner(spec, deadline);
  };
  PartitionServer server(config);
  server.start();
  const SubmitResult submitted = server.submit(kSpecBody, "");
  ASSERT_EQ(submitted.http_status, 202);
  ASSERT_TRUE(eventually([&] { return gate.entered.load() == 1; }));
  const std::string progress = server.progress_json();
  EXPECT_NE(progress.find("\"running_jobs\": [{\"id\": \"" + submitted.id),
            std::string::npos);
  EXPECT_NE(progress.find("\"phase\": \"test.gated_phase\""),
            std::string::npos);
  EXPECT_NE(progress.find("\"phase_seconds\""), std::string::npos);
  gate.release();
  ASSERT_TRUE(eventually([&] { return server.done_total() == 1; }));
  EXPECT_NE(server.progress_json().find("\"running_jobs\": []"),
            std::string::npos);
  server.drain();
}

TEST(ServerTrace, WatchdogFireDumpsFlightRecord) {
  TempDir dir;
  Gate gate;  // never released: only the watchdog ends the attempt
  ServerConfig config = base_config();
  config.runner = [&gate](const JobSpec& spec,
                          const util::Deadline& deadline) {
    obs::ScopedSpan span("test.stuck_phase");
    gate.await(deadline);
    JobResult result;
    result.cut = static_cast<Weight>(spec.seed % 1000);
    result.truncated = deadline.expired();
    return result;
  };
  config.hang_seconds = 0.2;
  config.flight_dir = dir.file("flight");
  PartitionServer server(config);
  server.start();
  const SubmitResult submitted = server.submit(kSpecBody, "");
  ASSERT_EQ(submitted.http_status, 202);
  const std::string expected =
      config.flight_dir + "/watchdog-" + submitted.id + ".json";
  ASSERT_TRUE(eventually([&] { return fs::exists(expected); }));
  const std::string dump = read_file(expected);
  EXPECT_NE(dump.find("\"reason\": \"watchdog\""), std::string::npos);
  EXPECT_NE(dump.find("\"job\": \"" + submitted.id + "\""),
            std::string::npos);
  EXPECT_NE(dump.find("\"phase\": \"test.stuck_phase\""), std::string::npos);
  ASSERT_TRUE(eventually([&] { return server.done_total() == 1; }));
  server.drain();
}

#ifdef __unix__

// --- the HTTP surface (live endpoint + socket faults) -----------------------

using fixedpart::testing::http_body;
using fixedpart::testing::http_exchange;
using fixedpart::testing::http_request;
using fixedpart::testing::http_status;

struct LiveDaemon {
  explicit LiveDaemon(ServerConfig server_config,
                      double io_timeout_seconds = 5.0,
                      std::size_t max_request_bytes = 1u << 20)
      : server(std::move(server_config)) {
    server.start();
    obs::HttpEndpointConfig endpoint_config;
    endpoint_config.io_timeout_seconds = io_timeout_seconds;
    endpoint_config.max_request_bytes = max_request_bytes;
    endpoint_config.progress = [this] { return server.progress_json(); };
    endpoint_config.handler = [this](const obs::HttpRequest& request,
                                     obs::HttpResponse& response) {
      return server.handle(request, response);
    };
    endpoint = std::make_unique<obs::HttpEndpoint>(endpoint_config);
    endpoint->start();
  }
  ~LiveDaemon() {
    endpoint->stop();
    server.drain();
  }
  std::uint16_t port() const { return endpoint->port(); }

  PartitionServer server;
  std::unique_ptr<obs::HttpEndpoint> endpoint;
};

TEST(ServerHttp, SubmitPollCancelOverRealSockets) {
  Gate gate;
  ServerConfig config = base_config();
  config.runner = gated_runner(&gate);
  LiveDaemon daemon(config);

  const std::string accepted = http_exchange(
      daemon.port(), http_request("POST", "/partition?priority=1", kSpecBody));
  ASSERT_EQ(http_status(accepted), 202);
  const std::string body = http_body(accepted);
  const std::size_t at = body.find("\"id\": \"");
  ASSERT_NE(at, std::string::npos);
  const std::string id = body.substr(at + 7, 32);

  ASSERT_TRUE(eventually([&] { return gate.entered.load() == 1; }));
  const std::string running =
      http_exchange(daemon.port(), http_request("GET", "/jobs/" + id));
  EXPECT_EQ(http_status(running), 200);
  EXPECT_NE(http_body(running).find("\"state\": \"running\""),
            std::string::npos);

  const std::string cancelled =
      http_exchange(daemon.port(), http_request("DELETE", "/jobs/" + id));
  EXPECT_EQ(http_status(cancelled), 202);  // cooperative
  ASSERT_TRUE(eventually([&] {
    const std::string record =
        http_exchange(daemon.port(), http_request("GET", "/jobs/" + id));
    return http_body(record).find("\"state\": \"cancelled\"") !=
           std::string::npos;
  }));
  EXPECT_EQ(http_status(http_exchange(
                daemon.port(), http_request("GET", "/jobs/nonexistent"))),
            404);
  EXPECT_EQ(http_status(http_exchange(
                daemon.port(), http_request("PUT", "/jobs/" + id))),
            405);
  EXPECT_EQ(http_status(http_exchange(daemon.port(),
                                      http_request("GET", "/partition"))),
            405);
}

TEST(ServerHttp, TraceAndFlightRoutesOverRealSockets) {
  ServerConfig config = base_config();
  config.runner = traced_runner;
  LiveDaemon daemon(config);

  const std::string accepted =
      http_exchange(daemon.port(), http_request("POST", "/partition",
                                                kSpecBody));
  ASSERT_EQ(http_status(accepted), 202);
  const std::string body = http_body(accepted);
  const std::size_t at = body.find("\"id\": \"");
  ASSERT_NE(at, std::string::npos);
  const std::string id = body.substr(at + 7, 32);
  ASSERT_TRUE(
      eventually([&] { return daemon.server.done_total() == 1; }));

  const std::string trace = http_exchange(
      daemon.port(), http_request("GET", "/jobs/" + id + "/trace"));
  EXPECT_EQ(http_status(trace), 200);
  EXPECT_NE(http_body(trace).find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(http_body(trace).find("\"test.phase\""), std::string::npos);

  EXPECT_EQ(http_status(http_exchange(
                daemon.port(),
                http_request("GET", "/jobs/nonexistent/trace"))),
            404);
  EXPECT_EQ(http_status(http_exchange(
                daemon.port(),
                http_request("DELETE", "/jobs/" + id + "/trace"))),
            405);

  const std::string flight = http_exchange(
      daemon.port(), http_request("GET", "/debug/flight"));
  EXPECT_EQ(http_status(flight), 200);
  EXPECT_NE(http_body(flight).find("\"entries\""), std::string::npos);
  EXPECT_EQ(http_status(http_exchange(
                daemon.port(), http_request("POST", "/debug/flight"))),
            405);
}

TEST(ServerHttp, OverloadReturns429WithRetryAfterHeader) {
  Gate gate;
  ServerConfig config = base_config();
  config.queue_capacity = 1;
  config.runner = gated_runner(&gate);
  LiveDaemon daemon(config);

  ASSERT_EQ(http_status(http_exchange(
                daemon.port(),
                http_request("POST", "/partition", "{\"seed\": 1}"))),
            202);
  ASSERT_TRUE(eventually([&] { return gate.entered.load() == 1; }));
  ASSERT_EQ(http_status(http_exchange(
                daemon.port(),
                http_request("POST", "/partition", "{\"seed\": 2}"))),
            202);
  const std::string shed = http_exchange(
      daemon.port(), http_request("POST", "/partition", "{\"seed\": 3}"));
  EXPECT_EQ(http_status(shed), 429);
  EXPECT_NE(shed.find("Retry-After: "), std::string::npos);
  gate.release();
}

TEST(ServerHttp, TornChunkedUploadStillParses) {
  TempDir dir;
  ServerConfig config = base_config();
  config.spool_dir = dir.file("spool");
  LiveDaemon daemon(config);
  // 3-byte chunks with pauses: the server sees dozens of short reads
  // across the header/body boundary and must reassemble them all.
  const std::string response =
      http_exchange(daemon.port(), http_request("POST", "/partition", kUpload),
                    3, 1);
  EXPECT_EQ(http_status(response), 202);
  ASSERT_TRUE(
      eventually([&] { return daemon.server.done_total() == 1; }));
}

TEST(ServerHttp, SlowlorisClientIsCutOffNotServedForever) {
  LiveDaemon daemon(base_config(), /*io_timeout_seconds=*/0.3);
  const auto start = std::chrono::steady_clock::now();
  const int fd = fixedpart::testing::connect_loopback(daemon.port());
  ASSERT_GE(fd, 0);
  // Trickle a header that never completes; the per-connection budget must
  // cut us off instead of wedging the accept loop.
  fixedpart::testing::send_in_chunks(fd, "POST /partition HTTP/1.1\r\nHos",
                                     2, 50);
  const std::string response = fixedpart::testing::recv_all_fd(fd);
  ::close(fd);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(waited, 5.0);  // bounded by the budget, not the client
  if (!response.empty()) {
    EXPECT_EQ(http_status(response), 408);
  }
  // The endpoint is still alive for well-behaved clients afterwards.
  EXPECT_EQ(http_status(http_exchange(daemon.port(),
                                      http_request("GET", "/healthz"))),
            200);
}

TEST(ServerHttp, OversizedBodyIs413) {
  LiveDaemon daemon(base_config(), 5.0, /*max_request_bytes=*/512);
  const std::string big(4096, 'x');
  const std::string response = http_exchange(
      daemon.port(), http_request("POST", "/partition", big));
  EXPECT_EQ(http_status(response), 413);
  EXPECT_EQ(http_status(http_exchange(daemon.port(),
                                      http_request("GET", "/healthz"))),
            200);
}

TEST(ServerHttp, WorkerHangUnderLiveRequestsStaysResponsive) {
  Gate gate;  // never released: the single worker is wedged...
  ServerConfig config = base_config();
  config.hang_seconds = 0.0;  // ...and no watchdog will save it
  config.runner = gated_runner(&gate);
  LiveDaemon daemon(config);
  ASSERT_EQ(http_status(http_exchange(
                daemon.port(), http_request("POST", "/partition", kSpecBody))),
            202);
  ASSERT_TRUE(eventually([&] { return gate.entered.load() == 1; }));
  // Every control-plane route keeps answering while the worker hangs.
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(http_status(http_exchange(daemon.port(),
                                        http_request("GET", "/progress"))),
              200);
    EXPECT_EQ(http_status(http_exchange(daemon.port(),
                                        http_request("GET", "/jobs"))),
              200);
    EXPECT_EQ(http_status(http_exchange(daemon.port(),
                                        http_request("GET", "/metrics"))),
              200);
  }
  gate.release();
}

#endif  // __unix__

}  // namespace
}  // namespace fixedpart::svc
