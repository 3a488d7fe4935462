// serve-mixed: partitiond's upload -> result path. An in-process
// svc::PartitionServer with process isolation (svc::ProcessPool running
// the built fixedpart-worker), a durable journal and a spool directory,
// behind an obs::HttpEndpoint on loopback, driven by a closed loop of
// client threads that POST .fpb uploads of the fixed-terminal suite and
// poll GET /jobs/<id>.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "gen/derive.hpp"
#include "gen/suite.hpp"
#include "hg/io_bookshelf.hpp"
#include "obs/http.hpp"
#include "spans.hpp"
#include "svc/process_pool.hpp"
#include "svc/server.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace fpbench {

namespace {

namespace gen = fixedpart::gen;
namespace obs = fixedpart::obs;
namespace svc = fixedpart::svc;
using fixedpart::util::Rng;

constexpr int kClients = 3;
constexpr int kServerWorkers = 2;
constexpr int kPollMs = 10;
constexpr double kHitShare = 0.25;
constexpr int kSetups = 3;
/// Suite circuits whose derived block instances are uploaded.
constexpr int kSuiteCircuits = 3;
/// Fresh jobs per client whose cuts make cut_mean: three passes over the
/// suite across the clients, an exact function of the seed, unlike the
/// time-bounded rest of the loop.
constexpr int kCutJobsPerClient = 24;
constexpr double kJobTimeoutSeconds = 120.0;

// --- a minimal HTTP/1.1 client (the endpoint closes every connection) ---

struct HttpReply {
  int status = 0;  ///< 0 = transport failure
  std::string body;
};

HttpReply http(std::uint16_t port, const std::string& method,
               const std::string& target, const std::string& body) {
  HttpReply reply;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  timeval timeout{30, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string raw;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    const std::string request =
        method + " " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n" +
        "Content-Length: " + std::to_string(body.size()) +
        "\r\nConnection: close\r\n\r\n" + body;
    std::size_t sent = 0;
    while (sent < request.size()) {
      const ssize_t n = ::send(fd, request.data() + sent,
                               request.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    char buf[16384];
    for (;;) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;
      raw.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  const std::size_t split = raw.find("\r\n\r\n");
  if (raw.rfind("HTTP/1.1 ", 0) != 0 || split == std::string::npos) {
    return reply;
  }
  reply.status = std::atoi(raw.c_str() + 9);
  reply.body = raw.substr(split + 4);
  return reply;
}

/// Raw value of `"key": value` in a flat JSON object (quotes stripped),
/// or "" when absent.
std::string field(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  std::size_t begin = at + needle.size();
  if (begin < json.size() && json[begin] == '"') {
    const std::size_t end = json.find('"', begin + 1);
    return end == std::string::npos ? "" : json.substr(begin + 1, end - begin - 1);
  }
  const std::size_t end = json.find_first_of(",}", begin);
  return json.substr(begin, end == std::string::npos ? end : end - begin);
}

double field_double(const std::string& json, const std::string& key) {
  const std::string value = field(json, key);
  return value.empty() ? 0.0 : std::stod(value);
}

// --- benchmark-side tracing around the server's public seams ---

/// Spans and timings recorded by the runner and handler wrappers while
/// `on` is set.
struct ServeTrace {
  std::atomic<bool> on{false};
  SpanRecorder spans;
  std::mutex mu;
  std::map<std::string, Clock::time_point> accepted;  ///< POST 202 returned
  std::map<std::string, Clock::time_point> attempt_start;
  std::map<std::string, double> attempt_s;
  std::vector<double> hit_handle_ms;
  std::vector<double> commit_ms;
  /// Attempts that returned and whose commit the watcher is timing.
  std::deque<std::pair<std::string, Clock::time_point>> committing;
  std::condition_variable committing_cv;
  bool stop_watcher = false;
};

/// Everything one set-up starts: a fresh directory, journal, spool, worker
/// pool, server and loopback endpoint on a kernel-chosen port. Members
/// are destroyed endpoint first, pool last.
struct Stack {
  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  std::unique_ptr<svc::ProcessPool> pool;
  std::unique_ptr<svc::PartitionServer> server;
  std::unique_ptr<obs::HttpEndpoint> endpoint;
  std::thread watcher;
  ServeTrace* trace = nullptr;

  ~Stack() {
    if (endpoint) endpoint->stop();
    if (server) server->drain();
    if (watcher.joinable()) {
      {
        std::lock_guard<std::mutex> lock(trace->mu);
        trace->stop_watcher = true;
      }
      trace->committing_cv.notify_all();
      watcher.join();
    }
  }
};

/// Times, for each returned attempt, how long until the server shows the
/// job done: the outcome commit (journal append + fsync, cache insert).
void watch_commits(svc::PartitionServer& server, ServeTrace& trace) {
  std::unique_lock<std::mutex> lock(trace.mu);
  for (;;) {
    trace.committing_cv.wait(lock, [&] {
      return trace.stop_watcher || !trace.committing.empty();
    });
    if (trace.committing.empty()) return;
    const auto [id, returned] = trace.committing.front();
    trace.committing.pop_front();
    lock.unlock();
    const Clock::time_point give_up = returned + std::chrono::seconds(5);
    bool done = false;
    while (!done && Clock::now() < give_up) {
      int status = 0;
      done = server.status_json(id, &status).find("\"state\": \"done\"") !=
             std::string::npos;
      if (!done) std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const double ms = seconds_since(returned) * 1e3;
    lock.lock();
    if (done) trace.commit_ms.push_back(ms);
  }
}

std::unique_ptr<Stack> start_stack(const Options& options, int index,
                                   ServeTrace& trace) {
  const std::string dir = options.work_dir + "/serve-" + std::to_string(index);
  std::filesystem::create_directories(dir + "/spool");
  auto stack = std::make_unique<Stack>();
  stack->trace = &trace;
  {
    std::lock_guard<std::mutex> lock(trace.mu);
    trace.stop_watcher = false;
  }

  svc::ProcessPoolConfig pool_config;
  // A missing worker binary throws here: a set-up error, never a silent
  // fallback to thread isolation.
  pool_config.worker_path = svc::resolve_worker_path("");
  stack->pool = std::make_unique<svc::ProcessPool>(pool_config);

  svc::ServerConfig config;
  config.workers = kServerWorkers;
  config.journal_path = dir + "/jobs.journal";
  config.spool_dir = dir + "/spool";
  svc::ProcessPool* pool = stack->pool.get();
  config.runner = [pool, &trace](const svc::JobSpec& spec,
                                 const fixedpart::util::Deadline& deadline) {
    if (!trace.on.load(std::memory_order_acquire)) {
      return pool->attempt(spec, deadline);
    }
    {
      std::lock_guard<std::mutex> lock(trace.mu);
      trace.attempt_start[spec.id] = Clock::now();
    }
    svc::JobResult result;
    double seconds = 0.0;
    {
      ScopedSpan span(trace.spans, "svc.ProcessPool::attempt");
      result = pool->attempt(spec, deadline);
      seconds = span.seconds();
    }
    {
      std::lock_guard<std::mutex> lock(trace.mu);
      trace.attempt_s[spec.id] = seconds;
      trace.committing.emplace_back(spec.id, Clock::now());
    }
    trace.committing_cv.notify_one();
    return result;
  };
  stack->server = std::make_unique<svc::PartitionServer>(config);
  stack->server->start();
  svc::PartitionServer* server = stack->server.get();
  stack->watcher = std::thread([server, &trace] { watch_commits(*server, trace); });

  obs::HttpEndpointConfig endpoint_config;
  endpoint_config.port = 0;
  endpoint_config.handler = [server, &trace](const obs::HttpRequest& request,
                                             obs::HttpResponse& response) {
    if (!trace.on.load(std::memory_order_acquire)) {
      return server->handle(request, response);
    }
    bool claimed = false;
    double seconds = 0.0;
    {
      ScopedSpan span(trace.spans,
                      "svc.PartitionServer::handle " + request.method);
      claimed = server->handle(request, response);
      seconds = span.seconds();
    }
    if (request.method == "POST") {
      std::lock_guard<std::mutex> lock(trace.mu);
      if (response.status == 202) {
        trace.accepted[field(response.body, "id")] = Clock::now();
      } else if (response.status == 200) {
        trace.hit_handle_ms.push_back(seconds * 1e3);
      }
    }
    return claimed;
  };
  stack->endpoint = std::make_unique<obs::HttpEndpoint>(endpoint_config);
  stack->endpoint->start();
  return stack;
}

// --- the closed-loop clients ---

struct Upload {
  std::string name;
  std::string body;  ///< .fpb text, as suite_writer writes it
};

std::vector<Upload> suite_uploads() {
  std::vector<Upload> uploads;
  for (int index = 1; index <= kSuiteCircuits; ++index) {
    const gen::GeneratedCircuit circuit = gen::generate_circuit(
        gen::ibm_like_spec(index, fixedpart::util::Scale::kDefault));
    for (const gen::DerivedInstance& derived :
         gen::derive_family(circuit, 2.0)) {
      std::ostringstream out;
      hg::write_fpb(out, derived.instance);
      uploads.push_back({derived.name, out.str()});
    }
  }
  return uploads;
}

struct Finished {
  std::size_t upload = 0;
  std::string query;
  std::string id;
  std::string cut;
};

/// What all clients of one phase observed.
struct LoopResult {
  std::vector<double> fresh_s;      ///< submit -> done, fresh jobs
  std::vector<double> hit_ms;       ///< round trip of cache hits
  std::vector<double> cut_jobs;     ///< cuts of the first fresh jobs
  std::map<std::string, double> phase_s;  ///< id -> coarsen+initial+refine
  double wall_s = 0.0;
  std::int64_t posts = 0;
};

class ClosedLoop {
 public:
  ClosedLoop(const std::vector<Upload>& uploads, std::uint16_t port,
             std::uint64_t seed, Tally& tally)
      : uploads_(uploads), port_(port), seed_(seed), tally_(tally) {}

  /// Runs kClients clients until `seconds` have passed, then lets the
  /// in-flight jobs finish. `round` keeps job seeds distinct across
  /// phases of one run.
  LoopResult run(double seconds, int round) {
    LoopResult result;
    const Clock::time_point start = Clock::now();
    const Clock::time_point stop =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] { client(c, round, stop, result); });
    }
    for (std::thread& t : clients) t.join();
    result.wall_s = seconds_since(start);
    return result;
  }

 private:
  void client(int c, int round, Clock::time_point stop, LoopResult& result) {
    Rng rng(derived_seed(seed_, 100 + 10 * round + c));
    int fresh = 0;
    while (Clock::now() < stop) {
      std::optional<Finished> repeat;
      if (rng.next_double() < kHitShare) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!finished_.empty()) {
          repeat = finished_[static_cast<std::size_t>(rng.next_in(
              0, static_cast<std::int64_t>(finished_.size()) - 1))];
        }
      }
      if (repeat.has_value()) {
        hit(*repeat, result);
      } else {
        fresh_job(c, round, fresh++, result);
      }
    }
  }

  void record(const std::string& failure) {
    std::lock_guard<std::mutex> lock(mu_);
    tally_.check(failure);
  }

  void hit(const Finished& job, LoopResult& result) {
    const Clock::time_point start = Clock::now();
    const HttpReply reply = http(port_, "POST", "/partition?" + job.query,
                                 uploads_[job.upload].body);
    const double ms = seconds_since(start) * 1e3;
    std::string failure;
    if (reply.status != 200) {
      failure = "cache hit answered " + std::to_string(reply.status);
    } else if (field(reply.body, "id") != job.id ||
               field(reply.body, "cut") != job.cut) {
      failure = "cache hit returned another id or cut than job " + job.id;
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++result.posts;
    if (failure.empty()) result.hit_ms.push_back(ms);
    tally_.check(failure);
  }

  void fresh_job(int c, int round, int k, LoopResult& result) {
    const std::size_t upload =
        static_cast<std::size_t>(c + kClients * k) % uploads_.size();
    // A new seed is a new content hash: never answered from the cache.
    const std::string query =
        "seed=" + std::to_string(derived_seed(
                      seed_, 1000 + 100'000'000 * round + 10'000'000 * c + k));
    const Clock::time_point start = Clock::now();
    const HttpReply accepted =
        http(port_, "POST", "/partition?" + query, uploads_[upload].body);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++result.posts;
    }
    if (accepted.status != 202) {
      record("upload " + uploads_[upload].name + " answered " +
             std::to_string(accepted.status));
      return;
    }
    const std::string id = field(accepted.body, "id");
    HttpReply status;
    for (;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kPollMs));
      status = http(port_, "GET", "/jobs/" + id, "");
      const std::string state = field(status.body, "state");
      if (status.status != 200 || (state != "queued" && state != "running")) {
        break;
      }
      if (seconds_since(start) > kJobTimeoutSeconds) break;
    }
    const double seconds = seconds_since(start);
    std::string failure;
    if (field(status.body, "state") != "done") {
      failure = "job " + id + " ended " + field(status.body, "state");
    } else if (field(status.body, "status") != "ok" ||
               field(status.body, "truncated") != "false") {
      failure = "job " + id + " (" + uploads_[upload].name + ") status " +
                field(status.body, "status") + ", truncated " +
                field(status.body, "truncated");
    }
    std::lock_guard<std::mutex> lock(mu_);
    tally_.check(failure);
    if (!failure.empty()) return;
    result.fresh_s.push_back(seconds);
    const std::string cut = field(status.body, "cut");
    if (k < kCutJobsPerClient && round == 0) {
      result.cut_jobs.push_back(std::stod(cut));
    }
    result.phase_s[id] = field_double(status.body, "coarsen_seconds") +
                         field_double(status.body, "initial_seconds") +
                         field_double(status.body, "refine_seconds");
    finished_.push_back({upload, query, id, cut});
  }

  const std::vector<Upload>& uploads_;
  const std::uint16_t port_;
  const std::uint64_t seed_;
  Tally& tally_;
  std::mutex mu_;  ///< guards finished_, tally_ and every LoopResult
  std::vector<Finished> finished_;  ///< jobs completed in this run
};

}  // namespace

Report run_serve(const Options& options) {
  Report report;
  report.why =
      "upload -> result through partitiond: HTTP, admission, worker spawn, "
      "frames and the journal are a visible share; fresh jobs and cache "
      "hits use the svc layer differently";
  report.load =
      "closed loop, 3 client threads (callers wait for each result), 2 "
      "server workers, process isolation, poll GET /jobs/<id> every 10 ms; "
      "~75% fresh .fpb uploads of the ibm01-03 suite blocks with new "
      "seeds, ~25% resubmissions of jobs finished in this run";

  // A set-up generates the uploads and starts the stack. The stack alone
  // takes ~2 ms with a bimodal fsync share, too unsteady to compare runs.
  std::vector<Upload> uploads;
  ServeTrace trace;
  std::unique_ptr<Stack> stack;
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    stack.reset();
    const Clock::time_point start = Clock::now();
    uploads = suite_uploads();
    stack = start_stack(options, i, trace);
    setups.push_back(seconds_since(start));
  }
  ClosedLoop loop(uploads, stack->endpoint->port(), options.seed,
                  report.tally);

  if (!options.trace) {
    reset_peak_rss();
    const LoopResult result = loop.run(options.seconds, 0);
    const double rss = peak_rss_mb();
    init_end_to_end(report.metrics);
    Metrics& m = report.metrics;
    m.set("setup_s", median(setups), "s");
    m.set("solve_s", median(result.fresh_s), "s");
    m.set("cut_mean", mean(result.cut_jobs), "count");
    m.set("peak_rss_mb", rss, "MB");
    m.set("ok_frac", report.tally.ok_frac(), "frac");

    Metrics& d = report.detail;
    d.set("setup_s", median(setups), "s");
    d.set("job_p50_s", median(result.fresh_s), "s");
    d.set("job_p90_s", quantile(result.fresh_s, 0.9), "s");
    d.set("hit_p50_ms", median(result.hit_ms), "ms");
    d.set("jobs_per_s",
          static_cast<double>(result.fresh_s.size()) / result.wall_s, "1/s");
    d.set("cut_mean", mean(result.cut_jobs), "count");
    d.set("peak_rss_mb", rss, "MB");
    d.set("fail_frac", 1.0 - report.tally.ok_frac(), "frac");
    d.set("fresh_jobs", static_cast<double>(result.fresh_s.size()), "count");
    d.set("hits", static_cast<double>(result.hit_ms.size()), "count");
    return report;
  }

  // Traced: half the time untraced (the overhead reference), half with
  // the runner and handler wrappers recording.
  const LoopResult plain = loop.run(options.seconds / 2, 0);
  trace.on.store(true, std::memory_order_release);
  const LoopResult traced = loop.run(options.seconds / 2, 1);
  trace.on.store(false, std::memory_order_release);
  const svc::ProcessPoolStats pool_stats = stack->pool->stats();
  const std::int64_t cache_hits = stack->server->cache_hit_total();
  stack.reset();  // drains; every commit has been timed

  std::vector<double> queue_wait;
  std::vector<double> attempts;
  std::vector<double> overhead;
  double attempt_sum = 0.0;
  double phase_sum = 0.0;
  for (const auto& [id, seconds] : trace.attempt_s) {
    attempts.push_back(seconds);
    if (const auto it = trace.accepted.find(id); it != trace.accepted.end()) {
      queue_wait.push_back(std::max(
          0.0, std::chrono::duration<double>(trace.attempt_start[id] - it->second)
                   .count()));
    }
    if (const auto it = traced.phase_s.find(id); it != traced.phase_s.end()) {
      overhead.push_back(seconds - it->second);
      attempt_sum += seconds;
      phase_sum += it->second;
    }
  }
  init_per_layer(report.metrics);
  Metrics& m = report.metrics;
  m.set("svc.queue_wait_p50_s", median(queue_wait), "s");
  m.set("svc.attempt_p50_s", median(attempts), "s");
  m.set("svc.worker_overhead_p50_s", median(overhead), "s");
  m.set("svc.commit_p50_ms", median(trace.commit_ms), "ms");
  m.set("svc.handle_p50_ms", median(trace.hit_handle_ms), "ms");
  m.set("svc.spawned", static_cast<double>(pool_stats.spawned), "count");
  m.set("svc.worker_rss_peak_mb",
        static_cast<double>(pool_stats.rss_peak_kb) / 1024.0, "MB");
  m.set("svc.cache_hit_frac",
        static_cast<double>(cache_hits) /
            static_cast<double>(std::max<std::int64_t>(
                1, plain.posts + traced.posts)),
        "frac");
  m.set("obs.http_p50_ms",
        median(traced.hit_ms) - median(trace.hit_handle_ms), "ms");
  m.set("obs.phase_coverage", attempt_sum > 0.0 ? phase_sum / attempt_sum : 0.0,
        "frac");
  m.set("trace.overhead", median(traced.fresh_s) / median(plain.fresh_s),
        "ratio");
  trace.spans.write_chrome_trace(options.trace_dir + "/serve-mixed-seed" +
                                 std::to_string(options.seed) + ".json");
  return report;
}

}  // namespace fpbench
