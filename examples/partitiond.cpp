// partitiond — the partition-as-a-service daemon (docs/ROBUSTNESS.md
// "Server lifecycle", README quickstart). It fuses obs::HttpEndpoint
// (dependency-free HTTP/1.1, 127.0.0.1 only) with svc::PartitionServer
// (bounded priority admission, per-request Deadline budgets, idempotent
// content-hash submission + result cache, fsync-durable event journal,
// watchdog, graceful drain):
//
//   partitiond --listen=0 --port-file=port.txt --journal=jobs.journal
//              --spool-dir=spool --workers=2
//
//   POST /partition      submit a .hgr/.fpb upload or one-line JSON spec;
//                        query tunes priority + engine knobs. 202 with a
//                        job handle, 200 on a cache hit, 429 + Retry-After
//                        when the queue is full, 503 while draining.
//   GET /jobs/<id>       poll the handle (state + outcome when done)
//   DELETE /jobs/<id>    cancel (cooperative for running jobs)
//   GET /metrics|/metrics.json|/healthz|/progress   operator routes
//
// SIGTERM/SIGINT drain: in-flight jobs finish and are journaled, new
// submissions get 503, queued jobs stay journaled for the next start,
// exit code 0. kill -9 loses at most in-flight attempts: a restart with
// the same --journal/--spool-dir re-serves every journaled result and
// re-enqueues accepted-but-unfinished jobs.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "obs/flight.hpp"
#include "obs/http.hpp"
#include "obs/log.hpp"
#include "svc/process_pool.hpp"
#include "svc/server.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/deadline.hpp"
#include "util/errors.hpp"

namespace {

using namespace fixedpart;

std::atomic<bool> g_drain{false};

void drain_handler(int) { g_drain.store(true, std::memory_order_release); }

void apply_log_level(const std::string& name) {
  if (name == "debug") {
    obs::Log::global().set_min_level(obs::LogLevel::kDebug);
  } else if (name == "info") {
    obs::Log::global().set_min_level(obs::LogLevel::kInfo);
  } else if (name == "warn") {
    obs::Log::global().set_min_level(obs::LogLevel::kWarn);
  } else if (name == "error") {
    obs::Log::global().set_min_level(obs::LogLevel::kError);
  } else {
    throw util::UsageError("--log-level must be debug|info|warn|error");
  }
}

int run(const util::Cli& cli) {
  cli.require_known({"listen", "port-file", "workers", "queue-capacity",
                     "journal", "spool-dir", "default-budget", "max-budget",
                     "max-attempts", "hang-seconds", "done-capacity",
                     "io-timeout", "max-request-bytes", "log-level",
                     "test-slow-ms", "isolation", "worker", "rlimit-as-mb",
                     "rlimit-cpu-seconds", "heartbeat-timeout",
                     "cancel-grace", "max-job-crashes",
                     "journal-compact-every", "retry-after-no-data",
                     "flight-dir"});
  apply_log_level(cli.get_or("log-level", "info"));
  svc::ServerConfig config;
  config.workers = static_cast<int>(cli.get_int("workers", 1));
  config.queue_capacity =
      static_cast<std::size_t>(cli.get_int("queue-capacity", 16));
  config.retry.max_attempts =
      static_cast<int>(cli.get_int("max-attempts", 3));
  config.hang_seconds = cli.get_double("hang-seconds", 0.0);
  config.default_budget_seconds = cli.get_double("default-budget", 10.0);
  config.max_budget_seconds = cli.get_double("max-budget", 60.0);
  config.done_capacity =
      static_cast<std::size_t>(cli.get_int("done-capacity", 4096));
  config.journal_path = cli.get_or("journal", "");
  config.journal_compact_every = cli.get_int("journal-compact-every", 4096);
  config.retry_after_no_data_seconds =
      cli.get_double("retry-after-no-data", 2.0);
  config.spool_dir = cli.get_or("spool-dir", "");

  // --flight-dir=DIR arms the always-on flight recorder's dump paths:
  // watchdog fires and worker crash/hang classifications write
  // <dir>/<reason>-<job>.json, fatal signals (in the daemon AND, via the
  // inherited env var, in every worker) write <dir>/fatal-sig<N>-<pid>.json.
  config.flight_dir = cli.get_or("flight-dir", "");
  if (!config.flight_dir.empty()) {
    obs::FlightRecorder::global().arm_signal_dump(config.flight_dir);
    ::setenv("FIXEDPART_FLIGHT_DIR", config.flight_dir.c_str(), 1);
  }

  const std::string isolation = cli.get_or("isolation", "thread");
  if (isolation != "thread" && isolation != "process") {
    throw util::UsageError("--isolation must be thread|process");
  }

  // --test-slow-ms=N pads every job with a deadline-respecting busy wait
  // before the real engine runs. Only for tests: it makes "the queue
  // backs up" reproducible on any machine, so the E2E can demonstrate
  // load-shedding and mid-flight kills deterministically. In process
  // mode the pad travels as an env var the workers inherit.
  const std::int64_t slow_ms = cli.get_int("test-slow-ms", 0);

  // --isolation=process: each attempt runs in a fork/exec'd
  // fixedpart-worker under rlimit caps, supervised by svc::ProcessPool —
  // a crashing or OOMing job kills one worker, never the daemon.
  // --isolation=thread (default) is the in-process serial oracle;
  // journal bytes are identical across modes for crash-free fleets.
  std::unique_ptr<svc::ProcessPool> pool;  // outlives the server
  if (isolation == "process") {
    svc::ProcessPoolConfig pool_config;
    pool_config.worker_path =
        svc::resolve_worker_path(cli.get_or("worker", ""));
    pool_config.rlimit_as_bytes =
        cli.get_int("rlimit-as-mb", 0) * (1ll << 20);
    pool_config.rlimit_cpu_seconds = cli.get_int("rlimit-cpu-seconds", 0);
    pool_config.heartbeat_timeout_seconds =
        cli.get_double("heartbeat-timeout", 10.0);
    pool_config.cancel_grace_seconds = cli.get_double("cancel-grace", 5.0);
    pool_config.max_job_crashes =
        static_cast<int>(cli.get_int("max-job-crashes", 2));
    pool_config.flight_dir = config.flight_dir;
    if (slow_ms > 0) {
      ::setenv("FIXEDPART_WORKER_SLOW_MS", std::to_string(slow_ms).c_str(),
               1);
    }
    pool = std::make_unique<svc::ProcessPool>(pool_config);
    config.runner = pool->runner();
  } else if (slow_ms > 0) {
    config.runner = [slow_ms](const svc::JobSpec& spec,
                              const util::Deadline& deadline) {
      const auto until = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(slow_ms);
      while (std::chrono::steady_clock::now() < until &&
             !deadline.expired()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      return svc::run_partition_job(spec, deadline);
    };
  }

  svc::PartitionServer server(config);
  server.start();

  obs::HttpEndpointConfig endpoint_config;
  const std::int64_t port = cli.get_int("listen", 0);
  if (port < 0 || port > 65535) {
    throw util::UsageError("--listen must be a port in [0, 65535]");
  }
  endpoint_config.port = static_cast<std::uint16_t>(port);
  endpoint_config.io_timeout_seconds = cli.get_double("io-timeout", 5.0);
  endpoint_config.max_request_bytes = static_cast<std::size_t>(
      cli.get_int("max-request-bytes", 1 << 20));
  endpoint_config.progress = [&server, &pool] {
    std::string body = server.progress_json();
    if (pool != nullptr) {
      // Splice the worker-pool counters into the same /progress object.
      const std::size_t brace = body.rfind('}');
      if (brace != std::string::npos) {
        body.insert(brace, ", \"pool\": " + pool->stats_json());
      }
    }
    return body;
  };
  endpoint_config.handler = [&server](const obs::HttpRequest& request,
                                      obs::HttpResponse& response) {
    return server.handle(request, response);
  };
  obs::HttpEndpoint endpoint(endpoint_config);
  endpoint.start();
  if (const auto port_file = cli.get("port-file")) {
    // Written atomically so a test polling the file never reads half a
    // number; the kernel-assigned port makes parallel daemons collision-
    // free.
    util::write_file_atomic(*port_file,
                            std::to_string(endpoint.port()) + "\n");
  }
  std::cout << "partitiond: listening on 127.0.0.1:" << endpoint.port()
            << " (workers=" << config.workers
            << " queue=" << config.queue_capacity
            << " isolation=" << isolation << ")" << std::endl;

  std::signal(SIGINT, drain_handler);
  std::signal(SIGTERM, drain_handler);
  while (!g_drain.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // Graceful drain: new submissions see 503 immediately, in-flight jobs
  // finish and reach the journal, queued jobs stay journaled for the
  // next start. The endpoint keeps answering GETs until the drain ends
  // so clients can collect final results.
  std::cout << "partitiond: draining" << std::endl;
  server.drain();
  endpoint.stop();
  std::cout << "partitiond: drained, exiting" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  return util::run_cli_main("partitiond", [&] { return run(cli); });
}
