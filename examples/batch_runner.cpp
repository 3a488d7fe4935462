// Supervised batch partitioning: runs a JSONL manifest of JobSpecs as an
// in-process client of svc::PartitionServer (svc::run_batch) — worker
// pool, per-job deadlines, retry with exponential backoff, heartbeat hang
// cancellation, crash-safe checkpoint journal, SIGINT/SIGTERM graceful
// drain — and prints an end-of-run summary table. The exit code follows the PR-2 taxonomy
// (0 ok, 1 poisoned/incomplete, 3 input failures, 4 infeasible).
//
//   batch_runner --gen-manifest=jobs.jsonl --jobs=8      # demo manifest
//   batch_runner --manifest=jobs.jsonl --journal=run.jsonl --workers=4
//   ... kill -9 mid-sweep ...
//   batch_runner --manifest=jobs.jsonl --journal=run.jsonl --resume
//
// Manifest lines ('#' comments allowed) look like:
//   {"id": "j0", "circuit": 1, "scale": "smoke", "regime": "rand",
//    "fixed_pct": 10.0, "starts": 2, "seed": 7, "budget_seconds": 30.0}
// An "instance" key pointing at a .fpb/.fpbin/.hgr file replaces
// circuit/scale.

#include <atomic>
#include <csignal>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>

#include "obs/exporter.hpp"
#include "obs/exposition.hpp"
#include "obs/http.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "svc/checkpoint.hpp"
#include "svc/process_pool.hpp"
#include "svc/server.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/errors.hpp"
#include "util/table.hpp"

namespace {

using namespace fixedpart;

std::atomic<bool> g_drain{false};

void drain_handler(int) { g_drain.store(true, std::memory_order_release); }

/// A small mixed-regime demo manifest over smoke-scale circuits.
int gen_manifest(const std::string& path, int jobs) {
  if (jobs < 1) throw util::UsageError("--jobs must be >= 1");
  std::string text =
      "# generated by batch_runner --gen-manifest; one JobSpec per line\n";
  const char* regimes[] = {"free", "good", "rand"};
  for (int j = 0; j < jobs; ++j) {
    svc::JobSpec spec;
    spec.id = "job" + std::to_string(j);
    spec.circuit = 1 + j % 2;
    spec.scale = "smoke";
    spec.regime = regimes[j % 3];
    spec.fixed_pct = spec.regime == std::string("free") ? 0.0 : 10.0 * (1 + j % 3);
    spec.starts = 1 + j % 2;
    spec.seed = 1000 + static_cast<std::uint64_t>(j);
    text += svc::to_json_line(spec) + "\n";
  }
  util::write_file_atomic(path, text);
  std::cout << "wrote " << jobs << " jobs to " << path << "\n";
  return 0;
}

/// --log-level=debug|info|warn|error for the global structured logger.
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
  cli.require_known({"manifest", "journal", "resume", "workers",
                     "threads-per-job", "max-attempts", "backoff-ms",
                     "backoff-cap-ms", "hang-seconds", "halt-after",
                     "canonical-out", "gen-manifest", "jobs", "quiet",
                     "metrics-out", "metrics-interval", "listen",
                     "log-level", "isolation", "worker", "rlimit-as-mb",
                     "rlimit-cpu-seconds"});
  apply_log_level(cli.get_or("log-level", "info"));
  if (const auto gen_path = cli.get("gen-manifest")) {
    return gen_manifest(*gen_path,
                        static_cast<int>(cli.get_int("jobs", 6)));
  }
  const auto manifest_path = cli.get("manifest");
  if (!manifest_path) {
    throw util::UsageError(
        "need --manifest=FILE (or --gen-manifest=FILE to create one)");
  }
  std::vector<svc::JobSpec> manifest =
      svc::load_manifest_file(*manifest_path);
  // --threads-per-job=N overrides the per-spec knob for the whole fleet
  // (outcomes are unaffected for any value > 1 — the parallel multistart
  // protocol depends only on starts and seed — so this is a safe
  // per-machine tuning flag; see docs/PARALLELISM.md).
  if (cli.get("threads-per-job").has_value()) {
    const std::int64_t threads = cli.get_int("threads-per-job", 1);
    if (threads < 1) throw util::UsageError("--threads-per-job must be >= 1");
    for (svc::JobSpec& spec : manifest) {
      spec.threads_per_job = static_cast<int>(threads);
    }
  }

  svc::ServerConfig config;
  config.workers = static_cast<int>(cli.get_int("workers", 1));
  config.retry.max_attempts =
      static_cast<int>(cli.get_int("max-attempts", 3));
  config.retry.backoff_base_seconds =
      static_cast<double>(cli.get_int("backoff-ms", 500)) / 1000.0;
  config.retry.backoff_cap_seconds =
      static_cast<double>(cli.get_int("backoff-cap-ms", 30000)) / 1000.0;
  config.hang_seconds = cli.get_double("hang-seconds", 0.0);
  const std::int64_t halt_after = cli.get_int("halt-after", -1);
  std::signal(SIGINT, drain_handler);
  std::signal(SIGTERM, drain_handler);

  const std::string journal_path = cli.get_or("journal", "");
  const bool resume = cli.get_bool("resume", false);
  if (resume && journal_path.empty()) {
    throw util::UsageError("--resume requires --journal=FILE");
  }
  if (!journal_path.empty() && !resume) {
    // Fresh run: a stale journal from another fleet must not leak in.
    util::write_file_atomic(journal_path, "");
  }

  // Live telemetry: --listen=PORT serves GET /metrics (Prometheus 0.0.4),
  // /metrics.json, /healthz, /progress while the fleet runs; --metrics-out
  // is additionally refreshed every --metrics-interval seconds (and so
  // keeps updating through a SIGINT/SIGTERM drain), not only at fleet end.
  // /progress is the server's own object with the manifest size spliced
  // in; once the fleet ends it keeps answering with the last snapshot.
  std::mutex progress_mu;
  const svc::PartitionServer* live = nullptr;
  std::string last_progress = "{\"done\": 0}\n";
  const auto attach = [&](const svc::PartitionServer* server) {
    std::lock_guard<std::mutex> lock(progress_mu);
    if (server == nullptr && live != nullptr) {
      last_progress = live->progress_json();
    }
    live = server;
  };
  obs::HttpEndpointConfig endpoint_config;
  obs::ExporterConfig exporter_config;
  endpoint_config.progress = [&] {
    std::lock_guard<std::mutex> lock(progress_mu);
    std::string body = live != nullptr ? live->progress_json() : last_progress;
    body.insert(body.rfind('}'),
                ", \"total\": " + std::to_string(manifest.size()));
    return body;
  };
  const std::string metrics_path = cli.get_or("metrics-out", "");
  exporter_config.json_path = metrics_path;
  if (!metrics_path.empty()) {
    exporter_config.prom_path = metrics_path + ".prom";
  }
  exporter_config.interval_seconds = cli.get_double("metrics-interval", 5.0);
  const bool listen = cli.get("listen").has_value();
  if (listen) {
    const std::int64_t port = cli.get_int("listen", 0);
    if (port < 0 || port > 65535) {
      throw util::UsageError("--listen must be a port in [0, 65535]");
    }
    endpoint_config.port = static_cast<std::uint16_t>(port);
  }
  obs::HttpEndpoint endpoint(endpoint_config);
  obs::Exporter exporter(exporter_config);
  if (listen) {
    endpoint.start();
    std::cout << "batch_runner: listening on 127.0.0.1:" << endpoint.port()
              << std::endl;
  }
  if (!metrics_path.empty()) exporter.start();

  // --isolation=process runs every attempt in a fork/exec'd
  // fixedpart-worker under optional rlimit caps (crash-isolated, same
  // outcome bytes as the in-process path for crash-free fleets).
  const std::string isolation = cli.get_or("isolation", "thread");
  if (isolation != "thread" && isolation != "process") {
    throw util::UsageError("--isolation must be thread|process");
  }
  std::unique_ptr<svc::ProcessPool> pool;  // outlives the fleet
  if (isolation == "process") {
    svc::ProcessPoolConfig pool_config;
    pool_config.worker_path =
        svc::resolve_worker_path(cli.get_or("worker", ""));
    pool_config.rlimit_as_bytes =
        cli.get_int("rlimit-as-mb", 0) * (1ll << 20);
    pool_config.rlimit_cpu_seconds = cli.get_int("rlimit-cpu-seconds", 0);
    pool = std::make_unique<svc::ProcessPool>(pool_config);
    config.runner = pool->runner();
  }

  svc::BatchReport report;
  if (journal_path.empty()) {
    report = svc::run_batch(manifest, config, nullptr, &g_drain, halt_after,
                            attach);
  } else {
    svc::CheckpointJournal journal(journal_path);
    report = svc::run_batch(manifest, config, &journal, &g_drain, halt_after,
                            attach);
  }

  exporter.stop();
  if (!metrics_path.empty()) {
    // Final fleet-wide snapshot (fm.*, ml.*, svc.*).
    const obs::Snapshot snapshot = obs::Registry::global().scrape();
    util::write_file_atomic(metrics_path, snapshot.to_json());
    util::write_file_atomic(metrics_path + ".prom",
                            obs::to_prometheus(snapshot));
  }

  if (const auto canonical_path = cli.get("canonical-out")) {
    // Order- and timing-independent outcome dump, for diffing fleets.
    std::string text;
    for (const std::string& line : svc::canonical_journal(report.outcomes)) {
      text += line + "\n";
    }
    util::write_file_atomic(*canonical_path, text);
  }

  if (!cli.get_bool("quiet", false)) {
    util::Table table({"job", "status", "error", "attempts", "cut",
                       "moves", "passes", "seconds"});
    for (const svc::JobOutcome& outcome : report.outcomes) {
      table.add_row({outcome.id, svc::to_string(outcome.status),
                     svc::to_string(outcome.error),
                     std::to_string(outcome.attempts),
                     std::to_string(outcome.cut),
                     std::to_string(outcome.moves),
                     std::to_string(outcome.passes),
                     util::fmt(outcome.seconds, 3)});
    }
    table.print(std::cout);
  }
  std::cout << report.summary() << "\n";
  if (!report.complete() && !journal_path.empty()) {
    std::cout << "incomplete; rerun with --journal=" << journal_path
              << " --resume to finish\n";
  }
  return report.exit_code();
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  return util::run_cli_main("batch_runner", [&] { return run(cli); });
}
