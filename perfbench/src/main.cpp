// fpbench: the repository's end-to-end and per-layer benchmark driver.
//
//   fpbench --workload stream-200k|sweep-fixed|serve-mixed --seed N
//           --seconds S --trace 0|1 --work-dir DIR --trace-dir DIR
//
// Untraced (--trace 0) it measures the end-to-end metrics; traced it
// replays the workload's layers from the outside and prints the
// per-layer metrics instead (README.md). Every output is checked; the
// last stdout line is one JSON object {correct, attempted, failed,
// metrics}. Set-up errors exit 1 without printing a result.

#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <unistd.h>

#include "layers.hpp"
#include "workloads.hpp"

#ifndef FPBENCH_COMPILER
#define FPBENCH_COMPILER "unknown"
#endif
#ifndef FPBENCH_BUILD_TYPE
#define FPBENCH_BUILD_TYPE "unknown"
#endif

namespace fpbench {

void init_end_to_end(Metrics& m) {
  m.set("setup_s", 0.0, "s");
  m.set("solve_s", 0.0, "s");
  m.set("cut_mean", 0.0, "count");
  m.set("peak_rss_mb", 0.0, "MB");
  m.set("ok_frac", 0.0, "frac");
}

void init_per_layer(Metrics& m) {
  m.set("hg.load_s", 0.0, "s");
  m.set("hg.load_mb_per_s", 0.0, "MB/s");
  put_layer_metrics(LayerTotals{}, m);
  m.set("svc.batch_overhead_frac", 0.0, "frac");
  m.set("svc.queue_wait_p50_s", 0.0, "s");
  m.set("svc.attempt_p50_s", 0.0, "s");
  m.set("svc.worker_overhead_p50_s", 0.0, "s");
  m.set("svc.commit_p50_ms", 0.0, "ms");
  m.set("svc.handle_p50_ms", 0.0, "ms");
  m.set("svc.spawned", 0.0, "count");
  m.set("svc.worker_rss_peak_mb", 0.0, "MB");
  m.set("svc.cache_hit_frac", 0.0, "frac");
  m.set("obs.http_p50_ms", 0.0, "ms");
  m.set("obs.phase_coverage", 0.0, "frac");
  m.set("trace.overhead", 0.0, "ratio");
  m.set("trace.coverage", 0.0, "frac");
  m.set("trace.driver_cut", 0.0, "count");
  m.set("trace.pipeline_cut", 0.0, "count");
}

namespace {

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (options.workload.empty() || options.work_dir.empty() ||
      options.trace_dir.empty()) {
    throw std::invalid_argument(
        "usage: fpbench --workload NAME --seed N --seconds S --trace 0|1 "
        "--work-dir DIR --trace-dir DIR");
  }
  if (options.seconds <= 0.0) throw std::invalid_argument("--seconds <= 0");
  return options;
}

Report run(const Options& options) {
  if (options.workload == "stream-200k") return run_stream(options);
  if (options.workload == "sweep-fixed") return run_sweep(options);
  if (options.workload == "serve-mixed") return run_serve(options);
  throw std::invalid_argument("unknown workload " + options.workload);
}

/// Removes the per-run scratch directory however the run ends.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

 private:
  std::string path_;
};

}  // namespace

}  // namespace fpbench

int main(int argc, char** argv) {
  using namespace fpbench;
  Options options;
  try {
    options = parse(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "fpbench: " << error.what() << "\n";
    return 2;
  }
  options.work_dir += "/" + options.workload + "-" + std::to_string(::getpid());
  Report report;
  try {
    std::filesystem::create_directories(options.trace_dir);
    const ScratchDir scratch(options.work_dir);
    report = run(options);
  } catch (const std::exception& error) {
    std::cerr << "fpbench: " << options.workload << ": " << error.what()
              << "\n";
    return 1;
  }
  for (const std::string& failure : report.tally.failures()) {
    std::cerr << "fpbench: check failed: " << failure << "\n";
  }
  std::cout << "info: {\"workload\": " << json_quote(options.workload)
            << ", \"seed\": " << options.seed
            << ", \"seconds\": " << options.seconds
            << ", \"trace\": " << (options.trace ? 1 : 0)
            << ", \"cpus\": " << cpus()
            << ", \"compiler\": " << json_quote(FPBENCH_COMPILER)
            << ", \"build_type\": " << json_quote(FPBENCH_BUILD_TYPE)
            << ", \"why\": " << json_quote(report.why)
            << ", \"load\": " << json_quote(report.load) << "}\n";
  if (!options.trace) {
    std::cout << "detail: " << report.detail.to_json() << "\n";
  }
  std::cout << "{\"correct\": "
            << (report.tally.failed() == 0 && report.tally.attempted() > 0
                    ? "true"
                    : "false")
            << ", \"attempted\": " << report.tally.attempted()
            << ", \"failed\": " << report.tally.failed()
            << ", \"metrics\": " << report.metrics.to_json() << "}"
            << std::endl;
  return 0;
}
