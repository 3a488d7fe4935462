#pragma once
// Periodic metrics snapshots on disk (docs/OBSERVABILITY.md): a background
// thread that scrapes the registry every interval_seconds and atomically
// publishes the snapshot via util::write_file_atomic — as JSON
// (Snapshot::to_json) and/or Prometheus text format (obs::to_prometheus).
// Because every write is write-temp + rename, a reader (or a post-mortem
// after the process is killed) always sees a complete snapshot from at
// most one interval ago, never a torn file.
//
// tick_now() scrapes and writes immediately from the calling thread
// (start() is not required): used for the final end-of-fleet write and the
// SIGINT/SIGTERM drain path. A failing tick inside the background thread
// is logged and retried next interval — disk hiccups must not kill the
// fleet. stop() (idempotent, also run by the destructor) only joins the
// thread; callers that want a last-state file do a final tick_now().

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "obs/registry.hpp"

namespace fixedpart::obs {

struct ExporterConfig {
  double interval_seconds = 5.0;
  std::string json_path;  ///< empty = skip the JSON file
  std::string prom_path;  ///< empty = skip the Prometheus file
  Registry* registry = nullptr;  ///< nullptr = Registry::global()
};

class Exporter {
 public:
  explicit Exporter(ExporterConfig config);
  ~Exporter();
  Exporter(const Exporter&) = delete;
  Exporter& operator=(const Exporter&) = delete;

  /// Starts the periodic background thread (no-op if already running).
  void start();
  /// Stops and joins it. No implicit final tick.
  void stop();

  /// Scrapes and writes both files now, from the calling thread. Throws
  /// on IO errors (background ticks catch and log instead).
  void tick_now();

  std::uint64_t ticks() const {
    return ticks_.load(std::memory_order_relaxed);
  }

 private:
  void loop();

  ExporterConfig config_;
  std::mutex write_mu_;  ///< serializes tick_now vs the background tick
  std::mutex cv_mu_;
  std::condition_variable cv_;
  bool stopping_ = false;  ///< guarded by cv_mu_
  std::atomic<std::uint64_t> ticks_{0};
  std::thread thread_;
};

}  // namespace fixedpart::obs
