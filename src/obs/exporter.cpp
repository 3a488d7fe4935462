#include "obs/exporter.hpp"

#include <chrono>
#include <utility>

#include "obs/exposition.hpp"
#include "obs/log.hpp"
#include "util/atomic_file.hpp"

namespace fixedpart::obs {

Exporter::Exporter(ExporterConfig config) : config_(std::move(config)) {
  if (config_.registry == nullptr) config_.registry = &Registry::global();
  if (config_.interval_seconds <= 0.0) config_.interval_seconds = 5.0;
}

Exporter::~Exporter() { stop(); }

void Exporter::start() {
  if (thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(cv_mu_);
    stopping_ = false;
  }
  thread_ = std::thread([this] { loop(); });
}

void Exporter::stop() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(cv_mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Exporter::tick_now() {
  const Snapshot snapshot = config_.registry->scrape();
  std::lock_guard<std::mutex> lock(write_mu_);
  if (!config_.json_path.empty()) {
    util::write_file_atomic(config_.json_path, snapshot.to_json());
  }
  if (!config_.prom_path.empty()) {
    util::write_file_atomic(config_.prom_path, to_prometheus(snapshot));
  }
  ticks_.fetch_add(1, std::memory_order_relaxed);
}

void Exporter::loop() {
  std::unique_lock<std::mutex> lock(cv_mu_);
  while (!stopping_) {
    const bool stop_now = cv_.wait_for(
        lock, std::chrono::duration<double>(config_.interval_seconds),
        [this] { return stopping_; });
    if (stop_now) break;
    lock.unlock();
    try {
      tick_now();
    } catch (const std::exception& error) {
      // Disk hiccups must not kill the fleet; retry next interval.
      log_error("obs", "metrics export tick failed",
                {{"what", error.what()}});
    }
    lock.lock();
  }
}

}  // namespace fixedpart::obs
