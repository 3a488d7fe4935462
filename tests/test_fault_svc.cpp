// Fault-injection telemetry (ctest -L fault): when the heartbeat watchdog
// cancels a genuinely stuck attempt, the obs layer must record it — the
// svc.watchdog_fires counter increments exactly once per cancelled
// attempt, and svc.heartbeat_age_seconds is observed above zero while the
// attempt hangs. Scrapes run concurrently with the fleet (run_batch is
// driven from a helper thread, on PartitionServer's watchdog), which is
// exactly how a live /metrics endpoint sees a hang in production.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "obs/registry.hpp"
#include "svc/server.hpp"
#include "util/deadline.hpp"

namespace {

using namespace fixedpart;
using namespace fixedpart::svc;

JobSpec stuck_spec(const std::string& id) {
  JobSpec spec;
  spec.id = id;
  spec.seed = 1;
  return spec;
}

TEST(FaultSvcTelemetry, WatchdogFireIsCountedAndHeartbeatAgeVisible) {
  auto& registry = obs::Registry::global();
  // The server registers these lazily on first use; registering here is
  // idempotent and makes the counter readable before the fleet starts.
  registry.counter("svc.watchdog_fires");
  const std::int64_t fires_before =
      registry.scrape().counter("svc.watchdog_fires");

  ServerConfig config;
  config.hang_seconds = 0.05;
  config.retry.retry_truncated = false;
  config.hooks.sleep_fn = [](double) {};
  config.runner = [](const JobSpec&, const util::Deadline& deadline) {
    // Simulated hang: loops until the supervisor's watchdog cancels it.
    while (!deadline.expired()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return JobResult{1, true};
  };

  BatchReport report;
  std::thread fleet([&] {
    report = run_batch({stuck_spec("stuck")}, config, nullptr);
  });

  // While the attempt hangs, concurrent scrapes (a live /metrics reader)
  // must see the heartbeat age climbing above zero.
  double max_heartbeat_age = 0.0;
  for (int i = 0; i < 200; ++i) {
    const obs::Snapshot snap = registry.scrape();
    if (const obs::GaugeValue* age =
            snap.gauge("svc.heartbeat_age_seconds")) {
      max_heartbeat_age = std::max(max_heartbeat_age, age->value);
    }
    if (snap.counter("svc.watchdog_fires") > fires_before &&
        max_heartbeat_age > 0.0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  fleet.join();

  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].status, JobStatus::kTruncated);
  EXPECT_GT(max_heartbeat_age, 0.0);
  // Exactly one fire: the cancel flag flips once per stuck attempt (the
  // supervisor's exchange() makes repeat ticks no-ops).
  EXPECT_EQ(registry.scrape().counter("svc.watchdog_fires"),
            fires_before + 1);
}

TEST(FaultSvcTelemetry, CleanFleetDoesNotFireWatchdog) {
  auto& registry = obs::Registry::global();
  registry.counter("svc.watchdog_fires");
  const std::int64_t fires_before =
      registry.scrape().counter("svc.watchdog_fires");

  ServerConfig config;
  config.hang_seconds = 5.0;  // armed, but nothing hangs
  config.runner = [](const JobSpec&, const util::Deadline&) {
    return JobResult{3, false};
  };
  const BatchReport report = run_batch({stuck_spec("quick")}, config, nullptr);

  EXPECT_EQ(report.ok, 1);
  EXPECT_EQ(registry.scrape().counter("svc.watchdog_fires"), fires_before);
  // Per-state labeled counters moved for the finished job.
  EXPECT_GE(registry.scrape().counter(
                obs::labeled("svc.jobs", {{"state", "ok"}})),
            1);
}

}  // namespace
