#include "svc/executor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "gen/netlist_gen.hpp"
#include "gen/regimes.hpp"
#include "gen/suite.hpp"
#include "hg/io_binary.hpp"
#include "hg/io_bookshelf.hpp"
#include "hg/io_hmetis.hpp"
#include "ml/multilevel.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "part/balance.hpp"
#include "util/errors.hpp"
#include "util/timer.hpp"

namespace fixedpart::svc {

std::int64_t steady_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Retry delay before attempt `next_attempt` (2-based): exponential in the
/// retry index with a deterministic multiplicative jitter from the job id,
/// so a rerun of the same manifest backs off identically.
double backoff_seconds(const RetryPolicy& retry, const std::string& id,
                       int next_attempt) {
  const int retries_done = next_attempt - 2;  // 0 for the first retry
  double delay = retry.backoff_base_seconds *
                 std::ldexp(1.0, std::min(retries_done, 30));
  delay = std::min(delay, retry.backoff_cap_seconds);
  const std::uint64_t bits =
      splitmix64(fnv1a(id) ^ static_cast<std::uint64_t>(next_attempt));
  const double unit = static_cast<double>(bits >> 11) * 0x1.0p-53;
  return delay * (1.0 + retry.jitter_fraction * unit);
}

}  // namespace

JobOutcome run_supervised_job(const JobRunner& runner, const JobSpec& spec,
                              const RetryPolicy& retry, AttemptSlot& slot,
                              const SupervisedHooks& hooks) {
  const auto stop_retrying = [&] {
    return hooks.stop_retrying && hooks.stop_retrying();
  };
  const auto sleep_for = [&](double seconds) {
    if (hooks.sleep_fn) {
      hooks.sleep_fn(seconds);
    } else {
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    }
  };

  JobOutcome out;
  out.id = spec.id;
  // Per-job trace attribution around the whole attempt loop: every span
  // recorded on this thread (engine spans in thread mode, svc.job_attempt
  // always, worker spans merged by ProcessPool::attempt in process mode)
  // lands in `spans`, tagged with the job's deterministic trace id.
  std::shared_ptr<obs::SpanBuffer> spans = hooks.spans;
  if (spans == nullptr) spans = std::make_shared<obs::SpanBuffer>();
  obs::ScopedTraceContext trace_ctx(obs::trace_id_for(spec.id), spans.get());
  const auto finalize = [&spans](JobOutcome& outcome) {
    if (spans != nullptr) {
      const obs::PhaseBreakdown phases = obs::phase_breakdown(spans->events());
      outcome.coarsen_seconds = phases.coarsen_seconds;
      outcome.initial_seconds = phases.initial_seconds;
      outcome.refine_seconds = phases.refine_seconds;
    }
  };
  util::Timer total;
  std::optional<JobResult> best;  // best successful attempt so far
  for (int attempt = 1;; ++attempt) {
    out.attempts = attempt;
    slot.cancel.store(false, std::memory_order_release);
    slot.start_ms.store(steady_ms(), std::memory_order_release);
    slot.busy.store(true, std::memory_order_release);
    util::Deadline deadline =
        spec.budget_seconds > 0.0
            ? util::Deadline::after_seconds(spec.budget_seconds)
            : util::Deadline();
    deadline.set_cancel_flag(&slot.cancel);
    ErrorClass error = ErrorClass::kNone;
    bool crash_poisoned = false;
    std::string message;
    JobResult result;
    try {
      obs::ScopedSpan span("svc.job_attempt");
      span.arg("attempt", static_cast<std::int64_t>(attempt));
      if (hooks.fault_hook) hooks.fault_hook(spec, attempt);
      result = runner(spec, deadline);
    } catch (const util::InputError& e) {
      error = ErrorClass::kInput;
      message = e.what();
    } catch (const util::InfeasibleError& e) {
      error = ErrorClass::kInfeasible;
      message = e.what();
    } catch (const WorkerPoisonedError& e) {
      // Circuit breaker: this job has crashed enough workers; fail it
      // permanently as failed(crash) instead of retrying forever.
      error = ErrorClass::kCrash;
      crash_poisoned = true;
      message = e.what();
    } catch (const WorkerCrashError& e) {
      // Ordered before TransientError (its base): keep the crash class on
      // the outcome while retrying it through the transient path.
      error = ErrorClass::kCrash;
      message = e.what();
    } catch (const TransientError& e) {
      error = ErrorClass::kTransient;
      message = e.what();
    } catch (const std::bad_alloc&) {
      error = ErrorClass::kTransient;
      message = "out of memory";
    } catch (const std::exception& e) {
      error = ErrorClass::kInternal;
      message = e.what();
    } catch (...) {
      error = ErrorClass::kInternal;
      message = "unknown exception";
    }
    slot.busy.store(false, std::memory_order_release);

    if (error == ErrorClass::kNone) {
      if (!best.has_value() || (!result.truncated && best->truncated) ||
          (result.truncated == best->truncated && result.cut < best->cut)) {
        best = result;
      }
      const bool want_retry = result.truncated && retry.retry_truncated &&
                              attempt < retry.max_attempts &&
                              !stop_retrying();
      if (!want_retry) break;
    } else if (error == ErrorClass::kInput ||
               error == ErrorClass::kInfeasible || crash_poisoned) {
      out.status = JobStatus::kFailed;
      out.error = error;
      out.message = message;
      out.seconds = total.seconds();
      finalize(out);
      return out;
    } else {
      // Transient / internal: poisoned once attempts run out (unless an
      // earlier attempt already produced a usable truncated result).
      if (attempt >= retry.max_attempts || stop_retrying()) {
        if (!best.has_value()) {
          out.status = JobStatus::kPoisoned;
          out.error = error;
          out.message = message;
          out.seconds = total.seconds();
          finalize(out);
          return out;
        }
        break;
      }
    }
    obs::log_warn("svc", "job attempt unsuccessful; backing off",
                  {{"id", spec.id},
                   {"attempt", attempt},
                   {"error", error == ErrorClass::kNone ? "truncated"
                                                        : to_string(error)},
                   {"message", message}});
    sleep_for(backoff_seconds(retry, spec.id, attempt + 1));
  }
  out.status = best->truncated ? JobStatus::kTruncated : JobStatus::kOk;
  out.error = ErrorClass::kNone;
  out.cut = best->cut;
  out.truncated = best->truncated;
  out.moves = best->moves;
  out.passes = best->passes;
  out.seconds = total.seconds();
  finalize(out);
  return out;
}

void FleetProgress::begin(std::int64_t total, std::int64_t resumed,
                          int workers) {
  std::lock_guard<std::mutex> lock(mu_);
  total_ = total;
  done_ = resumed;
  ok_ = truncated_ = failed_ = poisoned_ = 0;
  resumed_ = resumed;
  workers_ = std::max(workers, 1);
  seconds_ = util::RunningStat();
  has_best_ = false;
  best_cut_ = 0;
}

void FleetProgress::record(const JobOutcome& outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  ++done_;
  switch (outcome.status) {
    case JobStatus::kOk: ++ok_; break;
    case JobStatus::kTruncated: ++truncated_; break;
    case JobStatus::kFailed: ++failed_; break;
    case JobStatus::kPoisoned: ++poisoned_; break;
  }
  seconds_.add(outcome.seconds);
  if (outcome.status == JobStatus::kOk ||
      outcome.status == JobStatus::kTruncated) {
    if (!has_best_ || outcome.cut < best_cut_) {
      has_best_ = true;
      best_cut_ = outcome.cut;
    }
  }
}

std::int64_t FleetProgress::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

std::int64_t FleetProgress::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

std::string FleetProgress::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  const double mean = seconds_.empty() ? 0.0 : seconds_.mean();
  const std::int64_t remaining = std::max<std::int64_t>(total_ - done_, 0);
  const double eta =
      mean * static_cast<double>(remaining) / static_cast<double>(workers_);
  std::ostringstream out;
  out.precision(3);
  out << std::fixed;
  out << "{\"total\": " << total_ << ", \"done\": " << done_
      << ", \"ok\": " << ok_ << ", \"truncated\": " << truncated_
      << ", \"failed\": " << failed_ << ", \"poisoned\": " << poisoned_
      << ", \"resumed\": " << resumed_ << ", \"workers\": " << workers_
      << ", \"mean_job_seconds\": " << mean << ", \"eta_seconds\": " << eta
      << ", \"best_cut\": ";
  if (has_best_) {
    out << best_cut_;
  } else {
    out << "null";
  }
  out << "}\n";
  return out.str();
}

int BatchReport::exit_code() const {
  if (poisoned > 0 || !complete()) return util::kExitInternal;
  if (failed > 0) {
    for (const JobOutcome& outcome : outcomes) {
      if (outcome.status == JobStatus::kFailed &&
          outcome.error == ErrorClass::kInput) {
        return util::kExitInput;
      }
    }
    return util::kExitInfeasible;
  }
  return util::kExitOk;
}

std::string BatchReport::summary() const {
  std::ostringstream out;
  out << "ok=" << ok << " truncated=" << truncated << " failed=" << failed
      << " poisoned=" << poisoned << " retried=" << retried
      << " resumed=" << resumed << " abandoned=" << abandoned;
  if (drained) out << " (drained)";
  return out.str();
}

BatchExecutor::BatchExecutor(JobRunner runner, ExecutorConfig config)
    : runner_(std::move(runner)), config_(std::move(config)) {
  if (!runner_) throw std::invalid_argument("BatchExecutor: null runner");
  if (config_.workers < 1) {
    throw std::invalid_argument("BatchExecutor: workers < 1");
  }
  if (config_.retry.max_attempts < 1) {
    throw std::invalid_argument("BatchExecutor: max_attempts < 1");
  }
}

BatchReport BatchExecutor::run(const std::vector<JobSpec>& manifest,
                               CheckpointJournal* journal) {
  {
    std::set<std::string> ids;
    for (const JobSpec& spec : manifest) {
      if (!ids.insert(spec.id).second) {
        throw util::InputError("executor: duplicate job id \"" + spec.id +
                               "\"");
      }
    }
  }

  // Resume: journaled outcomes are finished work, including permanent
  // failures — only jobs with no outcome are (re)dispatched.
  std::vector<std::optional<JobOutcome>> outcomes(manifest.size());
  BatchReport report;
  if (journal != nullptr) {
    std::map<std::string, JobOutcome> done;
    for (JobOutcome& outcome : journal->open_for_append()) {
      done.insert_or_assign(outcome.id, std::move(outcome));
    }
    for (std::size_t i = 0; i < manifest.size(); ++i) {
      const auto it = done.find(manifest[i].id);
      if (it != done.end()) {
        outcomes[i] = it->second;
        ++report.resumed;
      }
    }
  }

  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < manifest.size(); ++i) {
    if (!outcomes[i].has_value()) pending.push_back(i);
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> halted{false};
  std::atomic<int> active{0};
  std::mutex commit_mu;  // guards journal appends + outcome commits
  std::int64_t committed = 0;
  std::exception_ptr journal_error;

  const int workers = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(config_.workers), pending.size()));
  std::vector<AttemptSlot> slots(
      static_cast<std::size_t>(std::max(workers, 1)));

  // Live telemetry: queue/worker/heartbeat/best-cut gauges plus the
  // labeled per-state job counter family, updated at job boundaries and
  // supervisor ticks so an attached /metrics endpoint sees the fleet
  // move.
  auto& obs_reg = obs::Registry::global();
  struct LiveIds {
    obs::MetricId queue_depth, inflight, heartbeat_age, best_cut;
    obs::MetricId watchdog_fires;
    obs::MetricId jobs_by_state[4];  ///< indexed by JobStatus
  };
  static const LiveIds live = [] {
    auto& reg = obs::Registry::global();
    return LiveIds{
        reg.gauge("svc.queue_depth"),
        reg.gauge("svc.inflight_workers"),
        reg.gauge("svc.heartbeat_age_seconds"),
        reg.gauge("svc.best_cut"),
        reg.counter("svc.watchdog_fires"),
        {reg.counter(obs::labeled("svc.jobs", {{"state", "ok"}})),
         reg.counter(obs::labeled("svc.jobs", {{"state", "truncated"}})),
         reg.counter(obs::labeled("svc.jobs", {{"state", "failed"}})),
         reg.counter(obs::labeled("svc.jobs", {{"state", "poisoned"}}))},
    };
  }();
  if (config_.progress != nullptr) {
    config_.progress->begin(static_cast<std::int64_t>(manifest.size()),
                            report.resumed, std::max(workers, 1));
  }
  obs_reg.set(live.queue_depth, static_cast<double>(pending.size()));
  obs_reg.set(live.inflight, 0.0);
  obs_reg.set(live.heartbeat_age, 0.0);
  obs::log_info("svc", "fleet started",
                {{"jobs", static_cast<std::int64_t>(manifest.size())},
                 {"resumed", report.resumed},
                 {"workers", std::max(workers, 0)}});
  bool fleet_has_best = false;  // guarded by commit_mu
  Weight fleet_best = 0;

  const auto draining = [&] {
    return halted.load(std::memory_order_acquire) ||
           (config_.drain != nullptr &&
            config_.drain->load(std::memory_order_acquire));
  };

  // The attempt loop itself lives in run_supervised_job (shared with the
  // PartitionServer); each worker supplies its slot and the drain policy.
  SupervisedHooks hooks;
  hooks.fault_hook = config_.fault_hook;
  hooks.sleep_fn = config_.sleep_fn;
  hooks.stop_retrying = draining;

  const auto worker = [&](std::size_t slot_index) {
    AttemptSlot& slot = slots[slot_index];
    while (!draining()) {
      const std::size_t i = next.fetch_add(1);
      if (i >= pending.size()) break;
      const std::size_t manifest_index = pending[i];
      JobOutcome out = run_supervised_job(runner_, manifest[manifest_index],
                                          config_.retry, slot, hooks);
      std::lock_guard<std::mutex> lock(commit_mu);
      // A halt between claim and commit is the simulated kill -9: the
      // result is lost exactly like a genuinely in-flight job.
      if (halted.load(std::memory_order_acquire)) break;
      if (journal != nullptr && !journal_error) {
        try {
          journal->append(out);
        } catch (const std::exception& e) {
          obs::log_error("svc", "checkpoint journal append failed",
                         {{"id", out.id}, {"what", e.what()}});
          journal_error = std::current_exception();
          halted.store(true, std::memory_order_release);
          break;
        } catch (...) {
          journal_error = std::current_exception();
          halted.store(true, std::memory_order_release);
          break;
        }
      }
      if (config_.progress != nullptr) config_.progress->record(out);
      obs_reg.add(live.jobs_by_state[static_cast<std::size_t>(out.status)]);
      if ((out.status == JobStatus::kOk ||
           out.status == JobStatus::kTruncated) &&
          (!fleet_has_best || out.cut < fleet_best)) {
        fleet_has_best = true;
        fleet_best = out.cut;
        obs_reg.set(live.best_cut, static_cast<double>(fleet_best));
      }
      obs::log_debug("svc", "job finished",
                     {{"id", out.id},
                      {"status", to_string(out.status)},
                      {"attempts", out.attempts},
                      {"cut", static_cast<std::int64_t>(out.cut)},
                      {"seconds", out.seconds}});
      outcomes[manifest_index] = std::move(out);
      ++committed;
      if (config_.halt_after >= 0 && committed >= config_.halt_after) {
        halted.store(true, std::memory_order_release);
        // Expedite the abandonment: in-flight attempts unwind at their
        // next deadline check instead of running to completion.
        for (AttemptSlot& other : slots) {
          other.cancel.store(true, std::memory_order_release);
        }
        break;
      }
    }
    active.fetch_sub(1, std::memory_order_acq_rel);
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  active.store(workers, std::memory_order_release);
  for (int t = 0; t < workers; ++t) {
    pool.emplace_back(worker, static_cast<std::size_t>(t));
  }

  // Supervisor: heartbeat-based hang detection while the pool drains,
  // plus the per-tick refresh of the live gauges.
  const auto hang_limit_ms =
      static_cast<std::int64_t>(config_.hang_seconds * 1000.0);
  while (active.load(std::memory_order_acquire) > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const std::int64_t now = steady_ms();
    int busy_workers = 0;
    std::int64_t oldest_heartbeat_ms = 0;
    for (AttemptSlot& slot : slots) {
      if (!slot.busy.load(std::memory_order_acquire)) continue;
      ++busy_workers;
      const std::int64_t age =
          now - slot.start_ms.load(std::memory_order_acquire);
      oldest_heartbeat_ms = std::max(oldest_heartbeat_ms, age);
      if (config_.hang_seconds > 0.0 && age > hang_limit_ms &&
          !slot.cancel.exchange(true, std::memory_order_acq_rel)) {
        obs_reg.add(live.watchdog_fires);
        obs::log_warn("svc", "hang watchdog cancelled a stuck attempt",
                      {{"age_seconds", static_cast<double>(age) / 1000.0},
                       {"hang_seconds", config_.hang_seconds}});
      }
    }
    obs_reg.set(live.inflight, static_cast<double>(busy_workers));
    obs_reg.set(live.heartbeat_age,
                static_cast<double>(oldest_heartbeat_ms) / 1000.0);
    const std::size_t claimed =
        std::min(next.load(std::memory_order_relaxed), pending.size());
    obs_reg.set(live.queue_depth,
                static_cast<double>(pending.size() - claimed));
  }
  for (std::thread& thread : pool) thread.join();
  obs_reg.set(live.inflight, 0.0);
  obs_reg.set(live.heartbeat_age, 0.0);
  if (journal_error) std::rethrow_exception(journal_error);

  for (const std::optional<JobOutcome>& outcome : outcomes) {
    if (!outcome.has_value()) {
      ++report.abandoned;
      continue;
    }
    report.outcomes.push_back(*outcome);
    switch (outcome->status) {
      case JobStatus::kOk: ++report.ok; break;
      case JobStatus::kTruncated: ++report.truncated; break;
      case JobStatus::kFailed: ++report.failed; break;
      case JobStatus::kPoisoned: ++report.poisoned; break;
    }
    if (outcome->attempts > 1) ++report.retried;
  }
  report.drained = draining();
  auto& reg = obs::Registry::global();
  static const obs::MetricId jobs_ok = reg.counter("svc.jobs_ok");
  static const obs::MetricId jobs_truncated =
      reg.counter("svc.jobs_truncated");
  static const obs::MetricId jobs_failed = reg.counter("svc.jobs_failed");
  static const obs::MetricId jobs_poisoned =
      reg.counter("svc.jobs_poisoned");
  static const obs::MetricId jobs_retried = reg.counter("svc.jobs_retried");
  static const obs::MetricId jobs_resumed = reg.counter("svc.jobs_resumed");
  static const obs::MetricId attempts_hist =
      reg.histogram("svc.job_attempts", 1.0, 11.0, 10);
  reg.add(jobs_ok, report.ok);
  reg.add(jobs_truncated, report.truncated);
  reg.add(jobs_failed, report.failed);
  reg.add(jobs_poisoned, report.poisoned);
  reg.add(jobs_retried, report.retried);
  reg.add(jobs_resumed, report.resumed);
  for (const JobOutcome& outcome : report.outcomes) {
    reg.observe(attempts_hist, static_cast<double>(outcome.attempts));
  }
  obs::log_info("svc", "fleet finished",
                {{"summary", report.summary()},
                 {"drained", report.drained},
                 {"exit_code", report.exit_code()}});
  return report;
}

// --- the standard partition-job runner -----------------------------------

namespace {

/// Everything shareable between jobs touching the same instance. Built
/// once under the entry mutex; reads afterwards are immutable.
struct InstanceEntry {
  std::mutex mu;
  bool built = false;
  hg::Hypergraph graph;
  hg::FixedAssignment base_fixed{0, 2};
  std::optional<part::BalanceConstraint> balance;
  std::unique_ptr<gen::FixedVertexSeries> series;  // good/rand regimes
  bool reference_built = false;
  std::vector<hg::PartitionId> good_reference;
};

util::Scale scale_from_string(const std::string& text) {
  if (text == "smoke") return util::Scale::kSmoke;
  if (text == "paper") return util::Scale::kPaper;
  return util::Scale::kDefault;
}

/// The paper's engine defaults (CLIP refinement, no pass cutoff) — kept in
/// sync with exp::default_ml_config, which lives a layer above svc.
ml::MultilevelConfig engine_config() {
  ml::MultilevelConfig config;
  config.refine.policy = part::SelectionPolicy::kClip;
  config.refine.pass_cutoff = 1.0;
  return config;
}

std::shared_ptr<InstanceEntry> instance_entry(const std::string& key) {
  static std::mutex cache_mu;
  static std::map<std::string, std::shared_ptr<InstanceEntry>> cache;
  std::lock_guard<std::mutex> lock(cache_mu);
  std::shared_ptr<InstanceEntry>& entry = cache[key];
  if (entry == nullptr) entry = std::make_shared<InstanceEntry>();
  return entry;
}

void build_instance(InstanceEntry& entry, const JobSpec& spec,
                    const std::string& key) {
  if (spec.instance.empty()) {
    gen::GeneratedCircuit circuit = gen::generate_circuit(
        gen::ibm_like_spec(spec.circuit, scale_from_string(spec.scale)));
    entry.graph = std::move(circuit.graph);
    entry.base_fixed = hg::FixedAssignment(entry.graph.num_vertices(), 2);
    entry.balance = part::BalanceConstraint::relative(entry.graph, 2,
                                                      spec.tolerance_pct);
  } else if (spec.instance.ends_with(".fpbin")) {
    // Checked before .fpb: ".fpbin" would otherwise satisfy neither
    // suffix test cleanly (.rfind(".fpb") also matches inside ".fpbin").
    hg::BinaryInstance instance = hg::read_fpbin_file(spec.instance);
    if (instance.num_parts != 2) {
      throw util::InputError("batch job " + spec.id +
                             ": only bipartitioning instances supported");
    }
    entry.graph = std::move(instance.graph);
    entry.base_fixed = std::move(instance.fixed);
    entry.balance = part::BalanceConstraint::relative(entry.graph, 2,
                                                      spec.tolerance_pct);
  } else if (spec.instance.size() > 4 &&
             spec.instance.rfind(".fpb") == spec.instance.size() - 4) {
    hg::BenchmarkInstance instance = hg::read_fpb_file(spec.instance);
    if (instance.num_parts != 2) {
      throw util::InputError("batch job " + spec.id +
                             ": only bipartitioning instances supported");
    }
    entry.graph = std::move(instance.graph);
    entry.base_fixed = std::move(instance.fixed);
    entry.balance = part::BalanceConstraint::from_spec(entry.graph, 2,
                                                       instance.balance);
  } else {
    entry.graph = hg::read_hmetis_file(spec.instance);
    entry.base_fixed = hg::FixedAssignment(entry.graph.num_vertices(), 2);
    entry.balance = part::BalanceConstraint::relative(entry.graph, 2,
                                                      spec.tolerance_pct);
  }
  // The regime series and good reference must be shared by every job on
  // this instance (the paper's nested-series protocol), so their seeds
  // derive from the instance key, never from a job's seed.
  util::Rng series_rng(splitmix64(fnv1a(key)));
  entry.series = std::make_unique<gen::FixedVertexSeries>(entry.graph, 2,
                                                          series_rng);
  entry.built = true;
}

const std::vector<hg::PartitionId>& good_reference(InstanceEntry& entry,
                                                   const std::string& key) {
  if (!entry.reference_built) {
    const hg::FixedAssignment all_free(entry.graph.num_vertices(), 2);
    const ml::MultilevelPartitioner partitioner(entry.graph, all_free,
                                                *entry.balance);
    util::Rng rng(splitmix64(fnv1a(key) ^ 0x900dULL));
    entry.good_reference =
        partitioner.best_of(4, rng, engine_config()).assignment;
    entry.reference_built = true;
  }
  return entry.good_reference;
}

/// Re-applies the instance's own pins on top of a regime assignment (file
/// instances may carry fixed terminals; they always win).
void merge_base_fixed(hg::FixedAssignment& fixed,
                      const hg::FixedAssignment& base) {
  for (hg::VertexId v = 0; v < base.num_vertices(); ++v) {
    if (base.is_restricted(v)) fixed.restrict_to(v, base.allowed_mask(v));
  }
}

}  // namespace

JobResult run_partition_job(const JobSpec& spec,
                            const util::Deadline& deadline) {
  const std::string key = spec.instance.empty()
                              ? "gen:" + std::to_string(spec.circuit) + ":" +
                                    spec.scale + ":" +
                                    std::to_string(spec.tolerance_pct)
                              : "file:" + spec.instance + ":" +
                                    std::to_string(spec.tolerance_pct);
  const std::shared_ptr<InstanceEntry> entry = instance_entry(key);

  hg::FixedAssignment fixed{0, 2};
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    if (!entry->built) build_instance(*entry, spec, key);
    if (spec.regime == "good") {
      fixed = entry->series->good_regime(spec.fixed_pct,
                                         good_reference(*entry, key));
      merge_base_fixed(fixed, entry->base_fixed);
    } else if (spec.regime == "rand") {
      fixed = entry->series->rand_regime(spec.fixed_pct);
      merge_base_fixed(fixed, entry->base_fixed);
    } else {
      fixed = entry->base_fixed;
    }
  }

  ml::MultilevelConfig config = engine_config();
  config.deadline = &deadline;
  config.preflight = spec.preflight;
  const ml::MultilevelPartitioner partitioner(entry->graph, fixed,
                                              *entry->balance);
  if (spec.threads_per_job > 1) {
    // Parallel multistart on the shared pool: starts fan out across up to
    // threads_per_job workers, and the result depends only on (starts,
    // seed) — identical for every threads_per_job > 1, so the canonical
    // journal stays byte-stable when the knob is retuned per machine.
    const ml::MultilevelResult result = partitioner.best_of_parallel(
        spec.starts, spec.threads_per_job, spec.seed, config);
    return JobResult{result.cut, result.truncated, result.total_moves,
                     result.total_passes};
  }
  util::Rng rng(spec.seed);
  const ml::MultilevelResult result =
      partitioner.best_of(spec.starts, rng, config);
  return JobResult{result.cut, result.truncated, result.total_moves,
                   result.total_passes};
}

}  // namespace fixedpart::svc
