#include "svc/executor.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
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
#include "obs/trace.hpp"
#include "part/balance.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace fixedpart::svc {

std::int64_t steady_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

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
    // Exponential in the retry index (0 for the first retry), jittered
    // from (job id, next attempt), so a rerun of the same manifest backs
    // off identically.
    sleep_for(util::jittered_backoff_seconds(
        retry.backoff_base_seconds, retry.backoff_cap_seconds,
        retry.jitter_fraction, attempt - 1, spec.id,
        static_cast<std::uint64_t>(attempt + 1)));
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
  util::Rng series_rng(util::splitmix64(util::fnv1a(key)));
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
    util::Rng rng(util::splitmix64(util::fnv1a(key) ^ 0x900dULL));
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
