#include "experiments/fixed_sweep.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>

#include "gen/regimes.hpp"
#include "svc/server.hpp"
#include "util/atomic_file.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace fixedpart::exp {

namespace {

/// Folds the per-trial, per-run cuts/seconds of one (regime, percentage)
/// point into its best-of-prefix cells (one per starts value).
std::vector<SweepCell> cells_from_runs(
    const std::vector<std::vector<Weight>>& cuts,
    const std::vector<std::vector<double>>& seconds,
    const std::vector<int>& starts, double normalizer_or_zero,
    Weight best_seen) {
  std::vector<SweepCell> cells;
  for (int s : starts) {
    util::RunningStat best_cut;
    util::RunningStat total_seconds;
    for (std::size_t t = 0; t < cuts.size(); ++t) {
      Weight best = std::numeric_limits<Weight>::max();
      double secs = 0.0;
      for (int r = 0; r < s; ++r) {
        best = std::min(best, cuts[t][static_cast<std::size_t>(r)]);
        secs += seconds[t][static_cast<std::size_t>(r)];
      }
      best_cut.add(static_cast<double>(best));
      total_seconds.add(secs);
    }
    SweepCell cell;
    cell.avg_best_cut = best_cut.mean();
    cell.avg_seconds = total_seconds.mean();
    const double norm = normalizer_or_zero > 0.0
                            ? normalizer_or_zero
                            : static_cast<double>(best_seen);
    cell.normalized = norm > 0.0 ? cell.avg_best_cut / norm : 1.0;
    cells.push_back(cell);
  }
  return cells;
}

}  // namespace

SupervisedSweepRun run_supervised_sweep(
    const InstanceContext& context, const SweepConfig& config,
    const SupervisedSweepOptions& options) {
  if (config.trials < 1) throw std::invalid_argument("sweep: trials < 1");
  if (config.starts.empty() || config.percentages.empty()) {
    throw std::invalid_argument("sweep: empty starts/percentages");
  }
  const int max_starts =
      *std::max_element(config.starts.begin(), config.starts.end());
  const char* kRegimes[] = {"good", "rand"};

  // Everything randomized is derived from options.seed in a fixed order —
  // the series first, then one stream seed per job in manifest order — so
  // a resumed or differently-parallel sweep sees identical instances.
  util::Rng root(options.seed);
  gen::FixedVertexSeries series(context.circuit.graph, 2, root);
  std::vector<hg::FixedAssignment> instances[2];
  for (double pct : config.percentages) {
    instances[0].push_back(series.good_regime(pct, context.good_reference));
    instances[1].push_back(series.rand_regime(pct));
  }

  std::vector<svc::JobSpec> manifest;
  // Job id -> the prebuilt fixed assignment its runner partitions.
  std::map<std::string, const hg::FixedAssignment*> fixed_by_id;
  for (int regime = 0; regime < 2; ++regime) {
    for (std::size_t pi = 0; pi < config.percentages.size(); ++pi) {
      for (int t = 0; t < config.trials; ++t) {
        for (int r = 0; r < max_starts; ++r) {
          svc::JobSpec spec;
          spec.id = std::string(kRegimes[regime]) + "-p" +
                    std::to_string(pi) + "-t" + std::to_string(t) + "-r" +
                    std::to_string(r);
          spec.regime = kRegimes[regime];
          spec.fixed_pct = config.percentages[pi];
          spec.starts = 1;
          spec.seed = root.next();
          spec.budget_seconds = options.job_budget_seconds;
          fixed_by_id.emplace(spec.id, &instances[regime][pi]);
          manifest.push_back(std::move(spec));
        }
      }
    }
  }

  // The runner shares the already-built context and regime instances; a
  // job's result depends only on its spec (the seed picks the stream).
  const auto runner = [&](const svc::JobSpec& spec,
                          const util::Deadline& deadline) {
    ml::MultilevelConfig ml = config.ml;
    ml.deadline = &deadline;
    const ml::MultilevelPartitioner partitioner(
        context.circuit.graph, *fixed_by_id.at(spec.id), context.balance);
    util::Rng rng(spec.seed);
    const ml::MultilevelResult run = partitioner.run(rng, ml);
    return svc::JobResult{run.cut, run.truncated};
  };

  svc::ServerConfig server;
  server.workers = options.workers;
  server.retry = options.retry;
  server.hang_seconds = options.hang_seconds;
  server.runner = runner;

  SupervisedSweepRun out;
  if (!options.journal_path.empty()) {
    if (!options.resume) {
      // A fresh run must not resume from a stale fleet's journal.
      util::write_file_atomic(options.journal_path, "");
    }
    svc::CheckpointJournal journal(options.journal_path);
    out.report = svc::run_batch(manifest, server, &journal, options.drain);
  } else {
    out.report = svc::run_batch(manifest, server, nullptr, options.drain);
  }

  if (!out.report.complete() || out.report.failed > 0 ||
      out.report.poisoned > 0) {
    return out;  // incomplete: no table, the report says why
  }

  std::map<std::string, const svc::JobOutcome*> outcome_by_id;
  for (const svc::JobOutcome& outcome : out.report.outcomes) {
    outcome_by_id.emplace(outcome.id, &outcome);
  }

  SweepResult result;
  result.percentages = config.percentages;
  result.starts = config.starts;
  for (int regime = 0; regime < 2; ++regime) {
    SweepSeries& out_series = regime == 0 ? result.good : result.rand;
    out_series.cells.resize(config.percentages.size());
    out_series.best_seen.assign(config.percentages.size(),
                                std::numeric_limits<Weight>::max());
    for (std::size_t pi = 0; pi < config.percentages.size(); ++pi) {
      std::vector<std::vector<Weight>> cuts(
          static_cast<std::size_t>(config.trials));
      std::vector<std::vector<double>> seconds(
          static_cast<std::size_t>(config.trials));
      for (int t = 0; t < config.trials; ++t) {
        for (int r = 0; r < max_starts; ++r) {
          const std::string id = std::string(kRegimes[regime]) + "-p" +
                                 std::to_string(pi) + "-t" +
                                 std::to_string(t) + "-r" +
                                 std::to_string(r);
          const svc::JobOutcome& outcome = *outcome_by_id.at(id);
          result.truncated |= outcome.truncated;
          cuts[static_cast<std::size_t>(t)].push_back(outcome.cut);
          seconds[static_cast<std::size_t>(t)].push_back(outcome.seconds);
          out_series.best_seen[pi] =
              std::min(out_series.best_seen[pi], outcome.cut);
        }
      }
      const double normalizer =
          regime == 0 ? static_cast<double>(context.good_cut) : 0.0;
      out_series.cells[pi] =
          cells_from_runs(cuts, seconds, config.starts, normalizer,
                          out_series.best_seen[pi]);
    }
  }
  out.result = std::move(result);
  return out;
}

}  // namespace fixedpart::exp
