// sweep-fixed: the Figs. 1-2 protocol (good and rand regimes, % fixed,
// 1..8 starts) on the ibm01- and ibm03-profile circuits through the
// supervised batch engine, plus the two pinned 8-start free-instance runs
// of bench_to_json.

#include <fstream>

#include "experiments/fixed_sweep.hpp"
#include "gen/regimes.hpp"
#include "gen/suite.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace fpbench {

namespace {

namespace exp = fixedpart::exp;
namespace gen = fixedpart::gen;
namespace obs = fixedpart::obs;
namespace svc = fixedpart::svc;
using fixedpart::util::Rng;

constexpr int kCircuits[] = {1, 3};
constexpr int kSetups = 3;
constexpr int kMinSweeps = 3;
constexpr int kWorkers = 2;
/// Reference starts for the good regime (bench_env's smoke-scale value).
constexpr int kReferenceStarts = 8;
constexpr double kTolerancePct = 2.0;
/// bench_to_json's pinned multistart seed and start count.
constexpr std::uint64_t kPinnedSeed = 0xBE9C;
constexpr int kPinnedStarts = 8;
/// Instances the traced run replays layer by layer (rand regime).
constexpr double kTracedPercentages[] = {0.0, 5.0, 20.0, 50.0};

exp::SweepConfig sweep_config() {
  exp::SweepConfig config;
  config.percentages = {0.0, 5.0, 20.0, 50.0};
  config.starts = {1, 2, 4, 8};
  config.trials = 1;
  config.ml = exp::default_ml_config();
  return config;
}

std::vector<exp::InstanceContext> make_contexts(std::uint64_t seed) {
  std::vector<exp::InstanceContext> contexts;
  for (int k = 0; k < 2; ++k) {
    Rng rng(derived_seed(seed, 1 + k));
    contexts.push_back(exp::make_context(
        gen::ibm_like_spec(kCircuits[k], fixedpart::util::Scale::kDefault),
        kReferenceStarts, kTolerancePct, rng));
  }
  return contexts;
}

std::size_t count_lines(const std::string& path) {
  std::ifstream in(path);
  std::size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) lines += !line.empty();
  return lines;
}

struct SweepPass {
  double seconds = 0.0;
  double cut_mean = -1.0;
  double job_seconds = 0.0;  ///< sum of JobOutcome::seconds
};

/// One supervised sweep over both circuits. Checks the fleet report, the
/// checkpoint journal and the shape of the result; `cut_mean` is the mean
/// best cut over every (circuit, regime, % fixed, starts) cell, or -1
/// after a failed check.
SweepPass sweep_once(const std::vector<exp::InstanceContext>& contexts,
                     const Options& options, Tally& tally) {
  const exp::SweepConfig config = sweep_config();
  const std::size_t jobs_per_circuit =
      2 * config.percentages.size() * static_cast<std::size_t>(config.trials) *
      static_cast<std::size_t>(config.starts.back());
  SweepPass pass;
  std::vector<exp::SupervisedSweepRun> runs;
  const Clock::time_point start = Clock::now();
  for (std::size_t k = 0; k < contexts.size(); ++k) {
    exp::SupervisedSweepOptions sweep;
    sweep.workers = kWorkers;
    sweep.seed = derived_seed(options.seed, 10 + static_cast<int>(k));
    sweep.journal_path =
        options.work_dir + "/sweep-" + std::to_string(k) + ".journal";
    runs.push_back(exp::run_supervised_sweep(contexts[k], config, sweep));
  }
  pass.seconds = seconds_since(start);

  double cut_sum = 0.0;
  int cells = 0;
  bool ok = true;
  for (std::size_t k = 0; k < runs.size(); ++k) {
    const exp::SupervisedSweepRun& run = runs[k];
    for (const svc::JobOutcome& outcome : run.report.outcomes) {
      pass.job_seconds += outcome.seconds;
    }
    std::string failure;
    if (!run.result.has_value() || run.report.ok != static_cast<std::int64_t>(
                                                       jobs_per_circuit)) {
      failure = "fleet incomplete: " + run.report.summary();
    } else if (run.result->truncated) {
      failure = "truncated cells";
    } else if (count_lines(options.work_dir + "/sweep-" + std::to_string(k) +
                           ".journal") != jobs_per_circuit) {
      failure = "checkpoint journal does not hold one line per job";
    } else {
      for (const exp::SweepSeries* series :
           {&run.result->good, &run.result->rand}) {
        for (const std::vector<exp::SweepCell>& row : series->cells) {
          for (std::size_t s = 0; s < row.size(); ++s) {
            // Best-of-prefix: more starts can never average a worse cut.
            if (row[s].avg_best_cut <= 0.0 ||
                (s > 0 && row[s].avg_best_cut > row[s - 1].avg_best_cut)) {
              failure = "cell cut not positive or not monotone in starts";
            }
            cut_sum += row[s].avg_best_cut;
            ++cells;
          }
        }
      }
    }
    ok = ok && failure.empty();
    tally.check(failure.empty() ? "" : "sweep ibm0" +
                                           std::to_string(kCircuits[k]) +
                                           ": " + failure);
  }
  if (ok && cells > 0) pass.cut_mean = cut_sum / cells;
  return pass;
}

/// bench_to_json's ml_multistart_ibm0X: 8 serial starts of the default
/// (LIFO) config on the free instance at 2%, seed 0xBE9C.
hg::Weight pinned_cut(const exp::InstanceContext& context, Tally& tally) {
  const hg::Hypergraph& graph = context.circuit.graph;
  const hg::FixedAssignment all_free(graph.num_vertices(), 2);
  const ml::MultilevelPartitioner partitioner(graph, all_free, context.balance);
  Rng rng(kPinnedSeed);
  const ml::MultilevelResult result =
      partitioner.best_of(kPinnedStarts, rng, ml::MultilevelConfig{});
  const std::string failure = check_partition(graph, all_free, context.balance,
                                              result.assignment, result.cut);
  tally.check(failure.empty() ? "" : "pinned multistart: " + failure);
  return result.cut;
}

void traced(const Options& options,
            const std::vector<exp::InstanceContext>& contexts,
            Report& report) {
  Metrics& m = report.metrics;

  // Batch supervisor overhead: worker time not spent inside jobs.
  const SweepPass pass = sweep_once(contexts, options, report.tally);
  m.set("svc.batch_overhead_frac",
        1.0 - pass.job_seconds / (kWorkers * pass.seconds), "frac");

  SpanRecorder spans;
  LayerTotals totals;
  double plain_s = 0.0;
  double traced_wall = 0.0;
  double phase_s = 0.0;
  double driver_cut = 0.0;
  double pipeline_cut = 0.0;
  const ml::MultilevelConfig config = exp::default_ml_config();
  for (std::size_t k = 0; k < contexts.size(); ++k) {
    const exp::InstanceContext& context = contexts[k];
    const hg::Hypergraph& graph = context.circuit.graph;
    Rng series_rng(derived_seed(options.seed, 20 + static_cast<int>(k)));
    const gen::FixedVertexSeries series(graph, 2, series_rng);
    int i = 0;
    for (double pct : kTracedPercentages) {
      const hg::FixedAssignment fixed = series.rand_regime(pct);
      const ml::MultilevelPartitioner partitioner(graph, fixed,
                                                  context.balance);
      const std::uint64_t seed =
          derived_seed(options.seed, 30 + 10 * static_cast<int>(k) + i++);
      const auto check = [&](const std::vector<hg::PartitionId>& assignment,
                             hg::Weight cut, const char* what) {
        const std::string failure =
            check_partition(graph, fixed, context.balance, assignment, cut);
        report.tally.check(failure.empty() ? "" : std::string(what) + ": " +
                                                      failure);
      };

      Rng rng(seed);
      Clock::time_point start = Clock::now();
      const ml::MultilevelResult plain = partitioner.run(rng, config);
      plain_s += seconds_since(start);
      pipeline_cut += static_cast<double>(plain.cut);
      check(plain.assignment, plain.cut, "pipeline");
      {
        obs::SpanBuffer buffer;
        obs::ScopedTraceContext context_scope(
            obs::trace_id_for("perfbench.sweep"), &buffer);
        Rng traced_rng(seed);
        start = Clock::now();
        const ml::MultilevelResult result = partitioner.run(traced_rng, config);
        traced_wall += seconds_since(start);
        const obs::PhaseBreakdown phases =
            obs::phase_breakdown(buffer.events());
        phase_s += phases.coarsen_seconds + phases.initial_seconds +
                   phases.refine_seconds;
        check(result.assignment, result.cut, "traced pipeline");
      }
      Rng driver_rng(seed);
      const DriverRun driver = run_layer_driver(graph, fixed, context.balance,
                                                config, driver_rng, spans);
      check(driver.assignment, driver.cut, "layer driver");
      driver_cut += static_cast<double>(driver.cut);
      totals.add(driver.totals);
    }
  }
  put_layer_metrics(totals, m);
  m.set("obs.phase_coverage", phase_s / traced_wall, "frac");
  m.set("trace.overhead", totals.wall_s / plain_s, "ratio");
  m.set("trace.coverage", totals.covered_s / totals.wall_s, "frac");
  m.set("trace.driver_cut", driver_cut, "count");
  m.set("trace.pipeline_cut", pipeline_cut, "count");
  spans.write_chrome_trace(options.trace_dir + "/sweep-fixed-seed" +
                           std::to_string(options.seed) + ".json");
}

}  // namespace

Report run_sweep(const Options& options) {
  Report report;
  report.why =
      "many small graphs with many fixed vertices: per-pass and per-level "
      "set-up, CLIP and the batch supervisor dominate, not per-move cost";
  report.load =
      "batch: ibm01/ibm03 (default scale), good+rand regimes at 0/5/20/50% "
      "fixed, 1/2/4/8 starts, one trial, run_supervised_sweep with 2 workers "
      "and a checkpoint journal, repeated; plus the two pinned 8-start runs";

  std::vector<double> setups;
  std::vector<exp::InstanceContext> contexts;
  for (int i = 0; i < kSetups; ++i) {
    const Clock::time_point start = Clock::now();
    contexts = make_contexts(options.seed);
    setups.push_back(seconds_since(start));
  }

  if (options.trace) {
    init_per_layer(report.metrics);
    traced(options, contexts, report);
    return report;
  }

  reset_peak_rss();
  std::vector<double> seconds;
  double cut_mean = -1.0;
  const Clock::time_point start = Clock::now();
  for (int rep = 0;; ++rep) {
    const SweepPass pass = sweep_once(contexts, options, report.tally);
    seconds.push_back(pass.seconds);
    // The sweep is deterministic for its seed: every repetition must
    // reproduce the first one's cells.
    if (rep == 0) {
      cut_mean = pass.cut_mean;
    } else {
      report.tally.check(pass.cut_mean == cut_mean
                             ? ""
                             : "sweep repetition changed the cells");
    }
    if (rep + 1 >= kMinSweeps &&
        seconds_since(start) + median(seconds) > options.seconds) {
      break;
    }
  }
  const hg::Weight ibm01 = pinned_cut(contexts[0], report.tally);
  const hg::Weight ibm03 = pinned_cut(contexts[1], report.tally);
  const double rss = peak_rss_mb();

  init_end_to_end(report.metrics);
  Metrics& m = report.metrics;
  m.set("setup_s", median(setups), "s");
  m.set("solve_s", median(seconds), "s");
  m.set("cut_mean", cut_mean, "count");
  m.set("peak_rss_mb", rss, "MB");
  m.set("ok_frac", report.tally.ok_frac(), "frac");

  Metrics& d = report.detail;
  d.set("setup_s", median(setups), "s");
  d.set("sweep_s", median(seconds), "s");
  d.set("sweep_cut_mean", cut_mean, "count");
  d.set("cut_ibm01_ms8", static_cast<double>(ibm01), "count");
  d.set("cut_ibm03_ms8", static_cast<double>(ibm03), "count");
  d.set("peak_rss_mb", rss, "MB");
  d.set("fail_frac", 1.0 - report.tally.ok_frac(), "frac");
  d.set("sweeps", static_cast<double>(seconds.size()), "count");
  return report;
}

}  // namespace fpbench
