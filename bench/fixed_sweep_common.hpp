#pragma once
// Shared driver for the Fig. 1 / Fig. 2 binaries: runs the Section II
// fixed-vertex sweep on one IBMxx-like circuit and prints the six panels
// (good/rand x raw cut / normalized cut / CPU time) as series tables.
//
// The sweep runs on svc::PartitionServer through svc::run_batch (one job
// per regime x percentage x trial x run), so the paper reproductions are
// supervised and resumable: --journal=FILE checkpoints every finished
// job, --resume skips them on the next invocation, --workers=N
// parallelizes (bit-identical results for a given --seed),
// --budget=SECONDS bounds each job, and Ctrl-C drains gracefully —
// in-flight jobs finish and are checkpointed before exit.

#include <atomic>
#include <csignal>
#include <fstream>
#include <iostream>

#include "bench/common.hpp"
#include "experiments/fixed_sweep.hpp"
#include "util/errors.hpp"
#include "util/table.hpp"

namespace fixedpart::bench {

inline util::Table series_table(const exp::SweepResult& result,
                                const exp::SweepSeries& series) {
  using util::Table;
  using util::fmt;
  std::vector<std::string> header = {"%fixed"};
  for (int s : result.starts) {
    header.push_back("cut@" + std::to_string(s));
  }
  for (int s : result.starts) {
    header.push_back("norm@" + std::to_string(s));
  }
  for (int s : result.starts) {
    header.push_back("sec@" + std::to_string(s));
  }
  Table table(header);
  for (std::size_t pi = 0; pi < result.percentages.size(); ++pi) {
    std::vector<std::string> row = {fmt(result.percentages[pi], 1)};
    for (std::size_t si = 0; si < result.starts.size(); ++si) {
      row.push_back(fmt(series.cells[pi][si].avg_best_cut, 1));
    }
    for (std::size_t si = 0; si < result.starts.size(); ++si) {
      row.push_back(fmt(series.cells[pi][si].normalized, 3));
    }
    for (std::size_t si = 0; si < result.starts.size(); ++si) {
      row.push_back(fmt(series.cells[pi][si].avg_seconds, 3));
    }
    table.add_row(std::move(row));
  }
  return table;
}

inline void print_series(const std::string& title, const util::Table& table) {
  std::cout << "-- " << title << " --\n";
  table.print(std::cout);
  std::cout << '\n';
}

/// Optional CSV dump next to the printed tables (for plotting the
/// figures): --csv=prefix writes prefix_good.csv and prefix_rand.csv.
inline void maybe_write_csv(const util::Cli& cli, const util::Table& good,
                            const util::Table& rand) {
  const auto prefix = cli.get("csv");
  if (!prefix) return;
  for (const auto& [suffix, table] :
       {std::pair<const char*, const util::Table*>{"_good.csv", &good},
        {"_rand.csv", &rand}}) {
    const std::string path = *prefix + suffix;
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path);
    out << table->to_csv();
    std::cout << "wrote " << path << '\n';
  }
}

/// Set by SIGINT/SIGTERM; the engine finishes in-flight jobs, checkpoints
/// them, and the driver exits through the normal reporting path.
inline std::atomic<bool> g_sweep_drain{false};

inline void sweep_drain_handler(int) {
  g_sweep_drain.store(true, std::memory_order_release);
}

inline int run_sweep_figure(const std::string& figure, int circuit_index,
                            int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const BenchEnv env = bench_env(cli);
  const auto spec = gen::ibm_like_spec(circuit_index, env.scale);
  print_header(figure + " fixed-vertex sweep on " + spec.name + "-like",
               env);

  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 20260707));
  util::Rng rng(static_cast<std::uint64_t>(seed));
  const exp::InstanceContext ctx =
      exp::make_context(spec, env.ref_starts, 2.0, rng);
  std::cout << "instance: " << ctx.circuit.graph.num_vertices()
            << " vertices, " << ctx.circuit.graph.num_nets()
            << " nets; free-instance reference cut = " << ctx.good_cut
            << "\n\n";

  exp::SweepConfig config;
  config.percentages = sweep_percentages(env.scale);
  config.trials = env.trials;
  config.ml = exp::default_ml_config();

  exp::SupervisedSweepOptions options;
  options.workers = static_cast<int>(cli.get_int("workers", 1));
  options.seed = seed;
  options.journal_path = cli.get_or("journal", "");
  options.resume = cli.get_bool("resume", false);
  options.job_budget_seconds = cli.get_double("budget", 0.0);
  options.drain = &g_sweep_drain;
  if (options.resume && options.journal_path.empty()) {
    throw util::UsageError("--resume requires --journal=FILE");
  }
  std::signal(SIGINT, sweep_drain_handler);
  std::signal(SIGTERM, sweep_drain_handler);

  const exp::SupervisedSweepRun run =
      exp::run_supervised_sweep(ctx, config, options);
  std::cout << "jobs: " << run.report.summary() << "\n\n";
  if (!run.result.has_value()) {
    std::cout << "sweep incomplete; "
              << (options.journal_path.empty()
                      ? "rerun with --journal=FILE to make it resumable\n"
                      : "rerun with --journal=" + options.journal_path +
                            " --resume to finish\n");
    return run.report.exit_code();
  }
  const exp::SweepResult& result = *run.result;

  const util::Table good_table = series_table(result, result.good);
  const util::Table rand_table = series_table(result, result.rand);
  print_series("good regime (fixed sides match the reference solution)",
               good_table);
  print_series("rand regime (fixed sides drawn at random)", rand_table);
  maybe_write_csv(cli, good_table, rand_table);

  std::cout << "Expected shapes (paper): rand raw cut rises steeply with\n"
               "%fixed; normalized curves flatten and the 1-start/8-start\n"
               "gap vanishes as %fixed grows; CPU time falls with %fixed.\n";
  return 0;
}

}  // namespace fixedpart::bench
