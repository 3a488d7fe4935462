#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "experiments/context.hpp"
#include "experiments/derive_report.hpp"
#include "experiments/fixed_sweep.hpp"
#include "experiments/pass_experiments.hpp"
#include "util/rng.hpp"

namespace fixedpart::exp {
namespace {

gen::CircuitSpec tiny_spec() {
  gen::CircuitSpec spec;
  spec.name = "tiny";
  spec.num_cells = 300;
  spec.num_nets = 340;
  spec.num_pads = 12;
  spec.num_macros = 1;
  spec.macro_area_pct = 2.0;
  spec.seed = 77;
  return spec;
}

TEST(Context, GoodReferenceIsCompleteAndScored) {
  util::Rng rng(1);
  const InstanceContext ctx = make_context(tiny_spec(), 2, 2.0, rng);
  EXPECT_EQ(ctx.good_reference.size(),
            static_cast<std::size_t>(ctx.circuit.graph.num_vertices()));
  EXPECT_GT(ctx.good_cut, 0);
  for (const hg::PartitionId p : ctx.good_reference) {
    EXPECT_TRUE(p == 0 || p == 1);
  }
}

TEST(FixedSweep, ShapesAndInvariants) {
  util::Rng rng(2);
  const InstanceContext ctx = make_context(tiny_spec(), 2, 2.0, rng);
  SweepConfig config;
  config.percentages = {0.0, 10.0, 30.0};
  config.starts = {1, 2};
  config.trials = 2;
  SupervisedSweepOptions options;
  options.seed = 2;
  const SupervisedSweepRun run = run_supervised_sweep(ctx, config, options);
  ASSERT_TRUE(run.result.has_value()) << run.report.summary();
  const SweepResult& result = *run.result;

  ASSERT_EQ(result.good.cells.size(), 3u);
  ASSERT_EQ(result.rand.cells.size(), 3u);
  for (std::size_t pi = 0; pi < 3; ++pi) {
    ASSERT_EQ(result.good.cells[pi].size(), 2u);
    for (const SweepCell& cell : result.good.cells[pi]) {
      EXPECT_GE(cell.avg_best_cut, 0.0);
      EXPECT_GE(cell.avg_seconds, 0.0);
      EXPECT_GT(cell.normalized, 0.0);
    }
    // More starts never hurt the mean best cut (best-of-prefix).
    EXPECT_LE(result.good.cells[pi][1].avg_best_cut,
              result.good.cells[pi][0].avg_best_cut);
    EXPECT_LE(result.rand.cells[pi][1].avg_best_cut,
              result.rand.cells[pi][0].avg_best_cut);
    // Normalizers: best_seen is a lower bound on every average.
    EXPECT_LE(static_cast<double>(result.rand.best_seen[pi]),
              result.rand.cells[pi][0].avg_best_cut + 1e-9);
    // rand normalized >= 1 by construction.
    EXPECT_GE(result.rand.cells[pi][0].normalized, 1.0 - 1e-9);
  }
  // Raw rand cost grows with the fixed percentage (the paper's headline
  // observation); compare 0% vs 30%.
  EXPECT_LT(result.rand.cells[0][1].avg_best_cut,
            result.rand.cells[2][1].avg_best_cut);
}

TEST(FixedSweep, Validation) {
  util::Rng rng(3);
  const InstanceContext ctx = make_context(tiny_spec(), 1, 2.0, rng);
  SweepConfig config;
  config.trials = 0;
  EXPECT_THROW(run_supervised_sweep(ctx, config, {}), std::invalid_argument);
  config.trials = 1;
  config.starts = {};
  EXPECT_THROW(run_supervised_sweep(ctx, config, {}), std::invalid_argument);
}

// A resumed sweep whose checkpoint already holds every job runs nothing
// and rebuilds the same table from the journal alone.
TEST(FixedSweep, ResumeRunsNothingAndMatches) {
  util::Rng rng(6);
  const InstanceContext ctx = make_context(tiny_spec(), 2, 2.0, rng);
  SweepConfig config;
  config.percentages = {0.0, 20.0};
  config.starts = {1, 2};
  config.trials = 1;
  const std::size_t jobs = 2 * 2 * 1 * 2;  // regimes x % x trials x runs
  const std::string journal =
      (std::filesystem::temp_directory_path() /
       ("fp_sweep_resume_" + std::to_string(::getpid()) + ".jsonl"))
          .string();
  SupervisedSweepOptions options;
  options.workers = 2;
  options.seed = 6;
  options.journal_path = journal;
  const SupervisedSweepRun first = run_supervised_sweep(ctx, config, options);
  ASSERT_TRUE(first.result.has_value()) << first.report.summary();
  std::ifstream in(journal);
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) lines += !line.empty();
  EXPECT_EQ(lines, jobs);

  options.resume = true;
  const SupervisedSweepRun resumed =
      run_supervised_sweep(ctx, config, options);
  std::filesystem::remove(journal);
  EXPECT_EQ(resumed.report.resumed, static_cast<std::int64_t>(jobs));
  ASSERT_TRUE(resumed.result.has_value()) << resumed.report.summary();
  for (SweepSeries SweepResult::*series :
       {&SweepResult::good, &SweepResult::rand}) {
    const SweepSeries& a = (*first.result).*series;
    const SweepSeries& b = (*resumed.result).*series;
    EXPECT_EQ(a.best_seen, b.best_seen);
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t pi = 0; pi < a.cells.size(); ++pi) {
      ASSERT_EQ(a.cells[pi].size(), b.cells[pi].size());
      for (std::size_t s = 0; s < a.cells[pi].size(); ++s) {
        EXPECT_EQ(a.cells[pi][s].avg_best_cut, b.cells[pi][s].avg_best_cut);
        EXPECT_EQ(a.cells[pi][s].normalized, b.cells[pi][s].normalized);
        // The journal keeps each job's seconds to the microsecond.
        EXPECT_NEAR(a.cells[pi][s].avg_seconds, b.cells[pi][s].avg_seconds,
                    1e-5);
      }
    }
  }
}

TEST(PassStats, RowsPerPercentage) {
  util::Rng rng(4);
  const InstanceContext ctx = make_context(tiny_spec(), 1, 2.0, rng);
  PassStatsConfig config;
  config.percentages = {0.0, 20.0};
  config.runs = 3;
  const auto rows = run_pass_stats(ctx, config, rng);
  ASSERT_EQ(rows.size(), 2u);
  for (const PassStatsRow& row : rows) {
    EXPECT_GE(row.avg_passes, 1.0);
    EXPECT_GE(row.avg_pct_moved, 0.0);
    EXPECT_LE(row.avg_pct_moved, 100.0);
    EXPECT_LE(row.avg_pct_moved, row.avg_pct_performed + 1e-9);
  }
}

TEST(Cutoff, GridShape) {
  util::Rng rng(5);
  const InstanceContext ctx = make_context(tiny_spec(), 1, 2.0, rng);
  CutoffConfig config;
  config.percentages = {0.0, 20.0};
  config.cutoffs = {1.0, 0.10};
  config.runs = 3;
  const CutoffResult result = run_cutoff_experiment(ctx, config, rng);
  ASSERT_EQ(result.cells.size(), 2u);
  ASSERT_EQ(result.cells[0].size(), 2u);
  for (const auto& row : result.cells) {
    for (const auto& cell : row) {
      EXPECT_GT(cell.avg_cut, 0.0);
      EXPECT_GE(cell.avg_seconds, 0.0);
    }
  }
}

TEST(DeriveReport, EightRowsWithRentCrossCheck) {
  const auto circuit = gen::generate_circuit(tiny_spec());
  const auto rows = derive_report(circuit, 2.0);
  ASSERT_EQ(rows.size(), 8u);
  for (const DerivedRow& row : rows) {
    EXPECT_GT(row.cells, 0);
    EXPECT_GT(row.nets, 0);
    EXPECT_GE(row.pads, 0);
    EXPECT_LE(row.external_nets, row.nets);
    EXPECT_GT(row.rent_expected_terminals, 0.0);
  }
  // Sub-blocks (C/D) have proportionally more terminals than the full die.
  const double frac_a =
      static_cast<double>(rows[0].pads) /
      static_cast<double>(rows[0].cells + rows[0].pads);
  const double frac_d =
      static_cast<double>(rows[6].pads) /
      static_cast<double>(rows[6].cells + rows[6].pads);
  EXPECT_GT(frac_d, frac_a);
}

}  // namespace
}  // namespace fixedpart::exp
