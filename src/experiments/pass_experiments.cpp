#include "experiments/pass_experiments.hpp"

#include <stdexcept>

#include "gen/regimes.hpp"
#include "obs/pass_observer.hpp"
#include "part/fm.hpp"
#include "part/initial.hpp"
#include "part/partition.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace fixedpart::exp {

namespace {

hg::FixedAssignment good_instance(const InstanceContext& context, double pct,
                                  util::Rng& rng) {
  gen::FixedVertexSeries series(context.circuit.graph, 2, rng);
  return series.good_regime(pct, context.good_reference);
}

/// Table II statistics as a thin observer: per-pass aggregation happens
/// on the engine's pass-end events instead of post-processing
/// FmResult::pass_records. tests/test_obs.cpp checks it bit-identical
/// against a pass_records aggregation of the same runs.
class TableTwoCollector final : public obs::PassObserver {
 public:
  TableTwoCollector(util::RunningStat& pct_moved,
                    util::RunningStat& pct_performed,
                    util::Histogram& prefix_positions)
      : pct_moved_(pct_moved),
        pct_performed_(pct_performed),
        prefix_positions_(prefix_positions) {}

  void on_pass_begin(const obs::PassBegin& begin) override {
    movable_ = begin.movable;
  }

  void on_pass_end(const obs::PassEnd& end) override {
    // Skip the first pass (the paper's protocol) and degenerate passes.
    if (end.pass < 1 || movable_ == 0) return;
    pct_moved_.add(100.0 * static_cast<double>(end.best_prefix) /
                   static_cast<double>(movable_));
    pct_performed_.add(100.0 * static_cast<double>(end.moves_performed) /
                       static_cast<double>(movable_));
    if (end.moves_performed > 0 && end.best_prefix > 0) {
      prefix_positions_.add(static_cast<double>(end.best_prefix) /
                            static_cast<double>(end.moves_performed));
    }
  }

 private:
  util::RunningStat& pct_moved_;
  util::RunningStat& pct_performed_;
  util::Histogram& prefix_positions_;
  std::int32_t movable_ = 0;
};

}  // namespace

std::vector<PassStatsRow> run_pass_stats(const InstanceContext& context,
                                         const PassStatsConfig& config,
                                         util::Rng& rng) {
  if (config.runs < 1) throw std::invalid_argument("pass_stats: runs < 1");
  std::vector<PassStatsRow> rows;
  for (double pct : config.percentages) {
    const hg::FixedAssignment fixed = good_instance(context, pct, rng);
    part::FmBipartitioner engine(context.circuit.graph, fixed,
                                 context.balance);
    part::FmConfig fm;
    fm.policy = part::SelectionPolicy::kLifo;

    util::RunningStat passes;
    util::RunningStat pct_moved;
    util::RunningStat pct_performed;
    util::Histogram prefix_positions(0.0, 1.0, 10);
    // The engine streams pass events into the collector and does not
    // retain pass records at all.
    TableTwoCollector collector(pct_moved, pct_performed, prefix_positions);
    fm.observer = &collector;
    fm.collect_pass_records = false;
    part::PartitionState state(context.circuit.graph, 2);
    for (int run = 0; run < config.runs; ++run) {
      part::random_feasible_assignment(state, fixed, context.balance, rng);
      const auto result = engine.refine(state, rng, fm);
      passes.add(static_cast<double>(result.passes));
    }
    PassStatsRow row;
    row.pct_fixed = pct;
    row.avg_passes = passes.mean();
    row.avg_pct_moved = pct_moved.empty() ? 0.0 : pct_moved.mean();
    row.avg_pct_performed =
        pct_performed.empty() ? 0.0 : pct_performed.mean();
    for (std::size_t d = 0; d < 10; ++d) {
      row.prefix_position_deciles[d] =
          prefix_positions.total() == 0
              ? 0.0
              : 100.0 * static_cast<double>(prefix_positions.bin_count(d)) /
                    static_cast<double>(prefix_positions.total());
    }
    rows.push_back(row);
  }
  return rows;
}

CutoffResult run_cutoff_experiment(const InstanceContext& context,
                                   const CutoffConfig& config,
                                   util::Rng& rng) {
  if (config.runs < 1) throw std::invalid_argument("cutoff: runs < 1");
  CutoffResult result;
  result.percentages = config.percentages;
  result.cutoffs = config.cutoffs;

  for (double pct : config.percentages) {
    const hg::FixedAssignment fixed = good_instance(context, pct, rng);
    part::FmBipartitioner fm_engine(context.circuit.graph, fixed,
                                    context.balance);
    std::vector<CutoffCell> row;
    for (double cutoff : config.cutoffs) {
      part::FmConfig fm;
      fm.policy = part::SelectionPolicy::kLifo;
      fm.pass_cutoff = cutoff;
      fm.collect_pass_records = false;  // only final cut and time are used
      util::RunningStat cut;
      util::RunningStat seconds;
      part::PartitionState state(context.circuit.graph, 2);
      for (int run = 0; run < config.runs; ++run) {
        // Same initial-solution stream for every cutoff column: a per-run
        // RNG from a deterministic seed keeps the columns paired.
        util::Rng run_rng(0xC0F0FFULL * 2654435761ULL +
                          static_cast<std::uint64_t>(run) * 0x9e3779b9ULL +
                          static_cast<std::uint64_t>(pct * 1000.0));
        part::random_feasible_assignment(state, fixed, context.balance,
                                         run_rng);
        util::Timer timer;
        const auto fm_result = fm_engine.refine(state, run_rng, fm);
        seconds.add(timer.seconds());
        cut.add(static_cast<double>(fm_result.final_cut));
      }
      row.push_back({cut.mean(), seconds.mean()});
    }
    result.cells.push_back(std::move(row));
  }
  (void)rng;
  return result;
}

}  // namespace fixedpart::exp
