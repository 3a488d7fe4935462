#pragma once
// Section III experiments on flat LIFO-FM pass behaviour.
//
// Table II: average number of passes per run and average percentage of
// nodes (net) moved per pass, excluding the first pass, over R runs from
// random initial solutions. "Moved" counts the best-prefix moves — the
// moves that survive the end-of-pass rollback; everything after the best
// prefix is undone and therefore wasted (the paper's framing: "any move
// undone in this process has essentially been wasted"). Percentages are
// relative to the movable (non-fixed) vertex count.
//
// Table III: effect of cutting off every pass after the first at a given
// fraction of the movable vertices: average final cut and average CPU
// seconds per run.
//
// Both use the good regime (terminals fixed consistently with the best
// known solution), matching the paper's construction where "all terminals
// are fixed in a good location".

#include <vector>

#include "experiments/context.hpp"
#include "util/rng.hpp"

namespace fixedpart::exp {

struct PassStatsConfig {
  std::vector<double> percentages = {0.0, 10.0, 20.0, 30.0};
  int runs = 50;
};

struct PassStatsRow {
  double pct_fixed = 0.0;
  double avg_passes = 0.0;
  /// Avg best-prefix length as % of movable vertices, passes 2..end.
  double avg_pct_moved = 0.0;
  /// Avg moves *performed* per pass (before rollback), passes 2..end, %.
  double avg_pct_performed = 0.0;
  /// Distribution of the best-prefix position within a pass (normalized
  /// to [0,1], deciles, passes 2..end): Sec. III claims the improvements
  /// concentrate near the beginning of the pass as terminals are added.
  std::vector<double> prefix_position_deciles = std::vector<double>(10, 0.0);
};

std::vector<PassStatsRow> run_pass_stats(const InstanceContext& context,
                                         const PassStatsConfig& config,
                                         util::Rng& rng);

struct CutoffConfig {
  std::vector<double> percentages = {0.0, 10.0, 20.0, 30.0};
  /// 1.0 = no cutoff (the paper's "100%" baseline column).
  std::vector<double> cutoffs = {1.0, 0.5, 0.25, 0.10, 0.05};
  int runs = 50;
};

struct CutoffCell {
  double avg_cut = 0.0;
  double avg_seconds = 0.0;
};

struct CutoffResult {
  std::vector<double> percentages;
  std::vector<double> cutoffs;
  /// cells[pct_index][cutoff_index]
  std::vector<std::vector<CutoffCell>> cells;
};

CutoffResult run_cutoff_experiment(const InstanceContext& context,
                                   const CutoffConfig& config,
                                   util::Rng& rng);

}  // namespace fixedpart::exp
