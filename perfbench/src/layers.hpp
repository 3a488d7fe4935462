#pragma once
// Layer driver: replays one serial start of
// ml::MultilevelPartitioner::run (threads == 1, no V-cycles, no deadline)
// from the outside, through the same public calls in the same order and
// on the same RNG stream, with a span around every call:
//
//   ml::heavy_edge_matching + ml::contract per level, down to
//   coarsest_size or stagnation;
//   part::random_feasible_assignment + FmBipartitioner::refine per coarse
//   start;
//   projection by PartitionState::assign, then FmBipartitioner::refine,
//   per level on the way up.
//
// Its cut therefore equals the real pipeline's for the same seed as long
// as the pipeline keeps that shape; both cuts are reported side by side.

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "ml/multilevel.hpp"
#include "spans.hpp"
#include "util/rng.hpp"

namespace fpbench {

namespace ml = fixedpart::ml;

/// One graph of the hierarchy (index 0 = the input graph).
struct LevelRow {
  int runs = 0;  ///< driver runs whose hierarchy reached this level
  std::int64_t vertices = 0;  ///< summed over runs
  std::int64_t pins = 0;      ///< summed over runs
  double coarsen_s = 0.0;  ///< matching + contraction of this graph
  double refine_s = 0.0;   ///< FM on this graph (coarse starts at the coarsest)
  std::int64_t moves = 0;
};

/// Per-layer totals; add() sums runs (the sweep replays several instances).
struct LayerTotals {
  int runs = 0;
  double wall_s = 0.0;       ///< driver wall time
  double covered_s = 0.0;    ///< self time of the layer spans under the root
  double match_s = 0.0;
  double contract_s = 0.0;
  double project_s = 0.0;
  double initial_s = 0.0;    ///< coarse starts: assignment + FM
  double refine_s = 0.0;     ///< FM on the way up
  std::int64_t levels = 0;   ///< graphs in the hierarchy
  std::int64_t coarsest_vertices = 0;
  std::int64_t stalled_levels = 0;  ///< contractions shrinking < 10%
  std::int64_t moves = 0;
  std::int64_t passes = 0;
  std::int64_t moves_performed = 0;  ///< sum of PassRecord::moves_performed
  std::int64_t moves_kept = 0;       ///< sum of PassRecord::best_prefix
  std::int64_t refine_moves = 0;     ///< moves of the on-the-way-up FM
  std::vector<LevelRow> level_rows;

  void add(const LayerTotals& other);
};

struct DriverRun {
  hg::Weight cut = 0;
  std::vector<hg::PartitionId> assignment;
  LayerTotals totals;
};

DriverRun run_layer_driver(const hg::Hypergraph& graph,
                           const hg::FixedAssignment& fixed,
                           const part::BalanceConstraint& balance,
                           const ml::MultilevelConfig& config,
                           fixedpart::util::Rng& rng, SpanRecorder& spans);

/// Adds the per-layer metrics BENCHMARK.json lists for the ml, part and
/// level layers (levels past the hierarchy read 0).
void put_layer_metrics(const LayerTotals& totals, Metrics& metrics);

/// Per-level rows reported, finest first.
constexpr int kReportedLevels = 12;

}  // namespace fpbench
