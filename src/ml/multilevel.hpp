#pragma once
// The multilevel CLIP-FM bipartitioner used throughout the paper's
// Section II experiments: heavy-edge-matching coarsening, randomized
// feasible initial solutions at the coarsest level, and CLIP-FM (or LIFO
// FM) refinement on the way back up. No V-cycling — the paper found it a
// net loss for the cost/runtime profile and disabled it; so do we.

#include <vector>

#include "hg/fixed.hpp"
#include "hg/hypergraph.hpp"
#include "ml/coarsen.hpp"
#include "part/balance.hpp"
#include "part/fm.hpp"
#include "part/partition.hpp"
#include "util/deadline.hpp"
#include "util/rng.hpp"

namespace fixedpart::ml {

using hg::PartitionId;

struct MultilevelConfig {
  /// Multilevel refinement has cheap restarts (multistart + many levels),
  /// so it trades the tail of each pass for throughput: stop a pass after
  /// a quarter of the movable vertices move without improving the cut.
  /// Flat FmConfig keeps the paper's full-pass default.
  MultilevelConfig() { refine.stall_fraction = 0.25; }

  /// Refinement engine settings applied at every level (policy, cutoff).
  part::FmConfig refine;
  /// Stop coarsening at (movable) vertex counts at or below this.
  VertexId coarsest_size = 160;
  /// Stop coarsening when a level shrinks by less than this factor.
  double stagnation_ratio = 0.95;
  MatchingConfig matching;
  /// Independent random initial solutions tried at the coarsest level
  /// (refined; best kept). Cheap because the coarsest graph is tiny.
  int coarse_starts = 4;
  /// V-cycles after the initial descent: re-coarsen with solution-
  /// preserving matching, then refine back up. The paper disables this
  /// ("a net loss in terms of overall cost-runtime profile"); it is
  /// implemented so the ablation bench can check that claim. 0 = off.
  int vcycles = 0;
  /// Optional wall-clock budget (not owned; must outlive run(); nullptr =
  /// unlimited). Degradation contract (docs/ROBUSTNESS.md): on expiry,
  /// coarsening stops descending, at most one coarse start runs, every
  /// projection to a finer level still happens (projection preserves
  /// balance feasibility) but refinement is skipped, and the result
  /// carries `truncated = true`. run() therefore always returns a
  /// complete, valid assignment — the best found within the budget.
  const util::Deadline* deadline = nullptr;
  /// Strict feasibility pre-flight (part/feasibility.hpp): when set, run()
  /// throws util::InfeasibleError if the fixed assignment provably cannot
  /// satisfy the balance constraint. Off by default because the paper's
  /// rand-regime experiments deliberately run overconstrained instances
  /// best-effort and report the raw cost.
  bool preflight = false;
};

struct MultilevelResult {
  Weight cut = 0;
  std::vector<PartitionId> assignment;
  int levels = 1;           ///< number of graphs in the hierarchy
  double seconds = 0.0;     ///< wall-clock for this start
  std::int64_t total_moves = 0;
  std::int32_t total_passes = 0;
  /// The deadline expired before the pipeline completed; `assignment` is
  /// still complete and valid — the best found within the budget.
  bool truncated = false;
};

class MultilevelPartitioner {
 public:
  /// References must outlive the partitioner. Bipartitioning only
  /// (num_parts == 2 in fixed/balance).
  MultilevelPartitioner(const hg::Hypergraph& graph,
                        const hg::FixedAssignment& fixed,
                        const part::BalanceConstraint& balance);

  /// One independent start: coarsen, solve coarsest, uncoarsen+refine.
  MultilevelResult run(util::Rng& rng, const MultilevelConfig& config) const;

  /// Best of `starts` independent runs (the paper's multistart protocol);
  /// `seconds` accumulates over all starts.
  MultilevelResult best_of(int starts, util::Rng& rng,
                           const MultilevelConfig& config) const;

  /// Parallel multistart: each start gets an independent RNG stream forked
  /// from `seed` before any work begins, so the result is deterministic
  /// for a given seed regardless of `threads`. Starts run on workers
  /// borrowed from util::ThreadPool::shared() (at most `threads` at once,
  /// the caller included) under the caller's trace context, so their
  /// spans land in the caller's buffer. `seconds` is wall-clock.
  MultilevelResult best_of_parallel(int starts, int threads,
                                    std::uint64_t seed,
                                    const MultilevelConfig& config) const;

 private:
  const hg::Hypergraph* graph_;
  const hg::FixedAssignment* fixed_;
  const part::BalanceConstraint* balance_;
};

}  // namespace fixedpart::ml
