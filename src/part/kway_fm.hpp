#pragma once
// k-way FM refinement — the paper's Sec. V asks "whether multiway
// partitioning is as affected by fixed terminals"; this engine powers that
// extension experiment. It also honours OR-restricted vertices (fixed into
// a *set* of allowed partitions, Sec. IV) since a move target is only ever
// chosen from the vertex's allowed mask.
//
// Design: one bucket structure keyed by each vertex's best feasible move
// gain (target memoized). Neighbour gains are recomputed exactly after
// every move; stale tops are lazily re-keyed at pop time. Passes use
// best-prefix rollback like the bipartitioner.

#include <vector>

#include "hg/fixed.hpp"
#include "hg/hypergraph.hpp"
#include "part/balance.hpp"
#include "part/fm.hpp"
#include "part/gain_buckets.hpp"
#include "part/partition.hpp"
#include "util/rng.hpp"

namespace fixedpart::part {

struct KwayConfig {
  /// Pass move cutoff as a fraction of movable vertices (Table III
  /// heuristic generalized to k-way); applied after the first pass.
  double pass_cutoff = 1.0;
  int max_passes = 64;
  /// Optional profiling hook (not owned; must outlive the refinement;
  /// nullptr = none) — see obs::PassObserver. boundary_vertices is -1 in
  /// PassBegin (this engine tracks no boundary set).
  obs::PassObserver* observer = nullptr;
};

class KwayFmRefiner {
 public:
  KwayFmRefiner(const hg::Hypergraph& graph, const hg::FixedAssignment& fixed,
                const BalanceConstraint& balance);

  FmResult refine(PartitionState& state, util::Rng& rng,
                  const KwayConfig& config);

  VertexId num_movable() const {
    return static_cast<VertexId>(movable_.size());
  }

 private:
  struct BestMove {
    Weight gain = 0;
    PartitionId target = hg::kNoPartition;  ///< kNoPartition: no feasible move
  };
  struct MoveLog {
    VertexId vertex;
    PartitionId from;
  };

  Weight move_gain(const PartitionState& state, VertexId v,
                   PartitionId to) const;
  BestMove best_move(const PartitionState& state, VertexId v) const;
  bool feasible(const PartitionState& state, VertexId v, PartitionId to) const;
  Weight run_pass(PartitionState& state, util::Rng& rng,
                  const KwayConfig& config, int pass_index,
                  PassRecord& record);

  const hg::Hypergraph* graph_;
  const hg::FixedAssignment* fixed_;
  const BalanceConstraint* balance_;
  std::vector<VertexId> movable_;
  std::vector<std::uint8_t> locked_;
  std::vector<PartitionId> target_;  ///< memoized target per bucketed vertex
  GainBuckets buckets_;
  std::vector<MoveLog> move_log_;
  std::vector<VertexId> order_;
};

}  // namespace fixedpart::part
