#pragma once
// Flat Fiduccia-Mattheyses bipartitioning refinement with fixed vertices,
// the engine behind the paper's Section III studies:
//
//  * LIFO FM: bucket keys are true move gains, head insertion (classic).
//  * CLIP FM (Dutt-Deng cluster-oriented selection, used by the paper's
//    multilevel engine): all bucket keys start at zero and only gain
//    *updates* reorder the buckets, so vertices adjacent to just-moved
//    vertices float to the top and clusters are peeled off together.
//  * Pass-length cutoff (Table III): after the first pass, a pass may be
//    cut off after a fraction of the movable vertices has been moved,
//    which the paper shows is safe once enough terminals are fixed.
//  * Stall exit (generalizing the Table III observation): a pass may also
//    end after a configurable streak of non-improving moves, trimming the
//    "wasted" tail adaptively instead of at a fixed move count.
//  * Per-pass statistics (Table II): moves performed, best-prefix length
//    (moves actually kept — the rest are "wasted"), cut trajectory.
//
// A pass moves each movable vertex at most once (highest-feasible-gain
// first), then rolls back to the best prefix of the move sequence. Passes
// repeat until one fails to improve the cut.
//
// The hot path is boundary-driven (docs/PERF.md): only vertices touching a
// cut net enter the gain buckets eagerly; interior vertices sit in a static
// per-side structure keyed by their constant gain (-interior degree) and
// are activated lazily when a move first cuts one of their nets. Insertion
// phases and activation points are arranged so that boundary-driven passes
// replay *bit-identical* trajectories to full bucket population.

#include <cstdint>
#include <vector>

#include "hg/fixed.hpp"
#include "hg/hypergraph.hpp"
#include "obs/pass_observer.hpp"
#include "part/balance.hpp"
#include "part/gain_buckets.hpp"
#include "part/partition.hpp"
#include "util/deadline.hpp"
#include "util/rng.hpp"

namespace fixedpart::part {

enum class SelectionPolicy : std::uint8_t {
  kLifo,  ///< classic FM: buckets keyed by true gain, ties last-in first-out
  kFifo,  ///< buckets keyed by true gain, ties first-in first-out
  kClip,  ///< CLIP: keys seeded at zero; only deltas order the buckets
};

struct FmConfig {
  SelectionPolicy policy = SelectionPolicy::kLifo;
  /// Fraction of movable vertices a pass may move before it is cut off
  /// (1.0 = full pass). Applied starting from the second pass unless
  /// cutoff_first_pass is set, mirroring the paper's Table III protocol
  /// ("cutting off all passes (after the first) at the given move limit").
  double pass_cutoff = 1.0;
  bool cutoff_first_pass = false;
  /// Early pass exit generalizing the Table III cutoff: a pass also ends
  /// once max(stall_min, stall_fraction * movable) consecutive moves fail
  /// to improve on the pass-best cut. Unlike pass_cutoff this adapts to
  /// where improvement actually stops (Sec. III: gains concentrate at the
  /// start of a pass). >= 1.0 disables (the paper's full-pass protocol);
  /// the multilevel engine enables it by default.
  double stall_fraction = 1.0;
  /// Floor of the stall window, so small instances still run full passes.
  std::int32_t stall_min = 64;
  /// Hard cap on passes; refinement normally stops earlier, at the first
  /// non-improving pass.
  int max_passes = 64;
  /// Record per-pass statistics (cheap; on by default).
  bool collect_pass_records = true;
  /// Boundary-driven bucket population (the default). Produces the same
  /// moves, cuts and pass counts as full population (boundary = false,
  /// the reference implementation kept for differential testing) while
  /// skipping gain recomputation for interior vertices. CLIP ignores this
  /// flag for population (its zero-seeded keys make insertion order itself
  /// the selection signal, which requires every vertex) but still uses the
  /// boundary set to compute initial gains cheaply.
  bool boundary = true;
  /// Optional wall-clock budget (not owned; must outlive the refinement;
  /// nullptr = unlimited). Checked between moves and between passes: on
  /// expiry the current pass ends early, rolls back to its best prefix as
  /// usual, and refine() returns with `truncated` set — the state is
  /// always the best solution seen, never a mid-move snapshot.
  const util::Deadline* deadline = nullptr;
  /// Optional profiling hook (not owned; must outlive the refinement;
  /// nullptr = none). Invoked per pass begin / accepted move / pass end
  /// with the physical sequence the engine performed — see
  /// obs::PassObserver.
  obs::PassObserver* observer = nullptr;
  /// Debug mode: after every move, verify that each bucketed vertex's key
  /// equals its true gain (LIFO/FIFO; CLIP keys are deltas and are checked
  /// against gain change instead), and that parked interior vertices'
  /// static keys equal their true gains. O(movable * degree) per move —
  /// tests only. Throws std::logic_error on the first violation.
  bool check_invariants = false;
};

struct PassRecord {
  std::int32_t moves_performed = 0;  ///< moves made before pass end/cutoff
  std::int32_t best_prefix = 0;      ///< moves kept after rollback
  std::int32_t movable = 0;          ///< movable (non-fixed) vertex count
  std::int32_t boundary_vertices = 0;  ///< movables on the cut at pass start
  Weight cut_before = 0;
  Weight cut_best = 0;
  /// Fraction of performed moves that were undone ("wasted", Sec. III).
  double wasted_fraction() const {
    return moves_performed == 0
               ? 0.0
               : 1.0 - static_cast<double>(best_prefix) /
                           static_cast<double>(moves_performed);
  }
};

struct FmResult {
  Weight initial_cut = 0;
  Weight final_cut = 0;
  std::int32_t passes = 0;
  std::int64_t total_moves = 0;
  /// The deadline expired before refinement converged; the state holds the
  /// best solution found so far (degraded mode, not an error).
  bool truncated = false;
  std::vector<PassRecord> pass_records;
};

/// Reusable refinement workspace: the gain buckets, the interior-vertex
/// side structure, the per-pass insertion order, the CLIP gain cache and
/// the move log. Setting these up per level used to dominate multilevel
/// refinement setup, so MultilevelPartitioner::run owns one scratch and
/// threads it through every level's FmBipartitioner: storage grows to the
/// largest level of the hierarchy once and is reused across levels, passes
/// and V-cycles. A scratch may serve any number of refiners sequentially
/// but is exclusive to one refine() at a time — use one per thread.
class FmScratch {
 public:
  FmScratch() = default;
  FmScratch(const FmScratch&) = delete;
  FmScratch& operator=(const FmScratch&) = delete;

 private:
  friend class FmBipartitioner;
  struct MoveLog {
    VertexId vertex;
    PartitionId from;
  };

  /// Grow-only sizing for a graph with `vertices` vertices and dynamic
  /// keys within [-max_key, max_key] (interior keys within [-interior_key,
  /// 0]). Clears all four bucket structures.
  void reserve(VertexId vertices, Weight max_key, Weight interior_key);

  GainBuckets buckets_[2];   ///< boundary/activated vertices, live keys
  GainBuckets interior_[2];  ///< parked interior vertices, static keys
  std::vector<VertexId> order_;       ///< per-pass random insertion order
  std::vector<Weight> gain_scratch_;  ///< CLIP: initial gains for sorting
  std::vector<MoveLog> move_log_;
};

class FmBipartitioner {
 public:
  /// All references must outlive the partitioner. num_parts must be 2 in
  /// `fixed` and `balance`. When `scratch` is non-null its storage is used
  /// (and grown) instead of partitioner-owned buffers; pass the same
  /// scratch to successive refiners to amortize setup across a hierarchy.
  FmBipartitioner(const hg::Hypergraph& graph, const hg::FixedAssignment& fixed,
                  const BalanceConstraint& balance,
                  FmScratch* scratch = nullptr);

  /// Iteratively improves `state` (which must be a complete assignment
  /// consistent with the fixed vertices). Deterministic given `rng` state.
  FmResult refine(PartitionState& state, util::Rng& rng,
                  const FmConfig& config);

  /// Vertices free to move between both sides.
  VertexId num_movable() const {
    return static_cast<VertexId>(movable_.size());
  }

 private:
  /// One FM pass; returns the improvement (>= 0) kept after rollback.
  Weight run_pass(PartitionState& state, util::Rng& rng,
                  const FmConfig& config, int pass_index, PassRecord& record);

  Weight true_gain(const PartitionState& state, VertexId v) const;
  /// Policy-aware re-keying: LIFO/CLIP move updated vertices to the bucket
  /// head, FIFO to the tail.
  void bucket_adjust(PartitionId side, VertexId u, Weight delta);
  /// Applies a gain delta to u on `side`: adjusts it in the live buckets,
  /// or — if u is parked as interior — activates it. Activation links u
  /// exactly where a full-population pass's adjust would have re-linked
  /// it, which is what keeps the two population modes bit-identical.
  void touch(PartitionId side, VertexId u, Weight delta);
  void apply_gain_updates(PartitionState& state, VertexId v, PartitionId from,
                          PartitionId to);
  void verify_invariants(const PartitionState& state,
                         const FmConfig& config) const;

  const hg::Hypergraph* graph_;
  const hg::FixedAssignment* fixed_;
  const BalanceConstraint* balance_;
  std::vector<VertexId> movable_;
  /// Gain of v while it touches no cut net: -(weighted degree over nets
  /// with >= 2 pins). Constant per graph; lets pass setup skip the pin
  /// scan for every interior vertex.
  std::vector<Weight> interior_key_;
  SelectionPolicy policy_ = SelectionPolicy::kLifo;  ///< of the active pass
  bool boundary_pass_ = false;  ///< active pass populates boundary-only
  FmScratch owned_scratch_;     ///< used when no shared scratch is given
  FmScratch* scratch_;
};

}  // namespace fixedpart::part
