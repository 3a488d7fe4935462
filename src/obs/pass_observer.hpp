#pragma once
// Profiling hook interface for the FM engines (docs/OBSERVABILITY.md).
//
// The paper's Table II/III evidence is *pass-level*: moves per pass, the
// best prefix actually kept, where in the pass the gains concentrate.
// Instead of baking those statistics into src/part/fm.cpp, the engine
// invokes an optional PassObserver per pass begin / move / pass end, and
// the statistics become a thin observer (src/experiments/
// pass_experiments.cpp). Set FmConfig::observer / KwayConfig::observer to
// attach one; the default (nullptr) costs a single branch per event.
//
// Events fire on the refinement hot path — implementations must be cheap
// and must NOT mutate the partition state or re-enter the refiner.
// Callbacks always see the physical move/rollback sequence the engine
// actually performed, so an observer can reproduce PassRecord-derived
// statistics bit-identically (tests/test_obs.cpp holds that differential).

#include <cstdint>

#include "hg/types.hpp"

namespace fixedpart::obs {

/// Pass start, after bucket population and before the first move.
struct PassBegin {
  int pass = 0;  ///< 0-based pass index within this refine() call
  std::int32_t movable = 0;  ///< movable (non-fixed) vertices
  /// Movable vertices touching a cut net at pass start (-1 when the
  /// engine does not track a boundary, e.g. k-way).
  std::int32_t boundary_vertices = -1;
  hg::Weight cut = 0;  ///< cut at pass start
};

/// One accepted move, immediately after the engine applied it.
struct MoveEvent {
  int pass = 0;
  std::int32_t move_index = 0;  ///< 0-based within the pass
  hg::VertexId vertex = hg::kNoVertex;
  hg::PartitionId from = hg::kNoPartition;
  hg::PartitionId to = hg::kNoPartition;
  hg::Weight gain = 0;  ///< cut delta of this move (positive improves)
  hg::Weight cut = 0;   ///< cut after the move
};

/// Pass end, after rollback to the best prefix.
struct PassEnd {
  int pass = 0;
  std::int32_t moves_performed = 0;  ///< moves made before pass end/cutoff
  std::int32_t best_prefix = 0;      ///< moves kept after rollback
  hg::Weight cut_before = 0;         ///< cut at pass start
  hg::Weight cut_best = 0;           ///< cut after rollback
};

/// Callback interface the FM engines drive. Default implementations are
/// no-ops so observers override only what they need.
class PassObserver {
 public:
  virtual ~PassObserver() = default;

  virtual void on_pass_begin(const PassBegin&) {}
  virtual void on_move(const MoveEvent&) {}
  virtual void on_pass_end(const PassEnd&) {}
};

}  // namespace fixedpart::obs
