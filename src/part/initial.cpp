#include "part/initial.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

namespace fixedpart::part {

namespace {

bool vertex_fits(const hg::Hypergraph& g, const BalanceConstraint& balance,
                 const PartitionState& state, VertexId v, PartitionId p) {
  return balance.fits(state.part_weight_vector(p), g.vertex_weights(v), p);
}

}  // namespace

bool random_feasible_assignment(PartitionState& state,
                                const hg::FixedAssignment& fixed,
                                const BalanceConstraint& balance,
                                util::Rng& rng, bool require_feasible) {
  const hg::Hypergraph& g = state.graph();
  const PartitionId k = state.num_parts();
  if (fixed.num_parts() != k || balance.num_parts() != k) {
    throw std::invalid_argument("random_feasible_assignment: part mismatch");
  }
  state.clear();

  // Singleton-fixed vertices have no choice; place them first so capacity
  // they consume is visible to everything else.
  std::vector<VertexId> choosable;
  choosable.reserve(static_cast<std::size_t>(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const PartitionId p = fixed.fixed_part(v);
    if (p != hg::kNoPartition) {
      state.assign(v, p);
    } else {
      choosable.push_back(v);
    }
  }

  // Heaviest first (first-fit-decreasing) so macros always find room;
  // random order within equal weights keeps starts diverse.
  rng.shuffle(std::span<VertexId>(choosable));
  std::stable_sort(choosable.begin(), choosable.end(),
                   [&](VertexId a, VertexId b) {
                     return g.vertex_weight(a) > g.vertex_weight(b);
                   });

  std::vector<PartitionId> parts(static_cast<std::size_t>(k));
  std::iota(parts.begin(), parts.end(), 0);
  for (VertexId v : choosable) {
    rng.shuffle(std::span<PartitionId>(parts));
    PartitionId chosen = hg::kNoPartition;
    for (PartitionId p : parts) {
      if (!fixed.is_allowed(v, p)) continue;
      if (vertex_fits(g, balance, state, v, p)) {
        chosen = p;
        break;
      }
    }
    if (chosen == hg::kNoPartition) {
      // No side fits: fall back to the allowed side with the most slack
      // and hope a later repair is unnecessary (can only happen when the
      // instance is infeasible or extremely tight).
      Weight best_slack = std::numeric_limits<Weight>::min();
      for (PartitionId p : parts) {
        if (!fixed.is_allowed(v, p)) continue;
        const Weight slack = balance.max_weight(p, 0) - state.part_weight(p);
        if (slack > best_slack) {
          best_slack = slack;
          chosen = p;
        }
      }
      if (chosen == hg::kNoPartition) {
        throw std::runtime_error(
            "random_feasible_assignment: vertex with empty allowed set");
      }
    }
    state.assign(v, chosen);
  }

  const bool feasible = balance.satisfied(state.part_weights());
  if (!feasible && require_feasible) {
    throw std::runtime_error(
        "random_feasible_assignment: no feasible assignment found "
        "(fixed vertices or a macro overflow a capacity)");
  }
  return feasible;
}

void check_respects_fixed(const PartitionState& state,
                          const hg::FixedAssignment& fixed) {
  for (VertexId v = 0; v < state.graph().num_vertices(); ++v) {
    const PartitionId p = state.part_of(v);
    if (p == hg::kNoPartition) {
      throw std::logic_error("check_respects_fixed: unassigned vertex");
    }
    if (!fixed.is_allowed(v, p)) {
      throw std::logic_error("check_respects_fixed: fixed vertex misplaced");
    }
  }
}

}  // namespace fixedpart::part
