#include "ml/multilevel.hpp"

#include <atomic>
#include <functional>
#include <stdexcept>
#include <tuple>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "part/feasibility.hpp"
#include "part/initial.hpp"
#include "util/errors.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace fixedpart::ml {

namespace {

VertexId movable_count(const hg::Hypergraph& g,
                       const hg::FixedAssignment& fixed) {
  VertexId n = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    n += (fixed.allowed_mask(v) == fixed.full_mask());
  }
  return n;
}

}  // namespace

MultilevelPartitioner::MultilevelPartitioner(
    const hg::Hypergraph& graph, const hg::FixedAssignment& fixed,
    const part::BalanceConstraint& balance)
    : graph_(&graph), fixed_(&fixed), balance_(&balance) {
  if (fixed.num_parts() != 2 || balance.num_parts() != 2) {
    throw std::invalid_argument("MultilevelPartitioner: needs 2 parts");
  }
  if (fixed.num_vertices() != graph.num_vertices()) {
    throw std::invalid_argument("MultilevelPartitioner: fixed size mismatch");
  }
}

MultilevelResult MultilevelPartitioner::run(
    util::Rng& rng, const MultilevelConfig& config) const {
  util::Timer timer;
  MultilevelResult result;
  if (config.preflight) {
    const part::FeasibilityReport report =
        part::check_feasibility(*graph_, *fixed_, *balance_);
    if (!report.feasible) {
      throw util::InfeasibleError("multilevel: " + report.summary());
    }
  }
  const util::Deadline* deadline = config.deadline;
  const auto expired = [&] {
    return deadline != nullptr && deadline->expired();
  };
  part::FmConfig refine_config = config.refine;
  if (deadline != nullptr) refine_config.deadline = deadline;
  // One refinement workspace for the whole descent: every level's
  // FmBipartitioner shares it, so bucket storage is sized once for the
  // largest graph and reused across levels, starts and V-cycles. The
  // coarsening scratch plays the same role for contract()'s staged-net
  // arena.
  part::FmScratch scratch;
  CoarsenScratch coarsen_scratch;

  // Builds the coarsening hierarchy; when `incumbent` is non-null the
  // matching is solution-preserving (V-cycle restriction).
  auto build_hierarchy = [&](const std::vector<PartitionId>* incumbent) {
    std::vector<CoarseLevel> levels;
    const hg::Hypergraph* g = graph_;
    const hg::FixedAssignment* f = fixed_;
    // Projections of the incumbent per level (index 0 = input graph's).
    std::vector<PartitionId> projected;
    if (incumbent != nullptr) projected = *incumbent;
    while (movable_count(*g, *f) > config.coarsest_size) {
      if (expired()) {
        // Stop descending: the levels built so far still uncoarsen
        // correctly, the coarse solve just runs on a bigger graph.
        result.truncated = true;
        break;
      }
      obs::ScopedSpan span("ml.coarsen_level");
      const auto match = heavy_edge_matching(
          *g, *f, config.matching, rng,
          incumbent != nullptr ? &projected : nullptr);
      CoarseLevel level = contract(*g, *f, match, &coarsen_scratch);
      span.arg("level", static_cast<std::int64_t>(levels.size()))
          .arg("fine_vertices", static_cast<std::int64_t>(g->num_vertices()))
          .arg("coarse_vertices",
               static_cast<std::int64_t>(level.graph.num_vertices()));
      if (static_cast<double>(level.graph.num_vertices()) >
          config.stagnation_ratio * static_cast<double>(g->num_vertices())) {
        break;  // matching stagnated; stop coarsening
      }
      if (incumbent != nullptr) {
        std::vector<PartitionId> coarse(
            static_cast<std::size_t>(level.graph.num_vertices()),
            hg::kNoPartition);
        for (VertexId v = 0; v < g->num_vertices(); ++v) {
          coarse[level.map[v]] = projected[v];
        }
        projected = std::move(coarse);
      }
      levels.push_back(std::move(level));
      g = &levels.back().graph;
      f = &levels.back().fixed;
    }
    return std::make_tuple(std::move(levels), g, f, std::move(projected));
  };

  // Refines `assignment` (on the coarsest graph of `levels`) back up to
  // the input graph, returning the final assignment and recording the cut.
  auto uncoarsen = [&](const std::vector<CoarseLevel>& levels,
                       std::vector<PartitionId> assignment) {
    for (std::size_t i = levels.size(); i-- > 0;) {
      const hg::Hypergraph& fine_graph =
          (i == 0) ? *graph_ : levels[i - 1].graph;
      const hg::FixedAssignment& fine_fixed =
          (i == 0) ? *fixed_ : levels[i - 1].fixed;
      part::PartitionState fine_state(fine_graph, 2);
      {
        obs::ScopedSpan span("ml.project");
        span.arg("level", static_cast<std::int64_t>(i))
            .arg("fine_vertices",
                 static_cast<std::int64_t>(fine_graph.num_vertices()));
        for (VertexId v = 0; v < fine_graph.num_vertices(); ++v) {
          fine_state.assign(v, assignment[levels[i].map[v]]);
        }
      }
      // Projection always happens (coarse weights are sums of fine
      // weights, so it preserves balance feasibility); refinement is what
      // an expired budget skips.
      if (expired()) {
        result.truncated = true;
      } else {
        // "ml.refine_level" (distinct from the projection above) is one
        // of the three spans obs::phase_breakdown attributes; keep the
        // name in sync with phase_breakdown and docs/OBSERVABILITY.md.
        obs::ScopedSpan span("ml.refine_level");
        span.arg("level", static_cast<std::int64_t>(i))
            .arg("fine_vertices",
                 static_cast<std::int64_t>(fine_graph.num_vertices()));
        part::FmBipartitioner fm(fine_graph, fine_fixed, *balance_, &scratch);
        const auto fm_result = fm.refine(fine_state, rng, refine_config);
        result.total_moves += fm_result.total_moves;
        result.total_passes += fm_result.passes;
        result.truncated |= fm_result.truncated;
      }
      assignment.assign(fine_state.assignment().begin(),
                        fine_state.assignment().end());
      if (i == 0) result.cut = fine_state.cut();
    }
    return assignment;
  };

  // --- Initial descent: coarsen, random coarse starts, uncoarsen.
  auto [levels, coarsest_graph, coarsest_fixed, unused] =
      build_hierarchy(nullptr);
  result.levels = static_cast<int>(levels.size()) + 1;

  part::PartitionState state(*coarsest_graph, 2);
  part::FmBipartitioner coarse_fm(*coarsest_graph, *coarsest_fixed,
                                  *balance_, &scratch);
  std::vector<PartitionId> best_assignment;
  Weight best_cut = 0;
  const int starts = std::max(1, config.coarse_starts);
  {
    // Initial-partition phase span (obs::phase_breakdown "initial"): the
    // whole coarse multistart, nested coarse FM passes included.
    obs::ScopedSpan initial_span("ml.initial");
    initial_span.arg("starts", static_cast<std::int64_t>(starts));
    for (int s = 0; s < starts; ++s) {
      // The first start always runs so there is always a complete
      // assignment to return; an expired budget only skips restarts.
      if (s > 0 && expired()) {
        result.truncated = true;
        break;
      }
      // Best-effort: rand-regime instances can be inherently over
      // capacity (see random_feasible_assignment); refinement drains what
      // it can.
      part::random_feasible_assignment(state, *coarsest_fixed, *balance_,
                                       rng, /*require_feasible=*/false);
      const auto fm = coarse_fm.refine(state, rng, refine_config);
      result.total_moves += fm.total_moves;
      result.total_passes += fm.passes;
      result.truncated |= fm.truncated;
      if (best_assignment.empty() || state.cut() < best_cut) {
        best_cut = state.cut();
        best_assignment.assign(state.assignment().begin(),
                               state.assignment().end());
      }
    }
  }

  std::vector<PartitionId> assignment;
  if (levels.empty()) {
    result.cut = best_cut;
    assignment = std::move(best_assignment);
  } else {
    assignment = uncoarsen(levels, std::move(best_assignment));
  }

  // --- Optional V-cycles: re-coarsen around the incumbent solution and
  // refine back up. Projection preserves the cut and FM is monotone, so a
  // V-cycle never worsens the solution (it spends time, which is exactly
  // the trade-off the paper rejects).
  for (int cycle = 0; cycle < config.vcycles; ++cycle) {
    if (expired()) {
      result.truncated = true;
      break;
    }
    obs::ScopedSpan span("ml.vcycle");
    span.arg("cycle", static_cast<std::int64_t>(cycle));
    auto [vlevels, vgraph, vfixed, projected] = build_hierarchy(&assignment);
    if (vlevels.empty()) break;  // nothing to re-coarsen
    part::PartitionState coarse_state(*vgraph, 2);
    for (VertexId v = 0; v < vgraph->num_vertices(); ++v) {
      coarse_state.assign(v, projected[v]);
    }
    part::FmBipartitioner vfm(*vgraph, *vfixed, *balance_, &scratch);
    const auto fm = vfm.refine(coarse_state, rng, refine_config);
    result.total_moves += fm.total_moves;
    result.total_passes += fm.passes;
    result.truncated |= fm.truncated;
    assignment = uncoarsen(
        vlevels, std::vector<PartitionId>(coarse_state.assignment().begin(),
                                          coarse_state.assignment().end()));
  }

  result.assignment = std::move(assignment);
  result.seconds = timer.seconds();
  auto& reg = obs::Registry::global();
  static const obs::MetricId runs = reg.counter("ml.runs");
  static const obs::MetricId levels_total = reg.counter("ml.levels");
  static const obs::MetricId truncations = reg.counter("ml.truncations");
  reg.add(runs);
  reg.add(levels_total, result.levels);
  if (result.truncated) reg.add(truncations);
  return result;
}

MultilevelResult MultilevelPartitioner::best_of_parallel(
    int starts, int threads, std::uint64_t seed,
    const MultilevelConfig& config) const {
  if (starts < 1) throw std::invalid_argument("best_of_parallel: starts<1");
  if (threads < 1) throw std::invalid_argument("best_of_parallel: threads<1");
  util::Timer timer;
  // Fork every start's stream up front: the work split across threads
  // cannot change any stream, so results are thread-count independent.
  util::Rng root(seed);
  std::vector<util::Rng> streams;
  streams.reserve(static_cast<std::size_t>(starts));
  for (int s = 0; s < starts; ++s) streams.push_back(root.fork());

  std::vector<MultilevelResult> results(static_cast<std::size_t>(starts));
  std::atomic<bool> truncated{false};
  // The trace context is thread-local: every start re-pushes the caller's,
  // or starts claimed by pool workers would record their engine spans
  // outside its buffer and trace id.
  const obs::TraceContext trace = obs::ScopedTraceContext::current();
  // Starts run on the shared worker pool instead of per-call std::threads:
  // total process concurrency stays bounded by the pool size however many
  // callers fan out at once, and the pool's section cap enforces this
  // call's `threads` budget. A worker exception (preflight
  // InfeasibleError, bad_alloc, ...) aborts the remaining starts (their
  // slots keep the empty default result) and parallel_for rethrows the
  // first one here.
  const std::function<void(std::int64_t)> body = [&](std::int64_t s) {
    // Start 0 always runs (run() itself degrades under the deadline);
    // later starts are skipped once the budget is gone. Skipped slots
    // keep their empty default result.
    if (s > 0 && config.deadline != nullptr && config.deadline->expired()) {
      truncated.store(true, std::memory_order_relaxed);
      return;
    }
    const obs::ScopedTraceContext scope(trace.trace_id, trace.buffer);
    MultilevelResult& r = results[static_cast<std::size_t>(s)];
    r = run(streams[static_cast<std::size_t>(s)], config);
    if (r.truncated) truncated.store(true, std::memory_order_relaxed);
  };
  util::ThreadPool::shared().parallel_for(starts, threads, body);

  // Start 0 always ran, so it is the fallback best (and the only
  // candidate on a zero-vertex graph, where every assignment is empty).
  std::size_t best = 0;
  for (std::size_t s = 1; s < results.size(); ++s) {
    if (results[s].assignment.empty()) continue;  // skipped at expiry
    if (results[s].cut < results[best].cut) best = s;
  }
  MultilevelResult out = std::move(results[best]);
  out.seconds = timer.seconds();
  out.truncated = truncated.load(std::memory_order_relaxed);
  return out;
}

MultilevelResult MultilevelPartitioner::best_of(
    int starts, util::Rng& rng, const MultilevelConfig& config) const {
  if (starts < 1) throw std::invalid_argument("best_of: starts < 1");
  MultilevelResult best;
  bool truncated = false;
  double total_seconds = 0.0;
  for (int s = 0; s < starts; ++s) {
    // The first start always runs; an expired budget only skips restarts.
    if (s > 0 && config.deadline != nullptr && config.deadline->expired()) {
      truncated = true;
      break;
    }
    MultilevelResult r = run(rng, config);
    total_seconds += r.seconds;
    truncated |= r.truncated;
    if (s == 0 || r.cut < best.cut) best = std::move(r);
  }
  best.seconds = total_seconds;
  best.truncated = truncated;
  return best;
}

}  // namespace fixedpart::ml
