#include "layers.hpp"

#include <algorithm>
#include <string>

#include "ml/coarsen.hpp"
#include "ml/matching.hpp"
#include "part/fm.hpp"
#include "part/initial.hpp"
#include "part/partition.hpp"

namespace fpbench {

namespace {

hg::VertexId movable_count(const hg::Hypergraph& g,
                           const hg::FixedAssignment& fixed) {
  hg::VertexId n = 0;
  for (hg::VertexId v = 0; v < g.num_vertices(); ++v) {
    n += (fixed.allowed_mask(v) == fixed.full_mask());
  }
  return n;
}

void account(const part::FmResult& fm, LayerTotals& t) {
  t.moves += fm.total_moves;
  t.passes += fm.passes;
  for (const part::PassRecord& record : fm.pass_records) {
    t.moves_performed += record.moves_performed;
    t.moves_kept += record.best_prefix;
  }
}

LevelRow row_of(const hg::Hypergraph& g) {
  LevelRow row;
  row.vertices = g.num_vertices();
  row.pins = g.num_pins();
  return row;
}

}  // namespace

void LayerTotals::add(const LayerTotals& o) {
  runs += o.runs;
  wall_s += o.wall_s;
  covered_s += o.covered_s;
  match_s += o.match_s;
  contract_s += o.contract_s;
  project_s += o.project_s;
  initial_s += o.initial_s;
  refine_s += o.refine_s;
  levels += o.levels;
  coarsest_vertices += o.coarsest_vertices;
  stalled_levels += o.stalled_levels;
  moves += o.moves;
  passes += o.passes;
  moves_performed += o.moves_performed;
  moves_kept += o.moves_kept;
  refine_moves += o.refine_moves;
  if (level_rows.size() < o.level_rows.size()) {
    level_rows.resize(o.level_rows.size());
  }
  for (std::size_t i = 0; i < o.level_rows.size(); ++i) {
    LevelRow& row = level_rows[i];
    row.runs += o.level_rows[i].runs;
    row.vertices += o.level_rows[i].vertices;
    row.pins += o.level_rows[i].pins;
    row.coarsen_s += o.level_rows[i].coarsen_s;
    row.refine_s += o.level_rows[i].refine_s;
    row.moves += o.level_rows[i].moves;
  }
}

DriverRun run_layer_driver(const hg::Hypergraph& graph,
                           const hg::FixedAssignment& fixed,
                           const part::BalanceConstraint& balance,
                           const ml::MultilevelConfig& config,
                           fixedpart::util::Rng& rng, SpanRecorder& spans) {
  DriverRun out;
  LayerTotals& t = out.totals;
  t.runs = 1;
  int root_index = -1;
  {
    ScopedSpan root(spans, "driver.run");
    root_index = root.index();
    const part::FmConfig& refine_config = config.refine;
    // Shared across levels exactly as run() shares them.
    part::FmScratch scratch;
    ml::CoarsenScratch coarsen_scratch;

    // --- Coarsening.
    std::vector<ml::CoarseLevel> levels;
    const hg::Hypergraph* g = &graph;
    const hg::FixedAssignment* f = &fixed;
    t.level_rows.push_back(row_of(graph));
    while (movable_count(*g, *f) > config.coarsest_size) {
      std::vector<hg::VertexId> match;
      {
        ScopedSpan span(spans, "ml.heavy_edge_matching");
        match = ml::heavy_edge_matching(*g, *f, config.matching, rng);
        t.match_s += span.seconds();
        t.level_rows.back().coarsen_s += span.seconds();
      }
      ml::CoarseLevel level;
      {
        ScopedSpan span(spans, "ml.contract");
        level = ml::contract(*g, *f, match, &coarsen_scratch);
        t.contract_s += span.seconds();
        t.level_rows.back().coarsen_s += span.seconds();
      }
      const auto fine = static_cast<double>(g->num_vertices());
      const auto coarse = static_cast<double>(level.graph.num_vertices());
      if (coarse > 0.9 * fine) ++t.stalled_levels;
      if (coarse > config.stagnation_ratio * fine) break;
      levels.push_back(std::move(level));
      g = &levels.back().graph;
      f = &levels.back().fixed;
      t.level_rows.push_back(row_of(*g));
    }
    t.levels = static_cast<std::int64_t>(levels.size()) + 1;
    t.coarsest_vertices = g->num_vertices();

    // --- Coarse starts.
    LevelRow& coarsest_row = t.level_rows.back();
    std::vector<hg::PartitionId> assignment;
    hg::Weight best_cut = 0;
    {
      ScopedSpan initial(spans, "part.initial");
      part::PartitionState state(*g, 2);
      part::FmBipartitioner coarse_fm(*g, *f, balance, &scratch);
      const int starts = std::max(1, config.coarse_starts);
      for (int s = 0; s < starts; ++s) {
        {
          ScopedSpan span(spans, "part.random_feasible_assignment");
          part::random_feasible_assignment(state, *f, balance, rng,
                                           /*require_feasible=*/false);
        }
        ScopedSpan span(spans, "part.refine");
        const part::FmResult fm = coarse_fm.refine(state, rng, refine_config);
        account(fm, t);
        coarsest_row.moves += fm.total_moves;
        coarsest_row.refine_s += span.seconds();
        if (assignment.empty() || state.cut() < best_cut) {
          best_cut = state.cut();
          assignment.assign(state.assignment().begin(),
                            state.assignment().end());
        }
      }
      t.initial_s += initial.seconds();
    }

    // --- Projection and refinement back up to the input graph.
    out.cut = best_cut;
    for (std::size_t i = levels.size(); i-- > 0;) {
      const hg::Hypergraph& fine_graph = i == 0 ? graph : levels[i - 1].graph;
      const hg::FixedAssignment& fine_fixed =
          i == 0 ? fixed : levels[i - 1].fixed;
      part::PartitionState fine_state(fine_graph, 2);
      {
        ScopedSpan span(spans, "ml.project");
        for (hg::VertexId v = 0; v < fine_graph.num_vertices(); ++v) {
          fine_state.assign(v, assignment[levels[i].map[v]]);
        }
        t.project_s += span.seconds();
      }
      {
        ScopedSpan span(spans, "part.refine");
        part::FmBipartitioner fm(fine_graph, fine_fixed, balance, &scratch);
        const part::FmResult result = fm.refine(fine_state, rng, refine_config);
        account(result, t);
        t.refine_moves += result.total_moves;
        t.level_rows[i].moves += result.total_moves;
        t.refine_s += span.seconds();
        t.level_rows[i].refine_s += span.seconds();
      }
      assignment.assign(fine_state.assignment().begin(),
                        fine_state.assignment().end());
      out.cut = fine_state.cut();
    }
    out.assignment = std::move(assignment);
  }
  for (LevelRow& row : t.level_rows) row.runs = 1;
  const Span root = spans.spans().at(static_cast<std::size_t>(root_index));
  t.wall_s = root.seconds();
  t.covered_s = t.wall_s - spans.self_seconds(root_index);
  return out;
}

void put_layer_metrics(const LayerTotals& t, Metrics& m) {
  const double runs = std::max(1, t.runs);
  m.set("ml.match_s", t.match_s, "s");
  m.set("ml.contract_s", t.contract_s, "s");
  m.set("ml.project_s", t.project_s, "s");
  m.set("ml.levels", static_cast<double>(t.levels) / runs, "count");
  m.set("ml.coarsest_vertices", static_cast<double>(t.coarsest_vertices) / runs,
        "count");
  m.set("ml.stalled_levels", static_cast<double>(t.stalled_levels) / runs,
        "count");
  m.set("part.initial_s", t.initial_s, "s");
  m.set("part.refine_s", t.refine_s, "s");
  m.set("part.moves", static_cast<double>(t.moves), "count");
  m.set("part.passes", static_cast<double>(t.passes), "count");
  m.set("part.us_per_move",
        t.refine_moves > 0
            ? t.refine_s * 1e6 / static_cast<double>(t.refine_moves)
            : 0.0,
        "us");
  m.set("part.kept_move_frac",
        t.moves_performed > 0 ? static_cast<double>(t.moves_kept) /
                                    static_cast<double>(t.moves_performed)
                              : 0.0,
        "frac");
  for (int i = 0; i < kReportedLevels; ++i) {
    const std::string prefix = "level." + std::to_string(i) + ".";
    LevelRow row;
    if (static_cast<std::size_t>(i) < t.level_rows.size()) {
      row = t.level_rows[static_cast<std::size_t>(i)];
    }
    const double n = std::max(1, row.runs);
    m.set(prefix + "vertices", static_cast<double>(row.vertices) / n, "count");
    m.set(prefix + "pins", static_cast<double>(row.pins) / n, "count");
    m.set(prefix + "coarsen_s", row.coarsen_s, "s");
    m.set(prefix + "refine_s", row.refine_s, "s");
    m.set(prefix + "moves_per_s",
          row.refine_s > 0.0 ? static_cast<double>(row.moves) / row.refine_s
                             : 0.0,
          "1/s");
  }
}

}  // namespace fpbench
