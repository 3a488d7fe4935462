#include "part/kway_fm.hpp"

#include <algorithm>
#include <limits>
#include <bit>
#include <cmath>
#include <span>
#include <stdexcept>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace fixedpart::part {

KwayFmRefiner::KwayFmRefiner(const hg::Hypergraph& graph,
                             const hg::FixedAssignment& fixed,
                             const BalanceConstraint& balance)
    : graph_(&graph),
      fixed_(&fixed),
      balance_(&balance),
      locked_(static_cast<std::size_t>(graph.num_vertices()), 0),
      target_(static_cast<std::size_t>(graph.num_vertices()),
              hg::kNoPartition),
      buckets_(graph.num_vertices(), graph.max_weighted_vertex_degree()) {
  if (fixed.num_parts() != balance.num_parts()) {
    throw std::invalid_argument("KwayFmRefiner: part count mismatch");
  }
  if (fixed.num_vertices() != graph.num_vertices()) {
    throw std::invalid_argument("KwayFmRefiner: fixed size mismatch");
  }
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (std::popcount(fixed.allowed_mask(v)) >= 2) movable_.push_back(v);
  }
}

bool KwayFmRefiner::feasible(const PartitionState& state, VertexId v,
                             PartitionId to) const {
  return balance_->fits(state.part_weight_vector(to),
                        graph_->vertex_weights(v), to);
}

Weight KwayFmRefiner::move_gain(const PartitionState& state, VertexId v,
                                PartitionId to) const {
  const PartitionId from = state.part_of(v);
  Weight gain = 0;
  for (hg::NetId e : graph_->nets_of(v)) {
    const Weight w = graph_->net_weight(e);
    const int conn = state.connectivity(e);
    const int conn_after = conn - (state.pin_count(e, from) == 1 ? 1 : 0) +
                           (state.pin_count(e, to) == 0 ? 1 : 0);
    gain += w * ((conn > 1 ? 1 : 0) - (conn_after > 1 ? 1 : 0));
  }
  return gain;
}

KwayFmRefiner::BestMove KwayFmRefiner::best_move(const PartitionState& state,
                                                 VertexId v) const {
  const PartitionId from = state.part_of(v);
  BestMove best;
  best.gain = std::numeric_limits<Weight>::min();
  for (PartitionId p = 0; p < state.num_parts(); ++p) {
    if (p == from || !fixed_->is_allowed(v, p)) continue;
    if (!feasible(state, v, p)) continue;
    const Weight gain = move_gain(state, v, p);
    if (best.target == hg::kNoPartition || gain > best.gain) {
      best.gain = gain;
      best.target = p;
    }
  }
  if (best.target == hg::kNoPartition) best.gain = 0;
  return best;
}

Weight KwayFmRefiner::run_pass(PartitionState& state, util::Rng& rng,
                               const KwayConfig& config, int pass_index,
                               PassRecord& record) {
  const bool first_pass = pass_index == 0;
  obs::ScopedSpan span("kway.pass");
  const auto movable_count = static_cast<std::int32_t>(movable_.size());
  record.movable = movable_count;
  record.cut_before = state.cut();
  record.cut_best = state.cut();
  if (movable_count == 0) return 0;

  order_ = movable_;
  rng.shuffle(std::span<VertexId>(order_));
  buckets_.clear();
  for (VertexId v : order_) {
    locked_[v] = 0;
    const BestMove mv = best_move(state, v);
    if (mv.target == hg::kNoPartition) {
      locked_[v] = 1;  // no feasible target right now; skip this pass
      continue;
    }
    target_[v] = mv.target;
    buckets_.insert(v, mv.gain);
  }

  if (config.observer != nullptr) {
    obs::PassBegin begin;
    begin.pass = pass_index;
    begin.movable = movable_count;
    begin.cut = state.cut();
    config.observer->on_pass_begin(begin);
  }

  std::int32_t move_limit = movable_count;
  if (!first_pass && config.pass_cutoff < 1.0) {
    move_limit = std::max<std::int32_t>(
        1, static_cast<std::int32_t>(
               std::llround(config.pass_cutoff * movable_count)));
  }

  move_log_.clear();
  const Weight cut_start = state.cut();
  Weight best_cut = cut_start;
  std::int32_t best_prefix = 0;

  while (!buckets_.empty() &&
         static_cast<std::int32_t>(move_log_.size()) < move_limit) {
    const VertexId v = buckets_.find_best([](VertexId) { return true; });
    // Keys can be stale (neighbour moves shifted capacities/pin counts of
    // nets not shared with v only via capacity); re-verify at pop time.
    const BestMove current = best_move(state, v);
    if (current.target == hg::kNoPartition) {
      buckets_.remove(v);  // no feasible move anymore this pass
      continue;
    }
    if (current.gain != buckets_.key_of(v) || current.target != target_[v]) {
      buckets_.adjust(v, current.gain - buckets_.key_of(v));
      target_[v] = current.target;
      continue;  // re-pop with the corrected key
    }

    buckets_.remove(v);
    locked_[v] = 1;
    const PartitionId from = state.part_of(v);
    [[maybe_unused]] const Weight cut_prev = state.cut();
    state.move(v, current.target);
    move_log_.push_back({v, from});

    if (config.observer != nullptr) {
      obs::MoveEvent move;
      move.pass = pass_index;
      move.move_index = static_cast<std::int32_t>(move_log_.size()) - 1;
      move.vertex = v;
      move.from = from;
      move.to = current.target;
      move.gain = cut_prev - state.cut();
      move.cut = state.cut();
      config.observer->on_move(move);
    }

    // Exact re-keying of affected unlocked neighbours.
    for (hg::NetId e : graph_->nets_of(v)) {
      for (VertexId u : graph_->pins(e)) {
        if (u == v || locked_[u] || !buckets_.contains(u)) continue;
        const BestMove mu = best_move(state, u);
        if (mu.target == hg::kNoPartition) {
          buckets_.remove(u);
          locked_[u] = 1;
          continue;
        }
        buckets_.adjust(u, mu.gain - buckets_.key_of(u));
        target_[u] = mu.target;
      }
    }

    if (state.cut() < best_cut) {
      best_cut = state.cut();
      best_prefix = static_cast<std::int32_t>(move_log_.size());
    }
  }

  for (std::size_t i = move_log_.size();
       i > static_cast<std::size_t>(best_prefix); --i) {
    state.move(move_log_[i - 1].vertex, move_log_[i - 1].from);
  }

  record.moves_performed = static_cast<std::int32_t>(move_log_.size());
  record.best_prefix = best_prefix;
  record.cut_best = best_cut;

  if (config.observer != nullptr) {
    obs::PassEnd end;
    end.pass = pass_index;
    end.moves_performed = record.moves_performed;
    end.best_prefix = best_prefix;
    end.cut_before = cut_start;
    end.cut_best = best_cut;
    config.observer->on_pass_end(end);
  }
  span.arg("pass", static_cast<std::int64_t>(pass_index))
      .arg("moves", static_cast<std::int64_t>(record.moves_performed))
      .arg("kept", static_cast<std::int64_t>(best_prefix))
      .arg("cut", static_cast<std::int64_t>(best_cut));
  return cut_start - best_cut;
}

FmResult KwayFmRefiner::refine(PartitionState& state, util::Rng& rng,
                               const KwayConfig& config) {
  if (state.num_assigned() != graph_->num_vertices()) {
    throw std::invalid_argument("KwayFmRefiner::refine: incomplete state");
  }
  FmResult result;
  result.initial_cut = state.cut();
  for (int pass = 0; pass < config.max_passes; ++pass) {
    PassRecord record;
    const Weight gain = run_pass(state, rng, config, pass, record);
    ++result.passes;
    result.total_moves += record.moves_performed;
    result.pass_records.push_back(record);
    if (gain <= 0) break;
  }
  result.final_cut = state.cut();
  auto& reg = obs::Registry::global();
  static const obs::MetricId refines = reg.counter("kway.refine_calls");
  static const obs::MetricId passes = reg.counter("kway.passes");
  static const obs::MetricId moves = reg.counter("kway.moves");
  reg.add(refines);
  reg.add(passes, result.passes);
  reg.add(moves, result.total_moves);
  return result;
}

}  // namespace fixedpart::part
