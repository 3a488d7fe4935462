#include "part/fm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace fixedpart::part {

void FmScratch::reserve(VertexId vertices, Weight max_key,
                        Weight interior_key) {
  for (int s = 0; s < 2; ++s) {
    buckets_[s].clear();
    buckets_[s].reshape(vertices, max_key);
    interior_[s].clear();
    interior_[s].reshape(vertices, interior_key);
  }
  order_.clear();
  order_.reserve(static_cast<std::size_t>(vertices));
  move_log_.clear();
  move_log_.reserve(static_cast<std::size_t>(vertices));
}

FmBipartitioner::FmBipartitioner(const hg::Hypergraph& graph,
                                 const hg::FixedAssignment& fixed,
                                 const BalanceConstraint& balance,
                                 FmScratch* scratch)
    : graph_(&graph),
      fixed_(&fixed),
      balance_(&balance),
      scratch_(scratch != nullptr ? scratch : &owned_scratch_) {
  if (fixed.num_parts() != 2 || balance.num_parts() != 2) {
    throw std::invalid_argument("FmBipartitioner: needs exactly 2 parts");
  }
  if (fixed.num_vertices() != graph.num_vertices()) {
    throw std::invalid_argument("FmBipartitioner: fixed size mismatch");
  }
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (fixed.is_allowed(v, 0) && fixed.is_allowed(v, 1)) {
      movable_.push_back(v);
    }
  }
  // A vertex with no incident cut net loses every >= 2-pin net by moving
  // and uncuts none, so its gain is the negated weighted interior degree —
  // a graph constant. Single-pin nets stay uncut either way (+w - w = 0).
  interior_key_.assign(static_cast<std::size_t>(graph.num_vertices()), 0);
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    Weight key = 0;
    for (hg::NetId e : graph.nets_of(v)) {
      if (graph.net_size(e) >= 2) key -= graph.net_weight(e);
    }
    interior_key_[v] = key;
  }
}

Weight FmBipartitioner::true_gain(const PartitionState& state,
                                  VertexId v) const {
  const PartitionId from = state.part_of(v);
  const PartitionId to = 1 - from;
  Weight gain = 0;
  for (hg::NetId e : graph_->nets_of(v)) {
    const Weight w = graph_->net_weight(e);
    if (state.pin_count(e, from) == 1) gain += w;  // move uncuts e
    if (state.pin_count(e, to) == 0) gain -= w;    // move newly cuts e
  }
  return gain;
}

void FmBipartitioner::bucket_adjust(PartitionId side, VertexId u, Weight delta) {
  if (policy_ == SelectionPolicy::kFifo) {
    scratch_->buckets_[side].adjust_back(u, delta);
  } else {
    scratch_->buckets_[side].adjust(u, delta);
  }
}

void FmBipartitioner::touch(PartitionId side, VertexId u, Weight delta) {
  if (scratch_->buckets_[side].contains(u)) {
    bucket_adjust(side, u, delta);
    return;
  }
  if (!boundary_pass_) return;  // not in buckets => locked or fixed
  GainBuckets& parked = scratch_->interior_[side];
  if (!parked.contains(u)) return;  // locked or fixed
  // Activation: u's first nonzero delta coincides with a net of u turning
  // cut, i.e. with u joining the boundary. Its static key equals its true
  // gain up to now, and linking at the head (LIFO/CLIP) or tail (FIFO) of
  // the live bucket is exactly where a full-population pass's adjust()
  // would have re-linked it — trajectories stay identical.
  const Weight key = parked.key_of(u) + delta;
  parked.remove(u);
  if (policy_ == SelectionPolicy::kFifo) {
    scratch_->buckets_[side].insert_back(u, key);
  } else {
    scratch_->buckets_[side].insert(u, key);
  }
}

void FmBipartitioner::apply_gain_updates(PartitionState& state, VertexId v,
                                         PartitionId from, PartitionId to) {
  // Standard FM delta rules, evaluated on the pre-move pin counts. The
  // keys of unlocked pins shift by the change in their true gain; under
  // CLIP the same deltas are applied to the zero-seeded keys. touch()
  // also pulls still-parked interior pins into the live buckets.
  for (hg::NetId e : graph_->nets_of(v)) {
    const Weight w = graph_->net_weight(e);
    if (w == 0) continue;
    const int cnt_to = state.pin_count(e, to);
    const int cnt_from_after = state.pin_count(e, from) - 1;
    const bool all_updates_trivial = cnt_to > 1 && cnt_from_after > 1;
    if (all_updates_trivial) continue;

    const auto pins = graph_->pins(e);
    if (cnt_to == 0) {
      // Net was uncut on `from`; every other pin gains w.
      for (VertexId u : pins) {
        if (u != v) touch(from, u, +w);
      }
    } else if (cnt_to == 1) {
      // The single `to`-side pin loses its uncut-by-moving gain.
      for (VertexId u : pins) {
        if (u != v && state.part_of(u) == to) {
          touch(to, u, -w);
          break;
        }
      }
    }
    if (cnt_from_after == 0) {
      // Net becomes uncut on `to`; every other pin now cuts by moving.
      for (VertexId u : pins) {
        if (u != v) touch(to, u, -w);
      }
    } else if (cnt_from_after == 1) {
      // The single remaining `from`-side pin can now uncut the net.
      for (VertexId u : pins) {
        if (u != v && state.part_of(u) == from) {
          touch(from, u, +w);
          break;
        }
      }
    }
  }
}

void FmBipartitioner::verify_invariants(const PartitionState& state,
                                        const FmConfig& config) const {
  // Full recompute-and-compare of the partition bookkeeping (pin counts,
  // boundary set, weights, cut) before checking the gain structures on
  // top of it.
  state.check_invariants();
  for (VertexId u : movable_) {
    for (PartitionId side = 0; side < 2; ++side) {
      if (scratch_->buckets_[side].contains(u)) {
        // Live keys track true gain exactly (LIFO/FIFO) or up to the
        // constant zero-seed offset (CLIP).
        const Weight expected =
            config.policy == SelectionPolicy::kClip
                ? true_gain(state, u) - scratch_->gain_scratch_[u]
                : true_gain(state, u);
        if (scratch_->buckets_[side].key_of(u) != expected) {
          throw std::logic_error(
              "FmBipartitioner: bucket key diverged from true gain");
        }
      }
      if (scratch_->interior_[side].contains(u)) {
        // A parked vertex has absorbed no deltas, so its static key must
        // still BE its true gain — i.e. none of its nets turned cut (up
        // to zero-weight nets, which do not affect the gain).
        if (scratch_->interior_[side].key_of(u) != true_gain(state, u)) {
          throw std::logic_error(
              "FmBipartitioner: parked interior key diverged from true gain");
        }
      }
    }
  }
}

Weight FmBipartitioner::run_pass(PartitionState& state, util::Rng& rng,
                                 const FmConfig& config, int pass_index,
                                 PassRecord& record) {
  const bool first_pass = pass_index == 0;
  obs::ScopedSpan span("fm.pass");
  const auto movable_count = static_cast<std::int32_t>(movable_.size());
  record.movable = movable_count;
  record.cut_before = state.cut();
  record.cut_best = state.cut();
  if (movable_count == 0) return 0;

  policy_ = config.policy;
  boundary_pass_ = config.boundary && policy_ != SelectionPolicy::kClip;
  const bool fifo = policy_ == SelectionPolicy::kFifo;
  GainBuckets* dyn = scratch_->buckets_;
  GainBuckets* stat = scratch_->interior_;
  dyn[0].clear();
  dyn[1].clear();
  stat[0].clear();
  stat[1].clear();

  // Random insertion order diversifies LIFO tie-breaking between passes.
  // Both population modes consume the RNG identically.
  auto& order = scratch_->order_;
  order.assign(movable_.begin(), movable_.end());
  rng.shuffle(std::span<VertexId>(order));

  std::int32_t boundary_count = 0;
  if (policy_ == SelectionPolicy::kClip) {
    // CLIP seeds every key at zero, so bucket order IS the tie-break for
    // the first selection: insert in ascending actual gain (head insertion
    // reverses it) so the pass starts from the highest-actual-gain vertex
    // and then follows update gains — the cluster signal (Dutt-Deng).
    // Interior vertices get their gain from the precomputed static key
    // instead of a pin scan.
    auto& gain = scratch_->gain_scratch_;
    gain.resize(static_cast<std::size_t>(graph_->num_vertices()));
    for (VertexId v : order) {
      if (state.is_boundary(v)) {
        gain[v] = true_gain(state, v);
        ++boundary_count;
      } else {
        gain[v] = interior_key_[v];
      }
    }
    std::stable_sort(
        order.begin(), order.end(),
        [&](VertexId a, VertexId b) { return gain[a] < gain[b]; });
    for (VertexId v : order) dyn[state.part_of(v)].insert(v, 0);
  } else {
    // Phase-split insertion, identical in both population modes: interior
    // vertices first (into the parked structure, or — in full mode — the
    // live buckets; their gain is the precomputed static key either way),
    // then boundary vertices with scanned gains. The split fixes the
    // within-bucket order so that lazy activation reproduces it.
    GainBuckets* park = boundary_pass_ ? stat : dyn;
    for (VertexId v : order) {
      if (state.is_boundary(v)) continue;
      if (fifo) {
        park[state.part_of(v)].insert_back(v, interior_key_[v]);
      } else {
        park[state.part_of(v)].insert(v, interior_key_[v]);
      }
    }
    for (VertexId v : order) {
      if (!state.is_boundary(v)) continue;
      ++boundary_count;
      const Weight g = true_gain(state, v);
      if (fifo) {
        dyn[state.part_of(v)].insert_back(v, g);
      } else {
        dyn[state.part_of(v)].insert(v, g);
      }
    }
  }
  record.boundary_vertices = boundary_count;

  if (config.observer != nullptr) {
    obs::PassBegin begin;
    begin.pass = pass_index;
    begin.movable = movable_count;
    begin.boundary_vertices = boundary_count;
    begin.cut = state.cut();
    config.observer->on_pass_begin(begin);
  }

  std::int32_t move_limit = movable_count;
  if (!first_pass || config.cutoff_first_pass) {
    if (config.pass_cutoff < 1.0) {
      move_limit = std::max<std::int32_t>(
          1, static_cast<std::int32_t>(
                 std::llround(config.pass_cutoff * movable_count)));
    }
  }
  std::int32_t stall_limit = std::numeric_limits<std::int32_t>::max();
  if (config.stall_fraction < 1.0) {
    stall_limit = std::max<std::int32_t>(
        std::max<std::int32_t>(1, config.stall_min),
        static_cast<std::int32_t>(
            std::llround(config.stall_fraction * movable_count)));
  }

  auto& move_log = scratch_->move_log_;
  move_log.clear();
  const Weight cut_start = state.cut();
  Weight best_cut = cut_start;
  std::int32_t best_prefix = 0;
  std::int32_t stall = 0;

  while (static_cast<std::int32_t>(move_log.size()) < move_limit &&
         stall < stall_limit) {
    // Budget check between moves (every 64 to keep clock reads off the hot
    // path); breaking here falls through to the normal best-prefix
    // rollback, so an expired pass still leaves a valid improved state.
    if (config.deadline != nullptr && (move_log.size() & 63) == 0 &&
        config.deadline->expired()) {
      break;
    }
    // Best feasible candidate from each side; feasibility = target side
    // stays under its capacity in every resource.
    VertexId candidate[2] = {hg::kNoVertex, hg::kNoVertex};
    Weight cand_key[2] = {0, 0};
    bool cand_parked[2] = {false, false};
    for (PartitionId side = 0; side < 2; ++side) {
      const PartitionId target = 1 - side;
      const auto target_weights = state.part_weight_vector(target);
      const auto feasible = [&](VertexId u) {
        return balance_->fits(target_weights, graph_->vertex_weights(u),
                              target);
      };
      VertexId pick = dyn[side].find_best(feasible);
      Weight pick_key = pick != hg::kNoVertex ? dyn[side].key_of(pick) : 0;
      bool parked = false;
      if (boundary_pass_) {
        const VertexId us = stat[side].find_best(feasible);
        if (us != hg::kNoVertex) {
          const Weight ks = stat[side].key_of(us);
          // The parked pick wins exactly when it would precede the live
          // pick in a fully-populated bucket: FIFO queues interiors ahead
          // of equal-key boundary vertices, LIFO behind them.
          if (pick == hg::kNoVertex || ks > pick_key ||
              (fifo && ks == pick_key)) {
            pick = us;
            pick_key = ks;
            parked = true;
          }
        }
      }
      candidate[side] = pick;
      cand_key[side] = pick_key;
      cand_parked[side] = parked;
    }
    PartitionId side;
    if (candidate[0] == hg::kNoVertex && candidate[1] == hg::kNoVertex) break;
    if (candidate[0] == hg::kNoVertex) {
      side = 1;
    } else if (candidate[1] == hg::kNoVertex) {
      side = 0;
    } else if (cand_key[0] != cand_key[1]) {
      side = cand_key[0] > cand_key[1] ? 0 : 1;
    } else {
      // Tie: move from the heavier side (improves balance slack).
      side = state.part_weight(0) >= state.part_weight(1) ? 0 : 1;
    }
    const VertexId v = candidate[side];
    const PartitionId from = side;
    const PartitionId to = 1 - side;

    if (cand_parked[side]) {
      stat[from].remove(v);
    } else {
      dyn[from].remove(v);
    }
    apply_gain_updates(state, v, from, to);
    [[maybe_unused]] const Weight cut_prev = state.cut();
    state.move(v, to);
    move_log.push_back({v, from});

    if (config.observer != nullptr) {
      obs::MoveEvent move;
      move.pass = pass_index;
      move.move_index = static_cast<std::int32_t>(move_log.size()) - 1;
      move.vertex = v;
      move.from = from;
      move.to = to;
      move.gain = cut_prev - state.cut();
      move.cut = state.cut();
      config.observer->on_move(move);
    }

    if (config.check_invariants) verify_invariants(state, config);

    if (state.cut() < best_cut) {
      best_cut = state.cut();
      best_prefix = static_cast<std::int32_t>(move_log.size());
      stall = 0;
    } else {
      ++stall;
    }
  }

  // Roll back to the best prefix; the undone tail is the "wasted" work of
  // Sec. III.
  for (std::size_t i = move_log.size();
       i > static_cast<std::size_t>(best_prefix); --i) {
    const FmScratch::MoveLog& entry = move_log[i - 1];
    state.move(entry.vertex, entry.from);
  }

  record.moves_performed = static_cast<std::int32_t>(move_log.size());
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

FmResult FmBipartitioner::refine(PartitionState& state, util::Rng& rng,
                                 const FmConfig& config) {
  if (state.num_parts() != 2) {
    throw std::invalid_argument("FmBipartitioner::refine: needs 2 parts");
  }
  if (state.num_assigned() != graph_->num_vertices()) {
    throw std::invalid_argument("FmBipartitioner::refine: incomplete state");
  }
  // LIFO/FIFO keys are true gains, bounded by the weighted vertex degree.
  // CLIP keys drift by up to (initial gain) - (current gain), so they need
  // twice that range. Parked interior keys live in [-max_wdeg, 0].
  const Weight max_wdeg = graph_->max_weighted_vertex_degree();
  const Weight key_bound =
      config.policy == SelectionPolicy::kClip ? 2 * max_wdeg : max_wdeg;
  scratch_->reserve(graph_->num_vertices(), key_bound, max_wdeg);

  FmResult result;
  result.initial_cut = state.cut();
  for (int pass = 0; pass < config.max_passes; ++pass) {
    if (config.deadline != nullptr && config.deadline->expired()) {
      result.truncated = true;
      break;
    }
    PassRecord record;
    const Weight gain = run_pass(state, rng, config, pass, record);
    ++result.passes;
    result.total_moves += record.moves_performed;
    if (config.collect_pass_records) result.pass_records.push_back(record);
    // An expiry inside run_pass already rolled back to the best prefix;
    // report the truncation even when this pass happened to converge.
    if (config.deadline != nullptr && config.deadline->expired()) {
      result.truncated = true;
      break;
    }
    if (gain <= 0) break;
  }
  result.final_cut = state.cut();
  auto& reg = obs::Registry::global();
  static const obs::MetricId refines = reg.counter("fm.refine_calls");
  static const obs::MetricId passes = reg.counter("fm.passes");
  static const obs::MetricId moves = reg.counter("fm.moves");
  static const obs::MetricId truncations = reg.counter("fm.truncations");
  static const obs::MetricId kept =
      reg.histogram("fm.pass_kept_fraction", 0.0, 1.0, 10);
  reg.add(refines);
  reg.add(passes, result.passes);
  reg.add(moves, result.total_moves);
  if (result.truncated) reg.add(truncations);
  for (const PassRecord& r : result.pass_records) {
    if (r.moves_performed > 0) {
      reg.observe(kept, static_cast<double>(r.best_prefix) /
                            static_cast<double>(r.moves_performed));
    }
  }
  return result;
}

}  // namespace fixedpart::part
