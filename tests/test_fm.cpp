#include "part/fm.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "hg/builder.hpp"
#include "ml/multilevel.hpp"
#include "part/initial.hpp"
#include "part/kway_fm.hpp"
#include "util/rng.hpp"

namespace fixedpart::part {
namespace {

/// Two 4-cliques (as 2-pin nets) joined by a single bridge net: the
/// optimal bisection cuts exactly the bridge.
hg::Hypergraph two_clusters() {
  hg::HypergraphBuilder b;
  for (int i = 0; i < 8; ++i) b.add_vertex(1);
  auto clique = [&](int base) {
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) {
        b.add_net(std::vector<hg::VertexId>{base + i, base + j});
      }
    }
  };
  clique(0);
  clique(4);
  b.add_net(std::vector<hg::VertexId>{0, 4});
  return b.build();
}

hg::Hypergraph random_graph(util::Rng& rng, int n, int nets,
                            Weight max_area = 4) {
  hg::HypergraphBuilder b;
  for (int i = 0; i < n; ++i) {
    b.add_vertex(1 + static_cast<Weight>(rng.next_below(
                         static_cast<std::uint64_t>(max_area))));
  }
  for (int e = 0; e < nets; ++e) {
    std::vector<hg::VertexId> pins;
    const int degree = 2 + static_cast<int>(rng.next_below(4));
    for (int d = 0; d < degree; ++d) {
      pins.push_back(static_cast<hg::VertexId>(
          rng.next_below(static_cast<std::uint64_t>(n))));
    }
    b.add_net(pins);
  }
  return b.build();
}

TEST(FmBipartitioner, FindsOptimalCutOnTwoClusters) {
  const hg::Hypergraph g = two_clusters();
  const hg::FixedAssignment fixed(g.num_vertices(), 2);
  // Tolerance must admit a 5/3 intermediate state: FM only ever moves one
  // vertex at a time, so with max side weight 4 a perfect 4/4 split would
  // deadlock (no single move stays feasible) — the toy-instance version of
  // the paper's "relatively overconstrained" effect.
  const auto balance = BalanceConstraint::relative(g, 2, 30.0);
  FmBipartitioner fm(g, fixed, balance);

  // Worst start: clusters interleaved across the sides.
  PartitionState state(g, 2);
  for (hg::VertexId v = 0; v < 8; ++v) state.assign(v, v % 2);
  util::Rng rng(1);
  const auto result = fm.refine(state, rng, FmConfig{});
  EXPECT_EQ(result.final_cut, 1);
  EXPECT_EQ(state.cut(), 1);
  EXPECT_LE(result.final_cut, result.initial_cut);
}

TEST(FmBipartitioner, FixedVerticesNeverMove) {
  const hg::Hypergraph g = two_clusters();
  hg::FixedAssignment fixed(g.num_vertices(), 2);
  fixed.fix(0, 0);
  fixed.fix(7, 1);
  const auto balance = BalanceConstraint::relative(g, 2, 10.0);
  FmBipartitioner fm(g, fixed, balance);
  EXPECT_EQ(fm.num_movable(), 6);

  PartitionState state(g, 2);
  util::Rng rng(2);
  random_feasible_assignment(state, fixed, balance, rng);
  fm.refine(state, rng, FmConfig{});
  EXPECT_EQ(state.part_of(0), 0);
  EXPECT_EQ(state.part_of(7), 1);
  check_respects_fixed(state, fixed);
}

TEST(FmBipartitioner, OrRestrictedVertexIsMovableInBipartition) {
  const hg::Hypergraph g = two_clusters();
  hg::FixedAssignment fixed(g.num_vertices(), 2);
  fixed.restrict_to(3, 0b11);  // allowed on both sides == free
  const auto balance = BalanceConstraint::relative(g, 2, 10.0);
  const FmBipartitioner fm(g, fixed, balance);
  EXPECT_EQ(fm.num_movable(), 8);
}

TEST(FmBipartitioner, AllVerticesFixedMeansNoMoves) {
  const hg::Hypergraph g = two_clusters();
  hg::FixedAssignment fixed(g.num_vertices(), 2);
  for (hg::VertexId v = 0; v < 8; ++v) fixed.fix(v, v < 4 ? 0 : 1);
  const auto balance = BalanceConstraint::relative(g, 2, 10.0);
  FmBipartitioner fm(g, fixed, balance);
  EXPECT_EQ(fm.num_movable(), 0);

  PartitionState state(g, 2);
  for (hg::VertexId v = 0; v < 8; ++v) state.assign(v, v < 4 ? 0 : 1);
  util::Rng rng(3);
  const auto result = fm.refine(state, rng, FmConfig{});
  EXPECT_EQ(result.total_moves, 0);
  EXPECT_EQ(result.final_cut, result.initial_cut);
}

TEST(FmBipartitioner, RefineRejectsIncompleteState) {
  const hg::Hypergraph g = two_clusters();
  const hg::FixedAssignment fixed(g.num_vertices(), 2);
  const auto balance = BalanceConstraint::relative(g, 2, 10.0);
  FmBipartitioner fm(g, fixed, balance);
  PartitionState state(g, 2);
  state.assign(0, 0);
  util::Rng rng(4);
  EXPECT_THROW(fm.refine(state, rng, FmConfig{}), std::invalid_argument);
}

TEST(FmBipartitioner, RequiresTwoParts) {
  const hg::Hypergraph g = two_clusters();
  const hg::FixedAssignment fixed4(g.num_vertices(), 4);
  const auto balance4 = BalanceConstraint::relative(g, 4, 10.0);
  EXPECT_THROW(FmBipartitioner(g, fixed4, balance4), std::invalid_argument);
}

TEST(FmBipartitioner, DeterministicGivenSeed) {
  util::Rng gen(11);
  const hg::Hypergraph g = random_graph(gen, 60, 120);
  const hg::FixedAssignment fixed(g.num_vertices(), 2);
  const auto balance = BalanceConstraint::relative(g, 2, 5.0);

  auto run_once = [&](std::uint64_t seed) {
    FmBipartitioner fm(g, fixed, balance);
    PartitionState state(g, 2);
    util::Rng rng(seed);
    random_feasible_assignment(state, fixed, balance, rng);
    fm.refine(state, rng, FmConfig{});
    return std::vector<hg::PartitionId>(state.assignment().begin(),
                                        state.assignment().end());
  };
  EXPECT_EQ(run_once(99), run_once(99));
  // CLIP with the same seed is a different (but deterministic) trajectory.
  EXPECT_EQ(run_once(100), run_once(100));
}

TEST(FmBipartitioner, PassCutoffLimitsMoves) {
  util::Rng gen(12);
  const hg::Hypergraph g = random_graph(gen, 100, 200);
  const hg::FixedAssignment fixed(g.num_vertices(), 2);
  const auto balance = BalanceConstraint::relative(g, 2, 5.0);
  FmBipartitioner fm(g, fixed, balance);

  PartitionState state(g, 2);
  util::Rng rng(5);
  random_feasible_assignment(state, fixed, balance, rng);

  FmConfig config;
  config.pass_cutoff = 0.10;
  const auto result = fm.refine(state, rng, config);
  ASSERT_GE(result.pass_records.size(), 1u);
  // First pass is exempt from the cutoff.
  for (std::size_t p = 1; p < result.pass_records.size(); ++p) {
    EXPECT_LE(result.pass_records[p].moves_performed,
              std::max(1, result.pass_records[p].movable / 10 + 1));
  }
}

TEST(FmBipartitioner, CutoffOnFirstPassWhenRequested) {
  util::Rng gen(13);
  const hg::Hypergraph g = random_graph(gen, 100, 200);
  const hg::FixedAssignment fixed(g.num_vertices(), 2);
  const auto balance = BalanceConstraint::relative(g, 2, 5.0);
  FmBipartitioner fm(g, fixed, balance);

  PartitionState state(g, 2);
  util::Rng rng(6);
  random_feasible_assignment(state, fixed, balance, rng);
  FmConfig config;
  config.pass_cutoff = 0.05;
  config.cutoff_first_pass = true;
  const auto result = fm.refine(state, rng, config);
  EXPECT_LE(result.pass_records[0].moves_performed,
            std::max(1, result.pass_records[0].movable / 20 + 1));
}

TEST(FmBipartitioner, FifoFindsOptimalCutOnTwoClusters) {
  const hg::Hypergraph g = two_clusters();
  const hg::FixedAssignment fixed(g.num_vertices(), 2);
  const auto balance = BalanceConstraint::relative(g, 2, 30.0);
  FmBipartitioner fm(g, fixed, balance);
  PartitionState state(g, 2);
  for (hg::VertexId v = 0; v < 8; ++v) state.assign(v, v % 2);
  util::Rng rng(14);
  FmConfig config;
  config.policy = SelectionPolicy::kFifo;
  const auto result = fm.refine(state, rng, config);
  EXPECT_EQ(result.final_cut, 1);
}

TEST(FmBipartitioner, PoliciesDivergeButAllImprove) {
  util::Rng gen(15);
  const hg::Hypergraph g = random_graph(gen, 150, 300);
  const hg::FixedAssignment fixed(g.num_vertices(), 2);
  const auto balance = BalanceConstraint::relative(g, 2, 5.0);
  FmBipartitioner fm(g, fixed, balance);
  for (const SelectionPolicy policy :
       {SelectionPolicy::kLifo, SelectionPolicy::kFifo,
        SelectionPolicy::kClip}) {
    PartitionState state(g, 2);
    util::Rng rng(99);
    random_feasible_assignment(state, fixed, balance, rng);
    const Weight initial = state.cut();
    FmConfig config;
    config.policy = policy;
    const auto result = fm.refine(state, rng, config);
    EXPECT_LT(result.final_cut, initial);
    EXPECT_EQ(state.cut(), state.recompute_cut());
  }
}

// The delta-update rules are the heart of FM; run the engine with the
// self-check that recomputes every unlocked vertex's true gain after every
// single move and compares it to the bucket key.
class FmGainInvariant
    : public ::testing::TestWithParam<std::tuple<std::uint64_t,
                                                 SelectionPolicy>> {};

TEST_P(FmGainInvariant, KeysTrackTrueGainsMoveByMove) {
  const auto [seed, policy] = GetParam();
  util::Rng gen(seed);
  const hg::Hypergraph g = random_graph(gen, 60, 140);
  hg::FixedAssignment fixed(g.num_vertices(), 2);
  for (hg::VertexId v = 0; v < 10; ++v) {
    fixed.fix(v, static_cast<hg::PartitionId>(gen.next_below(2)));
  }
  const auto balance = BalanceConstraint::relative(g, 2, 10.0);
  FmBipartitioner fm(g, fixed, balance);
  PartitionState state(g, 2);
  util::Rng rng(seed ^ 0x9a1);
  random_feasible_assignment(state, fixed, balance, rng);
  FmConfig config;
  config.policy = policy;
  config.check_invariants = true;
  EXPECT_NO_THROW(fm.refine(state, rng, config));
}

INSTANTIATE_TEST_SUITE_P(
    Policies, FmGainInvariant,
    ::testing::Combine(::testing::Values(61, 62, 63),
                       ::testing::Values(SelectionPolicy::kLifo,
                                         SelectionPolicy::kFifo,
                                         SelectionPolicy::kClip)));

/// Random 3-pin netlist whose vertices carry `resources` weights each.
hg::Hypergraph multi_resource_graph(int resources, util::Rng& gen) {
  hg::HypergraphBuilder b(resources);
  std::vector<Weight> w(static_cast<std::size_t>(resources));
  for (int i = 0; i < 60; ++i) {
    for (int r = 0; r < resources; ++r) {
      w[static_cast<std::size_t>(r)] =
          1 + static_cast<Weight>(gen.next_below(r % 2 == 0 ? 3 : 5));
    }
    b.add_vertex(std::span<const Weight>(w));
  }
  for (int e = 0; e < 120; ++e) {
    std::vector<hg::VertexId> pins;
    for (int d = 0; d < 3; ++d) {
      pins.push_back(static_cast<hg::VertexId>(gen.next_below(60)));
    }
    b.add_net(pins);
  }
  return b.build();
}

/// Every resource of every part within its upper capacity.
void expect_within_capacity(const BalanceConstraint& balance,
                            const PartitionState& state) {
  EXPECT_TRUE(balance.satisfied(state.part_weights()));
  for (int r = 0; r < balance.num_resources(); ++r) {
    for (hg::PartitionId p = 0; p < balance.num_parts(); ++p) {
      EXPECT_LE(state.part_weight(p, r), balance.max_weight(p, r));
    }
  }
}

TEST(FmBipartitioner, MultiResourceBalanceRespected) {
  // The loaders accept up to 1024 resources, so every engine must too:
  // 9 is past any small fixed-size per-vertex scratch.
  for (const int resources : {2, 9}) {
    SCOPED_TRACE(resources);
    util::Rng gen(16);
    const hg::Hypergraph g = multi_resource_graph(resources, gen);
    const hg::FixedAssignment fixed(g.num_vertices(), 2);
    const auto balance = BalanceConstraint::relative(g, 2, 15.0);
    FmBipartitioner fm(g, fixed, balance);
    PartitionState state(g, 2);
    util::Rng rng(17);
    random_feasible_assignment(state, fixed, balance, rng);
    const Weight initial = state.cut();
    fm.refine(state, rng, FmConfig{});
    EXPECT_LE(state.cut(), initial);
    expect_within_capacity(balance, state);

    // The same instance through the multilevel pipeline (coarsening
    // enabled at this size) ...
    ml::MultilevelConfig ml_config;
    ml_config.coarsest_size = 16;
    const auto result =
        ml::MultilevelPartitioner(g, fixed, balance).run(rng, ml_config);
    PartitionState ml_state(g, 2);
    for (hg::VertexId v = 0; v < g.num_vertices(); ++v) {
      ml_state.assign(v, result.assignment[static_cast<std::size_t>(v)]);
    }
    EXPECT_EQ(ml_state.cut(), result.cut);
    expect_within_capacity(balance, ml_state);

    // ... and through k-way FM at k = 3.
    const hg::FixedAssignment fixed3(g.num_vertices(), 3);
    const auto balance3 = BalanceConstraint::relative(g, 3, 15.0);
    PartitionState kway_state(g, 3);
    random_feasible_assignment(kway_state, fixed3, balance3, rng);
    const Weight kway_initial = kway_state.cut();
    KwayFmRefiner(g, fixed3, balance3).refine(kway_state, rng, KwayConfig{});
    EXPECT_LE(kway_state.cut(), kway_initial);
    expect_within_capacity(balance3, kway_state);
  }
}

TEST(FmBipartitioner, PassRecordWastedFraction) {
  PassRecord rec;
  rec.moves_performed = 100;
  rec.best_prefix = 25;
  EXPECT_DOUBLE_EQ(rec.wasted_fraction(), 0.75);
  PassRecord empty;
  EXPECT_DOUBLE_EQ(empty.wasted_fraction(), 0.0);
}

struct FmPropertyParam {
  std::uint64_t seed;
  int vertices;
  int nets;
  double tolerance;
  SelectionPolicy policy;
  double cutoff;
  double fixed_fraction;
};

class FmProperty : public ::testing::TestWithParam<FmPropertyParam> {};

TEST_P(FmProperty, InvariantsHold) {
  const auto param = GetParam();
  util::Rng gen(param.seed);
  const hg::Hypergraph g = random_graph(gen, param.vertices, param.nets);

  hg::FixedAssignment fixed(g.num_vertices(), 2);
  const auto fixed_count = static_cast<hg::VertexId>(
      param.fixed_fraction * param.vertices);
  for (hg::VertexId i = 0; i < fixed_count; ++i) {
    fixed.fix(i, static_cast<hg::PartitionId>(gen.next_below(2)));
  }
  const auto balance = BalanceConstraint::relative(g, 2, param.tolerance);

  FmBipartitioner fm(g, fixed, balance);
  PartitionState state(g, 2);
  util::Rng rng(param.seed ^ 0xabcdef);
  random_feasible_assignment(state, fixed, balance, rng);
  const Weight initial = state.cut();
  ASSERT_TRUE(balance.satisfied(state.part_weights()));

  FmConfig config;
  config.policy = param.policy;
  config.pass_cutoff = param.cutoff;
  const auto result = fm.refine(state, rng, config);

  // 1. Monotone improvement at the run level.
  EXPECT_LE(result.final_cut, initial);
  EXPECT_EQ(result.initial_cut, initial);
  // 2. Reported cut matches the state and a from-scratch recomputation.
  EXPECT_EQ(result.final_cut, state.cut());
  EXPECT_EQ(state.cut(), state.recompute_cut());
  // 3. Balance is preserved.
  EXPECT_TRUE(balance.satisfied(state.part_weights()));
  // 4. Fixed vertices are untouched.
  check_respects_fixed(state, fixed);
  // 5. Pass records are self-consistent.
  for (const auto& rec : result.pass_records) {
    EXPECT_LE(rec.best_prefix, rec.moves_performed);
    EXPECT_LE(rec.moves_performed, rec.movable);
    EXPECT_LE(rec.cut_best, rec.cut_before);
  }
  // 6. The last pass never improves (that is why refinement stopped),
  //    unless the pass cap was hit.
  if (result.passes < config.max_passes && !result.pass_records.empty()) {
    EXPECT_EQ(result.pass_records.back().cut_best,
              result.pass_records.back().cut_before);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FmProperty,
    ::testing::Values(
        FmPropertyParam{21, 40, 80, 10.0, SelectionPolicy::kLifo, 1.0, 0.0},
        FmPropertyParam{22, 40, 80, 10.0, SelectionPolicy::kClip, 1.0, 0.0},
        FmPropertyParam{41, 40, 80, 10.0, SelectionPolicy::kFifo, 1.0, 0.0},
        FmPropertyParam{42, 80, 160, 5.0, SelectionPolicy::kFifo, 0.25, 0.2},
        FmPropertyParam{43, 120, 300, 2.0, SelectionPolicy::kFifo, 1.0, 0.4},
        FmPropertyParam{23, 80, 160, 5.0, SelectionPolicy::kLifo, 1.0, 0.2},
        FmPropertyParam{24, 80, 160, 5.0, SelectionPolicy::kClip, 1.0, 0.2},
        FmPropertyParam{25, 80, 160, 2.0, SelectionPolicy::kLifo, 0.25, 0.3},
        FmPropertyParam{26, 80, 160, 2.0, SelectionPolicy::kClip, 0.25, 0.3},
        FmPropertyParam{27, 120, 300, 2.0, SelectionPolicy::kLifo, 0.05, 0.5},
        FmPropertyParam{28, 60, 200, 10.0, SelectionPolicy::kLifo, 0.5, 0.1},
        FmPropertyParam{29, 200, 400, 2.0, SelectionPolicy::kClip, 1.0, 0.4},
        FmPropertyParam{30, 30, 90, 20.0, SelectionPolicy::kLifo, 1.0, 0.0}));

}  // namespace
}  // namespace fixedpart::part
