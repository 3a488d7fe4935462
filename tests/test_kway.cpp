#include "part/kway_fm.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "hg/builder.hpp"
#include "part/initial.hpp"
#include "util/rng.hpp"

namespace fixedpart::part {
namespace {

hg::Hypergraph random_graph(util::Rng& rng, int n, int nets) {
  hg::HypergraphBuilder b;
  for (int i = 0; i < n; ++i) {
    b.add_vertex(1 + static_cast<Weight>(rng.next_below(3)));
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

/// Four 4-clusters; optimal 4-way cut separates them.
hg::Hypergraph four_clusters() {
  hg::HypergraphBuilder b;
  for (int i = 0; i < 16; ++i) b.add_vertex(1);
  for (int c = 0; c < 4; ++c) {
    const int base = 4 * c;
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) {
        b.add_net(std::vector<hg::VertexId>{base + i, base + j});
      }
    }
  }
  b.add_net(std::vector<hg::VertexId>{0, 4});
  b.add_net(std::vector<hg::VertexId>{8, 12});
  return b.build();
}

TEST(KwayFm, ImprovesFourWayCut) {
  const hg::Hypergraph g = four_clusters();
  const hg::FixedAssignment fixed(g.num_vertices(), 4);
  const auto balance = BalanceConstraint::relative(g, 4, 50.0);
  KwayFmRefiner refiner(g, fixed, balance);

  PartitionState state(g, 4);
  for (hg::VertexId v = 0; v < 16; ++v) state.assign(v, v % 4);
  const Weight initial = state.cut();
  util::Rng rng(1);
  const auto result = refiner.refine(state, rng, KwayConfig{});
  EXPECT_LT(result.final_cut, initial);
  EXPECT_EQ(result.final_cut, state.cut());
  EXPECT_EQ(state.cut(), state.recompute_cut());
}

TEST(KwayFm, ReachesOptimalOnSeparableInstance) {
  const hg::Hypergraph g = four_clusters();
  const hg::FixedAssignment fixed(g.num_vertices(), 4);
  const auto balance = BalanceConstraint::relative(g, 4, 50.0);
  KwayFmRefiner refiner(g, fixed, balance);
  // Multistart flat k-way FM should find the 2-cut clustering.
  Weight best = std::numeric_limits<Weight>::max();
  util::Rng rng(2);
  for (int s = 0; s < 20; ++s) {
    PartitionState state(g, 4);
    random_feasible_assignment(state, fixed, balance, rng);
    refiner.refine(state, rng, KwayConfig{});
    best = std::min(best, state.cut());
  }
  EXPECT_EQ(best, 2);
}

TEST(KwayFm, RespectsFixedAndOrSets) {
  util::Rng gen(3);
  const hg::Hypergraph g = random_graph(gen, 60, 120);
  hg::FixedAssignment fixed(g.num_vertices(), 4);
  fixed.fix(0, 3);
  fixed.fix(1, 0);
  fixed.restrict_to(2, 0b0110);  // parts 1 or 2
  const auto balance = BalanceConstraint::relative(g, 4, 30.0);
  KwayFmRefiner refiner(g, fixed, balance);
  EXPECT_EQ(refiner.num_movable(), g.num_vertices() - 2);

  PartitionState state(g, 4);
  util::Rng rng(4);
  random_feasible_assignment(state, fixed, balance, rng);
  refiner.refine(state, rng, KwayConfig{});
  EXPECT_EQ(state.part_of(0), 3);
  EXPECT_EQ(state.part_of(1), 0);
  EXPECT_TRUE(state.part_of(2) == 1 || state.part_of(2) == 2);
  check_respects_fixed(state, fixed);
}

TEST(KwayFm, RefineRejectsIncompleteState) {
  util::Rng gen(5);
  const hg::Hypergraph g = random_graph(gen, 10, 15);
  const hg::FixedAssignment fixed(g.num_vertices(), 3);
  const auto balance = BalanceConstraint::relative(g, 3, 30.0);
  KwayFmRefiner refiner(g, fixed, balance);
  PartitionState state(g, 3);
  util::Rng rng(6);
  EXPECT_THROW(refiner.refine(state, rng, KwayConfig{}),
               std::invalid_argument);
}

struct KwayParam {
  std::uint64_t seed;
  int parts;
  double tolerance;
  double cutoff;
  double fixed_fraction;
};

// Names the case by its fields: the default byte dump would include the
// uninitialised padding after `parts`, so the test's CTest name would change
// from build to build.
void PrintTo(const KwayParam& p, std::ostream* os) {
  *os << "seed " << p.seed << " parts " << p.parts << " tolerance "
      << p.tolerance << " cutoff " << p.cutoff << " fixed " << p.fixed_fraction;
}

class KwayProperty : public ::testing::TestWithParam<KwayParam> {};

TEST_P(KwayProperty, InvariantsHold) {
  const auto param = GetParam();
  util::Rng gen(param.seed);
  const hg::Hypergraph g = random_graph(gen, 80, 160);
  hg::FixedAssignment fixed(g.num_vertices(), param.parts);
  const auto fixed_count =
      static_cast<hg::VertexId>(param.fixed_fraction * 80);
  for (hg::VertexId i = 0; i < fixed_count; ++i) {
    fixed.fix(i, static_cast<hg::PartitionId>(
                     gen.next_below(static_cast<std::uint64_t>(param.parts))));
  }
  const auto balance = BalanceConstraint::relative(g, param.parts,
                                                   param.tolerance);
  KwayFmRefiner refiner(g, fixed, balance);

  PartitionState state(g, param.parts);
  util::Rng rng(param.seed ^ 0x5555);
  random_feasible_assignment(state, fixed, balance, rng);
  const Weight initial = state.cut();

  KwayConfig config;
  config.pass_cutoff = param.cutoff;
  const auto result = refiner.refine(state, rng, config);

  EXPECT_LE(result.final_cut, initial);
  EXPECT_EQ(result.final_cut, state.cut());
  EXPECT_EQ(state.cut(), state.recompute_cut());
  EXPECT_TRUE(balance.satisfied(state.part_weights()));
  check_respects_fixed(state, fixed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KwayProperty,
    ::testing::Values(KwayParam{31, 2, 10.0, 1.0, 0.0},
                      KwayParam{32, 3, 10.0, 1.0, 0.2},
                      KwayParam{33, 4, 20.0, 1.0, 0.3},
                      KwayParam{34, 4, 20.0, 0.25, 0.0},
                      KwayParam{35, 8, 30.0, 1.0, 0.1},
                      KwayParam{36, 2, 5.0, 0.1, 0.5},
                      KwayParam{37, 6, 25.0, 0.5, 0.25}));

}  // namespace
}  // namespace fixedpart::part
