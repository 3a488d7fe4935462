// The behaviour contract (ctest label: contract): the serial multistart
// best cuts that every engine change must hold, or re-baseline on purpose
// with equal or better cuts. The configuration is the paper's multistart
// protocol as perfbench's sweep-fixed workload pins it (cut_ibm0X_ms8):
// an IBM-profile circuit at default scale, no fixed vertices, 2% relative
// balance, seed 0xBE9C, and 8 sequential MultilevelPartitioner::run
// starts with the default MultilevelConfig. The 200k-cell streamed cut
// (9800) is pinned by tests/large_scale.sh, and the canonical journal of
// a generated batch fleet by tests/canonical_journal.sh.

#include <gtest/gtest.h>

#include "gen/netlist_gen.hpp"
#include "gen/suite.hpp"
#include "hg/fixed.hpp"
#include "ml/multilevel.hpp"
#include "part/balance.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace fixedpart {
namespace {

hg::Weight multistart_best_cut(int ibm_index) {
  const auto circuit = gen::generate_circuit(
      gen::ibm_like_spec(ibm_index, util::Scale::kDefault));
  const hg::FixedAssignment fixed(circuit.graph.num_vertices(), 2);
  const auto balance =
      part::BalanceConstraint::relative(circuit.graph, 2, 2.0);
  const ml::MultilevelPartitioner partitioner(circuit.graph, fixed, balance);
  util::Rng rng(0xBE9C);
  const ml::MultilevelConfig config;
  hg::Weight best = 0;
  for (int start = 0; start < 8; ++start) {
    const ml::MultilevelResult result = partitioner.run(rng, config);
    EXPECT_FALSE(result.truncated);
    if (start == 0 || result.cut < best) best = result.cut;
  }
  return best;
}

TEST(Contract, MultistartBestCutIbm01) {
  EXPECT_EQ(multistart_best_cut(1), 285);
}

TEST(Contract, MultistartBestCutIbm03) {
  EXPECT_EQ(multistart_best_cut(3), 479);
}

}  // namespace
}  // namespace fixedpart
