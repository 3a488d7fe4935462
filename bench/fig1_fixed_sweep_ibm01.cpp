// Regenerates Fig. 1: the fixed-vertex sweep on an IBM01-like circuit
// (raw / normalized best cut and CPU time vs. % fixed, for 1/2/4/8 starts,
// good and rand regimes). Runs through the svc batch engine; see
// fixed_sweep_common.hpp for --journal/--resume/--workers/--budget.

#include "bench/fixed_sweep_common.hpp"

int main(int argc, char** argv) {
  return fixedpart::util::run_cli_main("fig1_fixed_sweep_ibm01", [&] {
    return fixedpart::bench::run_sweep_figure("Fig. 1", 1, argc, argv);
  });
}
