// Regenerates Fig. 2: the fixed-vertex sweep on an IBM03-like circuit.
// Runs through the svc batch engine; see fixed_sweep_common.hpp for
// --journal/--resume/--workers/--budget.

#include "bench/fixed_sweep_common.hpp"

int main(int argc, char** argv) {
  return fixedpart::util::run_cli_main("fig2_fixed_sweep_ibm03", [&] {
    return fixedpart::bench::run_sweep_figure("Fig. 2", 3, argc, argv);
  });
}
