#pragma once
// The three workloads and the metric lists every run reports. Each list
// is first filled with zeros in BENCHMARK.json order, so a run always
// prints every name; a per-layer metric a workload does not exercise
// stays 0 (the layer did no work there).

#include "common.hpp"

namespace fpbench {

/// End-to-end metrics (untraced runs). Their meaning per workload is in
/// README.md; every one is non-zero on every workload.
void init_end_to_end(Metrics& metrics);
/// Per-layer metrics (traced runs).
void init_per_layer(Metrics& metrics);

Report run_stream(const Options& options);
Report run_sweep(const Options& options);
Report run_serve(const Options& options);

}  // namespace fpbench
