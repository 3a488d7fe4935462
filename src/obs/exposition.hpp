#pragma once
// Prometheus text exposition format 0.0.4 rendering of an obs::Snapshot,
// the live sibling of Snapshot::to_json (docs/OBSERVABILITY.md). Pure
// functions over an already-scraped snapshot — no registry access.
//
// Mapping:
//  * metric names are sanitized to the Prometheus grammar
//    [a-zA-Z_:][a-zA-Z0-9_:]* ('.' and every other invalid byte -> '_');
//  * names built with obs::labeled() ("family{key=\"value\"}") are split
//    back into family + label set and emitted as one grouped family;
//  * counters  -> `# TYPE f counter`,   one sample per member;
//  * gauges    -> `# TYPE f gauge`,     one sample per member;
//  * histograms-> `# TYPE f histogram`, cumulative `f_bucket{le="..."}`
//    series per bin edge plus `le="+Inf"`, then `f_sum` and `f_count`.
//    The top bin also holds clamped out-of-range observations, so its
//    upper edge is rendered only as "+Inf" (never as a finite `le` that
//    would under-promise what the bucket contains).

#include <string>

#include "obs/registry.hpp"

namespace fixedpart::obs {

/// Renders the whole snapshot as a /metrics page (trailing newline
/// included; empty snapshot renders an empty string).
std::string to_prometheus(const Snapshot& snapshot);

/// Sanitizes one metric (or label-family) base name to the Prometheus
/// name grammar. Exposed for tests.
std::string prometheus_name(const std::string& name);

}  // namespace fixedpart::obs
