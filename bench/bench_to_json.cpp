// Benchmark-to-JSON runner: executes the micro and multilevel partitioning
// benchmarks on generated IBM-profile circuits and writes a machine-readable
// trajectory file (BENCH_*.json). The committed BENCH_<pr>.json files record
// the performance trajectory of the refinement hot path PR over PR.
//
//   bench_to_json --out=BENCH_1.json                 # fresh measurement
//   bench_to_json --out=BENCH_1.json --baseline=baseline.json   # + speedups
//   bench_to_json --smoke --out=/tmp/smoke.json      # tiny instance, CI smoke
//
// The baseline file is a previous output of this tool; its "results" section
// is re-emitted under "baseline" and per-scenario speedups (baseline seconds
// over current seconds) are computed. After writing, the file is re-parsed
// and checked against the in-memory numbers so the emitter cannot silently
// produce unreadable output.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen/netlist_gen.hpp"
#include "gen/suite.hpp"
#include "hg/fixed.hpp"
#include "ml/multilevel.hpp"
#include "obs/log.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "part/balance.hpp"
#include "part/fm.hpp"
#include "part/gain_buckets.hpp"
#include "part/initial.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/deadline.hpp"
#include "util/env.hpp"
#include "util/mem.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace fixedpart;

struct Metric {
  hg::Weight cut = 0;
  double seconds = 0.0;
  std::int64_t moves = 0;
  std::int32_t passes = 0;
  double moves_per_sec = 0.0;
  /// A --budget deadline expired mid-scenario; the cut is the best found
  /// within the budget and must not be compared against full runs.
  bool truncated = false;
};

using Results = std::vector<std::pair<std::string, Metric>>;

const Metric* find(const Results& results, const std::string& name) {
  for (const auto& [key, metric] : results) {
    if (key == name) return &metric;
  }
  return nullptr;
}

// --- scenarios -----------------------------------------------------------

/// The paper's multistart protocol: `starts` independent multilevel runs,
/// best cut kept. Timed over all starts; repeated `repeats` times with the
/// minimum wall-clock reported (the runs are deterministic for the seed, so
/// cut/moves/passes are identical across repeats).
///
/// With `traced` the same measurement runs under an armed trace context
/// (per-rep SpanBuffer, as the server arms one per job), so the
/// ml_multistart_* / ml_multistart_*_traced pair quantifies the per-job
/// tracing overhead: cuts/moves/passes must be identical, seconds within
/// noise ("trace_overhead" in the output).
Metric run_multilevel(const gen::GeneratedCircuit& circuit, int starts,
                      int repeats, double budget_seconds,
                      bool traced = false) {
  const hg::FixedAssignment fixed(circuit.graph.num_vertices(), 2);
  const auto balance =
      part::BalanceConstraint::relative(circuit.graph, 2, 2.0);
  const ml::MultilevelPartitioner partitioner(circuit.graph, fixed, balance);

  Metric m;
  m.seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < repeats; ++rep) {
    obs::SpanBuffer spans;
    std::optional<obs::ScopedTraceContext> trace_scope;
    if (traced) {
      trace_scope.emplace(obs::trace_id_for("bench.multistart"), &spans);
    }
    util::Rng rng(0xBE9C);
    util::Timer timer;
    util::Deadline deadline;
    ml::MultilevelConfig config;
    if (budget_seconds > 0.0) {
      deadline = util::Deadline::after_seconds(budget_seconds);
      config.deadline = &deadline;
    }
    hg::Weight best_cut = 0;
    std::int64_t moves = 0;
    std::int32_t passes = 0;
    for (int s = 0; s < starts; ++s) {
      if (s > 0 && budget_seconds > 0.0 && deadline.expired()) {
        m.truncated = true;
        break;
      }
      const auto result = partitioner.run(rng, config);
      moves += result.total_moves;
      passes += result.total_passes;
      m.truncated |= result.truncated;
      if (s == 0 || result.cut < best_cut) best_cut = result.cut;
    }
    m.seconds = std::min(m.seconds, timer.seconds());
    m.cut = best_cut;
    m.moves = moves;
    m.passes = passes;
  }
  m.moves_per_sec =
      m.seconds > 0.0 ? static_cast<double>(m.moves) / m.seconds : 0.0;
  return m;
}

/// Parallel multistart on the shared thread pool: the ml_multistart
/// workload with starts fanned out across --threads workers. The winning
/// cut depends only on (starts, seed), never on the thread count.
Metric run_parallel_multistart(const gen::GeneratedCircuit& circuit,
                               int starts, int threads, int repeats,
                               double budget_seconds) {
  const hg::FixedAssignment fixed(circuit.graph.num_vertices(), 2);
  const auto balance =
      part::BalanceConstraint::relative(circuit.graph, 2, 2.0);
  const ml::MultilevelPartitioner partitioner(circuit.graph, fixed, balance);

  Metric m;
  m.seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < repeats; ++rep) {
    util::Deadline deadline;
    ml::MultilevelConfig config;
    if (budget_seconds > 0.0) {
      deadline = util::Deadline::after_seconds(budget_seconds);
      config.deadline = &deadline;
    }
    util::Timer timer;
    const auto result =
        partitioner.best_of_parallel(starts, threads, 0xBE9C, config);
    m.seconds = std::min(m.seconds, timer.seconds());
    m.cut = result.cut;
    m.moves = result.total_moves;
    m.passes = result.total_passes;
    m.truncated |= result.truncated;
  }
  m.moves_per_sec =
      m.seconds > 0.0 ? static_cast<double>(m.moves) / m.seconds : 0.0;
  return m;
}

/// Flat FM refinement of a random feasible start on the full circuit.
Metric run_flat_fm(const gen::GeneratedCircuit& circuit,
                   part::SelectionPolicy policy, int repeats,
                   double budget_seconds) {
  const hg::FixedAssignment fixed(circuit.graph.num_vertices(), 2);
  const auto balance =
      part::BalanceConstraint::relative(circuit.graph, 2, 2.0);
  part::FmBipartitioner fm(circuit.graph, fixed, balance);
  part::FmConfig config;
  config.policy = policy;

  Metric m;
  m.seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < repeats; ++rep) {
    util::Rng rng(0x5EED);
    part::PartitionState state(circuit.graph, 2);
    part::random_feasible_assignment(state, fixed, balance, rng,
                                     /*require_feasible=*/false);
    util::Deadline deadline;
    if (budget_seconds > 0.0) {
      deadline = util::Deadline::after_seconds(budget_seconds);
      config.deadline = &deadline;
    }
    util::Timer timer;
    const auto result = fm.refine(state, rng, config);
    m.seconds = std::min(m.seconds, timer.seconds());
    m.cut = result.final_cut;
    m.moves = result.total_moves;
    m.passes = result.passes;
    m.truncated |= result.truncated;
  }
  m.moves_per_sec =
      m.seconds > 0.0 ? static_cast<double>(m.moves) / m.seconds : 0.0;
  return m;
}

/// Micro: gain-bucket churn (adjust + find_best) on a synthetic population,
/// the inner-loop primitive of every FM pass. `moves` counts operations.
Metric run_bucket_churn(std::int64_t ops, int repeats) {
  constexpr hg::VertexId kVertices = 10000;
  constexpr hg::Weight kMaxKey = 64;
  Metric m;
  m.seconds = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < repeats; ++rep) {
    part::GainBuckets buckets(kVertices, kMaxKey);
    util::Rng rng(7);
    for (hg::VertexId v = 0; v < kVertices; ++v) {
      buckets.insert(v, static_cast<hg::Weight>(rng.next_in(-kMaxKey,
                                                            kMaxKey)));
    }
    util::Timer timer;
    hg::VertexId sink = 0;
    for (std::int64_t i = 0; i < ops; ++i) {
      const auto v = static_cast<hg::VertexId>(
          rng.next_below(static_cast<std::uint64_t>(kVertices)));
      const auto key = buckets.key_of(v);
      const auto delta = static_cast<hg::Weight>(rng.next_in(-4, 4));
      const auto clamped = std::max<hg::Weight>(
          -kMaxKey, std::min<hg::Weight>(kMaxKey, key + delta));
      buckets.adjust(v, clamped - key);
      sink ^= buckets.find_best([](hg::VertexId) { return true; });
    }
    m.seconds = std::min(m.seconds, timer.seconds());
    m.cut = sink & 1;  // defeat over-eager optimizers; value is 0 or 1
  }
  m.cut = 0;
  m.moves = ops;
  m.moves_per_sec =
      m.seconds > 0.0 ? static_cast<double>(m.moves) / m.seconds : 0.0;
  return m;
}

// --- JSON emission and (own-format) parsing ------------------------------

std::string format_double(double value) {
  std::ostringstream out;
  out.precision(6);
  out << std::fixed << value;
  return out.str();
}

void emit_metric(std::ostream& out, const std::string& indent,
                 const Metric& m) {
  out << "{\n"
      << indent << "  \"cut\": " << m.cut << ",\n"
      << indent << "  \"seconds\": " << format_double(m.seconds) << ",\n"
      << indent << "  \"moves\": " << m.moves << ",\n"
      << indent << "  \"passes\": " << m.passes << ",\n"
      << indent << "  \"moves_per_sec\": " << format_double(m.moves_per_sec)
      << ",\n"
      << indent << "  \"truncated\": " << (m.truncated ? "true" : "false")
      << "\n"
      << indent << "}";
}

void emit_results(std::ostream& out, const std::string& key,
                  const Results& results) {
  out << "  \"" << key << "\": {\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    out << "    \"" << results[i].first << "\": ";
    emit_metric(out, "    ", results[i].second);
    out << (i + 1 < results.size() ? ",\n" : "\n");
  }
  out << "  }";
}

/// Parses the "results"-shaped section named `section` out of a file this
/// tool previously wrote. Intentionally minimal: it only understands our
/// own two-level output format.
Results parse_section(const std::string& text, const std::string& section) {
  Results results;
  const std::string anchor = "\"" + section + "\": {";
  std::size_t pos = text.find(anchor);
  if (pos == std::string::npos) return results;
  pos += anchor.size();
  while (true) {
    const std::size_t name_open = text.find('"', pos);
    if (name_open == std::string::npos) break;
    // A '}' before the next quote closes the section.
    const std::size_t closer = text.find('}', pos);
    if (closer != std::string::npos && closer < name_open) break;
    const std::size_t name_close = text.find('"', name_open + 1);
    const std::size_t obj_open = text.find('{', name_close);
    const std::size_t obj_close = text.find('}', obj_open);
    if (name_close == std::string::npos || obj_open == std::string::npos ||
        obj_close == std::string::npos) {
      break;
    }
    const std::string name =
        text.substr(name_open + 1, name_close - name_open - 1);
    const std::string body =
        text.substr(obj_open + 1, obj_close - obj_open - 1);
    Metric m;
    auto field = [&](const std::string& key, double fallback) {
      const std::string field_anchor = "\"" + key + "\":";
      const std::size_t at = body.find(field_anchor);
      if (at == std::string::npos) return fallback;
      return std::stod(body.substr(at + field_anchor.size()));
    };
    m.cut = static_cast<hg::Weight>(std::llround(field("cut", 0.0)));
    m.seconds = field("seconds", 0.0);
    m.moves = std::llround(field("moves", 0.0));
    m.passes = static_cast<std::int32_t>(std::llround(field("passes", 0.0)));
    m.moves_per_sec = field("moves_per_sec", 0.0);
    m.truncated = body.find("\"truncated\": true") != std::string::npos;
    results.emplace_back(name, m);
    pos = obj_close + 1;
  }
  return results;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("bench_to_json: cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Re-indents a pretty-printed JSON block so it nests one level deeper
/// inside the output object (and drops its trailing newline).
std::string indent_block(std::string text) {
  while (!text.empty() && text.back() == '\n') text.pop_back();
  std::string out;
  out.reserve(text.size() + 64);
  for (const char c : text) {
    out += c;
    if (c == '\n') out += "  ";
  }
  return out;
}

bool metrics_close(const Metric& a, const Metric& b) {
  const auto near = [](double x, double y) {
    return std::abs(x - y) <= 1e-5 * std::max({1.0, std::abs(x),
                                               std::abs(y)});
  };
  return a.cut == b.cut && a.moves == b.moves && a.passes == b.passes &&
         a.truncated == b.truncated && near(a.seconds, b.seconds) &&
         near(a.moves_per_sec, b.moves_per_sec);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  cli.require_known({"out", "baseline", "starts", "repeats", "smoke",
                     "budget", "threads", "trace-out"});
  const bool smoke = cli.get_bool("smoke", false);
  const std::string out_path = cli.get_or("out", "BENCH.json");
  const int starts =
      static_cast<int>(cli.get_int("starts", smoke ? 2 : 8));
  const int repeats =
      static_cast<int>(cli.get_int("repeats", smoke ? 1 : 3));
  // Shared-memory threads for the ml_parstart_* scenario.
  // The serial scenarios above ignore it, so their numbers stay comparable
  // across BENCH files regardless of this flag. Recorded in the header so a
  // BENCH file is self-describing.
  const int threads = static_cast<int>(cli.get_int("threads", 1));
  if (threads < 1) {
    std::cerr << "bench_to_json: --threads must be >= 1\n";
    return 2;
  }
  // Wall-clock budget per scenario measurement in seconds; 0 = unlimited.
  // Expired runs degrade to best-so-far and are flagged "truncated" in the
  // output (docs/ROBUSTNESS.md).
  const double budget = cli.get_double("budget", 0.0);
  const util::Scale scale = smoke ? util::Scale::kSmoke
                                  : util::Scale::kDefault;

  // Read the baseline up front: a bad path should fail before minutes of
  // measurement, not after.
  Results baseline;
  if (const auto baseline_path = cli.get("baseline")) {
    baseline = parse_section(read_file(*baseline_path), "results");
    if (baseline.empty()) {
      std::cerr << "bench_to_json: no parsable results in "
                << *baseline_path << "\n";
      return 1;
    }
  }

  const auto ibm01 = gen::generate_circuit(gen::ibm_like_spec(1, scale));
  const auto ibm03 = gen::generate_circuit(gen::ibm_like_spec(3, scale));

  Results results;
  fixedpart::obs::log_info("bench", "multilevel multistart (ibm01-profile)",
                           {{"starts", starts}, {"repeats", repeats}});
  results.emplace_back("ml_multistart_ibm01",
                       run_multilevel(ibm01, starts, repeats, budget));
  fixedpart::obs::log_info("bench", "multilevel multistart (ibm03-profile)");
  results.emplace_back("ml_multistart_ibm03",
                       run_multilevel(ibm03, starts, repeats, budget));
  // Trace-on twins of the two multistart scenarios: identical workload under
  // an armed per-job trace context (the server's steady-state shape). Cuts,
  // moves and passes must match the untraced rows exactly; the seconds ratio
  // is emitted as "trace_overhead" below.
  fixedpart::obs::log_info("bench",
                           "multilevel multistart, traced (overhead pair)");
  results.emplace_back(
      "ml_multistart_ibm01_traced",
      run_multilevel(ibm01, starts, repeats, budget, /*traced=*/true));
  results.emplace_back(
      "ml_multistart_ibm03_traced",
      run_multilevel(ibm03, starts, repeats, budget, /*traced=*/true));
  fixedpart::obs::log_info("bench", "flat FM (lifo / clip)");
  results.emplace_back(
      "flat_fm_lifo_ibm01",
      run_flat_fm(ibm01, part::SelectionPolicy::kLifo, repeats, budget));
  results.emplace_back(
      "flat_fm_clip_ibm01",
      run_flat_fm(ibm01, part::SelectionPolicy::kClip, repeats, budget));
  fixedpart::obs::log_info("bench", "gain-bucket churn");
  results.emplace_back("gain_bucket_churn",
                       run_bucket_churn(smoke ? 20000 : 2000000, repeats));
  fixedpart::obs::log_info("bench", "parallel multistart (ibm01-profile)",
                           {{"threads", threads}});
  results.emplace_back(
      "ml_parstart_ibm01",
      run_parallel_multistart(ibm01, starts, threads, repeats, budget));

  // Scraped before the (optional) traced extra run below, so the embedded
  // "metrics" section covers exactly the timed measurements above —
  // --trace-out must not pollute ml.runs/fm.* with its untimed run.
  const fixedpart::obs::Snapshot metrics_snap =
      fixedpart::obs::Registry::global().scrape();

  // Optional Chrome-trace capture: one extra, untimed multistart run under
  // a trace context of its own, so the timed numbers above stay span-free.
  // Open the file in chrome://tracing or https://ui.perfetto.dev.
  if (const auto trace_path = cli.get("trace-out")) {
    fixedpart::obs::log_info("bench",
                             "traced multilevel multistart (untimed)");
    // Roomy enough that a full-scale run keeps every span; drops are
    // counted and logged below.
    fixedpart::obs::SpanBuffer spans(std::size_t{1} << 20);
    {
      const fixedpart::obs::ScopedTraceContext scope(
          fixedpart::obs::trace_id_for("bench.trace_out"), &spans);
      run_multilevel(ibm01, starts, /*repeats=*/1, budget);
    }
    try {
      util::write_file_atomic(
          *trace_path, fixedpart::obs::trace_events_to_json(spans.events()));
    } catch (const std::exception& error) {
      std::cerr << "bench_to_json: " << error.what() << "\n";
      return 1;
    }
    fixedpart::obs::log_info(
        "bench", "wrote trace",
        {{"path", *trace_path},
         {"spans", static_cast<std::int64_t>(spans.size())},
         {"dropped", static_cast<std::int64_t>(spans.dropped())}});
  }

  {
    // Built in memory and published via write-temp + atomic rename: an
    // interruption mid-emit cannot leave a truncated BENCH_*.json behind.
    std::ostringstream out;
    out << "{\n"
        << "  \"format\": 1,\n"
        << "  \"generated_by\": \"bench_to_json\",\n"
        << "  \"scale\": \"" << util::to_string(scale) << "\",\n"
        << "  \"starts\": " << starts << ",\n"
        << "  \"repeats\": " << repeats << ",\n"
        << "  \"threads\": " << threads << ",\n"
        << "  \"cpus\": " << std::thread::hardware_concurrency() << ",\n"
        << "  \"budget_seconds\": " << format_double(budget) << ",\n"
        << "  \"peak_rss_kb\": " << util::peak_rss_kb() << ",\n";
    emit_results(out, "results", results);
    // Per-job tracing overhead: traced seconds over untraced seconds for
    // each multistart pair (1.0 = free; the regression budget is < 1.02,
    // docs/OBSERVABILITY.md "Overhead").
    out << ",\n  \"trace_overhead\": {";
    {
      bool first = true;
      for (const char* name : {"ml_multistart_ibm01", "ml_multistart_ibm03"}) {
        const Metric* plain = find(results, name);
        const Metric* traced =
            find(results, std::string(name) + "_traced");
        if (plain == nullptr || traced == nullptr || plain->seconds <= 0.0) {
          continue;
        }
        out << (first ? "\n" : ",\n") << "    \"" << name
            << "\": " << format_double(traced->seconds / plain->seconds);
        first = false;
      }
      out << "\n  }";
    }
    // Obs counters/histograms over the timed measurements (scraped before
    // any --trace-out extra run).
    out << ",\n  \"metrics\": " << indent_block(metrics_snap.to_json());
    if (!baseline.empty()) {
      out << ",\n";
      emit_results(out, "baseline", baseline);
      out << ",\n  \"speedup\": {\n";
      bool first = true;
      for (const auto& [name, metric] : results) {
        const Metric* base = find(baseline, name);
        if (base == nullptr || metric.seconds <= 0.0) continue;
        if (!first) out << ",\n";
        first = false;
        out << "    \"" << name
            << "\": " << format_double(base->seconds / metric.seconds);
      }
      out << "\n  }";
    }
    out << "\n}\n";
    try {
      util::write_file_atomic(out_path, out.str());
    } catch (const std::exception& error) {
      std::cerr << "bench_to_json: " << error.what() << "\n";
      return 1;
    }
  }

  // Round-trip check: the file we just wrote must parse back to the same
  // numbers, so the emitter (and parser) cannot silently rot.
  const Results reread = parse_section(read_file(out_path), "results");
  if (reread.size() != results.size()) {
    std::cerr << "bench_to_json: round-trip size mismatch in " << out_path
              << "\n";
    return 1;
  }
  for (const auto& [name, metric] : results) {
    const Metric* back = find(reread, name);
    if (back == nullptr || !metrics_close(metric, *back)) {
      std::cerr << "bench_to_json: round-trip mismatch for " << name << "\n";
      return 1;
    }
  }

  for (const auto& [name, metric] : results) {
    fixedpart::obs::log_info(
        "bench", "result",
        {{"name", name},
         {"cut", static_cast<std::int64_t>(metric.cut)},
         {"seconds", metric.seconds},
         {"moves", metric.moves},
         {"passes", static_cast<std::int64_t>(metric.passes)},
         {"truncated", metric.truncated}});
  }
  fixedpart::obs::log_info("bench", "wrote output", {{"path", out_path}});
  return 0;
}
