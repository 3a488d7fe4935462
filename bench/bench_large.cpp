// Scale-frontier benchmark (docs/PERF.md "BENCH_LARGE"): exercises the
// million-vertex path end to end — streaming generation to .fpbin, zero-copy
// mmap open + full scan, owning load, text-parser throughput, and a
// multilevel partition — recording wall time and the peak-RSS high-water
// mark after each stage. The committed BENCH_LARGE.json is produced by
// this tool at --cells=1000000.
//
//   bench_large --out=BENCH_LARGE.json                    # 1M cells
//   bench_large --cells=200000 --budget=60 --out=/tmp/l.json
//   bench_large --cells=200000 --max-rss-mb=2048 --min-parse-mbps=20 ...
//
// --max-rss-mb and --min-parse-mbps turn measurements into assertions
// (exit 1 on violation) so the `large` smoke stage catches memory-diet
// and parser-throughput regressions, not just crashes.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "gen/stream_gen.hpp"
#include "hg/fixed.hpp"
#include "hg/io_binary.hpp"
#include "hg/io_hmetis.hpp"
#include "ml/multilevel.hpp"
#include "part/balance.hpp"
#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/deadline.hpp"
#include "util/errors.hpp"
#include "util/mem.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace fixedpart;

struct Stage {
  std::string name;
  double seconds = 0.0;
  std::int64_t peak_rss_kb = 0;  // process high-water mark after the stage
};

std::string format_double(double value) {
  std::ostringstream out;
  out.precision(6);
  out << value;
  return out.str();
}

std::int64_t file_size_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw util::InputError("bench_large: cannot stat " + path);
  return static_cast<std::int64_t>(in.tellg());
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  return util::run_cli_main("bench_large", [&] {
    cli.require_known({"out", "cells", "seed", "starts", "threads", "budget",
                       "tmpdir", "max-rss-mb", "min-parse-mbps", "keep"});
    const auto out_path = cli.get("out");
    if (!out_path) {
      throw util::UsageError(
          "bench_large --out=<file.json> [--cells=1000000] [--seed=1] "
          "[--starts=1] [--threads=1] [--budget=seconds] [--tmpdir=/tmp] "
          "[--max-rss-mb=M] [--min-parse-mbps=T] [--keep]");
    }
    const auto cells = static_cast<hg::VertexId>(
        cli.get_int("cells", 1'000'000));
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
    const int starts = static_cast<int>(cli.get_int("starts", 1));
    const int threads = static_cast<int>(cli.get_int("threads", 1));
    const double budget = cli.get_double("budget", 0.0);
    const std::string tmpdir = cli.get_or("tmpdir", "/tmp");
    const std::string stem = tmpdir + "/bench_large_" +
                             std::to_string(static_cast<long>(::getpid()));
    const std::string fpbin_path = stem + ".fpbin";
    const std::string hgr_path = stem + ".hgr";

    std::vector<Stage> stages;
    const auto record = [&](const std::string& name, double seconds) {
      stages.push_back({name, seconds, util::peak_rss_kb()});
      std::cout << "  " << name << ": " << format_double(seconds)
                << " s  (peak RSS " << stages.back().peak_rss_kb
                << " KiB)\n";
    };

    // --- Stage 1: streaming generation straight to .fpbin.
    gen::StreamSpec spec = gen::stream_spec_for_cells(cells, seed);
    std::cout << "bench_large: " << spec.num_cells << " cells, "
              << spec.num_pads << " pads, " << spec.num_nets << " nets\n";
    util::Timer timer;
    gen::stream_circuit_fpbin(spec, fpbin_path);
    record("generate", timer.seconds());
    const std::int64_t fpbin_bytes = file_size_bytes(fpbin_path);

    // --- Stage 2: zero-copy mmap open + full scan. The scan touches
    // every pin in both CSR directions, so the measured time is what a
    // consumer pays to stream the instance once off the mapping.
    std::int64_t pins_seen = 0;
    hg::Weight scan_weight = 0;
    timer = util::Timer();
    {
      hg::MappedHypergraph mapped(fpbin_path);
      for (hg::NetId e = 0; e < mapped.num_nets(); ++e) {
        for (hg::VertexId v : mapped.pins(e)) {
          scan_weight += mapped.vertex_weight(v);
          ++pins_seen;
        }
      }
      for (hg::VertexId v = 0; v < mapped.num_vertices(); ++v) {
        pins_seen += mapped.degree(v);
      }
    }
    record("mmap_scan", timer.seconds());

    // --- Stage 3: owning load (the partitioner's input path).
    timer = util::Timer();
    hg::BinaryInstance instance = hg::read_fpbin_file(fpbin_path);
    record("load_owning", timer.seconds());
    if (instance.graph.num_pins() * 2 != pins_seen) {
      std::cerr << "bench_large: mmap scan disagrees with owning load ("
                << pins_seen << " vs 2*" << instance.graph.num_pins()
                << ")\n";
      return 1;
    }

    // --- Stage 4: text-parser throughput. The .hgr serialization of the
    // same instance is written once (untimed) and parsed back (timed);
    // the large smoke stage asserts a floor on MB/s so the buffered-line
    // parser cannot quietly regress to char-at-a-time speeds.
    hg::write_hmetis_file(hgr_path, instance.graph);
    const std::int64_t hgr_bytes = file_size_bytes(hgr_path);
    timer = util::Timer();
    hg::Hypergraph parsed = hg::read_hmetis_file(hgr_path);
    const double parse_seconds = timer.seconds();
    const double parse_mbps =
        parse_seconds > 0.0
            ? static_cast<double>(hgr_bytes) / 1.0e6 / parse_seconds
            : 0.0;
    record("parse_text", parse_seconds);
    std::cout << "  parse_text: " << hgr_bytes / 1'000'000 << " MB at "
              << format_double(parse_mbps) << " MB/s\n";
    if (parsed.num_pins() != instance.graph.num_pins()) {
      std::cerr << "bench_large: text round-trip pin count mismatch\n";
      return 1;
    }
    parsed = hg::Hypergraph();  // release before partitioning

    // --- Stage 5: multilevel bipartition. --budget bounds the wall
    // clock (degrading to best-so-far); the committed BENCH_LARGE run
    // uses no budget so "partitioned to completion" means exactly that.
    const auto balance =
        part::BalanceConstraint::relative(instance.graph, 2, 10.0);
    util::Deadline deadline;
    ml::MultilevelConfig config;
    if (budget > 0.0) {
      deadline = util::Deadline::after_seconds(budget);
      config.deadline = &deadline;
    }
    const ml::MultilevelPartitioner partitioner(instance.graph,
                                                instance.fixed, balance);
    timer = util::Timer();
    const auto result =
        threads > 1 ? partitioner.best_of_parallel(starts, threads, seed,
                                                   config)
                    : [&] {
                        util::Rng rng(seed);
                        return partitioner.best_of(starts, rng, config);
                      }();
    record("partition", timer.seconds());
    std::cout << "  cut = " << result.cut
              << (result.truncated ? "  [truncated: budget expired]" : "")
              << "\n";

    if (!cli.get_bool("keep", false)) {
      std::remove(fpbin_path.c_str());
      std::remove(hgr_path.c_str());
    }

    // --- Emit JSON (atomic rename, so a killed run leaves no torn file).
    std::ostringstream out;
    out << "{\n"
        << "  \"format\": 1,\n"
        << "  \"generated_by\": \"bench_large\",\n"
        << "  \"cells\": " << spec.num_cells << ",\n"
        << "  \"pads\": " << spec.num_pads << ",\n"
        << "  \"vertices\": " << instance.graph.num_vertices() << ",\n"
        << "  \"nets\": " << instance.graph.num_nets() << ",\n"
        << "  \"pins\": " << instance.graph.num_pins() << ",\n"
        << "  \"fpbin_bytes\": " << fpbin_bytes << ",\n"
        << "  \"hgr_bytes\": " << hgr_bytes << ",\n"
        << "  \"seed\": " << seed << ",\n"
        << "  \"starts\": " << starts << ",\n"
        << "  \"threads\": " << threads << ",\n"
        << "  \"parse_mbps\": " << format_double(parse_mbps) << ",\n"
        << "  \"cut\": " << result.cut << ",\n"
        << "  \"truncated\": " << (result.truncated ? "true" : "false")
        << ",\n"
        << "  \"scan_weight\": " << scan_weight << ",\n"
        << "  \"stages\": {\n";
    for (std::size_t i = 0; i < stages.size(); ++i) {
      out << "    \"" << stages[i].name << "\": {\"seconds\": "
          << format_double(stages[i].seconds) << ", \"peak_rss_kb\": "
          << stages[i].peak_rss_kb << "}" << (i + 1 < stages.size() ? "," : "")
          << "\n";
    }
    out << "  },\n"
        << "  \"peak_rss_kb\": " << util::peak_rss_kb() << "\n"
        << "}\n";
    util::write_file_atomic(*out_path, out.str());
    std::cout << "wrote " << *out_path << "\n";

    // --- Assertions (opt-in): memory budget and parser throughput.
    int status = 0;
    if (const auto max_rss_mb = cli.get_int("max-rss-mb", 0);
        max_rss_mb > 0 && util::peak_rss_kb() > max_rss_mb * 1024) {
      std::cerr << "bench_large: peak RSS " << util::peak_rss_kb()
                << " KiB exceeds budget " << max_rss_mb << " MB\n";
      status = 1;
    }
    if (const double min_mbps = cli.get_double("min-parse-mbps", 0.0);
        min_mbps > 0.0 && parse_mbps < min_mbps) {
      std::cerr << "bench_large: text parse throughput "
                << format_double(parse_mbps) << " MB/s below floor "
                << format_double(min_mbps) << " MB/s\n";
      status = 1;
    }
    return status;
  });
}
