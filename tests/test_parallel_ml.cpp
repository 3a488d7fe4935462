// Shared-memory parallelism inside one partition job (docs/PARALLELISM.md):
// the util::ThreadPool primitive and the parallel multistart built on it
// (MultilevelPartitioner::best_of_parallel). The load-bearing property is
// *scheduling-independent determinism*: the thread count must never change
// a result, only wall-clock. The whole binary carries the `parallel` ctest
// label so it can be certified under TSan on its own
// (FIXEDPART_SANITIZE=thread; docs/ROBUSTNESS.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <vector>

#include "gen/netlist_gen.hpp"
#include "hg/fixed.hpp"
#include "ml/multilevel.hpp"
#include "obs/trace.hpp"
#include "part/balance.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fixedpart::ml {
namespace {

gen::GeneratedCircuit small_circuit() {
  gen::CircuitSpec spec;
  spec.name = "test";
  spec.num_cells = 600;
  spec.num_nets = 700;
  spec.num_pads = 24;
  spec.num_macros = 1;
  spec.macro_area_pct = 2.0;
  spec.seed = 7;
  return gen::generate_circuit(spec);
}

// --- ThreadPool ----------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(3);
  constexpr std::int64_t kCount = 5000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount, /*max_threads=*/4, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroWorkerPoolRunsEntirelyOnCaller) {
  util::ThreadPool pool(0);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> foreign{0};
  pool.parallel_for(100, /*max_threads=*/8, [&](std::int64_t) {
    if (std::this_thread::get_id() != caller) {
      foreign.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(foreign.load(), 0);
}

TEST(ThreadPool, MaxThreadsOneStaysOnCaller) {
  util::ThreadPool pool(3);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> foreign{0};
  pool.parallel_for(100, /*max_threads=*/1, [&](std::int64_t) {
    if (std::this_thread::get_id() != caller) {
      foreign.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(foreign.load(), 0);
}

TEST(ThreadPool, RethrowsFirstExceptionAfterDraining) {
  util::ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for(1000, 3,
                        [&](std::int64_t i) {
                          ran.fetch_add(1, std::memory_order_relaxed);
                          if (i == 57) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The section drained: no stray worker is still touching `ran` after
  // parallel_for returned (TSan would flag it if one were).
  EXPECT_GE(ran.load(), 1);
  EXPECT_LE(ran.load(), 1000);
}

TEST(ThreadPool, NestedParallelForCompletes) {
  util::ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(4, 4, [&](std::int64_t) {
    pool.parallel_for(4, 4, [&](std::int64_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 16);
}

// --- parallel multistart -------------------------------------------------

TEST(BestOfParallel, ThreadCountNeverChangesTheResult) {
  const auto circuit = small_circuit();
  const hg::FixedAssignment fixed(circuit.graph.num_vertices(), 2);
  const auto balance =
      part::BalanceConstraint::relative(circuit.graph, 2, 2.0);
  const MultilevelPartitioner partitioner(circuit.graph, fixed, balance);

  const auto one =
      partitioner.best_of_parallel(4, 1, 0xD00D, MultilevelConfig{});
  const auto two =
      partitioner.best_of_parallel(4, 2, 0xD00D, MultilevelConfig{});
  const auto eight =
      partitioner.best_of_parallel(4, 8, 0xD00D, MultilevelConfig{});

  EXPECT_EQ(two.cut, one.cut);
  EXPECT_EQ(two.assignment, one.assignment);
  EXPECT_EQ(eight.assignment, one.assignment);
}

TEST(BestOfParallel, NeverWorseThanTheSameStreamsRunSerially) {
  const auto circuit = small_circuit();
  const hg::FixedAssignment fixed(circuit.graph.num_vertices(), 2);
  const auto balance =
      part::BalanceConstraint::relative(circuit.graph, 2, 2.0);
  const MultilevelPartitioner partitioner(circuit.graph, fixed, balance);

  const auto best =
      partitioner.best_of_parallel(4, 4, 0xABCD, MultilevelConfig{});
  // Replay the stream derivation best_of_parallel documents: each start s
  // runs on the s-th fork of Rng(seed).
  util::Rng root(0xABCD);
  Weight manual_best = std::numeric_limits<Weight>::max();
  for (int s = 0; s < 4; ++s) {
    util::Rng stream = root.fork();
    manual_best = std::min(
        manual_best, partitioner.run(stream, MultilevelConfig{}).cut);
  }
  EXPECT_EQ(best.cut, manual_best);
}

TEST(BestOfParallel, StartsOnPoolWorkersRecordIntoCallerTraceContext) {
  // The trace context is thread-local, so a start claimed by a pool worker
  // only reaches the caller's buffer if best_of_parallel re-pushes the
  // context there. Every start emits exactly one "ml.initial" span.
  const auto circuit = small_circuit();
  const hg::FixedAssignment fixed(circuit.graph.num_vertices(), 2);
  const auto balance =
      part::BalanceConstraint::relative(circuit.graph, 2, 2.0);
  const MultilevelPartitioner partitioner(circuit.graph, fixed, balance);

  obs::SpanBuffer buffer;
  {
    const obs::ScopedTraceContext context(0x7ACE, &buffer);
    partitioner.best_of_parallel(4, 4, 0xD00D, MultilevelConfig{});
  }
  const auto events = buffer.events();
  const auto initial = std::count_if(
      events.begin(), events.end(), [](const obs::TraceEvent& e) {
        return std::string_view(e.name) == "ml.initial";
      });
  EXPECT_EQ(initial, 4);
  for (const obs::TraceEvent& e : events) EXPECT_EQ(e.trace_id, 0x7ACEu);
}

}  // namespace
}  // namespace fixedpart::ml
