// Tests for the observability layer: the sharded metric registry, scoped
// spans recorded into a SpanBuffer, and the PassObserver hook — including
// the differential that pins the observer-based Table II statistics to a
// pass_records aggregation of the same runs bit-for-bit. Trace contexts,
// the span wire codec and the flight recorder are covered by
// tests/test_trace.cpp.
//
// The registry merge test is the concurrency surface: run this binary
// under TSan (ctest -L obs with FIXEDPART_SANITIZE=thread) to certify the
// lock-free hot path.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "experiments/context.hpp"
#include "experiments/pass_experiments.hpp"
#include "gen/netlist_gen.hpp"
#include "gen/regimes.hpp"
#include "obs/pass_observer.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "part/balance.hpp"
#include "part/fm.hpp"
#include "part/initial.hpp"
#include "part/partition.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace fixedpart {
namespace {

// ------------------------------------------------------------- Registry --

TEST(ObsRegistry, CounterAddAndScrape) {
  obs::Registry reg;
  const obs::MetricId a = reg.counter("a");
  const obs::MetricId b = reg.counter("b");
  EXPECT_EQ(reg.counter("a"), a);  // idempotent registration
  reg.add(a, 3);
  reg.add(a);
  reg.add(b, -2);  // deltas may be negative even if metrics trend up
  const obs::Snapshot snap = reg.scrape();
  EXPECT_EQ(snap.counter("a"), 4);
  EXPECT_EQ(snap.counter("b"), -2);
  EXPECT_EQ(snap.counter("never-registered"), 0);
}

TEST(ObsRegistry, HistogramShapeIsSticky) {
  obs::Registry reg;
  const obs::MetricId h = reg.histogram("h", 0.0, 10.0, 5);
  EXPECT_EQ(reg.histogram("h", 0.0, 10.0, 5), h);  // same shape: same id
  EXPECT_THROW(reg.histogram("h", 0.0, 10.0, 6), std::invalid_argument);
  EXPECT_THROW(reg.histogram("h", 0.0, 20.0, 5), std::invalid_argument);
}

TEST(ObsRegistry, HistogramClampsAndDropsNan) {
  obs::Registry reg;
  const obs::MetricId h = reg.histogram("h", 0.0, 10.0, 5);
  reg.observe(h, -100.0);  // below lo: edge bin 0
  reg.observe(h, 0.5);     // bin 0
  reg.observe(h, 10.0);    // == hi: edge bin 4 (range is [lo, hi))
  reg.observe(h, 1e30);    // far above hi: edge bin 4
  reg.observe(h, std::numeric_limits<double>::quiet_NaN());
  const obs::Snapshot snap = reg.scrape();
  const obs::HistogramValue* v = snap.histogram("h");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->counts[0], 2u);
  EXPECT_EQ(v->counts[4], 2u);
  EXPECT_EQ(v->total, 4u);
  EXPECT_EQ(v->dropped, 1u);
  EXPECT_EQ(snap.histogram("never-registered"), nullptr);
}

TEST(ObsRegistry, CounterCapThrows) {
  obs::Registry reg;
  for (std::uint32_t i = 0; i < obs::Registry::kMaxCounters; ++i) {
    reg.counter("c" + std::to_string(i));
  }
  EXPECT_THROW(reg.counter("one-too-many"), std::length_error);
}

TEST(ObsRegistry, ResetZeroesButKeepsRegistrations) {
  obs::Registry reg;
  const obs::MetricId c = reg.counter("c");
  const obs::MetricId h = reg.histogram("h", 0.0, 1.0, 2);
  reg.add(c, 7);
  reg.observe(h, 0.2);
  reg.reset();
  const obs::Snapshot snap = reg.scrape();
  EXPECT_EQ(snap.counter("c"), 0);
  const obs::HistogramValue* v = snap.histogram("h");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->total, 0u);
  reg.add(c, 1);  // the id is still valid after reset
  EXPECT_EQ(reg.scrape().counter("c"), 1);
}

// The concurrency contract: per-thread shards merged on scrape must lose
// nothing — totals are exact once writers have joined. TSan-clean.
TEST(ObsRegistry, ThreadedMergeIsExact) {
  obs::Registry reg;
  const obs::MetricId c = reg.counter("ops");
  const obs::MetricId h = reg.histogram("latency", 0.0, 1.0, 10);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, c, h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        reg.add(c, 1);
        reg.observe(h, static_cast<double>((i + t) % 10) / 10.0 + 0.05);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const obs::Snapshot snap = reg.scrape();
  EXPECT_EQ(snap.counter("ops"), kThreads * kPerThread);
  const obs::HistogramValue* v = snap.histogram("latency");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->total, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(v->dropped, 0u);
  std::uint64_t sum = 0;
  for (const std::uint64_t n : v->counts) sum += n;
  EXPECT_EQ(sum, v->total);
}

TEST(ObsRegistry, SnapshotJsonIsBalanced) {
  obs::Registry reg;
  reg.add(reg.counter("fm.moves"), 12);
  reg.observe(reg.histogram("kept", 0.0, 1.0, 4), 0.3);
  const std::string json = reg.scrape().to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"fm.moves\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

// ---------------------------------------------------------------- Spans --
// Spans reach the SpanBuffer of the current ScopedTraceContext.

TEST(ObsTracer, SpansCarryArgsAndNestingSurvives) {
  obs::SpanBuffer buffer;
  {
    obs::ScopedTraceContext context(obs::trace_id_for("nesting"), &buffer);
    obs::ScopedSpan outer("outer");
    outer.arg("level", static_cast<std::int64_t>(3)).arg("ratio", 0.5);
    { obs::ScopedSpan inner("inner"); }
  }
  const std::vector<obs::TraceEvent> events = buffer.events();
  ASSERT_EQ(events.size(), 2u);
  // Inner span destructs first, so it is recorded first.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_EQ(events[1].num_args, 2u);
  EXPECT_STREQ(events[1].args[0].key, "level");
  EXPECT_TRUE(events[1].args[0].is_int);
  EXPECT_EQ(events[1].args[0].int_value, 3);
  EXPECT_FALSE(events[1].args[1].is_int);
  EXPECT_DOUBLE_EQ(events[1].args[1].double_value, 0.5);
  // The inner span nests inside the outer on the timeline.
  EXPECT_GE(events[0].start_ns, events[1].start_ns);
  EXPECT_LE(events[0].start_ns + events[0].dur_ns,
            events[1].start_ns + events[1].dur_ns);
}

TEST(ObsTracer, TraceJsonIsWellFormedChromeFormat) {
  obs::SpanBuffer buffer;
  {
    obs::ScopedTraceContext context(obs::trace_id_for("json"), &buffer);
    {
      obs::ScopedSpan a("fm.pass");
      a.arg("pass", static_cast<std::int64_t>(0));
    }
    { obs::ScopedSpan b("ml.project"); }
  }
  const std::string json = obs::trace_events_to_json(buffer.events());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"fm.pass\""), std::string::npos);
  EXPECT_NE(json.find("\"ml.project\""), std::string::npos);
  // Every event is a complete-event record with the mandatory keys.
  std::size_t ph = 0;
  for (std::size_t pos = json.find("\"ph\""); pos != std::string::npos;
       pos = json.find("\"ph\"", pos + 1)) {
    ++ph;
  }
  EXPECT_EQ(ph, 2u);
  EXPECT_NE(json.find("\"ts\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\""), std::string::npos);
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\') ++i;
      else if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{' || ch == '[') ++depth;
    if (ch == '}' || ch == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

// --------------------------------------------------------- PassObserver --

/// Records every event verbatim for replay against FmResult::pass_records.
class RecordingObserver final : public obs::PassObserver {
 public:
  void on_pass_begin(const obs::PassBegin& e) override { begins.push_back(e); }
  void on_move(const obs::MoveEvent& e) override { moves.push_back(e); }
  void on_pass_end(const obs::PassEnd& e) override { ends.push_back(e); }

  std::vector<obs::PassBegin> begins;
  std::vector<obs::MoveEvent> moves;
  std::vector<obs::PassEnd> ends;
};

gen::GeneratedCircuit obs_circuit() {
  gen::CircuitSpec spec;
  spec.name = "obs";
  spec.num_cells = 300;
  spec.num_nets = 340;
  spec.num_pads = 12;
  spec.seed = 19;
  return gen::generate_circuit(spec);
}

TEST(ObsPassObserver, EventsMatchPassRecordsExactly) {
  const gen::GeneratedCircuit circuit = obs_circuit();
  const hg::FixedAssignment fixed(circuit.graph.num_vertices(), 2);
  const auto balance =
      part::BalanceConstraint::relative(circuit.graph, 2, 10.0);
  part::PartitionState state(circuit.graph, 2);
  util::Rng rng(3);
  part::random_feasible_assignment(state, fixed, balance, rng);

  RecordingObserver observer;
  part::FmConfig config;
  config.observer = &observer;
  part::FmBipartitioner fm(circuit.graph, fixed, balance);
  const part::FmResult result = fm.refine(state, rng, config);

  ASSERT_GT(result.passes, 0);
  ASSERT_EQ(result.pass_records.size(),
            static_cast<std::size_t>(result.passes));
  ASSERT_EQ(observer.begins.size(), result.pass_records.size());
  ASSERT_EQ(observer.ends.size(), result.pass_records.size());

  std::int64_t observed_moves = 0;
  for (std::size_t p = 0; p < result.pass_records.size(); ++p) {
    const part::PassRecord& rec = result.pass_records[p];
    const obs::PassBegin& begin = observer.begins[p];
    const obs::PassEnd& end = observer.ends[p];
    EXPECT_EQ(begin.pass, static_cast<int>(p));
    EXPECT_EQ(begin.movable, rec.movable);
    EXPECT_EQ(begin.boundary_vertices, rec.boundary_vertices);
    EXPECT_EQ(begin.cut, rec.cut_before);
    EXPECT_EQ(end.pass, static_cast<int>(p));
    EXPECT_EQ(end.moves_performed, rec.moves_performed);
    EXPECT_EQ(end.best_prefix, rec.best_prefix);
    EXPECT_EQ(end.cut_before, rec.cut_before);
    EXPECT_EQ(end.cut_best, rec.cut_best);
    observed_moves += rec.moves_performed;
  }
  EXPECT_EQ(static_cast<std::int64_t>(observer.moves.size()), observed_moves);
  EXPECT_EQ(observed_moves, result.total_moves);

  // Per-move bookkeeping: the gain is the cut delta of that exact move.
  std::size_t index = 0;
  for (std::size_t p = 0; p < result.pass_records.size(); ++p) {
    hg::Weight cut = result.pass_records[p].cut_before;
    const auto n = static_cast<std::size_t>(
        result.pass_records[p].moves_performed);
    for (std::size_t m = 0; m < n; ++m, ++index) {
      const obs::MoveEvent& move = observer.moves[index];
      EXPECT_EQ(move.pass, static_cast<int>(p));
      EXPECT_EQ(move.move_index, static_cast<std::int32_t>(m));
      EXPECT_NE(move.from, move.to);
      EXPECT_EQ(move.cut, cut - move.gain);
      cut = move.cut;
    }
  }
}

TEST(ObsPassObserver, ObserverDoesNotPerturbRefinement) {
  const gen::GeneratedCircuit circuit = obs_circuit();
  const hg::FixedAssignment fixed(circuit.graph.num_vertices(), 2);
  const auto balance =
      part::BalanceConstraint::relative(circuit.graph, 2, 10.0);

  const auto solve = [&](obs::PassObserver* observer) {
    part::PartitionState state(circuit.graph, 2);
    util::Rng rng(9);
    part::random_feasible_assignment(state, fixed, balance, rng);
    part::FmConfig config;
    config.observer = observer;
    part::FmBipartitioner fm(circuit.graph, fixed, balance);
    return fm.refine(state, rng, config);
  };

  RecordingObserver observer;
  const part::FmResult with = solve(&observer);
  const part::FmResult without = solve(nullptr);
  EXPECT_EQ(with.final_cut, without.final_cut);
  EXPECT_EQ(with.passes, without.passes);
  EXPECT_EQ(with.total_moves, without.total_moves);
}

/// The reference for the differential below: run_pass_stats's protocol
/// (same instance stream, same rng draws), with the Table II statistics
/// aggregated from FmResult::pass_records after each run.
std::vector<exp::PassStatsRow> pass_stats_from_records(
    const exp::InstanceContext& ctx, const exp::PassStatsConfig& config,
    util::Rng& rng) {
  std::vector<exp::PassStatsRow> rows;
  for (double pct : config.percentages) {
    gen::FixedVertexSeries series(ctx.circuit.graph, 2, rng);
    const hg::FixedAssignment fixed =
        series.good_regime(pct, ctx.good_reference);
    part::FmBipartitioner engine(ctx.circuit.graph, fixed, ctx.balance);
    part::FmConfig fm;
    fm.policy = part::SelectionPolicy::kLifo;
    util::RunningStat passes;
    util::RunningStat pct_moved;
    util::RunningStat pct_performed;
    util::Histogram prefix_positions(0.0, 1.0, 10);
    part::PartitionState state(ctx.circuit.graph, 2);
    for (int run = 0; run < config.runs; ++run) {
      part::random_feasible_assignment(state, fixed, ctx.balance, rng);
      const auto result = engine.refine(state, rng, fm);
      passes.add(static_cast<double>(result.passes));
      for (std::size_t p = 1; p < result.pass_records.size(); ++p) {
        const auto& rec = result.pass_records[p];
        if (rec.movable == 0) continue;
        pct_moved.add(100.0 * static_cast<double>(rec.best_prefix) /
                      static_cast<double>(rec.movable));
        pct_performed.add(100.0 * static_cast<double>(rec.moves_performed) /
                          static_cast<double>(rec.movable));
        if (rec.moves_performed > 0 && rec.best_prefix > 0) {
          prefix_positions.add(static_cast<double>(rec.best_prefix) /
                               static_cast<double>(rec.moves_performed));
        }
      }
    }
    exp::PassStatsRow row;
    row.pct_fixed = pct;
    row.avg_passes = passes.mean();
    row.avg_pct_moved = pct_moved.empty() ? 0.0 : pct_moved.mean();
    row.avg_pct_performed =
        pct_performed.empty() ? 0.0 : pct_performed.mean();
    for (std::size_t d = 0; d < 10; ++d) {
      row.prefix_position_deciles[d] =
          prefix_positions.total() == 0
              ? 0.0
              : 100.0 * static_cast<double>(prefix_positions.bin_count(d)) /
                    static_cast<double>(prefix_positions.total());
    }
    rows.push_back(row);
  }
  return rows;
}

// The observer-backed Table II statistics must reproduce the
// pass_records aggregation bit-for-bit.
TEST(ObsPassObserver, PassStatsObserverMatchesLegacyBitExact) {
  gen::CircuitSpec spec;
  spec.name = "obs-diff";
  spec.num_cells = 300;
  spec.num_nets = 340;
  spec.num_pads = 12;
  spec.seed = 77;
  util::Rng context_rng(1);
  const exp::InstanceContext ctx = exp::make_context(spec, 1, 2.0, context_rng);

  exp::PassStatsConfig config;
  config.percentages = {0.0, 20.0};
  config.runs = 3;

  util::Rng rng_observer(42);
  const auto via_observer = exp::run_pass_stats(ctx, config, rng_observer);

  util::Rng rng_legacy(42);
  const auto via_records = pass_stats_from_records(ctx, config, rng_legacy);

  ASSERT_EQ(via_observer.size(), via_records.size());
  for (std::size_t i = 0; i < via_observer.size(); ++i) {
    const exp::PassStatsRow& a = via_observer[i];
    const exp::PassStatsRow& b = via_records[i];
    EXPECT_EQ(a.pct_fixed, b.pct_fixed);
    EXPECT_EQ(a.avg_passes, b.avg_passes);
    EXPECT_EQ(a.avg_pct_moved, b.avg_pct_moved);
    EXPECT_EQ(a.avg_pct_performed, b.avg_pct_performed);
    ASSERT_EQ(a.prefix_position_deciles.size(),
              b.prefix_position_deciles.size());
    for (std::size_t d = 0; d < a.prefix_position_deciles.size(); ++d) {
      EXPECT_EQ(a.prefix_position_deciles[d], b.prefix_position_deciles[d]);
    }
  }
  // The reference really aggregated passes (a vacuous 0 == 0 proves
  // nothing).
  EXPECT_GT(via_records[0].avg_pct_performed, 0.0);
}

}  // namespace
}  // namespace fixedpart
