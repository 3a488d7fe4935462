// Per-job distributed tracing (ctest -L trace; docs/OBSERVABILITY.md
// "Traces"): the trace-context stack, the bounded per-job SpanBuffer and
// its drop accounting, the interned/owned-name safety of ScopedSpan, the
// phase spans a real multilevel multistart records, the 'T' span-frame
// wire codec under a seeded corruption battery, and the always-on flight
// recorder (concurrent shards, current_phase, dumps).
// The concurrency tests here are part of the TSan matrix in
// scripts/check.sh.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fault_inject.hpp"
#include "gen/netlist_gen.hpp"
#include "gen/suite.hpp"
#include "hg/fixed.hpp"
#include "ml/multilevel.hpp"
#include "obs/flight.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "obs/trace_wire.hpp"
#include "part/balance.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

namespace fixedpart {
namespace {

namespace fs = std::filesystem;

obs::TraceEvent make_event(const char* name, std::int64_t start_ns,
                           std::int64_t dur_ns) {
  obs::TraceEvent event;
  event.name = name;
  event.start_ns = start_ns;
  event.dur_ns = dur_ns;
  event.tid = 1;
  return event;
}

// ------------------------------------------ trace ids, JSON, phase sums --

TEST(TraceId, DeterministicAndDistinct) {
  const std::uint64_t a = obs::trace_id_for("job-a");
  EXPECT_EQ(a, obs::trace_id_for("job-a"));
  EXPECT_NE(a, obs::trace_id_for("job-b"));
  EXPECT_NE(a, 0u);
}

TEST(TraceJson, RendersEventsWithPidAndArgs) {
  obs::TraceEvent event = make_event("phase.one", 1500, 2500);
  event.pid = 4242;
  event.args[0] = obs::TraceArg{"level", true, 3, 0.0};
  event.args[1] = obs::TraceArg{"ratio", false, 0, 0.5};
  event.num_args = 2;
  const std::string json = obs::trace_events_to_json({event});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"phase.one\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 4242"), std::string::npos);
  EXPECT_NE(json.find("\"level\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  // pid 0 renders as the conventional local pid 1.
  const std::string local =
      obs::trace_events_to_json({make_event("x", 0, 1)});
  EXPECT_NE(local.find("\"pid\": 1"), std::string::npos);
}

TEST(TraceJson, EmptyListIsValidSkeleton) {
  const std::string json = obs::trace_events_to_json({});
  EXPECT_NE(json.find("\"traceEvents\": []"), std::string::npos);
}

TEST(PhaseBreakdown, SumsOnlyMultilevelPhaseSpans) {
  std::vector<obs::TraceEvent> events;
  events.push_back(make_event("ml.coarsen_level", 0, 1'000'000'000));
  events.push_back(make_event("ml.coarsen_level", 0, 500'000'000));
  events.push_back(make_event("ml.initial", 0, 250'000'000));
  events.push_back(make_event("ml.refine_level", 0, 2'000'000'000));
  events.push_back(make_event("ml.project", 0, 9'000'000'000));
  events.push_back(make_event("svc.attempt", 0, 9'000'000'000));
  const obs::PhaseBreakdown breakdown = obs::phase_breakdown(events);
  EXPECT_NEAR(breakdown.coarsen_seconds, 1.5, 1e-9);
  EXPECT_NEAR(breakdown.initial_seconds, 0.25, 1e-9);
  EXPECT_NEAR(breakdown.refine_seconds, 2.0, 1e-9);
}

// ----------------------------------------------------- context + buffer --

TEST(TraceContext, StackNestsAndRoutesSpans) {
  ASSERT_FALSE(obs::ScopedTraceContext::current().active());
  obs::SpanBuffer outer_buffer;
  obs::SpanBuffer inner_buffer;
  {
    obs::ScopedTraceContext outer(obs::trace_id_for("outer"), &outer_buffer);
    { obs::ScopedSpan span("span.outer"); }
    {
      obs::ScopedTraceContext inner(obs::trace_id_for("inner"),
                                    &inner_buffer);
      EXPECT_EQ(obs::ScopedTraceContext::current().trace_id,
                obs::trace_id_for("inner"));
      { obs::ScopedSpan span("span.inner"); }
    }
    // Inner scope popped: spans route to the outer buffer again.
    { obs::ScopedSpan span("span.outer2"); }
  }
  EXPECT_FALSE(obs::ScopedTraceContext::current().active());
  ASSERT_EQ(outer_buffer.size(), 2u);
  ASSERT_EQ(inner_buffer.size(), 1u);
  const auto outer_events = outer_buffer.events();
  EXPECT_STREQ(outer_events[0].name, "span.outer");
  EXPECT_STREQ(outer_events[1].name, "span.outer2");
  EXPECT_EQ(outer_events[0].trace_id, obs::trace_id_for("outer"));
  EXPECT_EQ(inner_buffer.events()[0].trace_id, obs::trace_id_for("inner"));
}

TEST(TraceContext, SpansOutsideAnyContextAreSafe) {
  // No context: the span still runs (flight recorder only) and must not
  // crash or leak.
  obs::ScopedSpan span("orphan.span");
  span.arg("k", std::int64_t{1});
}

struct MultistartTotals {
  hg::Weight best_cut = 0;
  std::int64_t moves = 0;
  std::int32_t passes = 0;
};

// Two default-config multilevel starts, no fixed vertices, 2% relative
// balance, fixed seed: the paper's multistart protocol in miniature.
MultistartTotals run_multistart(const hg::Hypergraph& graph) {
  const hg::FixedAssignment fixed(graph.num_vertices(), 2);
  const auto balance = part::BalanceConstraint::relative(graph, 2, 2.0);
  const ml::MultilevelPartitioner partitioner(graph, fixed, balance);
  util::Rng rng(0xBE9C);
  const ml::MultilevelConfig config;
  MultistartTotals totals;
  for (int start = 0; start < 2; ++start) {
    const ml::MultilevelResult result = partitioner.run(rng, config);
    if (start == 0 || result.cut < totals.best_cut) {
      totals.best_cut = result.cut;
    }
    totals.moves += result.total_moves;
    totals.passes += result.total_passes;
  }
  return totals;
}

TEST(TraceContext, MultilevelRunRecordsEveryPhaseSpan) {
  const gen::GeneratedCircuit circuit =
      gen::generate_circuit(gen::ibm_like_spec(1, util::Scale::kSmoke));
  const MultistartTotals untraced = run_multistart(circuit.graph);
  ASSERT_GT(untraced.moves, 0);

  obs::SpanBuffer buffer;
  MultistartTotals traced;
  {
    obs::ScopedTraceContext context(obs::trace_id_for("multistart"),
                                    &buffer);
    traced = run_multistart(circuit.graph);
  }
  // Tracing observes the run; it must not steer it.
  EXPECT_EQ(traced.best_cut, untraced.best_cut);
  EXPECT_EQ(traced.moves, untraced.moves);
  EXPECT_EQ(traced.passes, untraced.passes);

  EXPECT_EQ(buffer.dropped(), 0u);
  const std::vector<obs::TraceEvent> events = buffer.events();
  std::set<std::string> names;
  for (const obs::TraceEvent& event : events) names.insert(event.name);
  for (const char* phase : {"ml.coarsen_level", "ml.initial", "ml.project",
                            "ml.refine_level", "fm.pass"}) {
    EXPECT_EQ(names.count(phase), 1u) << "no " << phase << " span";
  }
  const obs::PhaseBreakdown breakdown = obs::phase_breakdown(events);
  EXPECT_GT(breakdown.coarsen_seconds, 0.0);
  EXPECT_GT(breakdown.initial_seconds, 0.0);
  EXPECT_GT(breakdown.refine_seconds, 0.0);
}

TEST(SpanBuffer, BoundedWithDropAccounting) {
  const std::int64_t dropped_before =
      obs::Registry::global().scrape().counter("obs.trace.dropped");
  obs::SpanBuffer buffer(4);
  for (int i = 0; i < 10; ++i) buffer.record(make_event("e", i, 1));
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer.dropped(), 6u);
  buffer.add_remote_dropped(5);
  EXPECT_EQ(buffer.dropped(), 11u);
  const std::int64_t dropped_after =
      obs::Registry::global().scrape().counter("obs.trace.dropped");
  EXPECT_GE(dropped_after - dropped_before, 11);
}

TEST(SpanBuffer, DrainMovesEventsOut) {
  obs::SpanBuffer buffer;
  buffer.record(make_event("a", 0, 1));
  buffer.record(make_event("b", 1, 1));
  const auto drained = buffer.drain();
  EXPECT_EQ(drained.size(), 2u);
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_TRUE(buffer.events().empty());
}

// The TSan certification for the per-job merge: 8 writer threads (the
// worst realistic case — engine threads plus the pool attendant merging a
// 'T' batch) record into one buffer while a reader snapshots it.
TEST(SpanBuffer, ConcurrentWritersAndReaderAreExact) {
  constexpr int kWriters = 8;
  constexpr int kPerWriter = 2000;
  obs::SpanBuffer buffer(kWriters * kPerWriter);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto snapshot = buffer.events();
      ASSERT_LE(snapshot.size(), static_cast<std::size_t>(kWriters) *
                                     kPerWriter);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&buffer, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        buffer.record(make_event("w", w * kPerWriter + i, 1));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(buffer.size(), static_cast<std::size_t>(kWriters) * kPerWriter);
  EXPECT_EQ(buffer.dropped(), 0u);
}

// Regression for the dangling-name hazard: a span named by a temporary
// std::string must stay renderable after the string is destroyed, because
// the name is interned into the process-lifetime pool.
TEST(ScopedSpan, DynamicNameSurvivesTheString) {
  obs::SpanBuffer buffer;
  obs::ScopedTraceContext context(obs::trace_id_for("owned"), &buffer);
  {
    std::string name = "dyn.";
    name += std::to_string(12345);
    obs::ScopedSpan span(name);
    name.assign(name.size(), 'X');  // clobber before the span closes
  }
  ASSERT_EQ(buffer.size(), 1u);
  const auto events = buffer.events();
  EXPECT_STREQ(events[0].name, "dyn.12345");
  const std::string json = obs::trace_events_to_json(events);
  EXPECT_NE(json.find("dyn.12345"), std::string::npos);
}

TEST(InternPool, SamePointerForSameName) {
  const char* a = obs::intern_name("intern.same");
  const char* b = obs::intern_name("intern.same");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "intern.same");
}

// ------------------------------------------------------------ wire codec --

TEST(TraceWire, RoundTripPreservesSpans) {
  std::vector<obs::TraceEvent> batch;
  obs::TraceEvent weird = make_event(
      obs::intern_name("name with\ttab and\nnewline and \\slash"), 1000, 50);
  weird.args[0] = obs::TraceArg{"moves", true, 77, 0.0};
  weird.args[1] = obs::TraceArg{"ratio", false, 0, 0.25};
  weird.num_args = 2;
  weird.tid = 3;
  batch.push_back(weird);
  batch.push_back(make_event("plain", 2000, 10));

  const obs::SpanBatchHeader header_in{123456789, 42};
  const std::string payload = obs::encode_span_batch(header_in, batch);

  obs::SpanBatchHeader header_out;
  std::vector<obs::TraceEvent> decoded;
  std::size_t malformed = 0;
  ASSERT_TRUE(
      obs::decode_span_batch(payload, &header_out, &decoded, &malformed));
  EXPECT_EQ(header_out.worker_now_ns, 123456789);
  EXPECT_EQ(header_out.dropped, 42u);
  EXPECT_EQ(malformed, 0u);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_STREQ(decoded[0].name, "name with\ttab and\nnewline and \\slash");
  EXPECT_EQ(decoded[0].start_ns, 1000);
  EXPECT_EQ(decoded[0].dur_ns, 50);
  EXPECT_EQ(decoded[0].tid, 3u);
  ASSERT_EQ(decoded[0].num_args, 2u);
  EXPECT_STREQ(decoded[0].args[0].key, "moves");
  EXPECT_EQ(decoded[0].args[0].int_value, 77);
  EXPECT_FALSE(decoded[0].args[1].is_int);
  EXPECT_DOUBLE_EQ(decoded[0].args[1].double_value, 0.25);
  EXPECT_STREQ(decoded[1].name, "plain");
}

TEST(TraceWire, MalformedLinesAreSkippedAndCounted) {
  const std::string payload =
      "spans v1 now=10 dropped=0\n"
      "good\t1\t2\t3\n"
      "no-tabs-at-all\n"
      "badnum\tzzz\t2\t3\n"
      "\t1\t2\t3\n"
      "good2\t4\t5\t6\tk=i9\n";
  obs::SpanBatchHeader header;
  std::vector<obs::TraceEvent> decoded;
  std::size_t malformed = 0;
  ASSERT_TRUE(obs::decode_span_batch(payload, &header, &decoded, &malformed));
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_STREQ(decoded[0].name, "good");
  EXPECT_STREQ(decoded[1].name, "good2");
  EXPECT_EQ(malformed, 3u);
}

TEST(TraceWire, BadHeaderRejectsWholePayload) {
  obs::SpanBatchHeader header;
  std::vector<obs::TraceEvent> decoded;
  std::size_t malformed = 0;
  EXPECT_FALSE(
      obs::decode_span_batch("junk\ngood\t1\t2\t3\n", &header, &decoded,
                             &malformed));
  EXPECT_FALSE(obs::decode_span_batch("", &header, &decoded, &malformed));
  EXPECT_TRUE(decoded.empty());
}

// The untrusted-input boundary under the seeded corruption battery: no
// variant may throw, exceed the caps, or hand back an unbounded name.
TEST(TraceWire, FuzzedPayloadsNeverThrowAndRespectCaps) {
  std::vector<obs::TraceEvent> batch;
  for (int i = 0; i < 32; ++i) {
    obs::TraceEvent event = make_event("fuzz.base", i * 100, 10);
    event.args[0] = obs::TraceArg{"i", true, i, 0.0};
    event.num_args = 1;
    batch.push_back(event);
  }
  const std::string payload =
      obs::encode_span_batch({55555, 1}, batch);
  util::Rng rng(0xfeedbeef);
  const std::vector<std::string> variants =
      testing::span_batch_faults(payload, rng);
  ASSERT_GT(variants.size(), 50u);
  for (std::size_t v = 0; v < variants.size(); ++v) {
    obs::SpanBatchHeader header;
    std::vector<obs::TraceEvent> decoded;
    std::size_t malformed = 0;
    EXPECT_NO_THROW(obs::decode_span_batch(variants[v], &header, &decoded,
                                           &malformed))
        << "variant " << v;
    EXPECT_LE(decoded.size(), obs::kMaxSpansPerBatch) << "variant " << v;
    for (const obs::TraceEvent& event : decoded) {
      ASSERT_NE(event.name, nullptr);
      EXPECT_LE(std::strlen(event.name), obs::kMaxWireNameBytes);
    }
  }
}

TEST(TraceWire, OversizedBatchIsTruncatedAtTheCap) {
  // A hostile worker can claim any number of lines; decode must stop at
  // kMaxSpansPerBatch. Build the payload by hand to keep it cheap.
  std::string payload = "spans v1 now=0 dropped=0\n";
  const std::string line = "s\t1\t2\t3\n";
  payload.reserve(payload.size() +
                  line.size() * (obs::kMaxSpansPerBatch + 100));
  for (std::size_t i = 0; i < obs::kMaxSpansPerBatch + 100; ++i) {
    payload += line;
  }
  obs::SpanBatchHeader header;
  std::vector<obs::TraceEvent> decoded;
  std::size_t malformed = 0;
  ASSERT_TRUE(obs::decode_span_batch(payload, &header, &decoded, &malformed));
  EXPECT_EQ(decoded.size(), obs::kMaxSpansPerBatch);
}

// -------------------------------------------------------- flight recorder --

TEST(FlightRecorder, RecordsAndRendersConcurrently) {
  auto& recorder = obs::FlightRecorder::global();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;  // < kShardEntries: nothing evicted
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        recorder.record_span("flight.span", 0xabcu + t, i * 10, 5);
        recorder.record_event("info", "test",
                              "flight message " + std::to_string(i));
      }
    });
  }
  std::thread reader([&recorder] {
    for (int i = 0; i < 50; ++i) {
      const std::string json = recorder.to_json();
      ASSERT_NE(json.find("\"entries\""), std::string::npos);
    }
  });
  for (std::thread& t : threads) t.join();
  reader.join();
  const std::string json = recorder.to_json();
  EXPECT_NE(json.find("flight.span"), std::string::npos);
  EXPECT_NE(json.find("\"recorded\""), std::string::npos);
}

TEST(FlightRecorder, CurrentPhaseTracksOpenSpans) {
  const std::uint64_t trace_id = obs::trace_id_for("phase-job");
  obs::SpanBuffer buffer;
  obs::ScopedTraceContext context(trace_id, &buffer);
  {
    obs::ScopedSpan outer("phase.outer");
    const obs::FlightPhase at_outer =
        obs::FlightRecorder::global().current_phase(trace_id);
    ASSERT_TRUE(at_outer.found);
    EXPECT_EQ(at_outer.name, "phase.outer");
    {
      obs::ScopedSpan inner("phase.inner");
      const obs::FlightPhase at_inner =
          obs::FlightRecorder::global().current_phase(trace_id);
      ASSERT_TRUE(at_inner.found);
      // Deepest open span wins.
      EXPECT_EQ(at_inner.name, "phase.inner");
      EXPECT_GE(at_inner.seconds, 0.0);
    }
    const obs::FlightPhase back_out =
        obs::FlightRecorder::global().current_phase(trace_id);
    ASSERT_TRUE(back_out.found);
    EXPECT_EQ(back_out.name, "phase.outer");
  }
  EXPECT_FALSE(
      obs::FlightRecorder::global().current_phase(trace_id).found);
}

TEST(FlightRecorder, DumpWritesWellFormedFile) {
  const fs::path dir =
      fs::temp_directory_path() / "fp_trace_test_flight_dump";
  fs::remove_all(dir);
  obs::FlightRecorder::global().record_event("warn", "test",
                                             "pre-dump marker");
  const std::string path = obs::FlightRecorder::global().dump(
      dir.string(), "crash", "job-xyz", "ml.refine_level");
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("crash-job-xyz"), std::string::npos);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  const std::string text = content.str();
  EXPECT_NE(text.find("\"reason\": \"crash\""), std::string::npos);
  EXPECT_NE(text.find("\"job\": \"job-xyz\""), std::string::npos);
  EXPECT_NE(text.find("\"phase\": \"ml.refine_level\""), std::string::npos);
  EXPECT_NE(text.find("\"entries\""), std::string::npos);
  fs::remove_all(dir);
}

TEST(FlightRecorder, DumpToUnwritableDirFailsQuietly) {
  const std::string path = obs::FlightRecorder::global().dump(
      "/dev/null/not-a-dir", "crash", "job", "");
  EXPECT_TRUE(path.empty());
}

// Declared LAST in the enabled section (with its own suite name — gtest
// groups same-suite tests at the suite's first declaration) on purpose:
// it exhausts the process-wide intern pool, after which every new
// dynamic name maps to the overflow marker — the bound a malicious
// worker runs into, but one that would garble the exact-name assertions
// of the tests above.
TEST(InternPoolOverflow, BoundedOverflowYieldsMarker) {
  // Interned before the flood (each ctest-discovered test is its own
  // process, so no other test has touched the pool here).
  const char* before = obs::intern_name("intern.same");
  const char* last = "";
  for (std::size_t i = 0; i < obs::kMaxInternedNames + 16; ++i) {
    last = obs::intern_name("intern.flood." + std::to_string(i));
  }
  EXPECT_STREQ(last, "trace.name_overflow");
  // Names interned before exhaustion still resolve to their stable
  // pointers.
  EXPECT_EQ(obs::intern_name("intern.same"), before);
  EXPECT_STREQ(before, "intern.same");
}

}  // namespace
}  // namespace fixedpart
