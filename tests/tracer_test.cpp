#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "instrument/metrics.hpp"
#include "instrument/rank_env.hpp"
#include "instrument/telemetry.hpp"
#include "instrument/tracer.hpp"

namespace {

using instrument::CurrentTracer;
using instrument::RankEnv;
using instrument::RankScope;
using instrument::Span;
using instrument::Summarize;
using instrument::TelemetryConfig;
using instrument::TelemetrySummary;
using instrument::Tracer;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(TracerTest, RecordsSpanNameStartAndDuration) {
  Tracer tracer(0);
  {
    Span span(&tracer, "solver.step");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const auto spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].Name(), "solver.step");
  EXPECT_GT(spans[0].start_ns, 0);
  EXPECT_GE(spans[0].duration_ns, 1'000'000);
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(tracer.TotalSpans(), 1u);
  EXPECT_EQ(tracer.DroppedSpans(), 0u);
}

TEST(TracerTest, NestedSpansTrackDepth) {
  Tracer tracer(0);
  {
    Span outer(&tracer, "solver.step");
    {
      Span inner(&tracer, "solver.helmholtz");
      Span innermost(&tracer, "comm.recv.wait");
    }
  }
  const auto spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 3u);
  // Spans close innermost-first.
  EXPECT_EQ(spans[0].Name(), "comm.recv.wait");
  EXPECT_EQ(spans[0].depth, 2);
  EXPECT_EQ(spans[1].Name(), "solver.helmholtz");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[2].Name(), "solver.step");
  EXPECT_EQ(spans[2].depth, 0);
  // The parent encloses the child on the timeline.
  EXPECT_LE(spans[2].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[2].start_ns + spans[2].duration_ns,
            spans[1].start_ns + spans[1].duration_ns);
}

TEST(TracerTest, ExplicitEndIsIdempotent) {
  Tracer tracer(0);
  Span span(&tracer, "bridge.update");
  span.End();
  span.End();  // second End (and the destructor later) must not re-record
  EXPECT_EQ(tracer.TotalSpans(), 1u);
}

TEST(TracerTest, LongNamesAreTruncatedNotDangling) {
  Tracer tracer(0);
  const std::string long_name(200, 'x');
  { Span span(&tracer, long_name); }
  const auto spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].Name().size(), Tracer::SpanRecord::kNameCapacity);
  EXPECT_EQ(spans[0].Name(),
            std::string(Tracer::SpanRecord::kNameCapacity, 'x'));
}

TEST(TracerTest, RingWrapsOldestFirstAndCountsDrops) {
  Tracer::Options options;
  options.span_capacity = 4;
  Tracer tracer(0, options);
  for (int i = 0; i < 10; ++i) {
    const std::string name = "s" + std::to_string(i);  // outlives the span
    Span span(&tracer, name);
  }
  EXPECT_EQ(tracer.TotalSpans(), 10u);
  EXPECT_EQ(tracer.DroppedSpans(), 6u);
  EXPECT_EQ(tracer.RetainedSpans(), 4u);
  const auto spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 4u);
  // The survivors are the newest four, oldest-first.
  EXPECT_EQ(spans[0].Name(), "s6");
  EXPECT_EQ(spans[3].Name(), "s9");
}

TEST(TracerTest, NoTracerInstalledMeansNothingRecorded) {
  // The disabled path: Span against a null tracer must be a no-op, so runs
  // without telemetry carry no recording overhead or storage.
  ASSERT_EQ(CurrentTracer(), nullptr);
  { Span span("solver.step"); }
  RankEnv env;
  env.tracer = std::make_shared<Tracer>(0);
  {
    RankScope scope(&env);
    { Span span("solver.step"); }
  }
  // Only the span opened while the scope was installed was seen.
  EXPECT_EQ(env.tracer->TotalSpans(), 1u);
  { Span span("solver.step"); }  // scope gone again
  EXPECT_EQ(env.tracer->TotalSpans(), 1u);
}

// ---- Span -> histogram: one timer per region --------------------------------

TEST(SpanHistogramTest, CloseObservesDurationIntoHistogramNamedAfterSpan) {
  // Metrics plane on, tracing off: the span still times its region, into
  // a histogram of seconds named after it.
  RankEnv env;
  env.metrics = std::make_shared<instrument::MetricsRegistry>();
  RankScope scope(&env);
  for (int i = 0; i < 3; ++i) {
    Span span("solver.pressure");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto& histograms = env.metrics->Histograms();
  ASSERT_EQ(histograms.size(), 1u);
  const instrument::HistogramData& h = histograms.at("solver.pressure");
  EXPECT_EQ(h.count, 3u);
  EXPECT_GE(h.min, 1e-3);
  EXPECT_DOUBLE_EQ(env.metrics->HistogramSum("solver.pressure"), h.sum);
  EXPECT_EQ(h.edges, instrument::MetricsRegistry::DefaultLatencyEdges());
}

TEST(SpanHistogramTest, HistogramAndTraceShareOneWindow) {
  // Both planes on: the histogram and the ring record the same clock pair,
  // so their totals agree exactly — including for threshold spans, whose
  // short instances the ring only tallies but the histogram still counts.
  RankEnv env;
  Tracer::Options options;
  options.wait_min_ns = 50'000'000;  // every wait below is tally-only
  env.tracer = std::make_shared<Tracer>(0, options);
  env.metrics = std::make_shared<instrument::MetricsRegistry>();
  RankScope scope(&env);
  for (int i = 0; i < 4; ++i) {
    Span outer("bridge.update");
    Span wait("comm.recv.wait", Span::Mode::kThreshold);
  }
  const Tracer& tracer = *env.tracer;
  EXPECT_EQ(tracer.TotalSpans(), 4u);
  EXPECT_EQ(tracer.SkippedWaits(), 4u);
  double traced = 0.0;
  for (const Tracer::SpanRecord& rec : tracer.Spans()) {
    traced += static_cast<double>(rec.duration_ns) * 1e-9;
  }
  const auto& histograms = env.metrics->Histograms();
  EXPECT_EQ(histograms.at("bridge.update").count, 4u);
  EXPECT_NEAR(histograms.at("bridge.update").sum, traced, 1e-12);
  EXPECT_EQ(histograms.at("comm.recv.wait").count, 4u);
  EXPECT_NEAR(histograms.at("comm.recv.wait").sum,
              tracer.SkippedWaitSeconds(), 1e-12);
}

TEST(SpanHistogramTest, ExplicitTracerSpanLeavesTheRegistryAlone) {
  RankEnv env;
  env.metrics = std::make_shared<instrument::MetricsRegistry>();
  RankScope scope(&env);
  Tracer tracer(0);
  { Span span(&tracer, "solver.step"); }
  EXPECT_EQ(tracer.TotalSpans(), 1u);
  EXPECT_TRUE(env.metrics->Histograms().empty());
}

TEST(TracerTest, ThresholdModeTalliesShortWaits) {
  Tracer::Options options;
  options.wait_min_ns = 50'000'000;  // 50 ms: everything below is tallied
  Tracer tracer(0, options);
  for (int i = 0; i < 3; ++i) {
    Span span(&tracer, "comm.recv.wait", Span::Mode::kThreshold);
  }
  EXPECT_EQ(tracer.TotalSpans(), 0u);  // nothing hit the ring
  EXPECT_EQ(tracer.SkippedWaits(), 3u);
  EXPECT_GE(tracer.SkippedWaitSeconds(), 0.0);
  // A wait above the threshold is recorded normally.
  {
    Tracer::Options fine;
    fine.wait_min_ns = 100;  // 100 ns
    Tracer t2(0, fine);
    Span span(&t2, "comm.barrier.wait", Span::Mode::kThreshold);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    span.End();
    EXPECT_EQ(t2.TotalSpans(), 1u);
    EXPECT_EQ(t2.SkippedWaits(), 0u);
  }
}

TEST(TracerTest, CountersAccumulateAndSample) {
  Tracer tracer(0);
  tracer.AddCounter("sst.bytes", 100.0);
  tracer.AddCounter("sst.bytes", 50.0);
  tracer.SampleCounter("d2h.bytes", 4096.0);
  EXPECT_DOUBLE_EQ(tracer.CounterTotals().at("sst.bytes"), 150.0);
  EXPECT_DOUBLE_EQ(tracer.CounterTotals().at("d2h.bytes"), 4096.0);
  ASSERT_EQ(tracer.CounterSamples().size(), 1u);
  EXPECT_EQ(tracer.CounterSamples()[0].Name(), "d2h.bytes");
  EXPECT_DOUBLE_EQ(tracer.CounterSamples()[0].value, 4096.0);
}

TEST(TracerTest, InstantEventsAreTimestamped) {
  Tracer tracer(0);
  const std::int64_t before = Tracer::NowNs();
  tracer.Instant("step.begin");
  const std::int64_t after = Tracer::NowNs();
  ASSERT_EQ(tracer.Events().size(), 1u);
  EXPECT_EQ(tracer.Events()[0].Name(), "step.begin");
  EXPECT_GE(tracer.Events()[0].ts_ns, before);
  EXPECT_LE(tracer.Events()[0].ts_ns, after);
}

TEST(TracerTest, ClearKeepsCapacityDropsData) {
  Tracer tracer(0);
  { Span span(&tracer, "a"); }
  tracer.Instant("e");
  tracer.AddCounter("c", 1.0);
  tracer.Clear();
  EXPECT_EQ(tracer.TotalSpans(), 0u);
  EXPECT_TRUE(tracer.Spans().empty());
  EXPECT_TRUE(tracer.Events().empty());
  EXPECT_TRUE(tracer.CounterTotals().empty());
}

TEST(TracerTest, SummaryLineMentionsDropsAndCounters) {
  Tracer::Options options;
  options.span_capacity = 2;
  Tracer tracer(3, options);
  for (int i = 0; i < 5; ++i) {
    Span span(&tracer, "s");
  }
  tracer.AddCounter("sst.bytes", 2048.0);
  tracer.AddCounter("images", 4.0);
  const std::string line = tracer.SummaryLine();
  EXPECT_NE(line.find("rank 3"), std::string::npos);
  EXPECT_NE(line.find("5 spans"), std::string::npos);
  EXPECT_NE(line.find("3 dropped"), std::string::npos);
  EXPECT_NE(line.find("2.0 KB"), std::string::npos);  // bytes humanized
  EXPECT_NE(line.find("images=4"), std::string::npos);
}

// --- aggregation ------------------------------------------------------------

TEST(SummarizeTest, MergesSpansAndCountersAcrossRanks) {
  Tracer r0(0), r1(1);
  // Deterministic durations via direct CloseSpan through the Span API are
  // timing-dependent; instead exercise the statistics through counters and
  // span counts, and the duration math through ranges.
  for (int i = 0; i < 3; ++i) {
    Span span(&r0, "solver.step");
  }
  for (int i = 0; i < 2; ++i) {
    Span span(&r1, "solver.step");
  }
  { Span span(&r1, "bridge.update"); }
  r0.AddCounter("sst.bytes", 100.0);
  r1.AddCounter("sst.bytes", 200.0);
  const TelemetrySummary summary = Summarize({&r0, &r1});
  EXPECT_EQ(summary.ranks, 2);
  EXPECT_EQ(summary.total_spans, 6u);
  EXPECT_EQ(summary.dropped_spans, 0u);
  EXPECT_EQ(summary.SpanCount("solver.step"), 5u);
  EXPECT_EQ(summary.SpanCount("bridge.update"), 1u);
  EXPECT_DOUBLE_EQ(summary.Counter("sst.bytes"), 300.0);
  const auto& agg = summary.spans.at("solver.step");
  EXPECT_GE(agg.max_seconds, agg.p95_seconds);
  EXPECT_GE(agg.p95_seconds, agg.p50_seconds);
  EXPECT_GE(agg.total_seconds, 0.0);
  EXPECT_NEAR(agg.total_seconds, agg.mean_seconds * 5.0, 1e-12);
  // Null entries are tolerated (a rank that never started).
  const TelemetrySummary with_null = Summarize({&r0, nullptr, &r1});
  EXPECT_EQ(with_null.ranks, 2);
  EXPECT_EQ(with_null.total_spans, 6u);
}

TEST(SummarizeTest, EmptyInputIsEmptySummary) {
  const TelemetrySummary summary = Summarize({});
  EXPECT_TRUE(summary.Empty());
  EXPECT_EQ(summary.ranks, 0);
  EXPECT_DOUBLE_EQ(summary.SpanTotalSeconds("anything"), 0.0);
  EXPECT_DOUBLE_EQ(summary.Counter("anything"), 0.0);
}

// --- exporters --------------------------------------------------------------

TEST(ChromeTraceTest, EmitsOneTrackPerRankWithNestedSpans) {
  Tracer r0(0), r1(1);
  {
    Span outer(&r0, "solver.step");
    Span inner(&r0, "solver.helmholtz");
  }
  { Span span(&r1, "bridge.update"); }
  r0.Instant("step.begin");
  r0.SampleCounter("d2h.bytes", 512.0);
  const std::string path = ::testing::TempDir() + "/trace_test.json";
  ASSERT_TRUE(instrument::WriteChromeTrace(path, {&r0, &r1}));
  const std::string json = ReadFile(path);
  // Structural checks: the trace-event envelope, one thread_name metadata
  // record per rank, complete events for the spans, and matching braces
  // (Perfetto rejects unterminated JSON).
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"rank 0\""), std::string::npos);
  EXPECT_NE(json.find("\"rank 1\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"solver.helmholtz\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // counter
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_EQ(json[json.size() - 2], '}');
  std::ptrdiff_t depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
  }
  EXPECT_EQ(depth, 0);
}

TEST(ChromeTraceTest, FailsOnUnwritablePath) {
  Tracer tracer(0);
  EXPECT_FALSE(
      instrument::WriteChromeTrace("/nonexistent-nsm-dir/trace.json", {&tracer}));
}

TEST(TelemetryJsonTest, WritesAggregateWithSpansAndCounters) {
  Tracer tracer(0);
  { Span span(&tracer, "solver.step"); }
  tracer.AddCounter("images", 2.0);
  const TelemetrySummary summary = Summarize({&tracer});
  const std::string path = ::testing::TempDir() + "/telemetry_test.json";
  ASSERT_TRUE(instrument::WriteTelemetryJson(path, summary));
  const std::string json = ReadFile(path);
  EXPECT_NE(json.find("\"ranks\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"solver.step\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"images\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_spans\": 0"), std::string::npos);
}

TEST(TelemetryTableTest, SortsByTotalTimeDescending) {
  TelemetrySummary summary;
  summary.ranks = 1;
  summary.total_spans = 3;
  summary.spans["small"] = {1, 0.1, 0.1, 0.1, 0.1, 0.1};
  summary.spans["large"] = {2, 5.0, 2.5, 2.5, 2.5, 2.5};
  const instrument::Table table = instrument::TelemetryTable(summary, "t");
  std::ostringstream os;
  table.Print(os);
  const std::string text = os.str();
  const auto large_at = text.find("large");
  const auto small_at = text.find("small");
  ASSERT_NE(large_at, std::string::npos);
  ASSERT_NE(small_at, std::string::npos);
  EXPECT_LT(large_at, small_at);
}

TEST(TelemetryConfigTest, TranslatesToTracerOptions) {
  TelemetryConfig config;
  config.span_capacity = 128;
  config.wait_min_seconds = 0.001;
  const Tracer::Options options = config.TracerOptions();
  EXPECT_EQ(options.span_capacity, 128u);
  EXPECT_EQ(options.wait_min_ns, 1'000'000);
}

#if defined(NSM_THREAD_CHECKS)

// The tracer is single-owner by contract; under NSM_THREAD_CHECKS a mutation
// from a second thread must abort with a report instead of racing the ring.
TEST(TracerDeathTest, CrossThreadMutationAborts) {
  instrument::Tracer tracer(0);
  tracer.Instant("bind.owner");  // binds the owning thread
  EXPECT_DEATH(
      {
        std::thread intruder([&] { tracer.Instant("foreign.write"); });
        intruder.join();
      },
      "single-owner violation");
}

// Clear() is the documented handoff point: after it, a new thread may own.
TEST(TracerThreadChecksTest, ClearHandsOffOwnership) {
  instrument::Tracer tracer(0);
  tracer.Instant("first.owner");
  tracer.Clear();
  std::thread successor([&] { tracer.Instant("second.owner"); });
  successor.join();
  EXPECT_EQ(tracer.Events().size(), 1u);
}

#endif  // NSM_THREAD_CHECKS

}  // namespace
