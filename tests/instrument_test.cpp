#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "instrument/flight_recorder.hpp"
#include "instrument/memory_tracker.hpp"
#include "instrument/metrics.hpp"
#include "instrument/rank_env.hpp"
#include "instrument/report.hpp"
#include "instrument/timer.hpp"
#include "instrument/tracer.hpp"

namespace {

using instrument::BusyClock;
using instrument::MemoryTracker;
using instrument::RunningStats;
using instrument::RankEnv;
using instrument::RankScope;
using instrument::Table;
using instrument::TrackedBuffer;
using instrument::WallTimer;

TEST(WallTimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(timer.Elapsed(), 0.009);
}

TEST(WallTimerTest, RestartResetsOrigin) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  timer.Restart();
  EXPECT_LT(timer.Elapsed(), 0.009);
}

// Burn CPU so the thread CPU-time clock advances (sleeping would not).
void SpinFor(double seconds) {
  const double start = BusyClock::ThreadCpuSeconds();
  volatile double sink = 0.0;
  while (BusyClock::ThreadCpuSeconds() - start < seconds) {
    for (int i = 0; i < 1000; ++i) sink = sink + i;
  }
  (void)sink;
}

TEST(BusyClockTest, AccumulatesOnlyWhileRunning) {
  BusyClock clock;
  clock.Resume();
  SpinFor(0.01);
  clock.Pause();
  const double busy = clock.Seconds();
  SpinFor(0.01);  // CPU burned while paused must not count
  EXPECT_DOUBLE_EQ(clock.Seconds(), busy);
  EXPECT_GE(busy, 0.009);
}

TEST(BusyClockTest, SleepConsumesNoBusyTime) {
  // The clock measures CPU time: a blocked (sleeping) rank accumulates
  // nothing even while "running" — the property the scaling figures rely
  // on when rank threads outnumber the host's cores.
  BusyClock clock;
  clock.Resume();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  clock.Pause();
  EXPECT_LT(clock.Seconds(), 0.010);
}

TEST(BusyClockTest, DoubleResumeIsIdempotent) {
  BusyClock clock;
  clock.Resume();
  clock.Resume();
  clock.Pause();
  clock.Pause();
  EXPECT_GE(clock.Seconds(), 0.0);
}

TEST(BusyClockTest, ResetClearsAccumulation) {
  BusyClock clock;
  clock.Resume();
  SpinFor(0.005);
  clock.Pause();
  clock.Reset();
  EXPECT_DOUBLE_EQ(clock.Seconds(), 0.0);
}

TEST(RunningStatsTest, ComputesMomentsAndExtremes) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(x);
  EXPECT_EQ(stats.Count(), 8u);
  EXPECT_DOUBLE_EQ(stats.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.Min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 9.0);
  EXPECT_NEAR(stats.StdDev(), 2.13809, 1e-4);
}

TEST(RunningStatsTest, MergeMatchesSingleAccumulator) {
  // Merging per-rank accumulators must give the same moments as feeding
  // every sample into one accumulator (the property Summarize relies on).
  const std::vector<double> a = {2.0, 4.0, 4.0, 4.0};
  const std::vector<double> b = {5.0, 5.0, 7.0, 9.0, 11.0};
  RunningStats left, right, all;
  for (double x : a) {
    left.Add(x);
    all.Add(x);
  }
  for (double x : b) {
    right.Add(x);
    all.Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.Count(), all.Count());
  EXPECT_DOUBLE_EQ(left.Mean(), all.Mean());
  EXPECT_NEAR(left.Variance(), all.Variance(), 1e-12);
  EXPECT_DOUBLE_EQ(left.Min(), all.Min());
  EXPECT_DOUBLE_EQ(left.Max(), all.Max());
}

TEST(RunningStatsTest, MergeWithEmptySidesIsIdentity) {
  RunningStats filled;
  for (double x : {1.0, 3.0}) filled.Add(x);
  RunningStats empty;
  RunningStats copy = filled;
  copy.Merge(empty);
  EXPECT_EQ(copy.Count(), 2u);
  EXPECT_DOUBLE_EQ(copy.Mean(), 2.0);
  empty.Merge(filled);
  EXPECT_EQ(empty.Count(), 2u);
  EXPECT_DOUBLE_EQ(empty.Mean(), 2.0);
  EXPECT_DOUBLE_EQ(empty.Min(), 1.0);
  EXPECT_DOUBLE_EQ(empty.Max(), 3.0);
}

TEST(PercentileTest, NearestRankEdgeCases) {
  EXPECT_DOUBLE_EQ(instrument::Percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(instrument::Percentile({7.0}, 0.0), 7.0);
  EXPECT_DOUBLE_EQ(instrument::Percentile({7.0}, 1.0), 7.0);
  const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0, 5.0,
                                      6.0, 7.0, 8.0, 9.0, 10.0};
  EXPECT_DOUBLE_EQ(instrument::Percentile(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(instrument::Percentile(sorted, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(instrument::Percentile(sorted, 0.95), 10.0);
  EXPECT_DOUBLE_EQ(instrument::Percentile(sorted, 1.0), 10.0);
  // Out-of-range q is clamped rather than indexing out of bounds.
  EXPECT_DOUBLE_EQ(instrument::Percentile(sorted, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(instrument::Percentile(sorted, 1.5), 10.0);
}

TEST(MemoryTrackerTest, TracksCurrentAndPeak) {
  MemoryTracker tracker;
  tracker.Allocate("field", 1000);
  tracker.Allocate("staging", 500);
  EXPECT_EQ(tracker.CurrentBytes(), 1500u);
  EXPECT_EQ(tracker.PeakBytes(), 1500u);
  tracker.Release("staging", 500);
  EXPECT_EQ(tracker.CurrentBytes(), 1000u);
  EXPECT_EQ(tracker.PeakBytes(), 1500u);
  EXPECT_EQ(tracker.CurrentBytes("field"), 1000u);
  EXPECT_EQ(tracker.PeakBytes("staging"), 500u);
}

TEST(MemoryTrackerTest, PeakPerCategoryIsIndependent) {
  MemoryTracker tracker;
  tracker.Allocate("a", 100);
  tracker.Release("a", 100);
  tracker.Allocate("b", 50);
  EXPECT_EQ(tracker.PeakBytes("a"), 100u);
  EXPECT_EQ(tracker.PeakBytes("b"), 50u);
  EXPECT_EQ(tracker.PeakBytes(), 100u);
}

TEST(MemoryTrackerTest, ResetClearsEverything) {
  MemoryTracker tracker;
  tracker.Allocate("a", 10);
  tracker.Reset();
  EXPECT_EQ(tracker.CurrentBytes(), 0u);
  EXPECT_EQ(tracker.PeakBytes(), 0u);
}

TEST(TrackedBufferTest, RegistersWithCurrentTracker) {
  RankEnv env;
  MemoryTracker& tracker = env.memory;
  {
    RankScope scope(&env);
    TrackedBuffer<double> buffer("field", 128);
    EXPECT_EQ(tracker.CurrentBytes(), 128 * sizeof(double));
  }
  EXPECT_EQ(tracker.CurrentBytes(), 0u);
  EXPECT_EQ(tracker.PeakBytes(), 128 * sizeof(double));
}

TEST(TrackedBufferTest, MoveTransfersOwnership) {
  RankEnv env;
  RankScope scope(&env);
  MemoryTracker& tracker = env.memory;
  TrackedBuffer<int> a("x", 64);
  TrackedBuffer<int> b = std::move(a);
  EXPECT_EQ(b.size(), 64u);
  EXPECT_EQ(tracker.CurrentBytes(), 64 * sizeof(int));
  b = TrackedBuffer<int>("x", 32);
  EXPECT_EQ(tracker.CurrentBytes(), 32 * sizeof(int));
}

TEST(TrackedBufferTest, UntrackedOutsideScope) {
  TrackedBuffer<double> buffer("field", 16);
  EXPECT_EQ(buffer.size(), 16u);  // works without a tracker installed
}

// ---- RankScope: the one per-thread instrumentation context ------------------

TEST(RankScopeTest, NestedScopesRestorePrevious) {
  RankEnv outer;
  outer.tracer = std::make_shared<instrument::Tracer>(0);
  outer.metrics = std::make_shared<instrument::MetricsRegistry>();
  outer.flightrec = std::make_shared<instrument::FlightRecorder>(0, 8);
  RankEnv inner;
  inner.tracer = std::make_shared<instrument::Tracer>(1);
  {
    RankScope outer_scope(&outer);
    EXPECT_EQ(instrument::CurrentEnv(), &outer);
    EXPECT_EQ(instrument::CurrentTracker(), &outer.memory);
    EXPECT_EQ(instrument::CurrentTracer(), outer.tracer.get());
    EXPECT_EQ(instrument::CurrentMetrics(), outer.metrics.get());
    EXPECT_EQ(instrument::CurrentFlightRecorder(), outer.flightrec.get());
    {
      RankScope inner_scope(&inner);
      // Every plane now reads through the inner env, including the ones
      // it lacks: nothing leaks through from the enclosing scope.
      EXPECT_EQ(instrument::CurrentEnv(), &inner);
      EXPECT_EQ(instrument::CurrentTracker(), &inner.memory);
      EXPECT_EQ(instrument::CurrentTracer(), inner.tracer.get());
      EXPECT_EQ(instrument::CurrentMetrics(), nullptr);
      EXPECT_EQ(instrument::CurrentFlightRecorder(), nullptr);
      instrument::Span span("solver.step");
    }
    EXPECT_EQ(instrument::CurrentEnv(), &outer);
    EXPECT_EQ(instrument::CurrentTracer(), outer.tracer.get());
    EXPECT_EQ(instrument::CurrentMetrics(), outer.metrics.get());
  }
  EXPECT_EQ(instrument::CurrentEnv(), nullptr);
  EXPECT_EQ(inner.tracer->TotalSpans(), 1u);
  EXPECT_EQ(outer.tracer->TotalSpans(), 0u);
  EXPECT_TRUE(outer.metrics->Histograms().empty());
}

TEST(RankScopeTest, WithoutEnvEveryPlaneIsNullAndSpansRecordNothing) {
  ASSERT_EQ(instrument::CurrentEnv(), nullptr);
  EXPECT_EQ(instrument::CurrentTracker(), nullptr);
  EXPECT_EQ(instrument::CurrentTracer(), nullptr);
  EXPECT_EQ(instrument::CurrentMetrics(), nullptr);
  EXPECT_EQ(instrument::CurrentFlightRecorder(), nullptr);
  { instrument::Span span("solver.step"); }  // nothing to record into

  // A null scope hides the enclosing env the same way.
  RankEnv env;
  env.tracer = std::make_shared<instrument::Tracer>(0);
  env.metrics = std::make_shared<instrument::MetricsRegistry>();
  RankScope scope(&env);
  {
    RankScope hidden(nullptr);
    EXPECT_EQ(instrument::CurrentEnv(), nullptr);
    EXPECT_EQ(instrument::CurrentTracker(), nullptr);
    EXPECT_EQ(instrument::CurrentTracer(), nullptr);
    EXPECT_EQ(instrument::CurrentMetrics(), nullptr);
    instrument::Span span("solver.step");
  }
  EXPECT_EQ(env.tracer->TotalSpans(), 0u);
  EXPECT_TRUE(env.metrics->Histograms().empty());
}

TEST(RankScopeTest, ScopeRunsTheBusyClockOnlyWhileInstalled) {
  RankEnv env;
  {
    RankScope scope(&env);
    SpinFor(0.005);
  }
  const double busy = env.busy.Seconds();
  EXPECT_GT(busy, 0.0);
  SpinFor(0.005);  // outside the scope: not this env's busy time
  EXPECT_DOUBLE_EQ(env.busy.Seconds(), busy);
}

TEST(TableTest, PrintsAlignedColumns) {
  Table table("demo");
  table.SetHeader({"config", "seconds"});
  table.AddRow({"catalyst", "1.5"});
  table.AddRow({"checkpointing", "1.2"});
  std::ostringstream os;
  table.Print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("demo"), std::string::npos);
  EXPECT_NE(text.find("catalyst"), std::string::npos);
  EXPECT_NE(text.find("checkpointing"), std::string::npos);
}

TEST(TableTest, WritesCsvWithEscaping) {
  Table table("csv");
  table.SetHeader({"name", "value"});
  table.AddRow({"a,b", "say \"hi\""});
  const std::string path = ::testing::TempDir() + "/table_test.csv";
  EXPECT_TRUE(table.WriteCsv(path));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "name,value");
  std::getline(in, line);
  EXPECT_EQ(line, "\"a,b\",\"say \"\"hi\"\"\"");
}

TEST(TableTest, WriteCsvReportsUnwritablePath) {
  Table table("csv");
  table.SetHeader({"a"});
  table.AddRow({"1"});
  EXPECT_FALSE(
      table.WriteCsv("/nonexistent-nsm-dir/definitely/not/here.csv"));
}

TEST(FormatTest, FormatBytesPicksHumanUnits) {
  EXPECT_EQ(instrument::FormatBytes(512), "512.0 B");
  EXPECT_EQ(instrument::FormatBytes(6815744), "6.5 MB");
  EXPECT_EQ(instrument::FormatBytes(20401094656ULL), "19.0 GB");
}

TEST(FormatTest, FormatBytesUnitBoundaries) {
  EXPECT_EQ(instrument::FormatBytes(0), "0.0 B");
  EXPECT_EQ(instrument::FormatBytes(1023), "1023.0 B");
  EXPECT_EQ(instrument::FormatBytes(1024), "1.0 KB");  // exactly 1 KB flips
  EXPECT_EQ(instrument::FormatBytes(1024 * 1024), "1.0 MB");
  EXPECT_EQ(instrument::FormatBytes(1024 * 1024 - 1), "1024.0 KB");
}

TEST(FormatTest, FormatSecondsFourDecimals) {
  EXPECT_EQ(instrument::FormatSeconds(1.23456), "1.2346");
}

TEST(FormatTest, FormatSecondsSubMillisecond) {
  EXPECT_EQ(instrument::FormatSeconds(0.00042), "0.0004");
  EXPECT_EQ(instrument::FormatSeconds(0.0), "0.0000");
  EXPECT_EQ(instrument::FormatSeconds(4.2e-7), "0.0000");  // below resolution
}

}  // namespace
