#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include "instrument/memory_tracker.hpp"
#include "instrument/report.hpp"
#include "instrument/timer.hpp"

namespace {

using instrument::BusyClock;
using instrument::MemoryTracker;
using instrument::RunningStats;
using instrument::Table;
using instrument::TimingRegistry;
using instrument::TrackedBuffer;
using instrument::TrackerScope;
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

TEST(TimingRegistryTest, AccumulatesNamedBuckets) {
  TimingRegistry registry;
  registry.Accumulate("solve", 1.0);
  registry.Accumulate("solve", 2.0);
  registry.Accumulate("io", 0.5);
  EXPECT_DOUBLE_EQ(registry.Total("solve"), 3.0);
  EXPECT_DOUBLE_EQ(registry.Total("io"), 0.5);
  EXPECT_DOUBLE_EQ(registry.Total("missing"), 0.0);
  EXPECT_EQ(registry.Entries().at("solve").count, 2u);
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

TEST(ScopedTimerTest, StopExcludesLaterWork) {
  TimingRegistry registry;
  {
    instrument::ScopedTimer timer(registry, "loop");
    timer.Stop();
    const double at_stop = registry.Total("loop");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    timer.Stop();  // idempotent: destruction must not re-accumulate
    EXPECT_DOUBLE_EQ(registry.Total("loop"), at_stop);
  }
  EXPECT_EQ(registry.Entries().at("loop").count, 1u);
  EXPECT_LT(registry.Total("loop"), 0.010);
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
  MemoryTracker tracker;
  {
    TrackerScope scope(&tracker);
    TrackedBuffer<double> buffer("field", 128);
    EXPECT_EQ(tracker.CurrentBytes(), 128 * sizeof(double));
  }
  EXPECT_EQ(tracker.CurrentBytes(), 0u);
  EXPECT_EQ(tracker.PeakBytes(), 128 * sizeof(double));
}

TEST(TrackedBufferTest, MoveTransfersOwnership) {
  MemoryTracker tracker;
  TrackerScope scope(&tracker);
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
