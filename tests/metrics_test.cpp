// Tests for the run-health metrics plane: histogram boundary semantics,
// snapshot wire format, the cross-rank reduction (including its determinism
// in the rank partitioning), the disabled-plane guarantee, and the
// bench-report regression gate.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "instrument/bench_compare.hpp"
#include "instrument/metrics.hpp"
#include "mpimini/metrics_reduce.hpp"
#include "mpimini/runtime.hpp"

namespace {

std::string TempDir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// -------------------------------------------------------------- histograms

TEST(HistogramTest, BucketBoundarySemantics) {
  // edges e0..e2 = {1, 2, 4}: bucket 0 = (-inf, 1), bucket 1 = [1, 2),
  // bucket 2 = [2, 4), bucket 3 = [4, +inf).
  instrument::HistogramData h({1.0, 2.0, 4.0});
  ASSERT_EQ(h.buckets.size(), 4u);

  EXPECT_EQ(h.BucketIndex(0.0), 0u);   // underflow
  EXPECT_EQ(h.BucketIndex(0.999), 0u);
  // A value exactly on a boundary belongs to the bucket it opens.
  EXPECT_EQ(h.BucketIndex(1.0), 1u);
  EXPECT_EQ(h.BucketIndex(1.999), 1u);
  EXPECT_EQ(h.BucketIndex(2.0), 2u);
  EXPECT_EQ(h.BucketIndex(4.0), 3u);   // top edge opens the overflow bucket
  EXPECT_EQ(h.BucketIndex(100.0), 3u);

  for (double v : {0.5, 1.0, 2.0, 3.0, 4.0, 8.0}) h.Observe(v);
  EXPECT_EQ(h.count, 6u);
  EXPECT_DOUBLE_EQ(h.sum, 18.5);
  EXPECT_DOUBLE_EQ(h.min, 0.5);
  EXPECT_DOUBLE_EQ(h.max, 8.0);
  EXPECT_EQ(h.buckets[0], 1u);  // 0.5
  EXPECT_EQ(h.buckets[1], 1u);  // 1.0
  EXPECT_EQ(h.buckets[2], 2u);  // 2.0, 3.0
  EXPECT_EQ(h.buckets[3], 2u);  // 4.0, 8.0
  EXPECT_DOUBLE_EQ(h.Mean(), 18.5 / 6.0);
}

TEST(HistogramTest, MergeAddsBucketsAndRejectsMismatchedEdges) {
  instrument::HistogramData a({1.0, 2.0});
  instrument::HistogramData b({1.0, 2.0});
  a.Observe(0.5);
  a.Observe(1.5);
  b.Observe(1.5);
  b.Observe(3.0);

  a.Merge(b);
  EXPECT_EQ(a.count, 4u);
  EXPECT_DOUBLE_EQ(a.sum, 6.5);
  EXPECT_DOUBLE_EQ(a.min, 0.5);
  EXPECT_DOUBLE_EQ(a.max, 3.0);
  EXPECT_EQ(a.buckets[0], 1u);
  EXPECT_EQ(a.buckets[1], 2u);
  EXPECT_EQ(a.buckets[2], 1u);

  instrument::HistogramData incompatible({1.0, 8.0});
  incompatible.Observe(2.0);
  EXPECT_THROW(a.Merge(incompatible), std::runtime_error);
}

TEST(HistogramTest, MergeIntoEmptyKeepsOtherExtremes) {
  instrument::HistogramData empty({1.0, 2.0});
  instrument::HistogramData full({1.0, 2.0});
  full.Observe(5.0);
  full.Observe(0.25);
  empty.Merge(full);
  EXPECT_EQ(empty.count, 2u);
  EXPECT_DOUBLE_EQ(empty.min, 0.25);
  EXPECT_DOUBLE_EQ(empty.max, 5.0);
}

// ---------------------------------------------------------------- registry

TEST(MetricsRegistryTest, CountersGaugesAndTotals) {
  instrument::MetricsRegistry reg;
  reg.Add("work.items", 2.0);
  reg.Add("work.items", 3.0);
  EXPECT_DOUBLE_EQ(reg.Counter("work.items"), 5.0);
  EXPECT_DOUBLE_EQ(reg.Counter("never.fed"), 0.0);

  // SetTotal is fed from cumulative stats at step boundaries: repeated and
  // stale samples must be idempotent (max-keeping).
  reg.SetTotal("bytes.total", 100.0);
  reg.SetTotal("bytes.total", 250.0);
  reg.SetTotal("bytes.total", 250.0);
  reg.SetTotal("bytes.total", 90.0);
  EXPECT_DOUBLE_EQ(reg.Counter("bytes.total"), 250.0);

  reg.Set("queue.depth", 2.0);
  reg.Set("queue.depth", 7.0);
  reg.Set("queue.depth", 1.0);
  const instrument::GaugeData* g = reg.Gauge("queue.depth");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->last, 1.0);
  EXPECT_DOUBLE_EQ(g->low, 1.0);
  EXPECT_DOUBLE_EQ(g->high, 7.0);
  EXPECT_DOUBLE_EQ(g->sum, 10.0);
  EXPECT_EQ(g->samples, 3u);
  EXPECT_EQ(reg.Gauge("never.set"), nullptr);
}

TEST(MetricsRegistryTest, ObserveAutoRegistersDefaultLatencyEdges) {
  instrument::MetricsRegistry reg;
  reg.Observe("span.seconds", 1e-3);
  const auto& h = reg.Histograms().at("span.seconds");
  EXPECT_EQ(h.edges, instrument::MetricsRegistry::DefaultLatencyEdges());
  EXPECT_EQ(h.count, 1u);
}

TEST(MetricsRegistryTest, DefineHistogramRejectsUnsortedEdges) {
  instrument::MetricsRegistry reg;
  EXPECT_THROW(reg.DefineHistogram("bad", {2.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(reg.DefineHistogram("dup", {1.0, 1.0}),
               std::invalid_argument);
  reg.DefineHistogram("good", {1.0, 2.0});
  reg.Observe("good", 1.5);
  EXPECT_EQ(reg.Histograms().at("good").buckets[1], 1u);
}

// ---------------------------------------------------------------- snapshots

TEST(MetricsSnapshotTest, SerializeRoundTrip) {
  instrument::MetricsRegistry reg;
  reg.Add("steps", 12.0);
  reg.Set("mem.bytes", 4096.0);
  reg.Set("mem.bytes", 1024.0);
  reg.DefineHistogram("step.seconds", {0.001, 0.01, 0.1});
  reg.Observe("step.seconds", 0.005);
  reg.Observe("step.seconds", 0.5);

  const instrument::MetricsSnapshot snap = reg.Snapshot();
  const auto bytes = snap.Serialize();
  const auto back = instrument::MetricsSnapshot::Deserialize(bytes);

  EXPECT_EQ(back.counters, snap.counters);
  ASSERT_EQ(back.gauges.size(), 1u);
  const auto& g = back.gauges.at("mem.bytes");
  EXPECT_DOUBLE_EQ(g.last, 1024.0);
  EXPECT_DOUBLE_EQ(g.high, 4096.0);
  ASSERT_EQ(back.histograms.size(), 1u);
  const auto& h = back.histograms.at("step.seconds");
  EXPECT_EQ(h.edges, snap.histograms.at("step.seconds").edges);
  EXPECT_EQ(h.buckets, snap.histograms.at("step.seconds").buckets);
  EXPECT_DOUBLE_EQ(h.sum, 0.505);

  EXPECT_THROW(instrument::MetricsSnapshot::Deserialize(
                   std::span<const std::byte>(bytes.data(), 3)),
               std::runtime_error);
}

// ---------------------------------------------------------------- reduction

TEST(ReduceSnapshotsTest, StatsAcrossRanks) {
  std::vector<instrument::MetricsSnapshot> per_rank(4);
  for (int r = 0; r < 4; ++r) {
    instrument::MetricsRegistry reg;
    reg.Add("solver.step_seconds", 1.0 + r);  // 1, 2, 3, 4
    reg.Set("sst.queue_depth", static_cast<double>(r));
    reg.DefineHistogram("lat", {1.0});
    reg.Observe("lat", r < 2 ? 0.5 : 2.0);
    per_rank[r] = reg.Snapshot();
  }

  const instrument::MetricsReport report =
      instrument::ReduceSnapshots(per_rank);
  EXPECT_EQ(report.ranks, 4);

  const instrument::MetricStat& c = report.counters.at("solver.step_seconds");
  EXPECT_EQ(c.ranks, 4);
  EXPECT_DOUBLE_EQ(c.min, 1.0);
  EXPECT_DOUBLE_EQ(c.max, 4.0);
  EXPECT_DOUBLE_EQ(c.mean, 2.5);
  EXPECT_DOUBLE_EQ(c.sum, 10.0);
  EXPECT_DOUBLE_EQ(c.p95, 4.0);  // nearest-rank over {1,2,3,4}
  EXPECT_DOUBLE_EQ(c.imbalance, 4.0 / 2.5);

  const instrument::MetricStat* gauge = report.Gauge("sst.queue_depth");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->low_watermark, 0.0);
  EXPECT_DOUBLE_EQ(gauge->high_watermark, 3.0);

  const auto& merged = report.histograms.at("lat");
  EXPECT_EQ(merged.count, 4u);
  EXPECT_EQ(merged.buckets[0], 2u);
  EXPECT_EQ(merged.buckets[1], 2u);
}

TEST(ReduceSnapshotsTest, HistogramsCarryTheStatOfTheirPerRankSums) {
  // A span's histogram keeps the cross-rank view a seconds counter had:
  // each rank's sum is its time inside the span (here 1, 2, 3, 4 s).
  std::vector<instrument::MetricsSnapshot> per_rank(4);
  for (int r = 0; r < 4; ++r) {
    instrument::MetricsRegistry reg;
    reg.Observe("solver.step", 0.25 * (1.0 + r));
    reg.Observe("solver.step", 0.75 * (1.0 + r));
    EXPECT_DOUBLE_EQ(reg.HistogramSum("solver.step"), 1.0 + r);
    per_rank[r] = reg.Snapshot();
  }

  const instrument::MetricsReport report =
      instrument::ReduceSnapshots(per_rank);
  const instrument::MetricStat& s = report.histogram_sums.at("solver.step");
  EXPECT_EQ(s.ranks, 4);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.sum, 10.0);
  EXPECT_DOUBLE_EQ(s.p95, 4.0);  // nearest-rank over {1,2,3,4}
  EXPECT_DOUBLE_EQ(s.imbalance, 4.0 / 2.5);
  EXPECT_EQ(report.histograms.at("solver.step").count, 8u);
  EXPECT_DOUBLE_EQ(report.histograms.at("solver.step").sum, 10.0);
}

TEST(ReduceSnapshotsTest, RanksCountOnlyFeedersPerMetric) {
  std::vector<instrument::MetricsSnapshot> per_rank(3);
  instrument::MetricsRegistry reg;
  reg.Add("only.rank0", 7.0);
  per_rank[0] = reg.Snapshot();  // ranks 1, 2 stay empty

  const auto report = instrument::ReduceSnapshots(per_rank);
  EXPECT_EQ(report.ranks, 3);
  EXPECT_EQ(report.counters.at("only.rank0").ranks, 1);
  EXPECT_DOUBLE_EQ(report.CounterSum("only.rank0"), 7.0);
}

// Splitting the same per-item work across 4 or 8 ranks must reduce to
// identical global totals and histogram contents: the aggregation is
// deterministic in the partitioning.
TEST(ReduceSnapshotsTest, DeterministicAcrossRankPartitionings) {
  constexpr int kItems = 24;
  auto run = [&](int nranks) {
    instrument::MetricsReport report;
    mpimini::RunSettings settings;
    settings.metrics = true;
    mpimini::Runtime::Run(nranks, settings, [&](mpimini::Comm& comm) {
      instrument::MetricsRegistry* metrics = instrument::CurrentMetrics();
      ASSERT_NE(metrics, nullptr);
      metrics->DefineHistogram("item.cost", {0.01, 0.1, 1.0});
      for (int i = comm.Rank(); i < kItems; i += comm.Size()) {
        metrics->Add("items.done", 1.0);
        metrics->Add("items.cost_seconds", 0.005 * (i + 1));
        metrics->Observe("item.cost", 0.005 * (i + 1));
        metrics->Set("item.last", static_cast<double>(i));
      }
      const instrument::MetricsReport reduced =
          mpimini::ReduceMetrics(comm, metrics->Snapshot());
      if (comm.Rank() == 0) report = reduced;
    });
    return report;
  };

  const instrument::MetricsReport r4 = run(4);
  const instrument::MetricsReport r8 = run(8);

  EXPECT_EQ(r4.ranks, 4);
  EXPECT_EQ(r8.ranks, 8);
  EXPECT_DOUBLE_EQ(r4.CounterSum("items.done"), kItems);
  EXPECT_DOUBLE_EQ(r8.CounterSum("items.done"), kItems);
  EXPECT_DOUBLE_EQ(r4.CounterSum("items.cost_seconds"),
                   r8.CounterSum("items.cost_seconds"));
  const auto& h4 = r4.histograms.at("item.cost");
  const auto& h8 = r8.histograms.at("item.cost");
  EXPECT_EQ(h4.buckets, h8.buckets);
  EXPECT_EQ(h4.count, h8.count);
  EXPECT_DOUBLE_EQ(h4.sum, h8.sum);
  // The global gauge high watermark is partitioning-independent too.
  EXPECT_DOUBLE_EQ(r4.Gauge("item.last")->high_watermark,
                   r8.Gauge("item.last")->high_watermark);
}

// The disabled plane is the default: no registry is allocated and rank
// threads see a null CurrentMetrics(), so every feed site (solver, SST,
// Catalyst) degenerates to one thread-local read and records nothing.
TEST(MetricsPlaneTest, DisabledPlaneInstallsNothingOnRankThreads) {
  const mpimini::RunResult result =
      mpimini::Runtime::Run(4, [&](mpimini::Comm&) {
        EXPECT_EQ(instrument::CurrentMetrics(), nullptr);
        EXPECT_EQ(mpimini::CurrentEnv()->metrics, nullptr);
      });
  EXPECT_TRUE(result.metrics.empty());
}

TEST(MetricsPlaneTest, EnabledPlaneInstallsPerRankRegistries) {
  mpimini::RunSettings settings;
  settings.metrics = true;
  const mpimini::RunResult result =
      mpimini::Runtime::Run(3, settings, [&](mpimini::Comm& comm) {
        ASSERT_NE(instrument::CurrentMetrics(), nullptr);
        instrument::CurrentMetrics()->Add("rank.marker",
                                          comm.Rank() + 1.0);
      });
  ASSERT_EQ(result.metrics.size(), 3u);
  double total = 0.0;
  for (const auto& reg : result.metrics) total += reg->Counter("rank.marker");
  EXPECT_DOUBLE_EQ(total, 6.0);
}

// ------------------------------------------------------------ JSON writers

TEST(MetricsJsonTest, WriteIsAtomicAndContainsStats) {
  const std::string dir = TempDir("nsm_metrics_json_test");
  const std::string path = dir + "/metrics.json";

  std::vector<instrument::MetricsSnapshot> per_rank(2);
  for (int r = 0; r < 2; ++r) {
    instrument::MetricsRegistry reg;
    reg.Add("sst.stall_seconds", 0.5 * (r + 1));
    reg.Set("memory.host_hwm_bytes", 1000.0 * (r + 1));
    reg.Observe("solver.step", 0.5 * (r + 1));
    per_rank[r] = reg.Snapshot();
  }
  ASSERT_TRUE(instrument::WriteMetricsJson(
      path, instrument::ReduceSnapshots(per_rank)));

  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));  // temp renamed away

  const std::string json = Slurp(path);
  EXPECT_NE(json.find("\"ranks\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"sst.stall_seconds\""), std::string::npos);
  // The histogram entry carries the stat of its per-rank sums (0.5, 1.0).
  EXPECT_NE(json.find("\"per_rank_sum\": {\"ranks\": 2, \"min\": 0.5"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"imbalance\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"high_watermark\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------- regression gate

instrument::BenchReport GateBaseline() {
  instrument::BenchReport report;
  report.bench = "fig5";
  report.config = "smoke";
  report.metrics = {{"fig5.catalyst.r4.per_step_seconds", 0.010},
                    {"fig5.catalyst.r4.stream_bytes", 4096.0},
                    {"fig5.catalyst.r4.images", 2.0}};
  return report;
}

TEST(BenchCompareTest, IdenticalReportsPass) {
  const auto baseline = GateBaseline();
  const auto result = instrument::CompareBenchReports(
      baseline, baseline, instrument::CompareOptions{});
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.Regressions(), 0);
  EXPECT_EQ(result.rows.size(), 3u);
}

TEST(BenchCompareTest, TwentyPercentTimeRegressionFails) {
  const auto baseline = GateBaseline();
  auto current = baseline;
  current.metrics["fig5.catalyst.r4.per_step_seconds"] *= 1.20;
  const auto result = instrument::CompareBenchReports(
      current, baseline, instrument::CompareOptions{});
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.Regressions(), 1);
  for (const auto& row : result.rows) {
    EXPECT_EQ(row.regressed,
              row.name == "fig5.catalyst.r4.per_step_seconds");
  }
}

TEST(BenchCompareTest, SmallTimeJitterWithinThresholdPasses) {
  const auto baseline = GateBaseline();
  auto current = baseline;
  current.metrics["fig5.catalyst.r4.per_step_seconds"] *= 1.05;
  EXPECT_TRUE(instrument::CompareBenchReports(current, baseline,
                                              instrument::CompareOptions{})
                  .ok);
}

TEST(BenchCompareTest, CounterIncreaseFailsAtZeroThreshold) {
  const auto baseline = GateBaseline();
  auto current = baseline;
  current.metrics["fig5.catalyst.r4.stream_bytes"] += 1.0;
  const auto result = instrument::CompareBenchReports(
      current, baseline, instrument::CompareOptions{});
  EXPECT_FALSE(result.ok);
  // ...but an explicit counter threshold grants headroom.
  instrument::CompareOptions loose;
  loose.counter_threshold = 0.01;
  EXPECT_TRUE(
      instrument::CompareBenchReports(current, baseline, loose).ok);
}

TEST(BenchCompareTest, MissingMetricAndConfigMismatchFail) {
  const auto baseline = GateBaseline();
  auto current = baseline;
  current.metrics.erase("fig5.catalyst.r4.images");
  auto result = instrument::CompareBenchReports(current, baseline,
                                                instrument::CompareOptions{});
  EXPECT_FALSE(result.ok);
  bool saw_missing = false;
  for (const auto& row : result.rows) {
    if (row.name == "fig5.catalyst.r4.images") saw_missing = row.missing;
  }
  EXPECT_TRUE(saw_missing);

  auto full = baseline;
  full.config = "full";
  result = instrument::CompareBenchReports(full, baseline,
                                           instrument::CompareOptions{});
  EXPECT_TRUE(result.config_mismatch);
  EXPECT_FALSE(result.ok);
}

TEST(BenchCompareTest, CompressSuffixMustMatchBaseline) {
  // A "--compress" run stamps a "-compress" config suffix (mirroring the
  // "-async" rule): comparing it against an uncompressed baseline must be
  // rejected as a config mismatch rather than silently passing the byte
  // counters against the wrong reference.
  const auto baseline = GateBaseline();
  auto compressed = baseline;
  compressed.config = baseline.config + "-compress";
  const auto result = instrument::CompareBenchReports(
      compressed, baseline, instrument::CompareOptions{});
  EXPECT_TRUE(result.config_mismatch);
  EXPECT_FALSE(result.ok);

  // Against a matching "-compress" baseline it compares normally.
  auto compress_baseline = baseline;
  compress_baseline.config = baseline.config + "-compress";
  EXPECT_TRUE(instrument::CompareBenchReports(compressed, compress_baseline,
                                              instrument::CompareOptions{})
                  .ok);
}

TEST(BenchCompareTest, NewMetricsAreNotedNotFailed) {
  const auto baseline = GateBaseline();
  auto current = baseline;
  current.metrics["fig5.catalyst.r8.per_step_seconds"] = 0.02;
  const auto result = instrument::CompareBenchReports(
      current, baseline, instrument::CompareOptions{});
  EXPECT_TRUE(result.ok);
  ASSERT_EQ(result.added.size(), 1u);
  EXPECT_EQ(result.added[0], "fig5.catalyst.r8.per_step_seconds");
}

TEST(BenchCompareTest, IsTimeMetricClassification) {
  EXPECT_TRUE(instrument::IsTimeMetric("fig2.catalyst.r4.per_step_seconds"));
  EXPECT_TRUE(instrument::IsTimeMetric("render.latency_ms"));
  EXPECT_FALSE(instrument::IsTimeMetric("fig2.catalyst.r4.bytes_written"));
  EXPECT_FALSE(instrument::IsTimeMetric("fig2.catalyst.r4.images"));
}

TEST(BenchCompareTest, BenchJsonRoundTripIsAtomic) {
  const std::string dir = TempDir("nsm_bench_json_test");
  const std::string path = dir + "/BENCH_fig5.json";
  const auto report = GateBaseline();
  ASSERT_TRUE(instrument::WriteBenchJson(path, report));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  const auto back = instrument::ReadBenchJson(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->bench, report.bench);
  EXPECT_EQ(back->config, report.config);
  EXPECT_EQ(back->metrics, report.metrics);

  EXPECT_FALSE(instrument::ReadBenchJson(dir + "/absent.json").has_value());
  std::ofstream(dir + "/garbage.json") << "not json at all";
  EXPECT_FALSE(instrument::ReadBenchJson(dir + "/garbage.json").has_value());
  std::filesystem::remove_all(dir);
}

// A missing baseline (new bench, nothing committed yet) and a corrupt one
// (truncated write) are different failures; the CI gate (compare_runs)
// exits 2 vs 3 on them, driven by this status.
TEST(BenchCompareTest, ReadStatusDistinguishesMissingFromUnparseable) {
  const std::string dir = TempDir("nsm_bench_status_test");
  instrument::BenchReadStatus status = instrument::BenchReadStatus::kOk;

  EXPECT_FALSE(
      instrument::ReadBenchJson(dir + "/absent.json", status).has_value());
  EXPECT_EQ(status, instrument::BenchReadStatus::kMissingFile);

  std::ofstream(dir + "/garbage.json") << "{ truncated";
  EXPECT_FALSE(
      instrument::ReadBenchJson(dir + "/garbage.json", status).has_value());
  EXPECT_EQ(status, instrument::BenchReadStatus::kUnparseable);

  const std::string good = dir + "/BENCH_fig5.json";
  ASSERT_TRUE(instrument::WriteBenchJson(good, GateBaseline()));
  EXPECT_TRUE(instrument::ReadBenchJson(good, status).has_value());
  EXPECT_EQ(status, instrument::BenchReadStatus::kOk);
  std::filesystem::remove_all(dir);
}

}  // namespace
