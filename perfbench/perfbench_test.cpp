// Unit tests of the benchmark's own code: the percentile rule, self-time
// subtraction, cross-thread latency pairing, and output identity of the
// timing wrappers.
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));
  return v;
}

TEST(PercentileTest, RefusesFewerThanTenSamplesBeyond) {
  EXPECT_FALSE(Percentile(Ramp(199), 0.95).has_value());
  EXPECT_TRUE(Percentile(Ramp(200), 0.95).has_value());
  EXPECT_FALSE(Percentile(Ramp(99), 0.90).has_value());
  EXPECT_TRUE(Percentile(Ramp(100), 0.90).has_value());
  EXPECT_FALSE(Percentile(Ramp(19), 0.50).has_value());
  EXPECT_TRUE(Percentile(Ramp(20), 0.50).has_value());
  EXPECT_FALSE(Percentile({}, 0.50).has_value());
}

TEST(PercentileTest, InterpolatesBetweenOrderStatistics) {
  // Ramp(21) holds 1..21: the median is 11, p75 sits at index 15 -> 16.
  EXPECT_DOUBLE_EQ(*Percentile(Ramp(21), 0.50), 11.0);
  EXPECT_DOUBLE_EQ(*Percentile(Ramp(200), 0.95), 190.05);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0, 10.0}), 2.5);
  EXPECT_DOUBLE_EQ(Mean({1.0, 2.0, 6.0}), 3.0);
}

TEST(PercentileTest, BlockPercentileIsAMedianOverCompleteBlocks) {
  // 50 samples per trial: p50 blocks are single trials, p90 blocks pairs.
  std::vector<std::vector<double>> trials;
  for (int t = 0; t < 5; ++t) {
    std::vector<double> trial = Ramp(50);  // 1..50
    if (t == 1) {
      for (double& v : trial) v *= 10.0;  // one burst-slowed trial
    }
    trials.push_back(trial);
  }
  int blocks = 0;
  EXPECT_DOUBLE_EQ(*BlockPercentile(trials, 0.50, &blocks), 25.5);
  EXPECT_EQ(blocks, 5);
  // p90 blocks: trials {0,1} and {2,3,4} (the fifth trial, alone too few,
  // joins the block before it).
  const double p90 = *BlockPercentile(trials, 0.90, &blocks);
  EXPECT_EQ(blocks, 2);
  std::vector<double> first = trials[0];
  first.insert(first.end(), trials[1].begin(), trials[1].end());
  std::vector<double> second;
  for (int t = 2; t < 5; ++t) {
    second.insert(second.end(), trials[t].begin(), trials[t].end());
  }
  EXPECT_DOUBLE_EQ(p90, 0.5 * (*Percentile(first, 0.90) +
                               *Percentile(second, 0.90)));
  // Not one complete block: refused, like Percentile.
  EXPECT_FALSE(BlockPercentile({Ramp(50)}, 0.90, &blocks).has_value());
  EXPECT_EQ(blocks, 0);
  EXPECT_FALSE(BlockPercentile({}, 0.50).has_value());
}

SpanRecord Span(const char* name, int parent, std::int64_t start,
                std::int64_t end) {
  SpanRecord s;
  s.name = name;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimeTest, SubtractsUnionOfChildrenClippedToParent) {
  const std::vector<SpanRecord> spans = {
      Span("step", -1, 0, 100),
      Span("nekrs.step", 0, 10, 30),
      Span("core.update", 0, 20, 50),   // overlaps its sibling by 10
      Span("core.data_access", 2, 25, 45),
      Span("late", 0, 90, 120),         // clipped to the parent's end
  };
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 100 - 40 - 10);  // [10,50) and [90,100) covered
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[2], 30 - 20);        // grandchild only counts against 2
  EXPECT_EQ(self[3], 20);
  EXPECT_EQ(self[4], 30);

  const auto by_name = SelfTimeByName(spans);
  EXPECT_EQ(by_name.at("step"), 50);
  std::int64_t total = 0;
  for (const auto& [name, ns] : by_name) total += ns;
  EXPECT_EQ(total, 50 + 20 + 10 + 20 + 30);
}

TEST(SelfTimeTest, ScopedSpansNestPerThread) {
  SpanLog log(true);
  {
    ScopedSpan outer(&log, "step", 7, 0);
    { ScopedSpan inner(&log, "nekrs.step", 7, 0); }
    std::thread other([&] { ScopedSpan worker(&log, "sensei.x", 7, 1000); });
    other.join();
  }
  const std::vector<SpanRecord> spans = log.Spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, -1);  // another thread's span is its own root
  for (const SpanRecord& s : spans) {
    EXPECT_EQ(s.id, 7);
    EXPECT_LE(s.start_ns, s.end_ns);
  }
  SpanLog off(false);
  { ScopedSpan ignored(&off, "step", 1, 0); }
  EXPECT_TRUE(off.Spans().empty());
}

TEST(LatencyPairerTest, PairsLastProducerWithLastConsumerAcrossThreads) {
  LatencyPairer pairer;
  constexpr int kProducers = 3;
  constexpr int kSteps = 200;
  std::vector<std::thread> threads;
  for (int r = 0; r < kProducers; ++r) {
    threads.emplace_back([&pairer, r] {
      for (int s = 1; s <= kSteps; ++s) {
        // Rank r finishes step s at 1000 s + 10 r (ns); rank 2 is last.
        pairer.Produced(s, 1000LL * s + 10 * r);
      }
    });
  }
  threads.emplace_back([&pairer] {
    for (int s = 1; s <= kSteps; ++s) pairer.Consumed(s, 1000LL * s + 500);
    pairer.Consumed(kSteps + 1, 5);  // never produced
  });
  threads.emplace_back([&pairer] {
    // A second consumer of even steps finishes later and wins.
    for (int s = 2; s <= kSteps; s += 2) pairer.Consumed(s, 1000LL * s + 900);
  });
  for (std::thread& t : threads) t.join();

  const LatencyPairer::Result result = pairer.Pair();
  ASSERT_EQ(result.latencies_ms.size(), static_cast<std::size_t>(kSteps));
  EXPECT_EQ(result.unpaired, 1);
  for (int s = 1; s <= kSteps; ++s) {
    const double expected_ns = (s % 2 == 0 ? 900.0 : 500.0) - 20.0;
    EXPECT_DOUBLE_EQ(result.latencies_ms[static_cast<std::size_t>(s - 1)],
                     expected_ns * 1e-6)
        << "step " << s;
  }
}

// A short version of each workload, run with the timing wrappers and with
// the program's own XML factories, must write byte-identical outputs.
class WrapIdentityTest : public testing::TestWithParam<std::string> {};

TEST_P(WrapIdentityTest, WrappedAdaptorsWriteIdenticalBytes) {
  const Workload* base = FindWorkload(GetParam());
  ASSERT_NE(base, nullptr);
  Workload w = *base;
  w.steps = 2 * w.frequency;
  const std::filesystem::path root =
      std::filesystem::path(testing::TempDir()) / ("perfbench_" + w.name);
  std::filesystem::remove_all(root);

  TrialResult results[2];
  for (int wrap = 0; wrap < 2; ++wrap) {
    TrialOptions options;
    options.wrap = wrap == 1;
    options.trace = wrap == 1;
    options.out_dir = (root / (wrap == 1 ? "wrapped" : "plain")).string();
    results[wrap] = RunTrial(w, 3, options);
    EXPECT_EQ(results[wrap].failed, 0)
        << (results[wrap].failures.empty() ? "" : results[wrap].failures[0]);
  }
  EXPECT_EQ(results[0].output_hash, results[1].output_hash);
  EXPECT_EQ(results[0].quantity, results[1].quantity);
  EXPECT_EQ(results[0].storage_bytes, results[1].storage_bytes);
  EXPECT_EQ(results[1].e2e_ms.size(), static_cast<std::size_t>(w.Triggers()));
  EXPECT_FALSE(results[1].layers.empty());
  EXPECT_LE(w.Threads(), 4);
  std::filesystem::remove_all(root);
}

INSTANTIATE_TEST_SUITE_P(Workloads, WrapIdentityTest,
                         testing::Values("pb146-insitu-catalyst",
                                         "pb146-async-checkpoint",
                                         "rbc-intransit-catalyst"));

TEST(WorkloadTest, SeedSelectsAVariantDeterministically) {
  const Workload& w = Workloads().front();
  EXPECT_EQ(SeedVariant(5), SeedVariant(5 + kSeedVariants));
  Workload small = w;
  small.steps = small.frequency;
  TrialOptions options;
  options.out_dir =
      (std::filesystem::path(testing::TempDir()) / "perfbench_seed").string();
  const double a = RunTrial(small, 1, options).quantity;
  std::filesystem::remove_all(options.out_dir);
  const double b = RunTrial(small, 1, options).quantity;
  std::filesystem::remove_all(options.out_dir);
  const double c = RunTrial(small, 2, options).quantity;
  std::filesystem::remove_all(options.out_dir);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

}  // namespace
}  // namespace perfbench
