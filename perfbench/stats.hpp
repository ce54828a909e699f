// Order statistics and step→output latency pairing for the in situ
// benchmark.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

namespace perfbench {

/// A reported percentile needs at least this many samples beyond it.
inline constexpr int kMinSamplesBeyond = 10;

/// Linearly interpolated q-quantile (q in [0, 1]) of `samples`, or nullopt
/// when fewer than kMinSamplesBeyond samples are expected beyond it
/// (n * (1 - q) < 10): p95 needs 200 samples, p90 100, p50 20.
[[nodiscard]] std::optional<double> Percentile(std::vector<double> samples,
                                               double q);

/// The q-quantile of per-trial samples as a median over blocks of
/// consecutive trials.  Trials go in order into a block until it holds
/// enough samples for Percentile; an incomplete last block joins the one
/// before it.  A burst of host noise that slows a few trials then moves one
/// block's value, not the result.  nullopt when not one block is complete.
/// `blocks`, when given, receives the number of blocks.
[[nodiscard]] std::optional<double> BlockPercentile(
    const std::vector<std::vector<double>>& trials, double q,
    int* blocks = nullptr);

/// A run keeps measuring until each percentile has this many blocks.
inline constexpr int kMinBlocks = 3;

/// Median without the sample-count rule (0 for no samples).
[[nodiscard]] double Median(std::vector<double> samples);

/// Arithmetic mean (0 for no samples).
[[nodiscard]] double Mean(const std::vector<double>& samples);

/// Pairs, per step, the moment the step was produced with the moment its
/// output was consumed.  Any thread may record; several records of one
/// step keep the latest, so "produced" is when the last sim rank finished
/// Step(s) and "consumed" when the last consumer finished with it.
class LatencyPairer {
 public:
  void Produced(int step, std::int64_t ns);
  void Consumed(int step, std::int64_t ns);

  struct Result {
    std::vector<double> latencies_ms;  ///< one per paired step, step order
    int unpaired = 0;  ///< consumed steps with no production record
  };
  [[nodiscard]] Result Pair() const;

 private:
  mutable std::mutex mutex_;
  std::map<int, std::int64_t> produced_;
  std::map<int, std::int64_t> consumed_;
};

}  // namespace perfbench
