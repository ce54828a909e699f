#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

std::optional<double> Percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0 || q < 0.0 || q > 1.0) return std::nullopt;
  // The expected count beyond the percentile, with slack for 1 - q not
  // being exact in binary (1 - 0.9 < 0.1).
  if (static_cast<double>(n) * (1.0 - q) < kMinSamplesBeyond - 1e-9) {
    return std::nullopt;
  }
  const double position = q * static_cast<double>(n - 1);
  const auto below = static_cast<std::size_t>(std::floor(position));
  std::sort(samples.begin(), samples.end());
  const double frac = position - static_cast<double>(below);
  return samples[below] + frac * (samples[below + 1] - samples[below]);
}

std::optional<double> BlockPercentile(
    const std::vector<std::vector<double>>& trials, double q, int* blocks) {
  std::vector<std::vector<double>> complete;
  std::vector<double> open;
  for (const std::vector<double>& trial : trials) {
    open.insert(open.end(), trial.begin(), trial.end());
    if (Percentile(open, q).has_value()) {
      complete.push_back(std::move(open));
      open.clear();
    }
  }
  if (!complete.empty()) {
    complete.back().insert(complete.back().end(), open.begin(), open.end());
  }
  if (blocks != nullptr) *blocks = static_cast<int>(complete.size());
  if (complete.empty()) return std::nullopt;
  std::vector<double> values;
  for (const std::vector<double>& block : complete) {
    values.push_back(*Percentile(block, q));
  }
  return Median(values);
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

void LatencyPairer::Produced(int step, std::int64_t ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = produced_.emplace(step, ns);
  if (!inserted) it->second = std::max(it->second, ns);
}

void LatencyPairer::Consumed(int step, std::int64_t ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = consumed_.emplace(step, ns);
  if (!inserted) it->second = std::max(it->second, ns);
}

LatencyPairer::Result LatencyPairer::Pair() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Result result;
  for (const auto& [step, consumed_ns] : consumed_) {
    const auto it = produced_.find(step);
    if (it == produced_.end()) {
      ++result.unpaired;
      continue;
    }
    result.latencies_ms.push_back(
        static_cast<double>(consumed_ns - it->second) * 1e-6);
  }
  return result;
}

}  // namespace perfbench
