// Per-rank run-health metrics and their cross-rank reduction.
//
// The tracer (tracer.hpp) answers "where inside a step did the time go" on
// one rank's timeline; the metrics plane answers the *distributional*
// questions the paper's figures actually plot: how does the step rate, the
// memory high-water mark, or the SST staging queue look *across* ranks —
// min/mean/max/p95 and the max/mean imbalance ratio that exposes stragglers
// and backpressure.  Each rank thread owns one MetricsRegistry (installed by
// the mpimini runtime next to its Tracer and MemoryTracker); at run end the
// per-rank snapshots are reduced to one MetricsReport, written as a single
// rank-aggregated metrics.json instead of N per-rank files.
//
// Like the tracer, the plane is strictly opt-in: when no registry is
// installed, CurrentMetrics() returns null and every feed site records
// nothing and allocates nothing on the rank thread.  Timed regions are not
// fed here by hand: every instrument::Span observes its own duration into a
// histogram named after the span (tracer.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/thread_annotations.hpp"
#include "instrument/straggler.hpp"

namespace instrument {

/// Fixed-bucket histogram.  Boundary semantics (tested): `edges` are the
/// ascending bucket boundaries e0 < e1 < ... < e{n-1}; bucket 0 is the
/// underflow bucket (-inf, e0), bucket i (1 <= i <= n-1) holds [e_{i-1},
/// e_i), and bucket n is the overflow bucket [e_{n-1}, +inf).  A value
/// exactly on a boundary belongs to the bucket that boundary *opens* (the
/// upper one).
struct HistogramData {
  std::vector<double> edges;
  std::vector<std::uint64_t> buckets;  ///< edges.size() + 1 counts
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  explicit HistogramData(std::vector<double> bucket_edges = {});

  void Observe(double value);
  /// Index of the bucket `value` falls into (see boundary semantics above).
  [[nodiscard]] std::size_t BucketIndex(double value) const;
  [[nodiscard]] double Mean() const {
    return count ? sum / static_cast<double>(count) : 0.0;
  }
  /// Fold `other` into this histogram; throws std::runtime_error if the
  /// bucket edges differ (merging incompatible layouts would silently
  /// misattribute counts).
  void Merge(const HistogramData& other);
};

/// One gauge: the latest value plus its low/high watermarks over the run.
struct GaugeData {
  double last = 0.0;
  double low = 0.0;   ///< minimum value ever Set (low watermark)
  double high = 0.0;  ///< maximum value ever Set (high watermark)
  double sum = 0.0;
  std::uint64_t samples = 0;
};

/// Immutable copy of one rank's metrics, safe to ship across ranks.
struct MetricsSnapshot {
  std::map<std::string, double> counters;
  std::map<std::string, GaugeData> gauges;
  std::map<std::string, HistogramData> histograms;

  [[nodiscard]] bool Empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Flat binary wire format (host byte order; ranks share one process).
  [[nodiscard]] std::vector<std::byte> Serialize() const;
  /// Inverse of Serialize; throws std::runtime_error on a malformed blob.
  static MetricsSnapshot Deserialize(std::span<const std::byte> bytes);
};

/// Typed per-rank metrics recorder.  Not thread-safe by design: each rank
/// thread owns its registry (mirrors Tracer / MemoryTracker).  The
/// single-owner contract is machine-checked under NSM_THREAD_CHECKS.
class MetricsRegistry {
 public:
  /// Record a gauge sample: keeps the latest value and the low/high
  /// watermarks (e.g. SST queue depth, current host bytes).
  void Set(std::string_view name, double value);

  /// Add `delta` to a monotonic counter.
  void Add(std::string_view name, double delta);

  /// Feed a monotonic counter from an absolute cumulative total (e.g. a
  /// BufferStats field sampled at step boundaries); keeps the max seen so
  /// repeated samples are idempotent.
  void SetTotal(std::string_view name, double total);

  /// Record a histogram observation.  The first observation of an unknown
  /// name registers it with DefaultLatencyEdges() (log-spaced seconds).
  void Observe(std::string_view name, double value);

  /// Register a histogram with explicit bucket edges (ascending).  Throws
  /// std::invalid_argument on unsorted/duplicate edges.
  void DefineHistogram(std::string_view name, std::vector<double> edges);

  /// Fold another registry's snapshot into this one: counters add, gauge
  /// watermarks/sums merge, histograms merge (same-edges contract as
  /// HistogramData::Merge).  The ownership-handoff point of the async
  /// pipeline: the worker thread's registry is snapshotted after the worker
  /// joins, then folded into the rank's registry *by the rank thread*, so
  /// each registry keeps exactly one owner for its whole life.
  void MergeFrom(const MetricsSnapshot& other);

  /// Log-spaced seconds-scale edges: 1us .. 10s, one bucket per decade.
  [[nodiscard]] static std::vector<double> DefaultLatencyEdges();

  [[nodiscard]] const std::map<std::string, double>& Counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, GaugeData>& Gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, HistogramData, std::less<>>&
  Histograms() const {
    return histograms_;
  }
  /// A counter's value (0 if never fed).
  [[nodiscard]] double Counter(const std::string& name) const;
  /// A histogram's sum of observations (0 if never observed); for a span's
  /// histogram, the seconds spent inside that span so far.
  [[nodiscard]] double HistogramSum(const std::string& name) const;
  /// A gauge's state (nullptr if never set).
  [[nodiscard]] const GaugeData* Gauge(const std::string& name) const;

  [[nodiscard]] MetricsSnapshot Snapshot() const;

  /// Drop all recorded data.
  void Clear();

 private:
  std::map<std::string, double> counters_;
  std::map<std::string, GaugeData> gauges_;
  /// Transparent comparator: Span close looks its histogram up by
  /// string_view without building a key string.
  std::map<std::string, HistogramData, std::less<>> histograms_;
  /// Single-owner audit (no-op unless NSM_THREAD_CHECKS).
  core::ThreadOwnershipChecker owner_;
};

/// Cross-rank statistics for one scalar metric.  For counters the per-rank
/// value is the rank's total; for gauges it is the rank's high watermark;
/// for histograms it is the rank's sum of observations.
struct MetricStat {
  int ranks = 0;
  double min = 0.0;
  double mean = 0.0;
  double max = 0.0;
  double p95 = 0.0;  ///< nearest-rank percentile over the per-rank values
  double sum = 0.0;  ///< counters and histograms: the global total
  /// Load-imbalance ratio max/mean (1.0 = perfectly balanced; 0 when the
  /// mean is zero).  The quantity that exposes stragglers in Fig 2/5.
  double imbalance = 0.0;
  // Gauge-only: global watermarks across every sample on every rank.
  double low_watermark = 0.0;
  double high_watermark = 0.0;
};

/// The rank-aggregated run-health report (one per run, not per rank).
struct MetricsReport {
  int ranks = 0;
  std::map<std::string, MetricStat> counters;
  std::map<std::string, MetricStat> gauges;
  std::map<std::string, HistogramData> histograms;  ///< merged buckets
  /// Per histogram, the stat of its per-rank sums: for a span's histogram
  /// the seconds each rank spent inside the span, so `imbalance` exposes
  /// the rank that stepped slowest.
  std::map<std::string, MetricStat> histogram_sums;
  /// Straggler-detector verdicts (rank 0 attaches them after the
  /// reduction); always serialized to metrics.json, [] for a clean run.
  std::vector<AnomalyRecord> anomalies;

  [[nodiscard]] bool Empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  /// Global total of a counter across ranks (0 if never fed).
  [[nodiscard]] double CounterSum(const std::string& name) const;
  /// Cross-rank stat for a gauge (nullptr if never set anywhere).
  [[nodiscard]] const MetricStat* Gauge(const std::string& name) const;
};

/// Reduce per-rank snapshots into one report: min/mean/max/p95 + imbalance
/// per metric (a histogram's per-rank value is its sum), counter sums,
/// gauge watermarks, merged histograms.  The
/// reduction is deterministic in the partitioning: splitting the same
/// per-item work across 4 or 8 ranks yields identical counter totals.
[[nodiscard]] MetricsReport ReduceSnapshots(
    const std::vector<MetricsSnapshot>& per_rank);

/// Write the report as metrics.json — atomically (temp file + rename), so a
/// killed run never leaves a truncated file.  Returns false on I/O failure.
bool WriteMetricsJson(const std::string& path, const MetricsReport& report);

/// The calling thread's registry (its RankEnv's), or nullptr.  nullptr
/// means the metrics plane is disabled: feed sites then skip all recording
/// and perform no allocations.
MetricsRegistry* CurrentMetrics();

}  // namespace instrument
