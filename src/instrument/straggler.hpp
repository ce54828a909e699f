// Cross-rank straggler detection on heartbeat samples (DESIGN.md §5c).
//
// Each heartbeat interval every rank contributes one RankHealthSample
// (interval busy seconds plus the per-span deltas that could explain
// them); rank 0 feeds the gathered rows into a StragglerMonitor.  The
// detector is a pure function over one interval's samples — rolling
// windows, verdict dedup, and the flight-recorder / heartbeat / metrics
// fan-out live around it — so it is unit-testable with synthetic series
// and deterministic in the rank partitioning.
//
// Thresholding uses the modified z-score on the median absolute deviation
// (z = 0.6745 * (x - median) / MAD), the robust outlier statistic: unlike
// mean/stddev a single straggler cannot drag the baseline toward itself.
// Two guards make it usable at small rank counts: the MAD is floored at a
// share of the median (a perfectly balanced run has MAD ~ 0, which would
// make any jitter an outlier), and a flagged rank must also exceed
// min_ratio x median (a microsecond-scale z-spike is not a straggler).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <vector>

namespace instrument {

/// One rank's contribution to a heartbeat interval, shipped over
/// Comm::Gather (trivially copyable by design).
struct RankHealthSample {
  std::int32_t rank = -1;
  double step_seconds = 0.0;       ///< busy seconds this interval
  double solver_seconds = 0.0;     ///< solver.step span-seconds delta
  double insitu_seconds = 0.0;     ///< bridge.update span-seconds delta
  double transport_seconds = 0.0;  ///< sst stall + pipeline wait delta
};

struct StragglerConfig {
  double z_threshold = 3.5;    ///< modified z-score cutoff
  double min_ratio = 1.3;      ///< flagged rank must exceed ratio x median
  double mad_floor_share = 0.05;  ///< MAD floor as a share of the median
  int min_ranks = 3;           ///< below this the median is meaningless
  int window = 8;              ///< rolling intervals per rank
};

/// One straggler verdict, as emitted to the flight recorder, the heartbeat
/// line, and the metrics.json `anomalies` array.
struct AnomalyRecord {
  int rank = -1;
  int step = -1;               ///< step at which the rank was first flagged
  double z = 0.0;              ///< modified z-score at detection
  double step_seconds = 0.0;   ///< the rank's (windowed) interval seconds
  double median_seconds = 0.0; ///< cross-rank median it was judged against
  std::string dominant_span;   ///< "solver" | "insitu" | "transport" | "unknown"
  double span_share = 0.0;     ///< dominant span's share of the excess [0,1]
};

/// Render one record as a JSON object (shared by metrics.json and the
/// monitor's /status endpoint).
[[nodiscard]] std::string AnomalyJson(const AnomalyRecord& record);

/// Pure single-interval detector over one set of per-rank samples.
/// Deterministic: same samples -> same verdicts, regardless of how the
/// underlying work was partitioned into them.
[[nodiscard]] std::vector<AnomalyRecord> DetectStragglers(
    std::span<const RankHealthSample> samples, int step,
    const StragglerConfig& config = {});

/// Rolling-window accumulator: smooths per-interval jitter with a per-rank
/// window mean before detection, and dedups verdicts (one record per rank,
/// keeping the maximum z seen).
class StragglerMonitor {
 public:
  explicit StragglerMonitor(const StragglerConfig& config = {})
      : config_(config) {}

  /// Feed one interval's samples; returns the ranks *newly* flagged this
  /// interval (already-flagged ranks update their stored record silently).
  std::vector<AnomalyRecord> Update(
      std::span<const RankHealthSample> samples, int step);

  /// All verdicts so far, one per flagged rank, in detection order.
  [[nodiscard]] const std::vector<AnomalyRecord>& Anomalies() const {
    return anomalies_;
  }

 private:
  StragglerConfig config_;
  std::map<int, std::deque<RankHealthSample>> windows_;
  std::vector<AnomalyRecord> anomalies_;
};

}  // namespace instrument
