// The mpimini runtime: spawns N rank threads, installs one per-rank
// instrument::RankEnv on each (busy clock, memory tracker, flight recorder,
// and the opt-in tracer / metrics registry), runs the user's rank body, and
// collects per-rank metrics afterwards.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "instrument/flight_recorder.hpp"
#include "instrument/metrics.hpp"
#include "instrument/rank_env.hpp"
#include "instrument/tracer.hpp"
#include "mpimini/comm.hpp"

namespace mpimini {

// The per-rank context lives in instrument (rank_env.hpp).  These keep the
// mpimini::RankEnv / mpimini::CurrentEnv spellings compiling for rank code
// written against the runtime, including the standalone perfbench/.
using instrument::CurrentEnv;
using instrument::RankEnv;

/// Metrics harvested from one rank after the run completes.
struct RankMetrics {
  int rank = -1;
  double busy_seconds = 0.0;
  std::size_t peak_bytes = 0;
  std::map<std::string, std::size_t> peak_by_category;
};

/// Result of Runtime::Run: wall time of the whole run plus per-rank metrics.
struct RunResult {
  double wall_seconds = 0.0;
  std::vector<RankMetrics> ranks;
  /// Per-rank trace recordings; empty unless RunSettings::trace was set.
  std::vector<std::shared_ptr<instrument::Tracer>> tracers;
  /// Per-rank metric registries; empty unless RunSettings::metrics was set.
  std::vector<std::shared_ptr<instrument::MetricsRegistry>> metrics;
  /// Per-rank flight recorders; always populated (the recorder is on by
  /// default — its cost is one ring allocation per rank and nothing on the
  /// step hot path until an event actually fires).
  std::vector<std::shared_ptr<instrument::FlightRecorder>> flight_recorders;

  /// Mean of per-rank busy seconds.
  [[nodiscard]] double MeanBusySeconds() const;
  /// Maximum per-rank peak tracked bytes.
  [[nodiscard]] std::size_t MaxPeakBytes() const;
  /// Sum of per-rank peak tracked bytes (aggregate footprint, as the paper's
  /// "aggregate memory high water mark across all MPI ranks").
  [[nodiscard]] std::size_t TotalPeakBytes() const;
  /// Non-owning view of the tracers, as the telemetry exporters take it.
  [[nodiscard]] std::vector<const instrument::Tracer*> TracerPointers() const;
};

/// Per-run knobs beyond the rank count.
struct RunSettings {
  /// Allocate an instrument::Tracer in each rank's env.  Off by default:
  /// with neither a tracer nor a metrics registry every Span degenerates to
  /// one thread-local read.
  bool trace = false;
  instrument::Tracer::Options tracer;
  /// Allocate an instrument::MetricsRegistry in each rank's env.  Off by
  /// default for the same reason as `trace`: a disabled metrics plane
  /// costs rank threads one thread-local read per feed site and allocates
  /// nothing.
  bool metrics = false;
};

/// Launches message-passing programs.
class Runtime {
 public:
  /// Run `body(comm)` on `nranks` rank threads sharing a fresh world
  /// communicator. Blocks until every rank returns. If any rank throws, the
  /// remaining ranks are still joined and the first exception is rethrown.
  static RunResult Run(int nranks, const std::function<void(Comm&)>& body);

  /// As above, honoring per-run settings (tracing).
  static RunResult Run(int nranks, const RunSettings& settings,
                       const std::function<void(Comm&)>& body);
};

}  // namespace mpimini
