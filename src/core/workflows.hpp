// End-to-end workflow drivers reproducing the paper's two experimental
// setups.  These are what the figure benches and the examples run.
//
//  * RunInSitu     — §4.1: NekRS + SENSEI on the simulation ranks
//    (configurations Original / Checkpointing / Catalyst are all just
//    different SENSEI XML — or no SENSEI at all for Original).
//  * RunInTransit  — §4.2: simulation ranks stream over the SST engine to
//    SENSEI endpoint ranks (4:1 by default); the endpoint runs its own
//    analyses (No Transport / Checkpointing / Catalyst).
#pragma once

#include <string>
#include <vector>

#include "instrument/metrics.hpp"
#include "instrument/telemetry.hpp"
#include "nekrs/flow_solver.hpp"
#include "occamini/device.hpp"

namespace nek_sensei {

/// Per-rank measurements harvested from a workflow run.
struct RankReport {
  int world_rank = -1;
  bool is_sim = true;                ///< simulation rank vs endpoint rank
  double step_busy_seconds = 0.0;    ///< busy time inside the stepping loop
  double total_busy_seconds = 0.0;   ///< busy time of the whole run
  std::size_t host_peak_bytes = 0;   ///< CPU memory high-water (Figs 3/6)
  std::size_t device_peak_bytes = 0; ///< simulated GPU memory high-water
};

struct WorkflowMetrics {
  std::vector<RankReport> ranks;
  int steps = 0;
  double wall_seconds = 0.0;
  std::size_t bytes_written = 0;   ///< storage written by all analyses
  std::size_t images_written = 0;  ///< rendered frames (catalyst)
  /// Cross-rank span/counter aggregate; Empty() unless telemetry was on.
  instrument::TelemetrySummary telemetry;
  /// Rank-aggregated run-health report (min/mean/max/p95 + imbalance per
  /// metric); Empty() unless the metrics plane was on.
  instrument::MetricsReport metrics_report;

  /// Mean over simulation ranks of (step-loop busy seconds / steps): the
  /// "mean time per timestep on the simulation nodes" of Fig 5.
  [[nodiscard]] double MeanSimStepSeconds() const;
  /// Sum over simulation ranks of step-loop busy seconds (the
  /// time-to-solution proxy of Fig 2 under serialized rank threads).
  [[nodiscard]] double TotalSimBusySeconds() const;
  [[nodiscard]] std::size_t MaxSimHostPeakBytes() const;
  [[nodiscard]] std::size_t TotalSimHostPeakBytes() const;
  [[nodiscard]] std::size_t MaxSimDevicePeakBytes() const;
};

struct InSituOptions {
  nekrs::FlowConfig flow;
  int steps = 100;
  /// SENSEI runtime configuration; ignored when use_sensei is false.
  std::string sensei_xml = "<sensei/>";
  /// false reproduces the paper's "Original" configuration: NekRS without
  /// the SENSEI interface compiled in.
  bool use_sensei = true;
  occamini::Backend backend = occamini::Backend::kSimGpu;
  occamini::TransferModel transfer;
  /// Tracing opt-in.  When left disabled here, the sensei XML's
  /// <telemetry .../> element (if any) is honored instead, so tracing can
  /// be switched on without recompiling — like every other pipeline knob.
  instrument::TelemetryConfig telemetry;
  /// Test/demo knob: the named rank busy-spins this long after every
  /// solver step, under a solver.step span, so the straggler detector has a
  /// controlled, span-attributable target.
  /// Negative rank (the default) disables the injection.
  int straggler_rank = -1;
  double straggler_seconds = 0.0;
};

/// Inputs of one rank-0 heartbeat progress line, after the cross-rank
/// reductions.  Public (with FormatHeartbeatLine) so the formatting rules —
/// including the display clamps — are unit-testable.
struct HeartbeatLine {
  int done = 0;
  int total = 0;
  double rate_steps_per_second = 0.0;
  /// Seconds to completion at the current rate.  Negative (or non-finite)
  /// means "unknown" — zero observed rate — and renders as `eta n/a`, never
  /// as inf/garbage.
  double eta_seconds = -1.0;
  std::size_t mem_mean_bytes = 0;
  std::size_t mem_max_bytes = 0;
  /// Mean across ranks of cumulative rank-thread in situ seconds over wall
  /// elapsed, as a percentage.  Negative omits the column (metrics plane
  /// off).  The display clamps at 100: bookkeeping skew (busy-clock vs
  /// wall) can push the raw ratio past it.
  double insitu_percent = -1.0;
  /// Same shape for updates offloaded to the async worker (which genuinely
  /// exceed rank-thread time under overlap — hence a separate column, not
  /// a bigger insitu%).  Negative = sync mode, column omitted.
  double offload_percent = -1.0;
  int queue_depth = -1;
  int queue_limit = -1;  ///< <= 0 omits the sst queue column
  /// Latest end-to-end step→image latency estimate, seconds (in transit:
  /// shipped from the endpoint group; in situ: the run's mean so far).
  /// Negative omits the column — no delivered step observed yet.
  double e2e_seconds = -1.0;
  /// Cross-rank sums of transport raw/wire bytes.  The wire column only
  /// prints when both are nonzero and they differ (i.e. a non-identity
  /// codec actually ran), so uncompressed runs keep their exact line.
  std::size_t raw_bytes = 0;
  std::size_t wire_bytes = 0;
  /// Free-form annotation appended as a final column (straggler verdicts).
  /// Empty omits the column.
  std::string note;
};

/// Render one heartbeat line ("[heartbeat] step ... | ...").
[[nodiscard]] std::string FormatHeartbeatLine(const HeartbeatLine& line);

/// Run the in situ workflow on `nranks` rank threads. Collective-free
/// convenience: spawns its own mpimini runtime.
WorkflowMetrics RunInSitu(int nranks, const InSituOptions& options);

struct InTransitOptions {
  nekrs::FlowConfig flow;  ///< sized for the *simulation* communicator
  int steps = 100;
  int sim_per_endpoint = 4;  ///< the paper's 4:1 sim:endpoint ratio
  /// Simulation-side SENSEI XML; an <analysis type="adios" .../> entry
  /// activates the SST stream. frequency on that entry is the transport
  /// trigger cadence.
  std::string sim_xml = "<sensei/>";
  /// Endpoint-side SENSEI XML (checkpoint / catalyst / empty).
  std::string endpoint_xml = "<sensei/>";
  int sst_queue_limit = 1;
  occamini::Backend backend = occamini::Backend::kSimGpu;
  occamini::TransferModel transfer;
  /// Tracing opt-in; falls back to the sim-side XML's <telemetry .../>.
  instrument::TelemetryConfig telemetry;
};

/// Run the in transit workflow with `sim_ranks` simulation ranks plus
/// ceil(sim_ranks / sim_per_endpoint) endpoint ranks.
WorkflowMetrics RunInTransit(int sim_ranks, const InTransitOptions& options);

}  // namespace nek_sensei
