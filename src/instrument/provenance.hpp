// Causal step provenance: the per-step trace context that crosses the
// in-transit boundary (DESIGN.md §5d).
//
// A simulation rank stamps each step with a StepProvenance — run id,
// producing rank, step number, origin span id, and the origin's monotonic
// timestamp plus its calibrated offset to the global (world rank 0)
// timeline.  The context rides the BP wire (marshal v3), survives the
// async-pipeline offload (captured at Submit, re-installed on the worker),
// and is re-installed on the endpoint around analysis execution, so a
// `catalyst.write` span on an endpoint rank can answer "which sim-side
// step caused me, and how long ago did it complete?".
//
// Like the tracer/metrics planes, the current context is a thread-local
// pointer: writers (SstWriter/BpFileWriter) read it when staging a step;
// consumers (e2e latency metrics) read it at delivery sites.  A null
// current context simply means "no causal origin known" — every reader
// must tolerate that.
#pragma once

#include <cstdint>

namespace instrument {

/// The causal origin of one simulation step, as propagated over the wire.
struct StepProvenance {
  std::uint64_t run_id = 0;  ///< 0 = invalid / no provenance
  int origin_rank = -1;      ///< producing (sim-side) world rank
  int step = -1;             ///< solver step number
  /// Stable id of the originating step span; doubles as the Perfetto flow
  /// id linking sst.send to the matching sst.recv.
  std::uint64_t origin_span_id = 0;
  /// Origin's monotonic clock when the step completed (Tracer::NowNs()).
  std::int64_t origin_ts_ns = 0;
  /// Origin's calibrated offset to the global timeline (clock_sync.hpp).
  std::int64_t origin_offset_ns = 0;

  [[nodiscard]] bool Valid() const { return run_id != 0; }

  /// Origin timestamp expressed on the global (world rank 0) timeline.
  [[nodiscard]] std::int64_t GlobalTimestampNs() const {
    return origin_ts_ns + origin_offset_ns;
  }
};

/// A fresh run id: unique per process launch, never 0.
[[nodiscard]] std::uint64_t MakeRunId();

/// Deterministic span/flow id for (run, producing rank, step) — both ends
/// of the wire derive the same id without coordination.
[[nodiscard]] std::uint64_t StepSpanId(std::uint64_t run_id, int rank,
                                       int step);

/// Build the provenance for a just-completed step on this thread: stamps
/// the current monotonic time and this thread's calibrated clock offset.
[[nodiscard]] StepProvenance MakeStepProvenance(std::uint64_t run_id,
                                                int rank, int step);

/// The calling thread's current step context (may be null).
[[nodiscard]] const StepProvenance* CurrentProvenance();

/// Install `provenance` as the thread's current context; returns the
/// previous one so scopes nest.
const StepProvenance* SetCurrentProvenance(const StepProvenance* provenance);

/// RAII installer; nested scopes restore the enclosing context.
class ProvenanceScope {
 public:
  explicit ProvenanceScope(const StepProvenance* provenance)
      : previous_(SetCurrentProvenance(provenance)) {}
  ~ProvenanceScope() { SetCurrentProvenance(previous_); }
  ProvenanceScope(const ProvenanceScope&) = delete;
  ProvenanceScope& operator=(const ProvenanceScope&) = delete;

 private:
  const StepProvenance* previous_;
};

/// This thread's calibrated offset to the global timeline, in nanoseconds
/// (local monotonic + offset = global).  0 until calibration ran.
[[nodiscard]] std::int64_t ClockOffsetNs();

/// Install the calibrated offset (workflow setup, after the clock-sync
/// collective; async workers inherit their submitting rank's offset).
void SetClockOffsetNs(std::int64_t offset_ns);

/// Now on the global timeline: Tracer::NowNs() + ClockOffsetNs().
[[nodiscard]] std::int64_t GlobalNowNs();

}  // namespace instrument
