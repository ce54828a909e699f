// The per-rank observability context.
//
// Every instrument a rank records into — busy clock, memory tracker,
// tracer, metrics registry, flight recorder — lives in one RankEnv, and the
// calling thread reaches it through one thread-local pointer (CurrentEnv).
// CurrentTracer / CurrentMetrics / CurrentFlightRecorder / CurrentTracker
// are reads through that pointer, so a rank has exactly one way to reach
// each plane and one scope (RankScope) installs all of them.
//
// The mpimini runtime owns one RankEnv per rank thread; the async in situ
// worker owns its own (same rank id, own single-owner instruments, shared
// flight recorder); unit tests build one on the stack.
#pragma once

#include <memory>
#include <vector>

#include "instrument/memory_tracker.hpp"
#include "instrument/timer.hpp"

namespace instrument {

class Tracer;
class MetricsRegistry;
class FlightRecorder;

/// One rank's instruments.  Blocking mpimini operations pause `busy` so it
/// accumulates only active time.
struct RankEnv {
  int rank = -1;
  BusyClock busy;
  MemoryTracker memory;
  /// Span/counter recorder; null unless the run opted into tracing.
  /// shared_ptr so RunResult can keep the recordings alive after the envs
  /// are gone.
  std::shared_ptr<Tracer> tracer;
  /// Gauge/counter/histogram registry; null unless the run opted into the
  /// metrics plane.  With it installed, every Span also observes its
  /// duration into a histogram named after the span.
  std::shared_ptr<MetricsRegistry> metrics;
  /// Always-on flight recorder (last-K-events forensic ring); unlike the
  /// tracer/metrics it is shared with the rank's async worker (the ring is
  /// multi-writer safe) and dumped on crash.
  std::shared_ptr<FlightRecorder> flightrec;
  /// Single-owner tracers of helper threads the rank spawned (the async
  /// worker's lane), appended after the helper joined; the runtime folds
  /// them into RunResult::tracers so the trace export sees worker lanes.
  std::vector<std::shared_ptr<Tracer>> extra_tracers;
};

/// The calling thread's RankEnv, or nullptr outside a rank.
RankEnv* CurrentEnv();

/// RAII installation of a RankEnv on the calling thread: installs `env`
/// (nullptr is allowed and hides the enclosing one) and resumes its busy
/// clock; the destructor pauses the clock and restores the previous env.
/// The env must outlive the scope and must not be installed on two threads
/// at once (its instruments are single-owner).
class RankScope {
 public:
  explicit RankScope(RankEnv* env);
  ~RankScope();

  RankScope(const RankScope&) = delete;
  RankScope& operator=(const RankScope&) = delete;

 private:
  RankEnv* env_;
  RankEnv* previous_;
};

}  // namespace instrument
