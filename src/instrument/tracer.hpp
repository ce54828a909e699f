// Per-rank span/event/counter tracing.
//
// The paper's figures answer "how much slower is in situ?"; the tracer
// answers "where inside a step did that time go?".  Each rank thread owns
// one Tracer (in its RankEnv, rank_env.hpp, next to its BusyClock and
// MemoryTracker), so the hot path takes no locks: opening a span is two
// steady_clock reads plus a ring-slot write when it closes.  Storage is
// preallocated at construction; when the ring wraps, the oldest spans are
// overwritten and a drop counter records the truncation so reports can say
// so (Bridge::Finalize prints SummaryLine() exactly for this reason).
//
// instrument::Span is the one way to time a region: its close feeds the
// rank's tracer (the trace record) and, when the metrics plane is on, a
// duration histogram named after the span (metrics.hpp) — one clock pair,
// one window, one name for both.
//
// Timestamps are absolute steady_clock nanoseconds, shared by all rank
// threads of a process, so per-rank recordings merge onto one timeline in
// the Chrome trace export (telemetry.hpp) with rank = tid.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/thread_annotations.hpp"
#include "instrument/rank_env.hpp"

namespace instrument {

/// Low-overhead per-rank trace recorder.  Not thread-safe by design: each
/// rank thread owns its tracer (mirrors MemoryTracker / BufferStats).
/// The single-owner contract is machine-checked under NSM_THREAD_CHECKS:
/// every mutating entry point asserts it runs on the owning thread.
class Tracer {
 public:
  /// Instant-event, counter-sample and flow capacity (drop-newest when
  /// full).
  static constexpr std::size_t kEventCapacity = 1 << 14;

  struct Options {
    /// Span ring capacity; the ring never grows and overwrites the oldest
    /// record when full (dropped spans are counted).
    std::size_t span_capacity = 1 << 16;
    /// Spans opened in Span::Mode::kThreshold shorter than this are not
    /// recorded individually, only tallied — comm waits fire once per CG
    /// iteration and would otherwise flood the ring.
    std::int64_t wait_min_ns = 100'000;  // 100 us
  };

  /// One closed span.  The name is copied (truncated to kNameCapacity) so
  /// records never dangle into adaptor-owned strings.
  struct SpanRecord {
    static constexpr std::size_t kNameCapacity = 47;
    char name[kNameCapacity + 1] = {};  ///< NUL-terminated
    std::int64_t start_ns = 0;
    std::int64_t duration_ns = 0;
    std::uint16_t depth = 0;  ///< nesting depth at open (0 = top level)

    [[nodiscard]] std::string_view Name() const { return {name}; }
  };

  /// One instant event (a point on the timeline, e.g. "step.begin").
  struct EventRecord {
    char name[SpanRecord::kNameCapacity + 1] = {};
    std::int64_t ts_ns = 0;

    [[nodiscard]] std::string_view Name() const { return {name}; }
  };

  /// One cumulative counter sample ("bytes sent so far", sampled at step
  /// boundaries so per-step deltas are attributable).
  struct CounterSample {
    char name[SpanRecord::kNameCapacity + 1] = {};
    std::int64_t ts_ns = 0;
    double value = 0.0;

    [[nodiscard]] std::string_view Name() const { return {name}; }
  };

  /// One causal flow endpoint: `start` marks the producing side (Perfetto
  /// phase "s", recorded inside sst.send), !start the consuming side
  /// (phase "f", recorded inside sst.recv).  Matching endpoints share the
  /// id (StepSpanId over run/rank/step), which is how the Chrome trace
  /// draws the arrow across process lanes (DESIGN.md §5d).
  struct FlowRecord {
    std::uint64_t id = 0;
    std::int64_t ts_ns = 0;
    int step = -1;  ///< solver step, surfaced in the flow event args
    bool start = false;
  };

  explicit Tracer(int rank) : Tracer(rank, Options()) {}
  Tracer(int rank, Options options);

  [[nodiscard]] int Rank() const { return rank_; }
  [[nodiscard]] const Options& Opts() const { return options_; }

  /// Absolute steady_clock nanoseconds (shared timeline across threads).
  [[nodiscard]] static std::int64_t NowNs();

  /// Record a point-in-time event.
  void Instant(std::string_view name);

  /// Record a cumulative counter sample and remember it as the counter's
  /// latest total (reported by CounterTotals / SummaryLine).
  void SampleCounter(std::string_view name, double value);

  /// Add `delta` to a counter total without a timeline sample.
  void AddCounter(std::string_view name, double delta);

  /// Record one causal flow endpoint (bounded like events; drops counted).
  void Flow(std::uint64_t id, int step, bool start);

  // -- identity & clock ------------------------------------------------------
  /// Comm-group identity for the trace export: tracers with the same
  /// `group` render in one process lane named `name` ("sim", "endpoint").
  void SetGroup(int group, std::string_view name);
  [[nodiscard]] int Group() const { return group_; }
  [[nodiscard]] const std::string& GroupName() const { return group_name_; }

  /// Thread lane within the group (defaults: tid = rank, "rank N"); the
  /// async worker overrides this so its spans get their own labeled row.
  void SetThreadLane(int tid, std::string_view label);
  [[nodiscard]] int Tid() const { return tid_; }
  [[nodiscard]] const std::string& ThreadLabel() const {
    return thread_label_;
  }

  /// Calibrated clock alignment (clock_sync.hpp): offset to the global
  /// timeline, the min-RTT error bound, and end-of-run drift — exported in
  /// telemetry digests and applied to exported timestamps.
  void SetClockCalibration(std::int64_t offset_ns, std::int64_t min_rtt_ns);
  void SetClockDrift(std::int64_t drift_ns) { clock_drift_ns_ = drift_ns; }
  [[nodiscard]] std::int64_t ClockOffsetNs() const { return clock_offset_ns_; }
  [[nodiscard]] std::int64_t ClockMinRttNs() const { return clock_rtt_ns_; }
  [[nodiscard]] std::int64_t ClockDriftNs() const { return clock_drift_ns_; }

  // -- recorded data ---------------------------------------------------------
  /// Retained spans, oldest first (the ring is unwound).
  [[nodiscard]] std::vector<SpanRecord> Spans() const;
  [[nodiscard]] const std::vector<EventRecord>& Events() const {
    return events_;
  }
  [[nodiscard]] const std::vector<CounterSample>& CounterSamples() const {
    return samples_;
  }
  [[nodiscard]] const std::vector<FlowRecord>& Flows() const {
    return flows_;
  }
  [[nodiscard]] const std::map<std::string, double>& CounterTotals() const {
    return counters_;
  }

  /// Spans routed to the ring (retained + dropped).
  [[nodiscard]] std::uint64_t TotalSpans() const { return total_; }
  /// Spans overwritten because the ring wrapped.
  [[nodiscard]] std::uint64_t DroppedSpans() const { return dropped_; }
  /// Spans currently held in the ring.
  [[nodiscard]] std::uint64_t RetainedSpans() const {
    return total_ - dropped_;
  }
  /// Instant events / counter samples / flows dropped at capacity.
  [[nodiscard]] std::uint64_t DroppedEvents() const { return dropped_events_; }
  /// Threshold-mode spans too short to record individually.
  [[nodiscard]] std::uint64_t SkippedWaits() const { return skipped_waits_; }
  [[nodiscard]] double SkippedWaitSeconds() const {
    return static_cast<double>(skipped_wait_ns_) * 1e-9;
  }

  /// One-line digest: span totals, drops if any, counter totals.  Emitted
  /// from Bridge::Finalize so silent trace truncation is impossible.
  [[nodiscard]] std::string SummaryLine() const;

  /// Drop all recorded data (counters included); capacity is kept.
  void Clear();

 private:
  friend class Span;

  std::uint16_t OpenSpan();
  void CloseSpan(std::string_view name, std::int64_t start_ns,
                 std::int64_t end_ns, std::uint16_t depth);
  void SkipWait(std::int64_t duration_ns);

  int rank_;
  Options options_;
  int group_ = 0;                  ///< process lane (0 = sim)
  std::string group_name_ = "sim";
  int tid_;                        ///< thread lane (defaults to rank)
  std::string thread_label_;
  std::int64_t clock_offset_ns_ = 0;
  std::int64_t clock_rtt_ns_ = 0;
  std::int64_t clock_drift_ns_ = 0;
  std::vector<SpanRecord> ring_;
  std::size_t head_ = 0;        ///< next ring slot to write
  std::uint64_t total_ = 0;     ///< spans routed to the ring, ever
  std::uint64_t dropped_ = 0;   ///< overwritten by ring wrap
  std::uint32_t depth_ = 0;     ///< currently open spans
  std::vector<EventRecord> events_;
  std::vector<CounterSample> samples_;
  std::vector<FlowRecord> flows_;
  std::uint64_t dropped_events_ = 0;
  std::map<std::string, double> counters_;
  std::uint64_t skipped_waits_ = 0;
  std::int64_t skipped_wait_ns_ = 0;
  /// Single-owner audit (no-op unless NSM_THREAD_CHECKS): the ring and
  /// counter bookkeeping are lock-free because exactly one rank thread may
  /// mutate them; this makes the contract abort-on-violation instead of a
  /// silent race.
  core::ThreadOwnershipChecker owner_;
};

/// The calling thread's tracer (its RankEnv's), or nullptr.  nullptr means
/// tracing is disabled.
Tracer* CurrentTracer();

/// RAII span.  Opens against the calling thread's RankEnv and closes —
/// on destruction or an explicit End() — into its tracer (name, start,
/// duration, depth) and its metrics registry (the duration in seconds,
/// observed into a histogram named after the span).  With neither
/// installed the span is one thread-local read and takes no clock reading.
///
/// The name is only read at close, so callers may pass string literals or
/// any string that outlives the span body.
class Span {
 public:
  enum class Mode {
    kAlways,     ///< record every instance
    kThreshold,  ///< trace only if >= Options::wait_min_ns (comm waits);
                 ///< the histogram still sees every instance
  };

  explicit Span(std::string_view name, Mode mode = Mode::kAlways)
      : name_(name), mode_(mode) {
    if (const RankEnv* env = CurrentEnv()) {
      Open(env->tracer.get(), env->metrics.get());
    }
  }

  /// Records into `tracer` only, whatever env is installed.
  Span(Tracer* tracer, std::string_view name, Mode mode = Mode::kAlways)
      : name_(name), mode_(mode) {
    Open(tracer, nullptr);
  }

  ~Span() { End(); }

  /// Close the span early (e.g. to exclude teardown); idempotent.
  void End() {
    if (tracer_ != nullptr || metrics_ != nullptr) Close();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void Open(Tracer* tracer, MetricsRegistry* metrics) {
    tracer_ = tracer;
    metrics_ = metrics;
    if (tracer_ == nullptr && metrics_ == nullptr) return;
    if (tracer_ != nullptr) depth_ = tracer_->OpenSpan();
    start_ns_ = Tracer::NowNs();
  }
  void Close();

  Tracer* tracer_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  std::string_view name_;
  Mode mode_;
  std::int64_t start_ns_ = 0;
  std::uint16_t depth_ = 0;
};

}  // namespace instrument
