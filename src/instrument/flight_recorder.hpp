// Always-on per-rank flight recorder: a fixed-capacity structured event
// ring that survives the failure modes the post-hoc exporters cannot see.
//
// Every artifact the observability stack writes today (Chrome trace,
// metrics.json, telemetry.json) lands at Finalize — a hung SST reader, a
// deadlocked async worker, or an uncaught exception leaves nothing.  The
// flight recorder inverts that: each rank keeps the last K structured
// events (step boundaries, pipeline stalls, SST queue blocks, codec
// fallbacks, long comm waits, errors) in a lock-free ring costing ~one
// atomic store per field, and a crash hook (std::set_terminate + SIGABRT)
// or an explicit DumpFlightRecorders() call writes every rank's ring
// through instrument::AtomicFile to flightrec_rank<N>.json — so every
// failure leaves a forensic trail naming the step and span it died in.
//
// Concurrency contract (unlike Tracer/MetricsRegistry, which are strictly
// single-owner): one ring is shared by the rank thread *and* its async
// pipeline worker, and may be read by the dump path while writers are
// live.  Every slot field is an atomic; a per-slot sequence number
// (published with release, checked with acquire before/after the field
// reads) lets readers detect and skip torn slots instead of locking the
// hot path.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace instrument {

/// The event taxonomy (DESIGN.md §5c).  Values are stable: they appear in
/// dumped flightrec_rank<N>.json files.
enum class FlightEventKind : std::uint8_t {
  kStep = 0,           ///< step boundary (detail = span entering, e.g. "solver.step")
  kStall = 1,          ///< AsyncPipeline backpressure wait over threshold
  kQueueBlock = 2,     ///< SST staging queue full, writer blocked on acks
  kCodecFallback = 3,  ///< codec stored raw instead of compressing
  kCommWait = 4,       ///< blocking comm wait over threshold
  kError = 5,          ///< exception escaping a rank body
  kAnomaly = 6,        ///< straggler detector verdict (rank 0)
};

/// Stable lowercase name for a kind ("step", "stall", ...).
[[nodiscard]] std::string_view FlightEventKindName(FlightEventKind kind);

/// One decoded ring entry (the read-side view; the ring itself stores
/// atomized fields).
struct FlightEvent {
  FlightEventKind kind = FlightEventKind::kStep;
  std::int64_t ts_ns = 0;  ///< Tracer::NowNs() timestamp
  std::int32_t step = -1;  ///< step index, -1 when not step-scoped
  double value = 0.0;      ///< kind-specific magnitude (seconds, bytes, z)
  std::string detail;      ///< span/metric name or message (truncated)
};

/// Built-in feed-site thresholds: events below these are not worth a ring
/// slot (the metrics plane still tallies them in aggregate).
inline constexpr double kFlightCommWaitMinSeconds = 10e-3;
inline constexpr double kFlightStallMinSeconds = 1e-3;

/// Fixed-capacity multi-writer event ring.  Record() never blocks and
/// never allocates; Events() snapshots the retained tail, skipping slots
/// that are mid-write.
class FlightRecorder {
 public:
  /// Detail strings longer than this are truncated (bytes incl. NUL).
  static constexpr std::size_t kDetailCapacity = 48;
  static constexpr std::size_t kDefaultCapacity = 256;

  explicit FlightRecorder(int rank,
                          std::size_t capacity = kDefaultCapacity);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Append one event.  Safe from multiple threads concurrently (the rank
  /// thread and its async worker share one recorder).
  void Record(FlightEventKind kind, std::string_view detail,
              std::int32_t step = -1, double value = 0.0);

  /// Decode the retained events, oldest first.  Safe concurrently with
  /// writers: slots being overwritten during the walk are skipped.
  [[nodiscard]] std::vector<FlightEvent> Events() const;

  /// Events ever recorded (>= Events().size(); the excess wrapped away).
  [[nodiscard]] std::uint64_t TotalEvents() const {
    return head_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t Capacity() const { return ring_.size(); }
  [[nodiscard]] int Rank() const { return rank_; }

 private:
  // All-atomic slot: `seq` is 0 (never written) / kWriting (mid-write) /
  // ticket+1 (published).  Writers publish with release; readers pair with
  // acquire loads before and after the field reads.
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint8_t> kind{0};
    std::atomic<std::int32_t> step{-1};
    std::atomic<std::int64_t> ts_ns{0};
    std::atomic<std::uint64_t> value_bits{0};
    std::atomic<std::uint64_t> detail[kDetailCapacity / 8];
  };
  static constexpr std::uint64_t kWriting = ~std::uint64_t{0};

  int rank_;
  std::vector<Slot> ring_;
  std::atomic<std::uint64_t> head_{0};
};

/// The calling thread's recorder (its RankEnv's), or nullptr.  Unlike the
/// tracer/metrics the runtime always allocates one, but feed sites still
/// tolerate nullptr so library code works outside a runtime.
FlightRecorder* CurrentFlightRecorder();

/// Record on the calling thread's recorder; no-op without one.
void RecordFlightEvent(FlightEventKind kind, std::string_view detail,
                       std::int32_t step = -1, double value = 0.0);

/// Directory flightrec_rank<N>.json files land in (default ".", or the
/// NSM_FLIGHTREC_DIR environment variable, applied by the runtime).
void SetFlightRecorderDumpDir(std::string dir);
[[nodiscard]] std::string FlightRecorderDumpDir();

/// Write one recorder's ring as JSON via AtomicFile.  Returns false on I/O
/// failure (no partial file is left at `path`).
bool WriteFlightRecorderJson(const std::string& path,
                             const FlightRecorder& recorder);

/// Dump every live recorder to flightrec_rank<N>.json under the configured
/// dump dir.  Returns false if any write failed.  Safe while ranks are
/// still recording (torn slots are skipped, not blocked on).
bool DumpFlightRecorders();

/// Install the std::set_terminate + SIGABRT hooks that dump all live
/// recorders once before the process dies.  Idempotent; chained onto any
/// previously installed terminate handler.  Best-effort by design: the
/// dump path is not async-signal-safe, but a crashing run losing its last
/// K events is strictly no worse than today's nothing.
void InstallFlightRecorderCrashDump();

}  // namespace instrument
