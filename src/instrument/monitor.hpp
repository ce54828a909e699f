// Live run-health endpoint: an opt-in rank-0 loopback HTTP server that
// makes the metrics plane scrapable *while the simulation runs*, instead
// of only readable from metrics.json after Finalize (DESIGN.md §5c).
//
// Routes:
//   /metrics  Prometheus text exposition (version 0.0.4) rendered from the
//             most recently published cross-rank MetricsReport
//   /healthz  liveness probe ("ok")
//   /status   JSON: step/ETA, per-rank step-time min/mean/max, SST queue
//             occupancy, offload share, straggler anomalies
//
// Threading model: the server never touches the per-rank single-owner
// registries.  The rank-0 thread *publishes* an immutable MonitorStatus
// snapshot (its fold of one heartbeat tick's Gather) under a mutex; the
// server thread copies it per request.  This is exactly the
// cross-thread shape the core::Mutex annotations exist to police — the
// monitor thread never reads live registries directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/lock_ranks.hpp"
#include "core/thread_annotations.hpp"
#include "instrument/metrics.hpp"
#include "instrument/straggler.hpp"

namespace instrument {

/// One heartbeat tick's snapshot of run health: printed as the heartbeat
/// line and served by /status.  Negative optional fields are omitted from
/// both.
struct MonitorStatus {
  int step = 0;
  int total_steps = 0;
  double rate_steps_per_second = 0.0;
  /// Seconds to completion at the current rate.  Negative (or non-finite)
  /// means unknown — zero observed rate — and renders as null / `eta n/a`.
  double eta_seconds = -1.0;
  double step_seconds_min = 0.0;
  double step_seconds_mean = 0.0;
  double step_seconds_max = 0.0;
  std::size_t mem_mean_bytes = 0;  ///< host high-water, mean across ranks
  std::size_t mem_max_bytes = 0;   ///< host high-water, max across ranks
  int queue_depth = -1;
  int queue_limit = -1;  ///< <= 0 omits the sst_queue object
  /// Mean across ranks of cumulative rank-thread in situ seconds over wall
  /// elapsed, as a percentage (metrics plane only).  The line clamps it at
  /// 100: busy-clock vs wall skew can push the raw ratio past it.
  double insitu_percent = -1.0;
  /// Same shape for updates offloaded to the async worker (which genuinely
  /// exceed rank-thread time under overlap); async mode only.
  double offload_percent = -1.0;
  /// Latest end-to-end step→image latency estimate (in transit: shipped
  /// from the endpoint group; in situ: the run's mean so far).
  double e2e_seconds = -1.0;
  /// Cross-rank sums of transport raw/wire bytes.  The line's wire column
  /// prints only when both are nonzero and differ (a codec actually ran).
  std::size_t raw_bytes = 0;
  std::size_t wire_bytes = 0;
  std::string note;  ///< new straggler verdicts (the line's last column)
  std::vector<AnomalyRecord> anomalies;
  MetricsReport metrics;  ///< cross-rank reduction backing /metrics
};

/// Render a report as Prometheus text exposition (metric names get an
/// `nsm_` prefix, dots become underscores; counters expose the cross-rank
/// sum, gauges a {stat="min|mean|max"} family, histograms cumulative
/// le-buckets plus _sum/_count).
[[nodiscard]] std::string RenderPrometheus(const MetricsReport& report);

/// Render a status snapshot as the /status JSON document.
[[nodiscard]] std::string RenderStatusJson(const MonitorStatus& status);

/// The loopback HTTP server.  Construction binds and starts the serving
/// thread; a failed bind (or a port outside [0, 65535]) logs a warning and
/// leaves Serving() false rather than killing the run (observability must
/// never take the simulation down).  Stop() (also run by the destructor)
/// joins the thread and persists the last published status via AtomicFile
/// when configured.
class MonitorServer {
 public:
  struct Options {
    int port = 0;              ///< 0 = ephemeral (read back via Port())
    std::string persist_path;  ///< final /status JSON on Stop ("" = skip)
    std::string port_file;     ///< bound port written here at start ("" = skip)
  };

  explicit MonitorServer(const Options& options);
  ~MonitorServer();

  MonitorServer(const MonitorServer&) = delete;
  MonitorServer& operator=(const MonitorServer&) = delete;

  /// The bound port, or -1 when the bind failed.
  [[nodiscard]] int Port() const { return port_; }
  [[nodiscard]] bool Serving() const { return port_ >= 0; }

  /// Publish a fresh snapshot (rank-0 thread, at heartbeat ticks).  Also
  /// feeds the monitor-plane metrics (monitor.requests / monitor.publishes)
  /// into the calling thread's registry.
  void Publish(MonitorStatus status);

  /// Swap in a final MetricsReport + anomaly list without touching the
  /// step-progress fields — called after the run's closing reduction so a
  /// late scrape (and the persisted status) agrees with metrics.json.
  void UpdateMetrics(MetricsReport report,
                     std::vector<AnomalyRecord> anomalies);

  /// HTTP requests served so far.
  [[nodiscard]] std::uint64_t Requests() const {
    return requests_.load(std::memory_order_relaxed);
  }

  /// Idempotent shutdown: join the server thread, close the socket, and
  /// persist the last published status if persist_path was configured.
  void Stop();

 private:
  void ServeLoop();
  void HandleConnection(int fd);
  [[nodiscard]] std::string ResponseFor(const std::string& target);

  Options options_;
  int listen_fd_ = -1;
  int port_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> requests_{0};
  core::Mutex mutex_{core::lock_rank::kInstrumentMonitorMutex};
  MonitorStatus status_ NSM_GUARDED_BY(mutex_);
  bool published_ NSM_GUARDED_BY(mutex_) = false;
  std::thread server_;
  bool stopped_ = false;  ///< owner-thread only
};

}  // namespace instrument
