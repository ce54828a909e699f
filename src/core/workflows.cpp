#include "core/workflows.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>

#include "adios/sst.hpp"
#include "core/bridge.hpp"
#include "core/buffer.hpp"
#include "core/lock_ranks.hpp"
#include "core/thread_annotations.hpp"
#include "instrument/flight_recorder.hpp"
#include "instrument/monitor.hpp"
#include "instrument/provenance.hpp"
#include "instrument/report.hpp"
#include "instrument/straggler.hpp"
#include "mpimini/clock_sync.hpp"
#include "mpimini/metrics_reduce.hpp"
#include "mpimini/runtime.hpp"
#include "sensei/adios_adaptor.hpp"
#include "sensei/catalyst_adaptor.hpp"
#include "sensei/configurable_analysis.hpp"
#include "sensei/intransit_data_adaptor.hpp"

namespace nek_sensei {

namespace {

// User-tag for the endpoint→monitor-host e2e latency feed: after each
// analysed step the endpoint group's rank 0 ships the step's end-to-end
// latency to world rank 0, whose heartbeat drains whatever has arrived
// (buffered sends — never a collective, never a deadlock).
constexpr int kTagE2eSample = 8003;

// Run-start clock calibration (collective on `comm`, rank 0 is the
// reference): installs the calibrated offset on this thread — GlobalNowNs
// and step provenance read it from there — and in the rank tracer for the
// aligned trace export.  Returns the sync so the closing re-calibration
// can report drift.
mpimini::ClockSync CalibrateRankClock(mpimini::Comm& comm) {
  const mpimini::ClockSync sync = mpimini::CalibrateClockOffset(comm);
  instrument::SetClockOffsetNs(sync.offset_ns);
  if (instrument::Tracer* tracer = instrument::CurrentTracer()) {
    tracer->SetClockCalibration(sync.offset_ns, sync.min_rtt_ns);
  }
  return sync;
}

// End-of-run re-calibration: the offset delta against the run-start sync
// is the drift the run accumulated (bounded by min_rtt in a shared-clock
// process; real deployments watch this to decide re-sync cadence).
void RecalibrateRankClock(mpimini::Comm& comm,
                          const mpimini::ClockSync& start) {
  const mpimini::ClockSync end = mpimini::CalibrateClockOffset(comm);
  if (instrument::Tracer* tracer = instrument::CurrentTracer()) {
    tracer->SetClockDrift(end.offset_ns - start.offset_ns);
  }
}

// Rebuild the step's causal origin from the payload contexts of one
// delivered SST step.  A step is only complete once its *last* writer
// finished, so among the writers' contexts the latest global origin
// timestamp wins.  Invalid (default) when no payload carried a context.
instrument::StepProvenance StepOrigin(
    const std::map<int, adios::StepPayload>& payloads, int step) {
  instrument::StepProvenance origin;
  for (const auto& [writer, payload] : payloads) {
    if (!payload.context.Valid()) continue;
    instrument::StepProvenance candidate;
    candidate.run_id = payload.context.run_id;
    candidate.origin_rank = writer;
    candidate.step = step;
    candidate.origin_span_id = payload.context.origin_span_id;
    candidate.origin_ts_ns = payload.context.origin_ts_ns;
    candidate.origin_offset_ns = payload.context.origin_offset_ns;
    if (!origin.Valid() ||
        candidate.GlobalTimestampNs() > origin.GlobalTimestampNs()) {
      origin = candidate;
    }
  }
  return origin;
}

// Shared collection slot filled by world rank 0 inside the run (and read by
// the launching thread after the rank threads join — which still takes the
// lock, so the thread-safety analysis can prove every access).
struct SharedMetrics {
  core::Mutex mutex{core::lock_rank::kCoreWorkflowsMutex};
  WorkflowMetrics metrics NSM_GUARDED_BY(mutex);
};

// What a rank body hands back to the run skeleton: its RankReport inputs,
// its share of the run's byte and image totals, and (stepping rank 0) the
// straggler verdicts metrics.json serializes.
struct RankOutcome {
  bool is_sim = true;
  double step_busy_seconds = 0.0;
  std::size_t bytes = 0;
  std::size_t images = 0;
  /// The async worker's high-water mark (0 in sync mode): the two threads
  /// coexist, so the rank's reported footprint is the sum of both peaks.
  std::size_t worker_peak_bytes = 0;
  std::vector<instrument::AnomalyRecord> anomalies;
};

// Gather per-rank reports and analysis byte/image counts onto world rank 0.
void CollectReports(mpimini::Comm& world, const RankOutcome& outcome,
                    SharedMetrics& shared) {
  RankReport mine;
  mine.world_rank = world.Rank();
  mine.is_sim = outcome.is_sim;
  mine.step_busy_seconds = outcome.step_busy_seconds;
  if (instrument::RankEnv* env = instrument::CurrentEnv()) {
    mine.total_busy_seconds = env->busy.Seconds();
    mine.host_peak_bytes =
        env->memory.HostPeakBytes() + outcome.worker_peak_bytes;
    mine.device_peak_bytes =
        env->memory.PeakBytes(instrument::kDeviceCategory);
  }
  std::vector<RankReport> reports =
      world.Gather<RankReport>(std::span<const RankReport>(&mine, 1), 0);
  std::array<std::size_t, 2> io{outcome.bytes, outcome.images};
  world.Reduce(std::span<std::size_t>(io), mpimini::Op::kSum, 0);
  if (world.Rank() == 0) {
    core::MutexLock lock(shared.mutex);
    shared.metrics.ranks = std::move(reports);
    shared.metrics.bytes_written = io[0];
    shared.metrics.images_written = io[1];
  }
}

bool XmlHasAdios(const std::string& xml) {
  const xmlcfg::Document doc = xmlcfg::Parse(xml);
  for (const xmlcfg::Element* analysis : doc.root.FindAll("analysis")) {
    if (analysis->Attr("type") == "adios" &&
        analysis->AttrInt("enabled", 1) != 0) {
      return true;
    }
  }
  return false;
}

// Explicit options win; otherwise honor the XML's <telemetry> element.
instrument::TelemetryConfig ResolveTelemetry(
    const instrument::TelemetryConfig& explicit_config,
    const std::string& sensei_xml) {
  if (explicit_config.enabled || explicit_config.MetricsEnabled()) {
    return explicit_config;
  }
  return sensei::ParseTelemetryConfig(xmlcfg::Parse(sensei_xml).root);
}

mpimini::RunSettings MakeRunSettings(
    const instrument::TelemetryConfig& config) {
  mpimini::RunSettings settings;
  settings.trace = config.enabled;
  settings.tracer = config.TracerOptions();
  settings.metrics = config.MetricsEnabled();
  return settings;
}

// One rank's contribution to a heartbeat tick: its straggler sample plus
// what rank 0 sums or maxes into the tick's status.  Trivially copyable,
// so the whole tick travels in one Gather.
struct HeartbeatRow {
  instrument::RankHealthSample health;
  std::size_t host_peak_bytes = 0;
  double insitu_seconds = 0.0;   ///< cumulative bridge.update span seconds
  double offload_seconds = 0.0;  ///< cumulative async-worker update seconds
  std::size_t raw_bytes = 0;     ///< cumulative transport codec-plane totals
  std::size_t wire_bytes = 0;
  int queue_depth = -1;          ///< SST staging queue (-1: no transport)
};

// Rank-0 progress line plus the run-health collective.  When enabled, every
// Tick at the interval runs the same fixed collective sequence (one
// HeartbeatRow Gather and — monitor runs only — one metrics reduction), so
// every rank of the stepping communicator must Tick at the same step; a
// zero interval makes Tick a no-op and the run collective-free, as before.
// The interval is config-derived (identical on every rank by construction),
// never data-dependent.
//
// Rank 0 folds the rows into one MonitorStatus per tick, feeds the health
// samples into the straggler detector — new verdicts go to the flight
// recorder, the status `note` (the printed line's last column), and (via
// Anomalies()) metrics.json — then prints the status when due and
// publishes it to the /metrics endpoint when one is serving.
class Heartbeat {
 public:
  /// `monitor` is rank 0's MonitorServer or nullptr; non-rank-0 callers
  /// always pass nullptr.  Printing follows config.heartbeat_steps; with
  /// the heartbeat off but the monitor on, ticks run every step (the
  /// endpoint wants fresh data) without printing anything.
  /// `e2e_source` is the communicator the endpoint group ships its
  /// kTagE2eSample latency samples on (in transit: the world comm), or
  /// nullptr when e2e arrives in this rank's own registry (in situ).
  Heartbeat(mpimini::Comm& comm, const instrument::TelemetryConfig& config,
            int total_steps, instrument::MonitorServer* monitor,
            mpimini::Comm* e2e_source)
      : comm_(comm),
        e2e_source_(e2e_source),
        print_interval_(config.heartbeat_steps),
        interval_(config.heartbeat_steps > 0
                      ? config.heartbeat_steps
                      : (config.MonitorEnabled() ? 1 : 0)),
        monitor_on_(config.MonitorEnabled()),
        monitor_(monitor),
        total_(total_steps),
        start_ns_(instrument::Tracer::NowNs()) {
    // Baselines for the per-interval deltas that make up a health sample.
    if (instrument::RankEnv* env = instrument::CurrentEnv()) {
      last_busy_ = env->busy.Seconds();
    }
    if (const instrument::MetricsRegistry* m = instrument::CurrentMetrics()) {
      last_solver_ = m->HistogramSum("solver.step");
      last_insitu_ = m->HistogramSum("bridge.update");
      last_transport_ = m->Counter("sst.stall_seconds") +
                        m->Counter("pipeline.queue_wait_seconds");
    }
  }

  /// `adios` is this rank's SST sender, or nullptr when the workflow has no
  /// transport (in situ): it supplies the staging-queue depth and limit and
  /// the cumulative raw/wire byte totals.  `offload_seconds` is this rank's
  /// cumulative async-worker update seconds, or negative in sync mode (it
  /// agrees in sign across ranks).
  void Tick(int step_index, const sensei::AdiosAnalysisAdaptor* adios,
            double offload_seconds) {
    if (interval_ <= 0) return;
    const int done = step_index + 1;
    if (done % interval_ != 0 && done != total_) return;

    // The health sample always rides along, so the straggler detector works
    // even with the metrics plane off (the busy clock is unconditional;
    // only the span attribution needs the plane).
    HeartbeatRow row;
    row.health = SampleHealth();
    if (instrument::RankEnv* env = instrument::CurrentEnv()) {
      row.host_peak_bytes = env->memory.HostPeakBytes();
    }
    if (const instrument::MetricsRegistry* m = instrument::CurrentMetrics()) {
      row.insitu_seconds = m->HistogramSum("bridge.update");
    }
    const bool async = offload_seconds >= 0.0;
    row.offload_seconds = async ? offload_seconds : 0.0;
    if (adios != nullptr) {
      row.raw_bytes = adios->RawBytes();
      row.wire_bytes = adios->WireBytes();
      row.queue_depth = adios->QueueDepth();
    }
    const std::vector<HeartbeatRow> rows = comm_.Gather<HeartbeatRow>(
        std::span<const HeartbeatRow>(&row, 1), 0);

    // Monitor runs reduce the full registry each tick so /metrics serves
    // live cross-rank sums, not stale startup values.  MonitorEnabled()
    // implies the metrics plane is installed (TelemetryConfig contract).
    instrument::MetricsReport report;
    if (monitor_on_) {
      instrument::MetricsSnapshot snap;
      if (const instrument::MetricsRegistry* m =
              instrument::CurrentMetrics()) {
        snap = m->Snapshot();
      }
      report = mpimini::ReduceMetrics(comm_, snap, 0);
    }
    if (comm_.Rank() != 0) return;

    // Fold the rows in rank order: the same sums and maxima a root-0
    // Reduce would produce, bit for bit.
    instrument::MonitorStatus status;
    std::vector<instrument::RankHealthSample> samples;
    std::size_t mem_sum = 0;
    double insitu_sum = 0.0;
    double offload_sum = 0.0;
    double step_sum = 0.0;
    for (const HeartbeatRow& r : rows) {
      const double s = r.health.step_seconds;
      status.step_seconds_min =
          samples.empty() ? s : std::min(status.step_seconds_min, s);
      status.step_seconds_max = std::max(status.step_seconds_max, s);
      step_sum += s;
      samples.push_back(r.health);
      mem_sum += r.host_peak_bytes;
      status.mem_max_bytes = std::max(status.mem_max_bytes, r.host_peak_bytes);
      insitu_sum += r.insitu_seconds;
      offload_sum += r.offload_seconds;
      status.raw_bytes += r.raw_bytes;
      status.wire_bytes += r.wire_bytes;
      status.queue_depth = std::max(status.queue_depth, r.queue_depth);
    }
    const double ranks = static_cast<double>(rows.size());
    status.step_seconds_mean = step_sum / ranks;
    status.mem_mean_bytes =
        static_cast<std::size_t>(static_cast<double>(mem_sum) / ranks);
    status.queue_limit = adios != nullptr ? adios->QueueLimit() : -1;

    // End-to-end latency column: drain whatever the endpoint shipped since
    // the last tick (latest sample wins), or — with no cross-group feed —
    // read this rank's own step→image histogram (sync in situ: the image
    // writes land right here on rank 0).
    if (e2e_source_ != nullptr) {
      while (e2e_source_->HasMessage(mpimini::kAnySource, kTagE2eSample)) {
        last_e2e_seconds_ =
            e2e_source_->RecvValue<double>(mpimini::kAnySource, kTagE2eSample);
      }
    } else if (const instrument::MetricsRegistry* m =
                   instrument::CurrentMetrics()) {
      const auto it = m->Histograms().find("e2e.step_to_image_seconds");
      if (it != m->Histograms().end() && it->second.count > 0) {
        last_e2e_seconds_ = it->second.Mean();
      }
    }
    status.e2e_seconds = last_e2e_seconds_;

    for (const instrument::AnomalyRecord& a : straggler_.Update(samples,
                                                                done)) {
      char verdict[64];
      std::snprintf(verdict, sizeof(verdict), "straggler rank %d (%s)",
                    a.rank, a.dominant_span.c_str());
      instrument::RecordFlightEvent(instrument::FlightEventKind::kAnomaly,
                                    verdict, done, a.z);
      if (!status.note.empty()) status.note += ", ";
      status.note += verdict;
    }

    const double elapsed =
        static_cast<double>(instrument::Tracer::NowNs() - start_ns_) * 1e-9;
    const double rate = elapsed > 0.0 ? done / elapsed : 0.0;
    status.step = done;
    status.total_steps = total_;
    status.rate_steps_per_second = rate;
    status.eta_seconds =
        rate > 0.0 ? static_cast<double>(total_ - done) / rate : -1.0;
    if (elapsed > 0.0 && instrument::CurrentMetrics() != nullptr) {
      status.insitu_percent = 100.0 * insitu_sum / ranks / elapsed;
    }
    if (elapsed > 0.0 && async) {
      status.offload_percent = 100.0 * offload_sum / ranks / elapsed;
    }
    if (print_interval_ > 0 &&
        (done % print_interval_ == 0 || done == total_)) {
      std::fprintf(stderr, "%s\n", FormatHeartbeatLine(status).c_str());
      std::fflush(stderr);
    }

    if (monitor_ != nullptr && monitor_->Serving()) {
      status.anomalies = straggler_.Anomalies();
      report.anomalies = status.anomalies;
      status.metrics = std::move(report);
      monitor_->Publish(std::move(status));
    }
  }

  /// Straggler verdicts accumulated so far (meaningful on rank 0 only) —
  /// the source of metrics.json's `anomalies` array.
  [[nodiscard]] const std::vector<instrument::AnomalyRecord>& Anomalies()
      const {
    return straggler_.Anomalies();
  }

 private:
  // One interval's busy-time delta plus the per-span deltas (span histogram
  // sums and the transport wait counters) that could explain it.  The busy
  // clock excludes comm waits by design, so a straggler's *victims* (ranks
  // idling at the collective) do not get inflated samples — only the rank
  // actually doing extra work does.
  instrument::RankHealthSample SampleHealth() {
    instrument::RankHealthSample sample;
    sample.rank = comm_.Rank();
    double busy = 0.0;
    if (instrument::RankEnv* env = instrument::CurrentEnv()) {
      busy = env->busy.Seconds();
    }
    sample.step_seconds = busy - last_busy_;
    last_busy_ = busy;
    if (const instrument::MetricsRegistry* m = instrument::CurrentMetrics()) {
      const double solver = m->HistogramSum("solver.step");
      const double insitu = m->HistogramSum("bridge.update");
      const double transport = m->Counter("sst.stall_seconds") +
                               m->Counter("pipeline.queue_wait_seconds");
      sample.solver_seconds = solver - last_solver_;
      sample.insitu_seconds = insitu - last_insitu_;
      sample.transport_seconds = transport - last_transport_;
      last_solver_ = solver;
      last_insitu_ = insitu;
      last_transport_ = transport;
    }
    return sample;
  }

  mpimini::Comm& comm_;
  mpimini::Comm* e2e_source_;
  int print_interval_;
  int interval_;
  bool monitor_on_;
  instrument::MonitorServer* monitor_;
  int total_;
  std::int64_t start_ns_;
  double last_busy_ = 0.0;
  double last_e2e_seconds_ = -1.0;  ///< rank 0 only: latest e2e estimate
  double last_solver_ = 0.0;
  double last_insitu_ = 0.0;
  double last_transport_ = 0.0;
  instrument::StragglerMonitor straggler_;
};

// Fault-injection hook for the flight-recorder acceptance path: the named
// step throws an uncaught (by the workflow) exception on every rank, so the
// crash-dump machinery can be exercised end to end from a normal binary.
// In-situ only — in-transit endpoint ranks block in their receive loop and
// would never observe a sim-side throw (the join would hang).  Unset or
// empty means off (-1); anything but a whole non-negative integer throws.
int FailStepFromEnv() {
  const char* value = std::getenv("NEK_SENSEI_FAIL_STEP");
  if (value == nullptr || *value == '\0') return -1;
  int step = -1;
  const char* end = value + std::strlen(value);
  const auto [ptr, ec] = std::from_chars(value, end, step);
  if (ec != std::errc() || ptr != end || step < 0) {
    throw std::invalid_argument(
        std::string("NEK_SENSEI_FAIL_STEP must be a non-negative integer, "
                    "got \"") +
        value + "\"");
  }
  return step;
}

// Reduce every rank's metric snapshot onto world rank 0 and stash the
// rank-aggregated report.  Collective when the metrics plane is on: every
// world rank must call this (a disabled plane makes it a no-op everywhere,
// so the collective order stays identical across ranks).
void CollectRunHealth(mpimini::Comm& world,
                      const instrument::TelemetryConfig& config,
                      const std::vector<instrument::AnomalyRecord>& anomalies,
                      instrument::MonitorServer* monitor,
                      SharedMetrics& shared) {
  if (!config.MetricsEnabled()) return;
  instrument::MetricsSnapshot mine;
  if (const instrument::MetricsRegistry* reg = instrument::CurrentMetrics()) {
    mine = reg->Snapshot();
  }
  instrument::MetricsReport report = mpimini::ReduceMetrics(world, mine, 0);
  if (world.Rank() == 0) {
    // Derived metric: the run's aggregate compression ratio, from the
    // writer-fed raw/wire counters.  Computed from the global sums (not
    // per-rank ratios), so it is deterministic across 4-vs-8-rank
    // partitionings of the same work.
    const double raw = report.CounterSum("sst.bytes_raw");
    const double wire = report.CounterSum("sst.bytes_wire");
    if (raw > 0.0 && wire > 0.0) {
      const double ratio = raw / wire;
      instrument::MetricStat stat;
      stat.ranks = report.ranks;
      stat.min = stat.mean = stat.max = stat.p95 = stat.sum = ratio;
      stat.low_watermark = stat.high_watermark = ratio;
      stat.imbalance = 1.0;
      report.gauges["sst.compression_ratio"] = stat;
    }
    // Derived e2e attribution: what share of the step→image latency was
    // already spent when the step *arrived* at the endpoint (solver stage /
    // queue / wire / decode) vs the analysis+render tail.  Computed from
    // the merged histogram sums, so — like the compression ratio — it is
    // deterministic across rank partitionings of the same work.  The full
    // eight-segment critical path lives in tools/trace_merge.py; these two
    // gauges are the always-on summary.
    const auto image_it = report.histograms.find("e2e.step_to_image_seconds");
    const auto recv_it = report.histograms.find("e2e.step_to_recv_seconds");
    if (image_it != report.histograms.end() && image_it->second.count > 0 &&
        recv_it != report.histograms.end() && recv_it->second.count > 0 &&
        image_it->second.Mean() > 0.0) {
      const double share =
          std::clamp(recv_it->second.Mean() / image_it->second.Mean(), 0.0,
                     1.0);
      instrument::MetricStat stat;
      stat.ranks = report.ranks;
      stat.min = stat.mean = stat.max = stat.p95 = stat.sum = share;
      stat.low_watermark = stat.high_watermark = share;
      stat.imbalance = 1.0;
      report.gauges["e2e.transport_share"] = stat;
      instrument::MetricStat tail = stat;
      tail.min = tail.mean = tail.max = tail.p95 = tail.sum = 1.0 - share;
      tail.low_watermark = tail.high_watermark = 1.0 - share;
      report.gauges["e2e.analysis_share"] = tail;
    }
    report.anomalies = anomalies;
    if (monitor != nullptr) {
      // Final agreement pass: a scrape after the last step (and the
      // persisted status file) must match metrics.json exactly.
      monitor->UpdateMetrics(report, anomalies);
    }
    core::MutexLock lock(shared.mutex);
    shared.metrics.metrics_report = std::move(report);
  }
}

// Sample the cumulative pipeline counters into the rank's tracer.  Called
// at step boundaries so consecutive samples attribute each step's deltas
// (DESIGN.md: counter-delta attribution).  No-op when tracing is off.
void SampleStepCounters(const occamini::Device* device,
                        const sensei::ConfigurableAnalysis* analysis,
                        const sensei::CatalystAnalysisAdaptor* catalyst,
                        const adios::SstStats* sst) {
  // Metrics-plane feeds: memory watermarks as gauges, cumulative pipeline
  // counters via SetTotal (idempotent for repeated step-boundary samples).
  if (auto* metrics = instrument::CurrentMetrics()) {
    if (instrument::RankEnv* env = instrument::CurrentEnv()) {
      metrics->Set("memory.host_bytes",
                   static_cast<double>(env->memory.HostCurrentBytes()));
      metrics->Set("memory.host_hwm_bytes",
                   static_cast<double>(env->memory.HostPeakBytes()));
    }
    const core::BufferStats& buffers = core::LocalBufferStats();
    metrics->SetTotal("buffer.full_copies",
                      static_cast<double>(buffers.full_copies));
    metrics->SetTotal("buffer.copied_bytes",
                      static_cast<double>(buffers.copied_bytes));
    if (device != nullptr) {
      metrics->SetTotal("d2h.bytes",
                        static_cast<double>(device->Transfers().d2h_bytes));
    }
    if (analysis != nullptr) {
      metrics->SetTotal("storage.bytes_written",
                        static_cast<double>(analysis->TotalBytesWritten()));
    }
  }
  instrument::Tracer* tracer = instrument::CurrentTracer();
  if (tracer == nullptr) return;
  const core::BufferStats& buffers = core::LocalBufferStats();
  tracer->SampleCounter("buffer.full_copies",
                        static_cast<double>(buffers.full_copies));
  tracer->SampleCounter("buffer.small_copies",
                        static_cast<double>(buffers.small_copies));
  tracer->SampleCounter("buffer.copied_bytes",
                        static_cast<double>(buffers.copied_bytes));
  tracer->SampleCounter("buffer.adoptions",
                        static_cast<double>(buffers.adoptions));
  tracer->SampleCounter("buffer.moves", static_cast<double>(buffers.moves));
  if (device != nullptr) {
    tracer->SampleCounter("d2h.bytes",
                          static_cast<double>(device->Transfers().d2h_bytes));
  }
  if (analysis != nullptr) {
    tracer->SampleCounter("storage.bytes_written",
                          static_cast<double>(analysis->TotalBytesWritten()));
  }
  if (catalyst != nullptr) {
    tracer->SampleCounter("catalyst.images",
                          static_cast<double>(catalyst->ImagesWritten()));
  }
  if (sst != nullptr) {
    tracer->SampleCounter("sst.bytes",
                          static_cast<double>(sst->payload_bytes));
    tracer->SampleCounter("sst.bytes_raw",
                          static_cast<double>(sst->raw_bytes));
    tracer->SampleCounter("sst.bytes_wire",
                          static_cast<double>(sst->wire_bytes));
  }
}

// The configured analysis of kind `kind` as its concrete adaptor type, or
// nullptr (no such analysis, or no SENSEI at all).
template <typename Adaptor>
std::shared_ptr<Adaptor> FindAdaptor(
    const sensei::ConfigurableAnalysis* analysis, const char* kind) {
  if (analysis == nullptr) return nullptr;
  return std::dynamic_pointer_cast<Adaptor>(analysis->Find(kind));
}

// The endpoint comm group's trace file: "trace.json" -> "trace_endpoint.json"
// (suffix-appended when the path has no extension).  A separate file per
// group mirrors a real in transit deployment — two MPI jobs, two trace
// files — and is exactly what tools/trace_merge.py fuses back together.
std::string EndpointTracePath(const std::string& path) {
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos || path.find('/', dot) != std::string::npos) {
    return path + "_endpoint";
  }
  return path.substr(0, dot) + "_endpoint" + path.substr(dot);
}

// Merge the run's tracers into the metrics and write the configured trace /
// summary files.  Export failures are reported, never silent.
void ExportTelemetry(const instrument::TelemetryConfig& config,
                     const mpimini::RunResult& run,
                     WorkflowMetrics& metrics) {
  if (!config.enabled) return;
  const std::vector<const instrument::Tracer*> tracers = run.TracerPointers();
  metrics.telemetry = instrument::Summarize(tracers);
  if (!config.trace_path.empty()) {
    // One file per comm group (in transit: sim + endpoint), sharing one
    // clock-aligned base timestamp so the files fuse into a single global
    // timeline without re-shifting.
    std::vector<const instrument::Tracer*> sim_group;
    std::vector<const instrument::Tracer*> endpoint_group;
    for (const instrument::Tracer* tracer : tracers) {
      if (tracer == nullptr) continue;
      (tracer->Group() == 0 ? sim_group : endpoint_group).push_back(tracer);
    }
    const std::int64_t base = instrument::TraceBaseTimestamp(tracers);
    if (!instrument::WriteChromeTrace(config.trace_path, sim_group, base)) {
      std::fprintf(stderr, "warning: failed to write trace file %s\n",
                   config.trace_path.c_str());
    }
    if (!endpoint_group.empty()) {
      const std::string endpoint_path = EndpointTracePath(config.trace_path);
      if (!instrument::WriteChromeTrace(endpoint_path, endpoint_group, base)) {
        std::fprintf(stderr, "warning: failed to write trace file %s\n",
                     endpoint_path.c_str());
      }
    }
  }
  if (!config.summary_path.empty() &&
      !instrument::WriteTelemetryJson(config.summary_path,
                                      metrics.telemetry)) {
    std::fprintf(stderr, "warning: failed to write telemetry summary %s\n",
                 config.summary_path.c_str());
  }
}

// Write the single rank-aggregated metrics.json (the reduction already ran
// inside the rank body via CollectRunHealth).
void ExportRunHealth(const instrument::TelemetryConfig& config,
                     const WorkflowMetrics& metrics) {
  if (!config.MetricsEnabled() || config.metrics_path.empty()) return;
  if (!instrument::WriteMetricsJson(config.metrics_path,
                                    metrics.metrics_report)) {
    std::fprintf(stderr, "warning: failed to write metrics file %s\n",
                 config.metrics_path.c_str());
  }
}

// What the run skeleton hands each rank body.
struct RankRun {
  mpimini::Comm& world;
  const instrument::TelemetryConfig& telemetry;
  std::uint64_t run_id;                ///< 0 when the causal plane is off
  instrument::MonitorServer* monitor;  ///< world rank 0's server, or nullptr
};

// The run skeleton both workflows share.  It spawns `world_ranks` rank
// threads; on each it brackets `body` (which builds the rank's solver and
// bridge, or its endpoint, and runs it) with the clock calibration, then
// collects the per-rank reports and the run-health reduction onto world
// rank 0, and exports both once the threads have joined.
WorkflowMetrics RunWorkflow(
    int world_ranks, int steps, const instrument::TelemetryConfig& telemetry,
    const std::function<RankOutcome(const RankRun&)>& body) {
  SharedMetrics shared;
  {
    core::MutexLock lock(shared.mutex);
    shared.metrics.steps = steps;
  }
  // Causal plane (clock sync, step provenance, e2e latency) rides with the
  // observability opt-ins: without them, runs keep the pre-provenance wire
  // bytes and collective sequence exactly.
  const bool causal = telemetry.enabled || telemetry.MetricsEnabled();
  const std::uint64_t run_id = causal ? instrument::MakeRunId() : 0;

  mpimini::RunResult run = mpimini::Runtime::Run(
      world_ranks, MakeRunSettings(telemetry), [&](mpimini::Comm& world) {
    // Live run-health endpoint: world rank 0 only, opt-in, loopback.
    // World rank 0 is also rank 0 of the stepping communicator, so one rank
    // owns both the heartbeat and the monitor.  Created before the step
    // loop so /healthz answers from the first step, and destroyed (->
    // Stop -> persisted status) at rank-body scope end, after the closing
    // metrics reduction has refreshed it.
    std::unique_ptr<instrument::MonitorServer> monitor;
    if (world.Rank() == 0 && telemetry.MonitorEnabled()) {
      monitor = std::make_unique<instrument::MonitorServer>(
          instrument::MonitorServer::Options{
              .port = telemetry.monitor_port,
              .persist_path = telemetry.status_path,
              .port_file = telemetry.monitor_port_file});
    }
    // Clock calibration brackets the run: the start sync feeds provenance
    // timestamps and the aligned trace export, the closing re-sync
    // measures drift.  World-wide against world rank 0, so both in transit
    // groups share one timeline.  Collective — gated identically on every
    // rank.
    std::optional<mpimini::ClockSync> clock;
    if (causal) clock = CalibrateRankClock(world);
    const RankOutcome outcome =
        body(RankRun{world, telemetry, run_id, monitor.get()});
    if (clock) RecalibrateRankClock(world, *clock);
    CollectReports(world, outcome, shared);
    CollectRunHealth(world, telemetry, outcome.anomalies, monitor.get(),
                     shared);
  });

  // Rank threads are joined, but the analysis (rightly) still wants the
  // lock for these accesses.
  core::MutexLock lock(shared.mutex);
  shared.metrics.wall_seconds = run.wall_seconds;
  ExportTelemetry(telemetry, run, shared.metrics);
  ExportRunHealth(telemetry, shared.metrics);
  return shared.metrics;
}

// Per-step hooks only the in situ workflow sets (see InSituOptions and
// FailStepFromEnv); the defaults are off.
struct StepHooks {
  int fail_step = -1;
  int straggler_rank = -1;
  double straggler_seconds = 0.0;
};

// The simulation rank's step loop (Listing 3), in situ and in transit
// alike: step the solver, hand the step to SENSEI under its causal origin,
// sample the counters, tick the heartbeat.  The heartbeat runs on the
// solver's communicator (in transit the sim group: endpoint ranks sit in
// their receive loop and cannot join step-boundary collectives).  A null
// `bridge` is the paper's Original configuration.  `e2e_source` is as for
// Heartbeat.
RankOutcome SimStepLoop(const RankRun& run, int steps,
                        nekrs::FlowSolver& solver, Bridge* bridge,
                        mpimini::Comm* e2e_source,
                        const StepHooks& hooks = {}) {
  const sensei::ConfigurableAnalysis* analysis =
      bridge != nullptr ? &bridge->Analysis() : nullptr;
  const auto catalyst =
      FindAdaptor<sensei::CatalystAnalysisAdaptor>(analysis, "catalyst");
  const auto adios =
      FindAdaptor<sensei::AdiosAnalysisAdaptor>(analysis, "adios");
  // Async mode: the analyses (and the SST sender) run on the worker thread,
  // so their counters must not be read at step boundaries — sample with the
  // device feed only, and take one full sample after Finalize (SetTotal and
  // counter sampling are cumulative, so the final totals come out
  // mode-independent).  The queue depth and raw/wire totals the heartbeat
  // reads stay safe (atomic mirrors / immutable).
  const bool async = bridge != nullptr && bridge->Async();
  const auto sample_counters = [&](bool full) {
    SampleStepCounters(&solver.Device(), full ? analysis : nullptr,
                       full ? catalyst.get() : nullptr,
                       full && adios ? &adios->TransportStats() : nullptr);
  };

  instrument::RankEnv* env = instrument::CurrentEnv();
  const double busy0 = env ? env->busy.Seconds() : 0.0;
  Heartbeat heartbeat(solver.Comm(), run.telemetry, steps, run.monitor,
                      e2e_source);
  sample_counters(!async);
  for (int s = 0; s < steps; ++s) {
    // Step boundary first: a crash dump's tail names the step that was
    // *in flight*, not the last one that completed.
    instrument::RecordFlightEvent(instrument::FlightEventKind::kStep,
                                  "solver.step", s);
    if (s == hooks.fail_step) {
      throw std::runtime_error("injected failure at step " +
                               std::to_string(s) + " (solver.step)");
    }
    solver.Step();
    if (run.world.Rank() == hooks.straggler_rank &&
        hooks.straggler_seconds > 0.0) {
      // Controlled straggler: busy-spin (not sleep — the busy clock must
      // see it) under a solver.step span, so the time is booked as solver
      // work and the detector's span attribution has a known right answer.
      instrument::Span spin_span("solver.step");
      const std::int64_t spin0 = instrument::Tracer::NowNs();
      while (static_cast<double>(instrument::Tracer::NowNs() - spin0) *
                 1e-9 <
             hooks.straggler_seconds) {
      }
    }
    {
      // Stamp the just-completed step's causal origin; the SENSEI update
      // (sync: inline; async: captured at Submit) runs under it so every
      // downstream write can attribute back to this step.  In transit it
      // crosses the SST wire in the step context, links sst.send to
      // sst.recv in the trace, and anchors the endpoint's e2e latency.
      instrument::StepProvenance provenance;
      if (run.run_id != 0) {
        provenance =
            instrument::MakeStepProvenance(run.run_id, run.world.Rank(), s);
      }
      instrument::ProvenanceScope provenance_scope(
          provenance.Valid() ? &provenance : nullptr);
      if (bridge != nullptr) bridge->Update();
    }
    sample_counters(!async);
    heartbeat.Tick(s, adios.get(),
                   bridge != nullptr ? bridge->OffloadedSeconds() : -1.0);
  }
  RankOutcome outcome;
  // Stop before teardown: Finalize (stream flushes, file closes) must not
  // count toward the per-step figures.
  outcome.step_busy_seconds = (env ? env->busy.Seconds() : 0.0) - busy0;
  if (bridge != nullptr) bridge->Finalize();
  // Post-Finalize the worker (if any) is joined and its attribution is
  // folded into this rank: the full-feed sample closes the totals.
  sample_counters(true);
  if (bridge != nullptr) {
    outcome.bytes = bridge->Analysis().TotalBytesWritten();
    outcome.worker_peak_bytes = bridge->WorkerHostPeakBytes();
  }
  if (catalyst) outcome.images = catalyst->ImagesWritten();
  outcome.anomalies = heartbeat.Anomalies();
  return outcome;
}

// The in transit endpoint rank: receive the steps its writers stream and
// run the endpoint analyses on each.
RankOutcome EndpointLoop(const RankRun& run, mpimini::Comm& group,
                         int sim_ranks, int ratio,
                         const InTransitOptions& options) {
  mpimini::Comm& world = run.world;
  std::vector<int> writers;
  for (int w = 0; w < sim_ranks; ++w) {
    if (sim_ranks + w / ratio == world.Rank()) writers.push_back(w);
  }
  adios::SstReader reader(world, writers,
                          {.queue_limit = options.sst_queue_limit});
  sensei::InTransitDataAdaptor data(group);
  sensei::ConfigurableAnalysis analysis(group);
  analysis.Initialize(xmlcfg::Parse(options.endpoint_xml).root);

  RankOutcome outcome;
  outcome.is_sim = false;
  instrument::RankEnv* env = instrument::CurrentEnv();
  const double busy0 = env ? env->busy.Seconds() : 0.0;
  SampleStepCounters(nullptr, &analysis, nullptr, &reader.Stats());
  const bool feed_e2e = group.Rank() == 0 && world.Rank() != 0 &&
                        (run.telemetry.heartbeat_steps > 0 ||
                         run.telemetry.MonitorEnabled());
  while (auto step = reader.NextStep()) {
    // Re-install the step's wire-carried origin around the analyses:
    // endpoint-side writes (images, checkpoints) measure their e2e
    // latency against it.  One rank per metric observes — group rank 0
    // here, the compositing root inside the adaptors — so histogram
    // counts stay partition-independent (one sample per step).
    const instrument::StepProvenance origin =
        StepOrigin(step->payloads, step->step);
    instrument::ProvenanceScope provenance_scope(
        origin.Valid() ? &origin : nullptr);
    const auto seconds_since_origin = [&origin] {
      return std::max(0.0, static_cast<double>(instrument::GlobalNowNs() -
                                               origin.GlobalTimestampNs()) *
                               1e-9);
    };
    if (origin.Valid() && group.Rank() == 0) {
      if (auto* metrics = instrument::CurrentMetrics()) {
        metrics->Observe("e2e.step_to_recv_seconds", seconds_since_origin());
      }
    }
    data.SetStep(step->step, 0.0, step->payloads);
    analysis.Execute(data);
    if (feed_e2e && origin.Valid()) {
      // Ship this step's end-to-end latency (origin → analyses done,
      // which includes the image write) to the monitor host.  Buffered
      // send: the heartbeat drains at its own cadence.
      world.SendValue<double>(0, kTagE2eSample, seconds_since_origin());
    }
    SampleStepCounters(nullptr, &analysis, nullptr, &reader.Stats());
  }
  outcome.step_busy_seconds = (env ? env->busy.Seconds() : 0.0) - busy0;
  analysis.Finalize();
  // The per-rank tracer digest; Bridge::Finalize prints it on sim ranks.
  // The flush matters: these threads exit right after, and unflushed stdio
  // from a finishing rank thread is lost on some libc builds.
  if (const instrument::Tracer* tracer = instrument::CurrentTracer()) {
    std::fprintf(stderr, "%s\n", tracer->SummaryLine().c_str());
    std::fflush(stderr);
  }
  outcome.bytes = analysis.TotalBytesWritten();
  if (const auto catalyst =
          FindAdaptor<sensei::CatalystAnalysisAdaptor>(&analysis,
                                                       "catalyst")) {
    outcome.images = catalyst->ImagesWritten();
  }
  return outcome;
}

}  // namespace

std::string FormatHeartbeatLine(const instrument::MonitorStatus& status) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "[heartbeat] step %d/%d (%d%%) | %.2f steps/s",
                status.step, status.total_steps,
                status.total_steps > 0
                    ? 100 * status.step / status.total_steps
                    : 0,
                status.rate_steps_per_second);
  std::string out = buf;
  // A zero observed rate (clock glitch, first tick landing in the same
  // timer quantum) has no defined ETA: print `n/a`, never inf/nan or a
  // garbage division result.
  if (status.eta_seconds >= 0.0 && std::isfinite(status.eta_seconds)) {
    std::snprintf(buf, sizeof(buf), " | eta %.1fs", status.eta_seconds);
    out += buf;
  } else {
    out += " | eta n/a";
  }
  out += " | mem mean " + instrument::FormatBytes(status.mem_mean_bytes) +
         " max " + instrument::FormatBytes(status.mem_max_bytes);
  if (status.insitu_percent >= 0.0) {
    // Clamp the display: busy-clock vs wall-clock skew can nudge the raw
    // ratio past 100, and a ">100% in situ" line reads as nonsense.  Work
    // running off the critical path is the offload column, never an
    // inflated insitu%.
    std::snprintf(buf, sizeof(buf), " | insitu %.0f%%",
                  std::min(status.insitu_percent, 100.0));
    out += buf;
  }
  if (status.offload_percent >= 0.0) {
    std::snprintf(buf, sizeof(buf), " | offload %.0f%%",
                  std::min(status.offload_percent, 100.0));
    out += buf;
  }
  if (status.queue_limit > 0) {
    std::snprintf(buf, sizeof(buf), " | sst queue %d/%d", status.queue_depth,
                  status.queue_limit);
    out += buf;
  }
  if (status.e2e_seconds >= 0.0) {
    std::snprintf(buf, sizeof(buf), " | e2e %.1fms",
                  status.e2e_seconds * 1e3);
    out += buf;
  }
  // Wire column only when a codec actually shrank (or grew) the stream:
  // identity-only runs keep the pre-codec line byte for byte.
  if (status.raw_bytes > 0 && status.wire_bytes > 0 &&
      status.raw_bytes != status.wire_bytes) {
    std::snprintf(buf, sizeof(buf), " | wire %s (%.1fx)",
                  instrument::FormatBytes(status.wire_bytes).c_str(),
                  static_cast<double>(status.raw_bytes) /
                      static_cast<double>(status.wire_bytes));
    out += buf;
  }
  if (!status.note.empty()) out += " | " + status.note;
  return out;
}

double WorkflowMetrics::MeanSimStepSeconds() const {
  double sum = 0.0;
  int count = 0;
  for (const RankReport& r : ranks) {
    if (!r.is_sim) continue;
    sum += r.step_busy_seconds;
    ++count;
  }
  return count && steps ? sum / count / steps : 0.0;
}

double WorkflowMetrics::TotalSimBusySeconds() const {
  double sum = 0.0;
  for (const RankReport& r : ranks) {
    if (r.is_sim) sum += r.step_busy_seconds;
  }
  return sum;
}

std::size_t WorkflowMetrics::MaxSimHostPeakBytes() const {
  std::size_t peak = 0;
  for (const RankReport& r : ranks) {
    if (r.is_sim) peak = std::max(peak, r.host_peak_bytes);
  }
  return peak;
}

std::size_t WorkflowMetrics::TotalSimHostPeakBytes() const {
  std::size_t total = 0;
  for (const RankReport& r : ranks) {
    if (r.is_sim) total += r.host_peak_bytes;
  }
  return total;
}

std::size_t WorkflowMetrics::MaxSimDevicePeakBytes() const {
  std::size_t peak = 0;
  for (const RankReport& r : ranks) {
    if (r.is_sim) peak = std::max(peak, r.device_peak_bytes);
  }
  return peak;
}

WorkflowMetrics RunInSitu(int nranks, const InSituOptions& options) {
  const instrument::TelemetryConfig telemetry =
      ResolveTelemetry(options.telemetry, options.sensei_xml);
  const StepHooks hooks{.fail_step = FailStepFromEnv(),
                        .straggler_rank = options.straggler_rank,
                        .straggler_seconds = options.straggler_seconds};
  return RunWorkflow(nranks, options.steps, telemetry,
                     [&](const RankRun& run) {
    occamini::Device device(options.backend, options.transfer);
    nekrs::FlowSolver solver(run.world, device, options.flow);
    std::optional<Bridge> bridge;
    if (options.use_sensei) bridge.emplace(solver, options.sensei_xml);
    return SimStepLoop(run, options.steps, solver,
                       bridge ? &*bridge : nullptr,
                       /*e2e_source=*/nullptr, hooks);
  });
}

WorkflowMetrics RunInTransit(int sim_ranks, const InTransitOptions& options) {
  const int ratio = std::max(1, options.sim_per_endpoint);
  const int endpoint_ranks = (sim_ranks + ratio - 1) / ratio;
  const bool streaming = XmlHasAdios(options.sim_xml);
  return RunWorkflow(sim_ranks + endpoint_ranks, options.steps,
                     ResolveTelemetry(options.telemetry, options.sim_xml),
                     [&](const RankRun& run) {
    mpimini::Comm& world = run.world;
    const bool is_sim = world.Rank() < sim_ranks;
    // Keyed on world rank, so a sim rank's group rank is its world rank.
    mpimini::Comm group = world.Split(is_sim ? 0 : 1, world.Rank());
    // Label this rank's trace lane with its comm group so the export
    // renders two process rows (sim / endpoint) on one timeline.
    if (instrument::Tracer* tracer = instrument::CurrentTracer()) {
      tracer->SetGroup(is_sim ? 0 : 1, is_sim ? "sim" : "endpoint");
    }
    if (!is_sim && streaming) {
      return EndpointLoop(run, group, sim_ranks, ratio, options);
    }
    if (!is_sim) {
      RankOutcome idle;  // no stream, so nothing arrives to analyse
      idle.is_sim = false;
      return idle;
    }
    occamini::Device device(options.backend, options.transfer);
    nekrs::FlowSolver solver(group, device, options.flow);
    const int endpoint_world_rank = sim_ranks + world.Rank() / ratio;
    Bridge bridge(solver, options.sim_xml,
                  [&](sensei::ConfigurableAnalysis& analysis) {
                    analysis.RegisterFactory(
                        "adios",
                        [&](const xmlcfg::Element& e, mpimini::Comm&) {
                          sensei::AdiosOptions adios_options;
                          adios_options.arrays =
                              sensei::SplitList(e.Attr("arrays"));
                          adios_options.sst.queue_limit =
                              options.sst_queue_limit;
                          adios_options.codecs =
                              sensei::ParseTransportCodecs(e);
                          return std::make_shared<
                              sensei::AdiosAnalysisAdaptor>(
                              world, endpoint_world_rank, adios_options);
                        });
                  });
    return SimStepLoop(run, options.steps, solver, &bridge,
                       streaming ? &world : nullptr);
  });
}

}  // namespace nek_sensei
