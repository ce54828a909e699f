#include "core/async_pipeline.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "instrument/flight_recorder.hpp"
#include "instrument/tracer.hpp"

namespace nek_sensei {

// ---- SnapshotDataAdaptor ---------------------------------------------------

SnapshotDataAdaptor::SnapshotDataAdaptor(nekrs::FlowSolver& solver,
                                         mpimini::Comm comm)
    : solver_(&solver) {
  SetCommunicator(comm);
}

sensei::MeshMetadata SnapshotDataAdaptor::GetMeshMetadata(int) {
  return NekMeshMetadata(*solver_, GetCommunicator().Size());
}

std::shared_ptr<svtk::UnstructuredGrid> SnapshotDataAdaptor::GetMesh(int) {
  if (mesh_) return mesh_;
  mesh_ = BuildSemGrid(solver_->Mesh(), solver_->Rule());
  return mesh_;
}

bool SnapshotDataAdaptor::AddArray(svtk::UnstructuredGrid& mesh,
                                   const std::string& name,
                                   svtk::Centering centering) {
  if (centering != svtk::Centering::kPoint) return false;
  if (fields_ == nullptr) {
    throw std::runtime_error("nek_sensei: snapshot adaptor has no snapshot");
  }
  for (const Field& field : *fields_) {
    if (field.name != name) continue;
    if (field.components == 0) return false;  // capture found no such array
    mesh.AdoptPointArray(name, field.components, field.data);
    return true;
  }
  return false;
}

void SnapshotDataAdaptor::ReleaseData() {
  // Per-trigger churn mirrors the live adaptor: the VTK grid is rebuilt for
  // the next trigger.  The staging buffers stay alive in their slot.
  mesh_.reset();
}

// ---- AsyncPipeline ---------------------------------------------------------

AsyncPipeline::AsyncPipeline(nekrs::FlowSolver& solver,
                             sensei::ConfigurableAnalysis& analysis,
                             const NekDataAdaptor& live_data,
                             mpimini::Comm analysis_comm, int depth)
    : solver_(solver),
      analysis_(analysis),
      live_data_(live_data),
      analysis_comm_(analysis_comm) {
  if (depth < 1) {
    throw std::invalid_argument("nek_sensei: async pipeline depth must be >= 1");
  }
  slots_.resize(static_cast<std::size_t>(depth));
  {
    core::MutexLock lock(mutex_);
    in_flight_.assign(slots_.size(), 0);
  }

  // The worker runs as this rank, but with its own single-owner structures:
  // its own memory tracker always, and its own metrics registry / tracer
  // when the run has those planes (per-rank rings are single-owner, so the
  // worker records into a separate lane — tid rank+1000, "rank N worker" —
  // that the runtime folds into RunResult::tracers after Shutdown).
  if (const instrument::RankEnv* env = instrument::CurrentEnv()) {
    worker_env_.rank = env->rank;
    // The flight recorder is the one deliberately *shared* instrument: its
    // ring is multi-writer safe, and a crash dump must interleave worker
    // events (codec fallbacks, long waits) with the rank's own timeline.
    worker_env_.flightrec = env->flightrec;
  }
  if (instrument::CurrentMetrics() != nullptr) {
    worker_env_.metrics = std::make_shared<instrument::MetricsRegistry>();
  }
  if (const instrument::Tracer* rank_tracer = instrument::CurrentTracer()) {
    auto worker_tracer = std::make_shared<instrument::Tracer>(
        worker_env_.rank, rank_tracer->Opts());
    worker_tracer->SetGroup(rank_tracer->Group(), rank_tracer->GroupName());
    worker_tracer->SetThreadLane(
        worker_env_.rank + kWorkerTidOffset,
        "rank " + std::to_string(worker_env_.rank) + " worker");
    worker_env_.tracer = std::move(worker_tracer);
  }
  worker_ = std::thread([this] { WorkerMain(); });
}

AsyncPipeline::~AsyncPipeline() {
  if (joined_) return;
  try {
    Shutdown();
  } catch (...) {
    // Destructor path: the error was either already surfaced through
    // Submit/Shutdown or the pipeline is being unwound; never terminate.
  }
}

void AsyncPipeline::RethrowWorkerError() {
  std::exception_ptr error;
  {
    core::MutexLock lock(mutex_);
    error = worker_error_;
    worker_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void AsyncPipeline::CaptureSnapshot(Slot& slot, int step, double time) {
  slot.step = step;
  slot.time = time;

  // The set to snapshot: exactly what the due analyses will pull.  nullopt
  // means "every advertised array" (the checkpoint convention).
  std::vector<std::string> names;
  if (auto required = analysis_.RequiredArrays(step)) {
    names = std::move(*required);
  } else {
    const sensei::MeshMetadata metadata =
        NekMeshMetadata(solver_, analysis_comm_.Size());
    names.reserve(metadata.arrays.size());
    for (const sensei::ArrayMetadata& array : metadata.arrays) {
      names.push_back(array.name);
    }
  }

  // Capture each array, reusing the slot's previous allocation for the
  // same name (steady state: the D2H lands in place, no reallocation).
  std::vector<SnapshotDataAdaptor::Field> captured;
  captured.reserve(names.size());
  for (const std::string& name : names) {
    SnapshotDataAdaptor::Field field;
    field.name = name;
    for (SnapshotDataAdaptor::Field& old : slot.fields) {
      if (old.name == name) {
        field.data = std::move(old.data);
        break;
      }
    }
    field.components =
        CaptureNekArray(solver_, name, live_data_.DerivedFieldsEnabled(),
                        field.data);
    if (field.components == 0) field.data = core::Buffer();
    captured.push_back(std::move(field));
  }
  // Old buffers for names not captured this trigger drop here, on the rank
  // thread that allocated them (tracked-buffer ownership rule).
  slot.fields = std::move(captured);
}

bool AsyncPipeline::Submit(int step, double time) {
  RethrowWorkerError();
  if (!analysis_.AnyDue(step)) {
    return !execute_failed_.load(std::memory_order_relaxed);
  }

  instrument::Span span("async.submit");

  // Backpressure point: every slot in flight means the worker is `depth`
  // updates behind; the rank thread blocks here (and only here).  The wait
  // is idle time, not busy time.
  const std::size_t index = next_slot_;
  next_slot_ = (next_slot_ + 1) % slots_.size();
  const std::int64_t wait_begin_ns = instrument::Tracer::NowNs();
  instrument::RankEnv* env = instrument::CurrentEnv();
  if (env != nullptr) env->busy.Pause();
  {
    core::MutexLock lock(mutex_);
    while (in_flight_[index] != 0) slot_freed_cv_.Wait(mutex_);
  }
  if (env != nullptr) env->busy.Resume();
  const double waited =
      static_cast<double>(instrument::Tracer::NowNs() - wait_begin_ns) * 1e-9;
  queue_wait_seconds_ += waited;
  if (auto* metrics = instrument::CurrentMetrics()) {
    metrics->Add("pipeline.queue_wait_seconds", waited);
    metrics->Add("pipeline.submits", 1.0);
  }
  if (waited >= instrument::kFlightStallMinSeconds) {
    // Backpressure stall: the worker is `depth` updates behind and the
    // rank thread just paid for it — prime straggler-forensics material.
    instrument::RecordFlightEvent(instrument::FlightEventKind::kStall,
                                  "pipeline.slot_wait", step, waited);
  }

  // The rank thread owns the slot now (the worker cleared its flag and will
  // not touch it again until re-enqueued).
  CaptureSnapshot(slots_[index], step, time);
  // Causal context rides with the snapshot: the transport writers run on
  // the worker, possibly several steps later, and must stamp this step's
  // origin, not whatever the rank thread is doing by then.
  const instrument::StepProvenance* provenance =
      instrument::CurrentProvenance();
  slots_[index].provenance = (provenance != nullptr && provenance->Valid())
                                 ? *provenance
                                 : instrument::StepProvenance{};

  {
    core::MutexLock lock(mutex_);
    in_flight_[index] = 1;
    queue_.push_back(index);
  }
  work_cv_.NotifyOne();
  return !execute_failed_.load(std::memory_order_relaxed);
}

void AsyncPipeline::WorkerMain() {
  instrument::RankScope rank_scope(&worker_env_);
  SnapshotDataAdaptor data(solver_, analysis_comm_);

  for (;;) {
    std::size_t index = 0;
    bool have_job = false;
    {
      core::MutexLock lock(mutex_);
      while (queue_.empty() && !drain_requested_) {
        worker_env_.busy.Pause();  // idle wait is not worker busy time
        work_cv_.Wait(mutex_);
        worker_env_.busy.Resume();
      }
      if (!queue_.empty()) {
        index = queue_.front();
        queue_.pop_front();
        have_job = true;
      }
    }
    if (!have_job) break;  // drain requested and queue empty

    Slot& slot = slots_[index];
    const std::int64_t begin_ns = instrument::Tracer::NowNs();
    bool skip = false;
    {
      core::MutexLock lock(mutex_);
      skip = worker_error_ != nullptr;  // stop analysing after a failure
    }
    if (!skip) {
      try {
        // Re-install the submitting step's causal context (and its clock
        // offset — worker threads share the process clock, so the rank's
        // calibrated offset is also the worker's).
        instrument::ProvenanceScope provenance_scope(
            slot.provenance.Valid() ? &slot.provenance : nullptr);
        instrument::SetClockOffsetNs(slot.provenance.origin_offset_ns);
        instrument::Span span("bridge.update");
        data.SetPipelineTime(slot.step, slot.time);
        data.SetSnapshot(&slot.fields);
        const bool ok = analysis_.Execute(data);
        data.SetSnapshot(nullptr);
        if (!ok) execute_failed_.store(true, std::memory_order_relaxed);
      } catch (...) {
        core::MutexLock lock(mutex_);
        if (!worker_error_) worker_error_ = std::current_exception();
      }
    }
    offloaded_ns_.fetch_add(instrument::Tracer::NowNs() - begin_ns,
                            std::memory_order_relaxed);

    {
      core::MutexLock lock(mutex_);
      in_flight_[index] = 0;
    }
    slot_freed_cv_.NotifyOne();
  }

  // Finalize as the last worker job: the analyses' single-owner structures
  // (SST writer, per-adaptor state) were bound to this thread by their
  // first Execute, so their flush/close must happen here too.
  try {
    analysis_.Finalize();
  } catch (...) {
    core::MutexLock lock(mutex_);
    if (!worker_error_) worker_error_ = std::current_exception();
  }

  // Publish this thread's attribution; the rank thread reads these after
  // the join (which provides the happens-before edge).
  worker_buffer_stats_ = core::LocalBufferStats();
  if (worker_env_.metrics) worker_metrics_ = worker_env_.metrics->Snapshot();
}

void AsyncPipeline::Shutdown() {
  if (joined_) return;
  {
    core::MutexLock lock(mutex_);
    drain_requested_ = true;
  }
  work_cv_.NotifyOne();
  {
    instrument::Span span("async.drain");
    instrument::RankEnv* env = instrument::CurrentEnv();
    if (env != nullptr) env->busy.Pause();
    worker_.join();
    if (env != nullptr) env->busy.Resume();
  }
  joined_ = true;

  // From here the rank thread may legitimately touch worker-owned
  // structures (e.g. releasing adaptor-held tracked buffers at Bridge
  // destruction); hand the single-owner binding over explicitly.
  worker_env_.memory.ReleaseOwnership();

  // Fold the worker's attribution into the rank, so end-of-run reports see
  // one rank regardless of execution mode.
  core::BufferStats& stats = core::LocalBufferStats();
  stats.allocations += worker_buffer_stats_.allocations;
  stats.allocated_bytes += worker_buffer_stats_.allocated_bytes;
  stats.full_copies += worker_buffer_stats_.full_copies;
  stats.small_copies += worker_buffer_stats_.small_copies;
  stats.copied_bytes += worker_buffer_stats_.copied_bytes;
  stats.adoptions += worker_buffer_stats_.adoptions;
  stats.moves += worker_buffer_stats_.moves;
  stats.device_stages += worker_buffer_stats_.device_stages;

  // Hand the worker's trace lane to the runtime for export.  Clock
  // calibration is copied from the rank tracer now (post-join): the worker
  // shares the rank's process clock, and the rank tracer carries the final
  // calibration including end-of-run drift.
  if (worker_env_.tracer) {
    if (const instrument::Tracer* rank_tracer = instrument::CurrentTracer()) {
      worker_env_.tracer->SetClockCalibration(rank_tracer->ClockOffsetNs(),
                                              rank_tracer->ClockMinRttNs());
      worker_env_.tracer->SetClockDrift(rank_tracer->ClockDriftNs());
    }
    if (instrument::RankEnv* env = instrument::CurrentEnv()) {
      env->extra_tracers.push_back(worker_env_.tracer);
    }
  }

  if (auto* metrics = instrument::CurrentMetrics()) {
    metrics->MergeFrom(worker_metrics_);
    // Overlap won: worker seconds that did NOT stall the rank thread.
    const double offloaded = OffloadedSeconds();
    const double overlap = std::max(0.0, offloaded - queue_wait_seconds_);
    metrics->Add("pipeline.overlap_seconds", overlap);
    metrics->Set("insitu.offloaded_share",
                 offloaded > 0.0 ? overlap / offloaded : 0.0);
  }

  RethrowWorkerError();
}

}  // namespace nek_sensei
