// Asynchronous in situ executor (DESIGN.md §3b).
//
// The sync bridge runs the whole SENSEI update — grid build, rendering,
// compositing, checkpoint writes, SST marshal+send — inline on the rank
// thread, so every analysis second lands on the solver's critical path
// (the Catalyst overhead of Fig 2).  The async pipeline moves everything
// that does not need the device off that path: at each triggering step
// boundary the rank thread captures the due fields with the single
// mandatory D2H copy into a bounded set of staging slots (depth 2 = double
// buffering), then hands the snapshot to a dedicated per-rank worker
// thread that runs the full Bridge::Update over it while the rank starts
// the next solver step.
//
// Ownership model (what keeps this data-race-free):
//  - Slot payloads are exchanged by message passing: the mutex-guarded
//    in-flight flags are the mailbox, and their transitions provide the
//    happens-before edge.  The rank thread owns a slot from the moment the
//    flag reads false until it enqueues the index; the worker owns it
//    until it clears the flag.
//  - All device work (derived-field kernels, the pack kernel, the D2H)
//    stays on the rank thread: device launch stats and the derived-field
//    collectives are rank-owned.  The worker touches host memory only.
//  - The worker runs under its own instrument::RankEnv (same rank id, its
//    own MemoryTracker and, when the run has them, MetricsRegistry and
//    tracer lane) installed via instrument::RankScope, so the per-rank
//    single-owner structures are never shared between the two threads;
//    the worker's attribution is folded back into the rank registry/stats
//    at Shutdown, after the join.
//  - Analyses execute against a dedicated analysis communicator (a Split
//    of the stepping communicator with identical rank numbering), so the
//    worker's collectives can never interleave with the rank thread's
//    solver collectives on one mailbox.
//
// Backpressure: Submit blocks (timed as pipeline.queue_wait_seconds) when
// every slot is in flight — including when the in transit SST staging
// queue stalls the worker, which folds transport backpressure into slot
// reuse instead of growing an unbounded queue.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/buffer.hpp"
#include "core/lock_ranks.hpp"
#include "core/nek_data_adaptor.hpp"
#include "core/thread_annotations.hpp"
#include "instrument/metrics.hpp"
#include "instrument/provenance.hpp"
#include "instrument/rank_env.hpp"
#include "mpimini/comm.hpp"
#include "sensei/configurable_analysis.hpp"

namespace nek_sensei {

/// Trace-lane tid offset for async worker threads: rank r's worker records
/// as tid r + kWorkerTidOffset so worker lanes sort below the rank lanes in
/// the merged timeline without colliding with any real rank id.
inline constexpr int kWorkerTidOffset = 1000;

/// DataAdaptor over one captured snapshot: serves the analyses on the
/// worker thread from host staging buffers the rank thread filled at the
/// step boundary.  Geometry (grid, metadata) is read from the solver's
/// const mesh/rule/config, which the solver never mutates while stepping.
class SnapshotDataAdaptor final : public sensei::DataAdaptor {
 public:
  struct Field {
    std::string name;
    /// Component count, or 0 when capture found no such array (the
    /// AddArray -> false path of the live adaptor, preserved).
    int components = 0;
    /// Host staging slot; the allocation is reused across triggers.
    core::Buffer data;
  };

  SnapshotDataAdaptor(nekrs::FlowSolver& solver, mpimini::Comm comm);

  /// Borrow the current job's captured fields (owned by the slot).
  void SetSnapshot(const std::vector<Field>* fields) { fields_ = fields; }

  int GetNumberOfMeshes() override { return 1; }
  sensei::MeshMetadata GetMeshMetadata(int id) override;
  std::shared_ptr<svtk::UnstructuredGrid> GetMesh(int id) override;
  bool AddArray(svtk::UnstructuredGrid& mesh, const std::string& name,
                svtk::Centering centering) override;
  void ReleaseData() override;

 private:
  nekrs::FlowSolver* solver_;
  const std::vector<Field>* fields_ = nullptr;
  std::shared_ptr<svtk::UnstructuredGrid> mesh_;  // rebuilt per trigger
};

/// Per-rank bounded-depth async executor.  Constructed on the rank thread
/// (which becomes the submitting side); all public methods are rank-thread
/// only except the const atomic readers.
class AsyncPipeline {
 public:
  /// `analysis` must already be initialized and must have been constructed
  /// over `analysis_comm` (the dedicated Split); `live_data` supplies the
  /// derived-fields switch so SetDerivedFieldsEnabled keeps working.
  AsyncPipeline(nekrs::FlowSolver& solver,
                sensei::ConfigurableAnalysis& analysis,
                const NekDataAdaptor& live_data, mpimini::Comm analysis_comm,
                int depth);
  ~AsyncPipeline();

  AsyncPipeline(const AsyncPipeline&) = delete;
  AsyncPipeline& operator=(const AsyncPipeline&) = delete;

  /// Snapshot the fields due at `step` and enqueue the update; returns
  /// immediately unless every slot is in flight.  No-op (and no slot
  /// traffic) when nothing is due — matching the sync no-op path.  The
  /// return value is sticky health, not this step's result: false once any
  /// offloaded Execute has failed.  Worker exceptions are rethrown here.
  bool Submit(int step, double time);

  /// Drain the queue, run ConfigurableAnalysis::Finalize as the last
  /// worker job (single-owner bindings stay valid), join the worker, and
  /// fold its attribution into the calling rank: metrics registry
  /// (MergeFrom), buffer stats, pipeline.overlap_seconds and
  /// insitu.offloaded_share.  Idempotent; rethrows a pending worker error.
  void Shutdown();

  /// Cumulative wall seconds of offloaded updates (what the worker's
  /// bridge.update spans add up to).  Readable from the rank thread at any
  /// time.
  [[nodiscard]] double OffloadedSeconds() const {
    return static_cast<double>(offloaded_ns_.load(std::memory_order_relaxed)) *
           1e-9;
  }

  /// The worker's host high-water mark; meaningful after Shutdown.
  [[nodiscard]] std::size_t WorkerHostPeakBytes() const {
    return joined_ ? worker_env_.memory.HostPeakBytes() : 0;
  }

  /// Rank-thread seconds spent blocked waiting for a free slot.
  [[nodiscard]] double QueueWaitSeconds() const { return queue_wait_seconds_; }

  [[nodiscard]] int Depth() const { return static_cast<int>(slots_.size()); }

 private:
  struct Slot {
    int step = 0;
    double time = 0.0;
    /// Causal context captured at Submit: the worker re-installs it before
    /// Execute so SST/checkpoint writes stamp the *originating* step even
    /// though they run `depth` steps behind the solver.
    instrument::StepProvenance provenance;
    std::vector<SnapshotDataAdaptor::Field> fields;
  };

  /// Rank thread: device capture of the arrays due at `step` into `slot`,
  /// reusing the slot's buffers by array name.
  void CaptureSnapshot(Slot& slot, int step, double time);

  void WorkerMain();

  /// Rethrow a worker-side exception on the rank thread, if one is parked.
  void RethrowWorkerError();

  nekrs::FlowSolver& solver_;
  sensei::ConfigurableAnalysis& analysis_;
  const NekDataAdaptor& live_data_;
  mpimini::Comm analysis_comm_;

  /// Slot payloads: deliberately unannotated — ownership alternates between
  /// the two threads through the in_flight_ mailbox below (message
  /// passing), never concurrent access.
  std::vector<Slot> slots_;
  std::size_t next_slot_ = 0;  ///< rank thread only: round-robin cursor

  core::Mutex mutex_{core::lock_rank::kCoreAsyncPipelineMutex};
  core::CondVar slot_freed_cv_;  ///< worker -> rank: a slot went idle
  core::CondVar work_cv_;        ///< rank -> worker: job queued / drain
  std::vector<std::uint8_t> in_flight_ NSM_GUARDED_BY(mutex_);
  std::deque<std::size_t> queue_ NSM_GUARDED_BY(mutex_);
  bool drain_requested_ NSM_GUARDED_BY(mutex_) = false;
  std::exception_ptr worker_error_ NSM_GUARDED_BY(mutex_);

  std::atomic<bool> execute_failed_{false};
  std::atomic<std::int64_t> offloaded_ns_{0};

  /// The worker's identity: same rank id, own single-owner structures.
  instrument::RankEnv worker_env_;
  /// Published by the worker right before it exits; the join makes them
  /// safe to read from the rank thread in Shutdown.
  core::BufferStats worker_buffer_stats_;
  instrument::MetricsSnapshot worker_metrics_;

  double queue_wait_seconds_ = 0.0;  ///< rank thread only
  std::thread worker_;
  bool joined_ = false;  ///< rank thread only
};

}  // namespace nek_sensei
