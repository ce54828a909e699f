// Per-rank tracked-allocation accounting.
//
// The paper reports the memory high-water-mark of each node (Fig 3, Fig 6).
// Because our ranks are threads sharing one OS process, RSS cannot separate
// them; instead every substantive buffer in the system (solver fields, device
// buffers, host staging copies, marshaling buffers, checkpoint buffers)
// registers its bytes with the MemoryTracker of the rank that owns it, and
// the tracker maintains current usage and the high-water-mark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/thread_annotations.hpp"

namespace instrument {

/// Tracks current and peak bytes for one rank, broken down by category.
///
/// Categories are free-form labels ("field", "device", "staging",
/// "marshal", "checkpoint", ...) so reports can attribute the high-water
/// mark to subsystems.
///
/// Not thread-safe by design: each rank thread owns its tracker.  The
/// single-owner contract is machine-checked under NSM_THREAD_CHECKS.
class MemoryTracker {
 public:
  /// Record an allocation of `bytes` under `category`.
  void Allocate(const std::string& category, std::size_t bytes);

  /// Record a deallocation previously reported via Allocate().
  void Release(const std::string& category, std::size_t bytes);

  [[nodiscard]] std::size_t CurrentBytes() const { return current_; }
  [[nodiscard]] std::size_t PeakBytes() const { return peak_; }

  /// Host-memory-only counters: everything except the "device" category
  /// (the paper's Figs 3/6 plot CPU memory; simulated GPU memory must not
  /// leak into them).
  [[nodiscard]] std::size_t HostCurrentBytes() const { return host_current_; }
  [[nodiscard]] std::size_t HostPeakBytes() const { return host_peak_; }

  /// Current bytes attributed to one category (0 if unknown).
  [[nodiscard]] std::size_t CurrentBytes(const std::string& category) const;

  /// Peak bytes a single category reached on its own.
  [[nodiscard]] std::size_t PeakBytes(const std::string& category) const;

  /// Snapshot of per-category current usage.
  [[nodiscard]] std::map<std::string, std::size_t> ByCategory() const;

  /// Reset all counters (used between benchmark configurations).
  void Reset();

  /// Release the single-owner binding WITHOUT touching the counters: the
  /// explicit handoff used when a worker thread's tracker is folded back
  /// into its rank after a join (async pipeline shutdown) and later
  /// releases may land from the rank thread.
  void ReleaseOwnership() { owner_.Reset(); }

 private:
  struct Cat {
    std::size_t current = 0;
    std::size_t peak = 0;
  };
  std::map<std::string, Cat> categories_;
  std::size_t current_ = 0;
  std::size_t peak_ = 0;
  std::size_t host_current_ = 0;
  std::size_t host_peak_ = 0;
  /// Single-owner audit (no-op unless NSM_THREAD_CHECKS).
  core::ThreadOwnershipChecker owner_;
};

/// The category treated as device (GPU) memory by the host counters.
inline constexpr const char* kDeviceCategory = "device";

/// The calling thread's tracker (its RankEnv's, see rank_env.hpp), or
/// nullptr outside a rank.
///
/// Code that allocates large buffers calls CurrentTracker() and reports to
/// it when one is present, so the same library code runs tracked inside a
/// rank and untracked in plain unit tests.
MemoryTracker* CurrentTracker();

/// A contiguous buffer of T whose bytes are reported to the rank's
/// MemoryTracker for its whole lifetime.
///
/// This is the allocation primitive used for every buffer that the paper's
/// memory figures would see.  It deliberately does not support incremental
/// growth: solver and in situ buffers are sized once.
template <typename T>
class TrackedBuffer {
 public:
  TrackedBuffer() = default;

  TrackedBuffer(std::string category, std::size_t count)
      : category_(std::move(category)), data_(count) {
    tracker_ = CurrentTracker();
    if (tracker_) tracker_->Allocate(category_, Bytes());
  }

  TrackedBuffer(TrackedBuffer&& other) noexcept { *this = std::move(other); }

  TrackedBuffer& operator=(TrackedBuffer&& other) noexcept {
    ReleaseNow();
    category_ = std::move(other.category_);
    data_ = std::move(other.data_);
    tracker_ = other.tracker_;
    other.tracker_ = nullptr;
    other.data_.clear();
    return *this;
  }

  TrackedBuffer(const TrackedBuffer&) = delete;
  TrackedBuffer& operator=(const TrackedBuffer&) = delete;

  ~TrackedBuffer() { ReleaseNow(); }

  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] std::size_t Bytes() const { return data_.size() * sizeof(T); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }
  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

 private:
  void ReleaseNow() {
    if (tracker_ && !data_.empty()) tracker_->Release(category_, Bytes());
    tracker_ = nullptr;
  }

  std::string category_;
  std::vector<T> data_;
  MemoryTracker* tracker_ = nullptr;
};

}  // namespace instrument
