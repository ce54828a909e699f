// Wall-clock and per-rank busy-time measurement.
//
// The reproduction runs "MPI ranks" as threads of one process on a host
// with a few cores; when ranks outnumber the cores they time-slice, so
// wall-clock time of a whole run partly serializes them.  The figures in the
// paper plot per-rank (per-node) quantities, so each rank thread carries a
// BusyClock that accumulates only the time this rank actually spent working.
// See DESIGN.md §5 for the methodology discussion.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace instrument {

/// Monotonic wall-clock stopwatch.
///
/// Starts running on construction; `Elapsed()` may be called repeatedly,
/// `Restart()` resets the origin.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Seconds elapsed since construction or the last Restart().
  [[nodiscard]] double Elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  void Restart() { start_ = Clock::now(); }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates the active ("busy") time of one rank thread, measured on the
/// thread's CPU-time clock (CLOCK_THREAD_CPUTIME_ID).
///
/// Using per-thread CPU time rather than wall time is essential here: rank
/// "processes" are threads sharing the host's cores, so wall time between
/// two points can include slices spent running *other* ranks (whenever
/// ranks outnumber cores) and time blocked on them.  CPU time counts
/// only cycles this rank actually consumed — the per-node quantity the
/// paper's scaling figures plot.  Blocking waits (condition variables)
/// consume no CPU, but mpimini still brackets them with Pause()/Resume()
/// so the accounting stays explicit.
///
/// Resume(), Pause(), and Seconds() while running must be called from the
/// owning thread (the CPU-time clock is per calling thread); once paused,
/// Seconds() may be read from anywhere (the runtime reads it after join).
class BusyClock {
 public:
  /// Begin accumulating. No-op if already running.
  void Resume() {
    if (running_) return;
    running_ = true;
    resume_at_ = ThreadCpuSeconds();
  }

  /// Stop accumulating. No-op if not running.
  void Pause() {
    if (!running_) return;
    accum_ += ThreadCpuSeconds() - resume_at_;
    running_ = false;
  }

  /// Total busy CPU seconds accumulated so far (includes the open section
  /// when called from the owning thread).
  [[nodiscard]] double Seconds() const {
    double s = accum_;
    if (running_) s += ThreadCpuSeconds() - resume_at_;
    return s;
  }

  void Reset() {
    accum_ = 0.0;
    if (running_) resume_at_ = ThreadCpuSeconds();
  }

  /// CPU seconds consumed by the calling thread.
  static double ThreadCpuSeconds();

 private:
  double accum_ = 0.0;
  bool running_ = false;
  double resume_at_ = 0.0;
};

/// Named accumulating timers, one registry per rank.
///
/// `Accumulate("pressure_solve", dt)` adds to a named bucket; buckets are
/// reported at the end of a run.  Not thread-safe by design: each rank owns
/// its registry.
class TimingRegistry {
 public:
  void Accumulate(const std::string& name, double seconds) {
    entries_[name].seconds += seconds;
    entries_[name].count += 1;
  }

  struct Entry {
    double seconds = 0.0;
    std::uint64_t count = 0;
  };

  [[nodiscard]] const std::map<std::string, Entry>& Entries() const {
    return entries_;
  }

  [[nodiscard]] double Total(const std::string& name) const {
    auto it = entries_.find(name);
    return it == entries_.end() ? 0.0 : it->second.seconds;
  }

  void Clear() { entries_.clear(); }

 private:
  std::map<std::string, Entry> entries_;
};

/// RAII scope that adds its lifetime to a TimingRegistry bucket.
class ScopedTimer {
 public:
  ScopedTimer(TimingRegistry& registry, std::string name)
      : registry_(registry), name_(std::move(name)) {}
  ~ScopedTimer() { Stop(); }

  /// Close the timed section now (idempotent); lets callers exclude
  /// teardown that happens later in the same scope.
  void Stop() {
    if (stopped_) return;
    stopped_ = true;
    registry_.Accumulate(name_, timer_.Elapsed());
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  TimingRegistry& registry_;
  std::string name_;
  WallTimer timer_;
  bool stopped_ = false;
};

/// Running univariate statistics (Welford).
class RunningStats {
 public:
  void Add(double x) {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    if (x < min_ || n_ == 1) min_ = x;
    if (x > max_ || n_ == 1) max_ = x;
  }

  [[nodiscard]] std::uint64_t Count() const { return n_; }
  [[nodiscard]] double Mean() const { return mean_; }
  [[nodiscard]] double Min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double Max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double Variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double StdDev() const;

  /// Fold another accumulator into this one (Chan et al. parallel update),
  /// as if every sample of `other` had been Add()ed here.
  void Merge(const RunningStats& other);

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Nearest-rank percentile of a **sorted** ascending sample
/// (q in [0, 1]; q=0.5 is the median).  Returns 0 for an empty sample.
[[nodiscard]] double Percentile(const std::vector<double>& sorted, double q);

}  // namespace instrument
