// The benchmark's own span recorder.  Spans are taken around the public
// calls into each layer (never inside the program), kept in memory, and
// written out when the run ends.  All spans of one step share the step
// number as their id; each span names the span that was open on its thread
// when it began as its parent.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Process-wide monotonic clock, in nanoseconds.  Every timestamp the
/// benchmark compares across threads comes from this one clock.
[[nodiscard]] std::int64_t NowNs();

struct SpanRecord {
  std::string name;
  int id = -1;      ///< step number
  int thread = -1;  ///< rank id; async workers are rank + kWorkerLane
  int parent = -1;  ///< index of the parent span, -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

inline constexpr int kWorkerLane = 1000;

/// Thread-safe, append-only span store.  A disabled log records nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool Enabled() const { return enabled_; }

  int Open(const std::string& name, int id, int thread, int parent,
           std::int64_t start_ns);
  void Close(int index, int id, std::int64_t end_ns);

  [[nodiscard]] std::vector<SpanRecord> Spans() const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span on the calling thread.  Its parent is the innermost span still
/// open on this thread.  No-op when `log` is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, int id, int thread);
  ~ScopedSpan() { End(); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// For spans whose step is known only at the end (adios.next_step).
  void SetId(int id) { id_ = id; }
  void End();

 private:
  SpanLog* log_ = nullptr;
  int index_ = -1;
  int id_ = -1;
  int previous_ = -1;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
[[nodiscard]] std::vector<std::int64_t> SelfTimesNs(
    const std::vector<SpanRecord>& spans);

/// Sum of self times per span name.
[[nodiscard]] std::map<std::string, std::int64_t> SelfTimeByName(
    const std::vector<SpanRecord>& spans);

/// Chrome trace-event JSON ("X" events, one lane per thread, args carry the
/// step id and parent).  Returns false on I/O failure.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecord>& spans,
                      const std::string& label);

}  // namespace perfbench
