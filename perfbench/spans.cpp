#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

namespace perfbench {

namespace {

// Index (into the active log) of the innermost open span on this thread.
// Spans nest strictly per thread, so the outermost close restores -1.
thread_local int t_open_span = -1;

}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int SpanLog::Open(const std::string& name, int id, int thread, int parent,
                  std::int64_t start_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, id, thread, parent, start_ns, start_ns});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::Close(int index, int id, std::int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  SpanRecord& span = spans_.at(static_cast<std::size_t>(index));
  span.id = id;
  span.end_ns = end_ns;
}

std::vector<SpanRecord> SpanLog::Spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

ScopedSpan::ScopedSpan(SpanLog* log, const std::string& name, int id,
                       int thread) {
  if (log == nullptr || !log->Enabled()) return;
  log_ = log;
  id_ = id;
  previous_ = t_open_span;
  index_ = log->Open(name, id, thread, previous_, NowNs());
  t_open_span = index_;
}

void ScopedSpan::End() {
  if (log_ == nullptr) return;
  log_->Close(index_, id_, NowNs());
  t_open_span = previous_;
  log_ = nullptr;
}

std::vector<std::int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const SpanRecord& span : spans) {
    if (span.parent < 0 ||
        static_cast<std::size_t>(span.parent) >= spans.size()) {
      continue;
    }
    const SpanRecord& parent = spans[static_cast<std::size_t>(span.parent)];
    const std::int64_t lo = std::max(span.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(lo, hi);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans[i].start_ns;
    for (const auto& [lo, hi] : intervals) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::map<std::string, std::int64_t> SelfTimeByName(
    const std::vector<SpanRecord>& spans) {
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  std::map<std::string, std::int64_t> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    by_name[spans[i].name] += self[i];
  }
  return by_name;
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanRecord>& spans,
                      const std::string& label) {
  std::ofstream out(path);
  if (!out) return false;
  std::int64_t base = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i == 0 || spans[i].start_ns < base) base = spans[i].start_ns;
  }
  out << "{\"otherData\":{\"run\":\"" << label << "\"},\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << s.thread
        << ",\"ts\":" << static_cast<double>(s.start_ns - base) * 1e-3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
        << ",\"args\":{\"step\":" << s.id << ",\"span\":" << i
        << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
