#include "instrument/flight_recorder.hpp"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <mutex>

#include "core/lock_ranks.hpp"
#include "core/thread_annotations.hpp"
#include "instrument/report.hpp"
#include "instrument/tracer.hpp"

namespace instrument {

namespace {

// Process-wide registry of live recorders, so the crash hooks can dump
// every rank's ring without the runtime threading pointers into them.
// Function-local static: recorders are always scoped inside a run/test, so
// they unregister before static destruction.
struct Registry {
  core::Mutex mutex{core::lock_rank::kInstrumentFlightRecorderMutex};
  std::vector<FlightRecorder*> recorders NSM_GUARDED_BY(mutex);
  std::string dump_dir NSM_GUARDED_BY(mutex) = ".";
};

Registry& TheRegistry() {
  static Registry registry;
  return registry;
}

void RegisterRecorder(FlightRecorder* recorder) {
  Registry& registry = TheRegistry();
  core::MutexLock lock(registry.mutex);
  registry.recorders.push_back(recorder);
}

void UnregisterRecorder(FlightRecorder* recorder) {
  Registry& registry = TheRegistry();
  core::MutexLock lock(registry.mutex);
  std::erase(registry.recorders, recorder);
}

// One dump per process death: the runtime's error path, the terminate
// handler, and the SIGABRT handler can all fire for the same failure.
std::atomic<bool> g_crash_dumped{false};

void DumpOnceForCrash() {
  if (g_crash_dumped.exchange(true)) return;
  DumpFlightRecorders();
}

std::terminate_handler g_previous_terminate = nullptr;

[[noreturn]] void FlightRecorderTerminate() {
  DumpOnceForCrash();
  if (g_previous_terminate != nullptr) g_previous_terminate();
  std::abort();
}

// Not async-signal-safe (takes a mutex, allocates); best-effort by design —
// see the header.  Re-raises with the default handler so the process still
// dies with SIGABRT semantics (core dump, nonzero wait status).
void FlightRecorderAbortHandler(int) {
  DumpOnceForCrash();
  std::signal(SIGABRT, SIG_DFL);
  std::raise(SIGABRT);
}

std::once_flag g_install_once;

}  // namespace

std::string_view FlightEventKindName(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kStep: return "step";
    case FlightEventKind::kStall: return "stall";
    case FlightEventKind::kQueueBlock: return "queue_block";
    case FlightEventKind::kCodecFallback: return "codec_fallback";
    case FlightEventKind::kCommWait: return "comm_wait";
    case FlightEventKind::kError: return "error";
    case FlightEventKind::kAnomaly: return "anomaly";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(int rank, std::size_t capacity)
    : rank_(rank), ring_(capacity ? capacity : 1) {
  RegisterRecorder(this);
}

FlightRecorder::~FlightRecorder() { UnregisterRecorder(this); }

void FlightRecorder::Record(FlightEventKind kind, std::string_view detail,
                            std::int32_t step, double value) {
  const std::uint64_t ticket =
      head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring_[static_cast<std::size_t>(ticket % ring_.size())];
  // Mark the slot torn while the fields change; readers holding the old
  // sequence re-check it after their field reads and discard the slot.
  slot.seq.store(kWriting, std::memory_order_release);
  slot.kind.store(static_cast<std::uint8_t>(kind),
                  std::memory_order_relaxed);
  slot.step.store(step, std::memory_order_relaxed);
  slot.ts_ns.store(Tracer::NowNs(), std::memory_order_relaxed);
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  slot.value_bits.store(bits, std::memory_order_relaxed);
  char buf[kDetailCapacity] = {};
  const std::size_t n = detail.size() < kDetailCapacity - 1
                            ? detail.size()
                            : kDetailCapacity - 1;
  std::memcpy(buf, detail.data(), n);
  for (std::size_t w = 0; w < kDetailCapacity / 8; ++w) {
    std::uint64_t word = 0;
    std::memcpy(&word, buf + w * 8, 8);
    slot.detail[w].store(word, std::memory_order_relaxed);
  }
  slot.seq.store(ticket + 1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::Events() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const auto cap = static_cast<std::uint64_t>(ring_.size());
  const std::uint64_t first = head > cap ? head - cap : 0;
  std::vector<FlightEvent> out;
  out.reserve(static_cast<std::size_t>(head - first));
  for (std::uint64_t t = first; t < head; ++t) {
    const Slot& slot = ring_[static_cast<std::size_t>(t % cap)];
    const std::uint64_t seq = slot.seq.load(std::memory_order_acquire);
    // Anything but our ticket means the slot is mid-write or was already
    // overwritten by a newer event; either way it is not ours to report.
    if (seq != t + 1) continue;
    FlightEvent event;
    event.kind = static_cast<FlightEventKind>(
        slot.kind.load(std::memory_order_relaxed));
    event.step = slot.step.load(std::memory_order_relaxed);
    event.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
    const std::uint64_t bits =
        slot.value_bits.load(std::memory_order_relaxed);
    std::memcpy(&event.value, &bits, sizeof(event.value));
    char buf[kDetailCapacity];
    for (std::size_t w = 0; w < kDetailCapacity / 8; ++w) {
      const std::uint64_t word = slot.detail[w].load(
          std::memory_order_relaxed);
      std::memcpy(buf + w * 8, &word, 8);
    }
    buf[kDetailCapacity - 1] = '\0';
    // Re-check: if a writer claimed the slot during our reads, the fields
    // above may mix two events — drop it.
    if (slot.seq.load(std::memory_order_acquire) != t + 1) continue;
    event.detail = buf;
    out.push_back(std::move(event));
  }
  return out;
}

void RecordFlightEvent(FlightEventKind kind, std::string_view detail,
                       std::int32_t step, double value) {
  if (FlightRecorder* recorder = CurrentFlightRecorder()) {
    recorder->Record(kind, detail, step, value);
  }
}

void SetFlightRecorderDumpDir(std::string dir) {
  Registry& registry = TheRegistry();
  core::MutexLock lock(registry.mutex);
  registry.dump_dir = dir.empty() ? std::string(".") : std::move(dir);
}

std::string FlightRecorderDumpDir() {
  Registry& registry = TheRegistry();
  core::MutexLock lock(registry.mutex);
  return registry.dump_dir;
}

bool WriteFlightRecorderJson(const std::string& path,
                             const FlightRecorder& recorder) {
  const std::vector<FlightEvent> events = recorder.Events();
  const std::uint64_t total = recorder.TotalEvents();
  AtomicFile file(path);
  if (!file.Ok()) return false;
  std::ostream& out = file.Stream();
  out << "{\n  \"rank\": " << recorder.Rank()
      << ",\n  \"capacity\": " << recorder.Capacity()
      << ",\n  \"total_events\": " << total << ",\n  \"dropped_events\": "
      << (total > events.size()
              ? total - static_cast<std::uint64_t>(events.size())
              : 0)
      << ",\n  \"events\": [";
  bool comma = false;
  for (const FlightEvent& event : events) {
    if (comma) out << ",";
    comma = true;
    out << "\n    {\"kind\": \"" << FlightEventKindName(event.kind)
        << "\", \"ts_ns\": " << event.ts_ns << ", \"step\": " << event.step
        << ", \"value\": " << JsonNumber(event.value) << ", \"detail\": \""
        << JsonEscape(event.detail) << "\"}";
  }
  out << "\n  ]\n}\n";
  return file.Commit();
}

bool DumpFlightRecorders() {
  Span span("flightrec.dump");
  Registry& registry = TheRegistry();
  core::MutexLock lock(registry.mutex);
  bool ok = true;
  for (const FlightRecorder* recorder : registry.recorders) {
    const std::string path = registry.dump_dir + "/flightrec_rank" +
                             std::to_string(recorder->Rank()) + ".json";
    if (!WriteFlightRecorderJson(path, *recorder)) {
      std::fprintf(stderr,
                   "warning: failed to write flight recorder dump %s\n",
                   path.c_str());
      ok = false;
    }
  }
  if (!registry.recorders.empty()) {
    std::fprintf(stderr, "[flightrec] dumped %zu rank ring(s) to %s\n",
                 registry.recorders.size(), registry.dump_dir.c_str());
    std::fflush(stderr);
  }
  return ok;
}

void InstallFlightRecorderCrashDump() {
  std::call_once(g_install_once, [] {
    g_previous_terminate = std::set_terminate(FlightRecorderTerminate);
    std::signal(SIGABRT, FlightRecorderAbortHandler);
  });
}

}  // namespace instrument
