#include "mpimini/runtime.hpp"

#include <cstdlib>
#include <exception>
#include <thread>

#include "mpimini/comm_state.hpp"

namespace mpimini {

double RunResult::MeanBusySeconds() const {
  if (ranks.empty()) return 0.0;
  double sum = 0.0;
  for (const RankMetrics& r : ranks) sum += r.busy_seconds;
  return sum / static_cast<double>(ranks.size());
}

std::size_t RunResult::MaxPeakBytes() const {
  std::size_t peak = 0;
  for (const RankMetrics& r : ranks) peak = std::max(peak, r.peak_bytes);
  return peak;
}

std::size_t RunResult::TotalPeakBytes() const {
  std::size_t total = 0;
  for (const RankMetrics& r : ranks) total += r.peak_bytes;
  return total;
}

std::vector<const instrument::Tracer*> RunResult::TracerPointers() const {
  std::vector<const instrument::Tracer*> out;
  out.reserve(tracers.size());
  for (const auto& t : tracers) out.push_back(t.get());
  return out;
}

RunResult Runtime::Run(int nranks, const std::function<void(Comm&)>& body) {
  return Run(nranks, RunSettings{}, body);
}

RunResult Runtime::Run(int nranks, const RunSettings& settings,
                       const std::function<void(Comm&)>& body) {
  if (nranks < 1) throw std::invalid_argument("mpimini: nranks must be >= 1");

  // Crash forensics: from the first run on, an abort or uncaught exception
  // dumps every live flight-recorder ring (hook install is idempotent).
  instrument::InstallFlightRecorderCrashDump();
  if (const char* dir = std::getenv("NSM_FLIGHTREC_DIR")) {
    instrument::SetFlightRecorderDumpDir(dir);
  }

  // Build the world communicator via a size-preserving Split of a fresh
  // single-purpose state: we reuse Comm's private constructor through a
  // friend-free trick — construct the shared state here.
  struct WorldMaker : Comm {
    WorldMaker(std::shared_ptr<detail::CommState> s, int r) : Comm(s, r) {}
  };

  auto world_state = std::make_shared<detail::CommState>(nranks);

  std::vector<std::unique_ptr<RankEnv>> envs;
  envs.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    auto env = std::make_unique<RankEnv>();
    env->rank = r;
    if (settings.trace) {
      // Allocated on the launching thread, deliberately outside any rank's
      // MemoryTracker: trace storage must not pollute the paper's per-rank
      // memory figures.
      env->tracer = std::make_shared<instrument::Tracer>(r, settings.tracer);
    }
    if (settings.metrics) {
      // Same rationale as the tracer: allocated outside rank threads so
      // the metric plane never shows up in per-rank memory figures.
      env->metrics = std::make_shared<instrument::MetricsRegistry>();
    }
    // Always-on (unlike tracer/metrics): the whole point of the flight
    // recorder is to have evidence for failures nobody opted into.  Events
    // are rare — step boundaries, stalls, errors — so the default few
    // hundred slots hold minutes of history.
    env->flightrec = std::make_shared<instrument::FlightRecorder>(r);
    envs.push_back(std::move(env));
  }

  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));

  instrument::WallTimer wall;
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      instrument::RankScope rank_scope(envs[static_cast<std::size_t>(r)].get());
      Comm comm = WorldMaker(world_state, r);
      try {
        body(comm);
      } catch (const std::exception& e) {
        instrument::RecordFlightEvent(instrument::FlightEventKind::kError,
                                      e.what());
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      } catch (...) {
        instrument::RecordFlightEvent(instrument::FlightEventKind::kError,
                                      "non-std exception");
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_seconds = wall.Elapsed();

  // Dump the forensic rings *before* the rethrow unwinds this frame: the
  // envs (and their recorders) die with it, so the terminate hook alone
  // would arrive too late to see a caught-and-rethrown rank error.
  for (const std::exception_ptr& e : errors) {
    if (e) {
      instrument::DumpFlightRecorders();
      break;
    }
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  RunResult result;
  result.wall_seconds = wall_seconds;
  for (int r = 0; r < nranks; ++r) {
    const RankEnv& env = *envs[static_cast<std::size_t>(r)];
    RankMetrics m;
    m.rank = r;
    m.busy_seconds = env.busy.Seconds();
    m.peak_bytes = env.memory.PeakBytes();
    for (const auto& [name, bytes] : env.memory.ByCategory()) {
      m.peak_by_category[name] = env.memory.PeakBytes(name);
    }
    result.ranks.push_back(std::move(m));
    if (env.tracer) {
      result.tracers.push_back(envs[static_cast<std::size_t>(r)]->tracer);
    }
    for (const auto& extra : env.extra_tracers) {
      if (extra) result.tracers.push_back(extra);
    }
    if (env.metrics) {
      result.metrics.push_back(envs[static_cast<std::size_t>(r)]->metrics);
    }
    result.flight_recorders.push_back(
        envs[static_cast<std::size_t>(r)]->flightrec);
  }
  return result;
}

}  // namespace mpimini
