#include "instrument/rank_env.hpp"

#include "instrument/flight_recorder.hpp"
#include "instrument/metrics.hpp"
#include "instrument/tracer.hpp"

namespace instrument {

namespace {
thread_local RankEnv* g_env = nullptr;
}  // namespace

RankEnv* CurrentEnv() { return g_env; }

RankScope::RankScope(RankEnv* env) : env_(env), previous_(g_env) {
  g_env = env_;
  if (env_) env_->busy.Resume();
}

RankScope::~RankScope() {
  if (env_) env_->busy.Pause();
  g_env = previous_;
}

MemoryTracker* CurrentTracker() { return g_env ? &g_env->memory : nullptr; }

Tracer* CurrentTracer() { return g_env ? g_env->tracer.get() : nullptr; }

MetricsRegistry* CurrentMetrics() {
  return g_env ? g_env->metrics.get() : nullptr;
}

FlightRecorder* CurrentFlightRecorder() {
  return g_env ? g_env->flightrec.get() : nullptr;
}

}  // namespace instrument
