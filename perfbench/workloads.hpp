// The benchmark's workloads and the trial runner.
//
// A trial is one closed-loop simulation: set up, take `steps` solver steps
// (each step starts when the previous one finished), finalize.  Each
// workload has its own rank body built only from public layer calls —
// mpimini::Runtime::Run, occamini::Device, nekrs::FlowSolver::Step,
// nek_sensei::Bridge::Update/Finalize, adios::SstReader::NextStep,
// sensei::InTransitDataAdaptor::SetStep and
// sensei::ConfigurableAnalysis::Execute — mirroring RunInSitu/RunInTransit
// with the program's own tracer and metrics plane off.  Every timing comes
// from the benchmark's clocks around those calls plus public counters.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "nekrs/flow_solver.hpp"
#include "spans.hpp"

namespace perfbench {

enum class Pipeline { kInSituSync, kInSituAsync, kInTransit };

struct Workload {
  std::string name;
  Pipeline pipeline = Pipeline::kInSituSync;
  bool rbc = false;   ///< Rayleigh-Benard; otherwise the pb146 stand-in
  int sim_ranks = 4;
  int steps = 60;     ///< solver steps per trial
  /// Step s triggers the in situ layer when s % frequency == 0.
  int frequency = 5;
  int views = 1;      ///< images per trigger; 0 = VTU checkpoint output

  /// Threads a trial runs: sim ranks + async workers + endpoint ranks.
  [[nodiscard]] int Threads() const;
  [[nodiscard]] int Triggers() const { return steps / frequency; }
  [[nodiscard]] int WorldRanks() const {
    return sim_ranks + (pipeline == Pipeline::kInTransit ? 1 : 0);
  }
};

[[nodiscard]] const std::vector<Workload>& Workloads();
/// nullptr for an unknown name.
[[nodiscard]] const Workload* FindWorkload(const std::string& name);

/// --seed n selects input variant n mod kSeedVariants; references.txt holds
/// the reference outputs of every variant.
inline constexpr std::uint64_t kSeedVariants = 32;
[[nodiscard]] unsigned SeedVariant(std::uint64_t seed);

/// The generated flow configuration — the only input the program receives.
/// pb146: the variant drives the pebble jitter (PebbleBedOptions::seed).
/// RBC: the variant seeds a small temperature noise added through
/// FlowConfig::initial_condition (periodic in x/y, zero on the plates).
[[nodiscard]] nekrs::FlowConfig MakeFlowConfig(const Workload& workload,
                                               std::uint64_t seed);

struct TrialOptions {
  bool trace = false;  ///< record spans and per-layer counters
  /// Register the timing wrappers around the analysis adaptors.  false runs
  /// the program's built-in XML factories (used to prove the wrappers do
  /// not change a single output byte).
  bool wrap = true;
  std::string out_dir;  ///< images / checkpoints land here
};

struct TrialResult {
  double setup_s = 0.0;
  double time_to_solution_s = 0.0;
  std::vector<double> step_ms;  ///< per step: slowest sim rank Step+Update
  std::vector<double> e2e_ms;   ///< per trigger: step produced -> output
  double storage_bytes = 0.0;
  double sim_host_peak_mb = 0.0;

  /// Final kinetic energy (pb146) or Nusselt number (RBC), and max |div u|.
  double quantity = 0.0;
  double max_divergence = 0.0;

  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;

  /// FNV-1a over the names and bytes of every file the trial wrote.
  std::uint64_t output_hash = 0;

  /// Per-layer metrics (traced trials only).
  std::map<std::string, double> layers;
  std::vector<SpanRecord> spans;
};

/// Unit of every per-layer metric a traced run reports (TrialResult::layers
/// plus the run-level trace.overhead_pct).
[[nodiscard]] const std::map<std::string, std::string>& LayerMetricUnits();

/// Run one trial.  Throws on setup errors; operation failures and output
/// check failures are returned in `failed`/`failures`.
[[nodiscard]] TrialResult RunTrial(const Workload& workload,
                                   std::uint64_t seed,
                                   const TrialOptions& options);

}  // namespace perfbench
