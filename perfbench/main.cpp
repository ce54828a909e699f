// nsm_perfbench: run one benchmark workload for a time budget and print its
// metrics.
//
//   nsm_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--out DIR] [--references FILE]
//   nsm_perfbench --write-references NAME --variants FIRST LAST [--out DIR]
//
// A run repeats closed-loop trials (set up, step, finalize) until the time
// budget is spent and every reported percentile has kMinBlocks blocks of
// trials with enough samples each; a percentile is the median over its
// blocks.  With --trace 0 every trial is untraced and the run reports the
// end-to-end metrics; with --trace 1 traced and untraced trials alternate,
// the traced ones give the per-layer metrics and the pair gives the tracing
// overhead.
// Every trial's outputs are checked; the last stdout line is one JSON
// object, and the exit code is nonzero when any check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace {

using perfbench::TrialResult;
using perfbench::Workload;

// A run stops starting trials past this, even if a percentile still lacks
// blocks (with no complete block the run fails that check), to stay within
// the caller's per-run limit.
constexpr double kMaxRunSeconds = 60.0;

// The first trials of a process run markedly slower than later ones (first
// touch of allocator arenas and pages, lazily built tables).  Each run
// first repeats untimed trials for at least this long; their outputs are
// still checked.
constexpr int kWarmupTrials = 2;
constexpr double kWarmupSeconds = 3.0;

// Reference tolerances (relative).  The solver is deterministic for a given
// build, so the slack only absorbs rounding-level changes of a later build.
constexpr double kQuantityTolerance = 1e-6;
constexpr double kDivergenceTolerance = 1e-3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_out";
  std::string references = "perfbench/references.txt";
  std::string write_references;
  unsigned first_variant = 0;
  unsigned last_variant = 0;
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: nsm_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR] [--references FILE]\n"
               "       nsm_perfbench --write-references NAME --variants FIRST "
               "LAST [--out DIR]\n"
               "workloads:",
               message);
  for (const Workload& w : perfbench::Workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t ParseUnsigned(const std::string& text, const char* flag) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    Usage((std::string(flag) + " needs a non-negative integer").c_str());
  }
  return std::stoull(text);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  auto value = [&](int& i, const char* flag) -> std::string {
    if (i + 1 >= argc) Usage((std::string(flag) + " needs a value").c_str());
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload") {
      args.workload = value(i, "--workload");
    } else if (arg == "--seed") {
      args.seed = ParseUnsigned(value(i, "--seed"), "--seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      args.seconds = static_cast<double>(
          ParseUnsigned(value(i, "--seconds"), "--seconds"));
      have_seconds = true;
    } else if (arg == "--trace") {
      const std::string v = value(i, "--trace");
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      args.trace = v == "1";
      have_trace = true;
    } else if (arg == "--out") {
      args.out = value(i, "--out");
    } else if (arg == "--references") {
      args.references = value(i, "--references");
    } else if (arg == "--write-references") {
      args.write_references = value(i, "--write-references");
    } else if (arg == "--variants") {
      args.first_variant = static_cast<unsigned>(
          ParseUnsigned(value(i, "--variants"), "--variants"));
      args.last_variant = static_cast<unsigned>(
          ParseUnsigned(value(i, "--variants"), "--variants"));
    } else {
      Usage(("unknown option '" + arg + "'").c_str());
    }
  }
  if (!args.write_references.empty()) return args;
  if (args.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }
  if (args.seconds < 1.0) Usage("--seconds must be at least 1");
  return args;
}

// references.txt: "<workload> <variant> <quantity> <max_divergence>" lines;
// '#' starts a comment.
using References = std::map<std::pair<std::string, unsigned>,
                            std::pair<double, double>>;

References LoadReferences(const std::string& path) {
  References refs;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    unsigned variant = 0;
    double quantity = 0.0;
    double divergence = 0.0;
    if (fields >> name >> variant >> quantity >> divergence) {
      refs[{name, variant}] = {quantity, divergence};
    }
  }
  return refs;
}

bool Within(double value, double reference, double tolerance) {
  return std::isfinite(value) &&
         std::abs(value - reference) <= tolerance * std::abs(reference);
}

int WriteReferences(const Args& args) {
  const Workload* w = perfbench::FindWorkload(args.write_references);
  if (w == nullptr) Usage("unknown workload");
  for (unsigned v = args.first_variant; v <= args.last_variant; ++v) {
    perfbench::TrialOptions options;
    options.out_dir = args.out + "/reference";
    const TrialResult r = perfbench::RunTrial(*w, v, options);
    std::filesystem::remove_all(options.out_dir);
    if (r.failed > 0) {
      std::fprintf(stderr, "variant %u: %s\n", v, r.failures.front().c_str());
      return 1;
    }
    std::printf("%s %u %.17g %.17g\n", w->name.c_str(), v, r.quantity,
                r.max_divergence);
    std::fflush(stdout);
  }
  return 0;
}

struct Outcome {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    failures.push_back(what);
  }
};

// Per-trial step times and step->output latencies.
struct TrialSamples {
  std::vector<std::vector<double>> steps;
  std::vector<std::vector<double>> e2e;

  explicit TrialSamples(const std::vector<TrialResult>& trials) {
    for (const TrialResult& t : trials) {
      steps.push_back(t.step_ms);
      e2e.push_back(t.e2e_ms);
    }
  }
};

int Blocks(const std::vector<std::vector<double>>& trials, double q) {
  int blocks = 0;
  (void)perfbench::BlockPercentile(trials, q, &blocks);
  return blocks;
}

bool EnoughSamples(const Args& args, const std::vector<TrialResult>& untraced,
                   const std::vector<TrialResult>& traced) {
  if (args.trace) return traced.size() >= 2 && untraced.size() >= 2;
  if (untraced.size() < 3) return false;
  const TrialSamples samples(untraced);
  return Blocks(samples.steps, 0.95) >= perfbench::kMinBlocks &&
         Blocks(samples.e2e, 0.90) >= perfbench::kMinBlocks;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (!args.write_references.empty()) return WriteReferences(args);
  const Workload* w = perfbench::FindWorkload(args.workload);
  if (w == nullptr) Usage(("unknown workload '" + args.workload + "'").c_str());

  const References references = LoadReferences(args.references);
  const unsigned variant = perfbench::SeedVariant(args.seed);
  const auto ref = references.find({w->name, variant});

  const std::string run_dir = args.out + "/" + w->name + "-seed" +
                              std::to_string(args.seed) +
                              (args.trace ? "-trace" : "");
  std::filesystem::remove_all(run_dir);

  Outcome outcome;
  std::vector<TrialResult> untraced;
  std::vector<TrialResult> traced;
  std::vector<perfbench::SpanRecord> last_spans;
  std::map<std::string, double> self_ms;  // summed over traced trials
  double traced_steps = 0.0;
  std::uint64_t first_hash = 0;
  const std::int64_t start_ns = perfbench::NowNs();
  auto elapsed = [&] {
    return static_cast<double>(perfbench::NowNs() - start_ns) * 1e-9;
  };
  int warmup_trials = 0;
  double measure_start = 0.0;
  for (int k = 0;; ++k) {
    const bool warmup =
        measure_start == 0.0 &&
        (k < kWarmupTrials || elapsed() < kWarmupSeconds);
    if (!warmup && measure_start == 0.0) measure_start = elapsed();
    const int measured = k - warmup_trials;
    perfbench::TrialOptions options;
    options.trace = !warmup && args.trace && measured % 2 == 0;
    options.out_dir = run_dir + "/trial" + std::to_string(k);
    TrialResult trial = perfbench::RunTrial(*w, args.seed, options);
    std::filesystem::remove_all(options.out_dir);

    outcome.attempted += trial.attempted;
    outcome.failed += trial.failed;
    for (const std::string& f : trial.failures) {
      outcome.failures.push_back("trial " + std::to_string(k) + ": " + f);
    }
    if (ref == references.end()) {
      outcome.Check(false, "no reference for variant " +
                               std::to_string(variant) + " in " +
                               args.references);
    } else {
      outcome.Check(Within(trial.quantity, ref->second.first,
                           kQuantityTolerance),
                    "trial " + std::to_string(k) + ": final " +
                        (w->rbc ? "Nusselt number " : "kinetic energy ") +
                        JsonNumber(trial.quantity) + " vs reference " +
                        JsonNumber(ref->second.first));
      outcome.Check(Within(trial.max_divergence, ref->second.second,
                           kDivergenceTolerance),
                    "trial " + std::to_string(k) + ": max divergence " +
                        JsonNumber(trial.max_divergence) + " vs reference " +
                        JsonNumber(ref->second.second));
    }
    if (w->views == 0 && k > 0) {
      outcome.Check(trial.output_hash == first_hash,
                    "trial " + std::to_string(k) +
                        ": checkpoint bytes differ from trial 0");
    }
    if (k == 0) first_hash = trial.output_hash;
    if (warmup) {
      ++warmup_trials;
      continue;
    }
    if (options.trace) {
      for (const auto& [name, ns] : perfbench::SelfTimeByName(trial.spans)) {
        self_ms[name] += static_cast<double>(ns) * 1e-6;
      }
      traced_steps += w->steps;
      last_spans = std::move(trial.spans);
      traced.push_back(std::move(trial));
    } else {
      untraced.push_back(std::move(trial));
    }
    if (elapsed() >= kMaxRunSeconds) break;
    if (elapsed() - measure_start >= args.seconds &&
        EnoughSamples(args, untraced, traced)) {
      break;
    }
  }

  if (!args.trace) std::filesystem::remove_all(run_dir);

  std::map<std::string, double> metrics;
  std::map<std::string, std::string> units;
  auto put = [&](const std::string& name, double value, const char* unit) {
    metrics[name] = value;
    units[name] = unit;
  };
  auto median_of = [](const std::vector<TrialResult>& trials, auto field) {
    std::vector<double> values;
    for (const TrialResult& t : trials) values.push_back(field(t));
    return perfbench::Median(values);
  };

  std::printf("perfbench: workload %s, seed %llu (input variant %u), %d "
              "threads, %d warm-up + %zu untraced + %zu traced trials of %d "
              "steps, %.1f s measured\n",
              w->name.c_str(), static_cast<unsigned long long>(args.seed),
              variant, w->Threads(), warmup_trials, untraced.size(),
              traced.size(), w->steps, elapsed() - measure_start);
  if (!args.trace) {
    const TrialSamples samples(untraced);
    const auto& steps = samples.steps;
    const auto& e2e = samples.e2e;
    std::string sample_note;
    auto percentile = [&](const std::vector<std::vector<double>>& trials,
                          double q, const std::string& name) {
      int blocks = 0;
      const std::optional<double> p =
          perfbench::BlockPercentile(trials, q, &blocks);
      std::size_t n = 0;
      for (const auto& t : trials) n += t.size();
      outcome.Check(p.has_value(),
                    name + ": too few samples (" + std::to_string(n) + ")");
      sample_note += " " + name + " " + std::to_string(n) + " in " +
                     std::to_string(blocks) + ",";
      return p.value_or(0.0);
    };
    put("setup_s", median_of(untraced, [](const TrialResult& t) {
          return t.setup_s;
        }), "s");
    put("time_to_solution_s", median_of(untraced, [](const TrialResult& t) {
          return t.time_to_solution_s;
        }), "s");
    put("step_ms_p50", percentile(steps, 0.50, "step_ms_p50"), "ms");
    put("step_ms_p95", percentile(steps, 0.95, "step_ms_p95"), "ms");
    put("e2e_output_ms_p50", percentile(e2e, 0.50, "e2e_output_ms_p50"), "ms");
    put("e2e_output_ms_p90", percentile(e2e, 0.90, "e2e_output_ms_p90"), "ms");
    put("storage_bytes", median_of(untraced, [](const TrialResult& t) {
          return t.storage_bytes;
        }), "B");
    put("sim_host_peak_mb", median_of(untraced, [](const TrialResult& t) {
          return t.sim_host_peak_mb;
        }), "MB");
    sample_note.pop_back();
    std::printf("samples in blocks (median over blocks):%s\n",
                sample_note.c_str());
  } else {
    std::map<std::string, std::vector<double>> layers;
    for (const TrialResult& t : traced) {
      for (const auto& [name, value] : t.layers) layers[name].push_back(value);
    }
    const auto& layer_units = perfbench::LayerMetricUnits();
    for (const auto& [name, values] : layers) {
      put(name, perfbench::Median(values), layer_units.at(name).c_str());
    }
    const double traced_tts = median_of(traced, [](const TrialResult& t) {
      return t.time_to_solution_s;
    });
    const double untraced_tts = median_of(untraced, [](const TrialResult& t) {
      return t.time_to_solution_s;
    });
    put("trace.overhead_pct",
        untraced_tts > 0.0 ? 100.0 * (traced_tts / untraced_tts - 1.0) : 0.0,
        layer_units.at("trace.overhead_pct").c_str());
    std::printf("self time per step, summed over threads, mean over traced "
                "trials (ms):\n");
    for (const auto& [name, ms] : self_ms) {
      std::printf("  %-20s %10.4f\n", name.c_str(), ms / traced_steps);
    }
    const std::string trace_path = run_dir + "/trace.json";
    if (!perfbench::WriteChromeTrace(
            trace_path, last_spans,
            w->name + " seed " + std::to_string(args.seed))) {
      outcome.Check(false, "cannot write " + trace_path);
    } else {
      std::printf("trace of the last traced trial: %s\n", trace_path.c_str());
    }
  }

  for (const std::string& f : outcome.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = outcome.failed == 0;
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(outcome.attempted) +
                     ", \"failed\": " + std::to_string(outcome.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    json += (first ? "" : ", ") + std::string("\"") + name +
            "\": {\"value\": " + JsonNumber(value) + ", \"unit\": \"" +
            units[name] + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
