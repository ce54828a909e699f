// Perf-regression gate: compare a fresh BENCH_*.json against a committed
// baseline (bench/baselines/).  Exit 0 when nothing regressed; exit 1 on a
// regression, a metric missing from the current run, or a smoke/full
// configuration mismatch; exit 2 on usage errors (a threshold that is not a
// finite non-negative number among them) or a missing report file (e.g. a
// baseline not yet committed); exit 3 when a report file exists but cannot
// be parsed (truncated write, bad merge) — CI treats 2 as "baseline needs
// to be added" and 3 as "artifact corruption, investigate".
//
//   $ bench/compare_runs --baseline bench/baselines/BENCH_fig2.json
//                        --current BENCH_fig2.json [--time-threshold 0.10]
//                        [--counter-threshold 0.0] [--e2e-threshold 0.50]
//
// Timing metrics (names containing "seconds" or "_ms") are judged with the
// time threshold (relative headroom; the default 0.10 fails a 20 %
// regression).  Everything else — copy counts, byte counts, image counts —
// is deterministic and judged with the counter threshold (default 0.0: any
// increase fails).

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "instrument/bench_compare.hpp"
#include "instrument/report.hpp"

namespace {

void PrintUsage(const char* binary) {
  std::printf(
      "usage: %s --baseline <BENCH_*.json> --current <BENCH_*.json>\n"
      "          [--time-threshold <frac>] [--counter-threshold <frac>]\n"
      "          [--e2e-threshold <frac>]\n"
      "  --baseline <path>          committed reference report\n"
      "  --current <path>           report from the run under test\n"
      "  --time-threshold <frac>    relative headroom for timing metrics\n"
      "                             (default 0.10)\n"
      "  --counter-threshold <frac> relative headroom for everything else\n"
      "                             (default 0.0: any increase fails)\n"
      "  --e2e-threshold <frac>     relative headroom for end-to-end latency\n"
      "                             metrics (names containing \"e2e_\");\n"
      "                             defaults to the time threshold\n",
      binary);
}

/// A threshold flag's value: the whole string must be a finite,
/// non-negative number.  "nan", "abc", "0.1x" and "-1" exit 2 rather than
/// switching the gate off or silently becoming another number.
double ParseThreshold(const std::string& flag, const char* text) {
  const char* end = text + std::strlen(text);
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value) ||
      value < 0.0) {
    std::fprintf(stderr,
                 "error: %s needs a finite non-negative fraction, got '%s'\n",
                 flag.c_str(), text);
    std::exit(2);
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string current_path;
  instrument::CompareOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs an argument\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--baseline") {
      baseline_path = value();
    } else if (arg == "--current") {
      current_path = value();
    } else if (arg == "--time-threshold") {
      options.time_threshold = ParseThreshold(arg, value());
    } else if (arg == "--counter-threshold") {
      options.counter_threshold = ParseThreshold(arg, value());
    } else if (arg == "--e2e-threshold") {
      options.e2e_threshold = ParseThreshold(arg, value());
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (baseline_path.empty() || current_path.empty()) {
    PrintUsage(argv[0]);
    return 2;
  }

  auto read_report = [](const std::string& path) {
    instrument::BenchReadStatus status = instrument::BenchReadStatus::kOk;
    auto report = instrument::ReadBenchJson(path, status);
    if (status == instrument::BenchReadStatus::kMissingFile) {
      std::fprintf(stderr, "error: bench report %s does not exist\n",
                   path.c_str());
      std::exit(2);
    }
    if (status == instrument::BenchReadStatus::kUnparseable) {
      std::fprintf(stderr,
                   "error: bench report %s exists but is not parseable "
                   "(truncated or corrupt)\n",
                   path.c_str());
      std::exit(3);
    }
    return *report;
  };
  const auto baseline = read_report(baseline_path);
  const auto current = read_report(current_path);

  const instrument::CompareResult result =
      instrument::CompareBenchReports(current, baseline, options);

  if (result.config_mismatch) {
    std::fprintf(stderr,
                 "FAIL: reports not comparable (baseline %s/%s vs current "
                 "%s/%s)\n",
                 baseline.bench.c_str(), baseline.config.c_str(),
                 current.bench.c_str(), current.config.c_str());
    return 1;
  }

  instrument::Table table("compare_runs: " + current.bench + " (" +
                          current.config + ") vs " + baseline_path);
  table.SetHeader(
      {"metric", "baseline", "current", "ratio", "threshold", "verdict"});
  for (const instrument::CompareRow& row : result.rows) {
    char baseline_text[32], current_text[32], ratio_text[32], limit_text[32];
    std::snprintf(baseline_text, sizeof(baseline_text), "%.6g", row.baseline);
    std::snprintf(current_text, sizeof(current_text), "%.6g",
                  row.missing ? 0.0 : row.current);
    std::snprintf(ratio_text, sizeof(ratio_text), "%.3f", row.ratio);
    std::snprintf(limit_text, sizeof(limit_text), "+%.0f%%",
                  100.0 * row.threshold);
    table.AddRow({row.name, baseline_text,
                  row.missing ? "(missing)" : current_text,
                  row.missing ? "-" : ratio_text, limit_text,
                  row.missing ? "MISSING"
                  : row.regressed ? "REGRESSED"
                                  : "ok"});
  }
  table.Print(std::cout);
  for (const std::string& name : result.added) {
    std::printf("note: metric %s is new (not in the baseline)\n",
                name.c_str());
  }

  if (!result.ok) {
    std::fprintf(stderr, "FAIL: %d metric(s) regressed or missing\n",
                 result.Regressions());
    return 1;
  }
  std::printf("OK: %zu metric(s) within thresholds\n", result.rows.size());
  return 0;
}
