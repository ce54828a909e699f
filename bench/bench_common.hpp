// Shared configuration for the figure-reproduction benches.
//
// The paper's runs used 280/560/1120 ranks of Polaris and up to 3000
// timesteps; this reproduction scales ranks and steps down (DESIGN.md §5)
// while keeping the experimental structure: the same three configurations,
// the same trigger cadence relationship, the same 4:1 in transit ratio.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/workflows.hpp"
#include "instrument/bench_compare.hpp"
#include "instrument/report.hpp"
#include "instrument/telemetry.hpp"
#include "nekrs/cases.hpp"

namespace bench {

/// Command-line surface shared by every figure binary:
///   --trace <out.json>   span tracing for every run; the headline run's
///                        Chrome trace lands at the given path (aggregate:
///                        sibling telemetry.json)
///   --heartbeat <steps>  rank-0 progress line every N steps of every run
///   --metrics-out <path> rank-aggregated run-health metrics.json from the
///                        headline run
///   --bench-out <path>   canonical BENCH_*.json for bench/compare_runs
///   --smoke              CI-sized sweep (fewer rank counts / steps)
///   --async              run the SENSEI configurations through the async
///                        pipeline (<pipeline mode="async" depth="2"/>);
///                        baseline configurations stay untouched
///   --compress           select transport codecs on the SST stream
///                        (blockfloat rate 8 on points + data arrays,
///                        delta shuffle_rle on connectivity); stamps a
///                        "-compress" config suffix so the regression gate
///                        compares against the matching baseline
///   --monitor [port]     serve /metrics, /healthz, and /status on rank 0's
///                        loopback during every run (port 0 = ephemeral;
///                        discover it via --monitor-port-file)
///   --status-out <path>  persist the final /status JSON when the monitor
///                        shuts down
///   --monitor-port-file <path>  write the bound monitor port here at start
struct BenchArgs {
  bool trace = false;
  std::string trace_path;
  int heartbeat_steps = 0;
  std::string metrics_path;
  std::string bench_path;
  bool smoke = false;
  bool async = false;
  bool compress = false;
  int monitor_port = -1;  ///< -1 = monitor off, 0 = ephemeral port
  std::string status_path;
  std::string monitor_port_file;

  /// telemetry.json next to the requested trace file.
  [[nodiscard]] std::string SummaryPath() const {
    const std::filesystem::path p(trace_path);
    return (p.parent_path() / "telemetry.json").string();
  }
};

inline void PrintBenchUsage(const char* binary) {
  std::printf(
      "usage: %s [options]\n"
      "  --trace <out.json>    enable span tracing; the headline run's\n"
      "                        Chrome trace lands here (cross-rank\n"
      "                        aggregate: sibling telemetry.json)\n"
      "  --heartbeat <steps>   print a rank-0 progress heartbeat (step\n"
      "                        rate, ETA, memory, SST queue) every N steps\n"
      "  --metrics-out <path>  write the headline run's rank-aggregated\n"
      "                        run-health metrics.json (min/mean/max/p95 +\n"
      "                        imbalance per metric)\n"
      "  --bench-out <path>    write canonical BENCH_*.json for the\n"
      "                        bench/compare_runs regression gate\n"
      "  --smoke               CI-sized sweep (fewer rank counts / steps)\n"
      "  --async               offload in situ updates to the per-rank\n"
      "                        async pipeline (depth 2 double buffering)\n"
      "  --compress            compress the SST stream (blockfloat rate 8\n"
      "                        fields, delta shuffle_rle connectivity)\n"
      "  --monitor [port]      serve live /metrics, /healthz, /status on\n"
      "                        rank 0's loopback during every run (omit the\n"
      "                        port for an ephemeral one)\n"
      "  --status-out <path>   persist the final /status JSON at shutdown\n"
      "  --monitor-port-file <path>  write the bound monitor port here\n"
      "  --help                show this help\n",
      binary);
}

/// Parses all of `text` as a decimal integer in [lo, hi] into `out`.  "3x",
/// "" and values past int range fail instead of truncating or wrapping.
inline bool ParseIntInRange(const std::string& text, int lo, int hi,
                            int& out) {
  int parsed = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
  if (ec != std::errc() || ptr != end || parsed < lo || parsed > hi) {
    return false;
  }
  out = parsed;
  return true;
}

inline BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  auto value = [&](int& i, const char* flag) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << "error: " << flag << " needs an argument\n";
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace") {
      args.trace = true;
      args.trace_path = value(i, "--trace");
    } else if (arg == "--heartbeat") {
      if (!ParseIntInRange(value(i, "--heartbeat"), 1,
                           std::numeric_limits<int>::max(),
                           args.heartbeat_steps)) {
        std::cerr << "error: --heartbeat needs a positive step count\n";
        std::exit(2);
      }
    } else if (arg == "--metrics-out") {
      args.metrics_path = value(i, "--metrics-out");
    } else if (arg == "--bench-out") {
      args.bench_path = value(i, "--bench-out");
    } else if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg == "--async") {
      args.async = true;
    } else if (arg == "--compress") {
      args.compress = true;
    } else if (arg == "--monitor") {
      // The port is optional: a following all-digit token is consumed as
      // the port, anything else leaves port 0 (ephemeral).
      args.monitor_port = 0;
      if (i + 1 < argc) {
        const std::string next = argv[i + 1];
        if (!next.empty() &&
            next.find_first_not_of("0123456789") == std::string::npos) {
          if (!ParseIntInRange(argv[++i], 0, 65535, args.monitor_port)) {
            std::cerr << "error: --monitor port must be in [0, 65535]\n";
            std::exit(2);
          }
        }
      }
    } else if (arg == "--status-out") {
      args.status_path = value(i, "--status-out");
    } else if (arg == "--monitor-port-file") {
      args.monitor_port_file = value(i, "--monitor-port-file");
    } else if (arg == "--help" || arg == "-h") {
      PrintBenchUsage(argv[0]);
      std::exit(0);
    } else {
      std::cerr << "error: unknown option '" << arg << "' (--help lists "
                << "the supported flags)\n";
      std::exit(2);
    }
  }
  return args;
}

/// Telemetry configuration for one bench run: trace + summary under `dir`,
/// unless this is the designated headline run, which writes to the --trace
/// destination instead.  The heartbeat applies to every run; the
/// rank-aggregated metrics.json is emitted from the headline run only (one
/// file per bench invocation).
inline instrument::TelemetryConfig RunTelemetry(const BenchArgs& args,
                                                const std::string& dir,
                                                bool headline) {
  instrument::TelemetryConfig config;
  if (args.trace) {
    config.enabled = true;
    config.trace_path = headline ? args.trace_path : dir + "/trace.json";
    config.summary_path =
        headline ? args.SummaryPath() : dir + "/telemetry.json";
  }
  config.heartbeat_steps = args.heartbeat_steps;
  if (headline && !args.metrics_path.empty()) {
    config.metrics = true;
    config.metrics_path = args.metrics_path;
  }
  // The monitor applies to every run in the sweep: runs are serial, so a
  // fixed port simply rebinds per run and a mid-sweep scrape always finds
  // whichever run is live.
  if (args.monitor_port >= 0) {
    config.monitor_port = args.monitor_port;
    config.status_path = args.status_path;
    config.monitor_port_file = args.monitor_port_file;
  }
  return config;
}

/// Write the canonical BENCH_*.json when --bench-out was given.  Returns
/// false (after warning) on I/O failure so main() can exit nonzero.
inline bool WriteBenchReportOrWarn(const BenchArgs& args,
                                   const instrument::BenchReport& report) {
  if (args.bench_path.empty()) return true;
  if (!instrument::WriteBenchJson(args.bench_path, report)) {
    std::cerr << "error: failed to write bench report " << args.bench_path
              << "\n";
    return false;
  }
  std::cout << "Bench report written to " << args.bench_path << "\n";
  return true;
}

/// "Where did the time go" cell: the share of traced time spent inside the
/// solver vs the in situ/in transit pipeline ("-" when tracing is off).
inline std::string BreakdownCell(const instrument::TelemetrySummary& t) {
  const double solver = t.SpanTotalSeconds("solver.step");
  const double insitu = t.SpanTotalSeconds("bridge.update");
  const double total = solver + insitu;
  if (t.Empty() || total <= 0.0) return "-";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "solver %.0f%% / insitu %.0f%%",
                100.0 * solver / total, 100.0 * insitu / total);
  return buf;
}

/// WriteCsv wrapper that reports failures (satellite: CSV loss must never
/// be silent). Returns false on failure so main() can exit nonzero.
inline bool WriteCsvOrWarn(const instrument::Table& table,
                           const std::string& path) {
  if (!table.WriteCsv(path)) {
    std::cerr << "error: failed to write CSV " << path << "\n";
    return false;
  }
  return true;
}

/// Scaled-down stand-ins for the paper's 280/560/1120-rank runs.
inline constexpr int kInSituRankCounts[] = {2, 4, 8};
/// Weak-scaling sim-rank counts for the in transit case.
inline constexpr int kInTransitSimRanks[] = {2, 4, 8};
/// CI smoke sweep: the two smallest rank counts.
inline constexpr int kSmokeRankCounts[] = {2, 4};

/// The rank counts a run sweeps: full sweep, or the smoke subset.
inline std::vector<int> SweepRankCounts(const BenchArgs& args) {
  if (args.smoke) {
    return {std::begin(kSmokeRankCounts), std::end(kSmokeRankCounts)};
  }
  return {std::begin(kInSituRankCounts), std::end(kInSituRankCounts)};
}

/// Fresh output directory under the system temp dir.
inline std::string MakeOutputDir(const std::string& tag) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("nsm_bench_" + tag))
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// The pb146 stand-in used by the Fig 2/3 benches: fixed global size
/// (strong-scaling layout like the paper's fixed pebble-bed case).
inline nekrs::FlowConfig PebbleBedBenchCase() {
  nekrs::cases::PebbleBedOptions pb;
  pb.elements = {4, 4, 8};
  pb.order = 4;
  pb.pebble_count = 146;
  pb.dt = 1.5e-3;
  // pMG stays off in the figure benches: the float V-cycle perturbs the
  // pressure solution at rounding level, which would shift the
  // byte-exact counters (compressed sizes, checkpoint bytes) the
  // compare_runs gate pins.  bench/solver_smoke.cpp carries the pMG
  // configuration and its own baseline; EXPERIMENTS.md A5 quantifies the
  // trade-off.
  return nekrs::cases::PebbleBedCase(pb);
}

/// The RBC case used by the Fig 5/6 benches: weak scaling grows the slab
/// horizontally (wider aspect ratio, constant element size and per-rank
/// load) — the mesoscale-convection setup of §4.2.  The mesh is
/// partitioned along the growing axis.
inline nekrs::FlowConfig RayleighBenardBenchCase(int sim_ranks) {
  nekrs::cases::RayleighBenardOptions rbc;
  rbc.elements = {2 * sim_ranks, 2, 4};
  rbc.order = 4;
  rbc.aspect = 0.75 * sim_ranks;  // keeps element size constant
  rbc.rayleigh = 1e5;
  rbc.dt = 5e-3;
  nekrs::FlowConfig config = nekrs::cases::RayleighBenardCase(rbc);
  config.mesh.partition_axis = 0;
  return config;
}

/// Insert <pipeline mode="async" depth="2"/> right after the <sensei> root
/// when `async` is set; the sync XML comes back untouched, so baseline
/// configurations cannot drift.
inline std::string WithPipeline(std::string xml, bool async) {
  if (!async) return xml;
  const std::string root = "<sensei>";
  const std::size_t at = xml.find(root);
  if (at == std::string::npos) {
    throw std::runtime_error("bench: XML has no <sensei> root to extend");
  }
  xml.insert(at + root.size(), "<pipeline mode=\"async\" depth=\"2\"/>");
  return xml;
}

/// SENSEI XML for the in situ Catalyst configuration (renders one image per
/// trigger from the temperature field, as Fig 1 visualizes).
inline std::string InSituCatalystXml(const std::string& out, int frequency) {
  return "<sensei><analysis type=\"catalyst\" frequency=\"" +
         std::to_string(frequency) + "\" output=\"" + out +
         "\" width=\"640\" height=\"480\">"
         "<render array=\"temperature\" colormap=\"plasma\" azimuth=\"35\" "
         "elevation=\"25\"/></analysis></sensei>";
}

/// SENSEI XML for the in situ Checkpointing configuration (raw fields to
/// disk every `frequency` steps).
inline std::string InSituCheckpointXml(const std::string& out,
                                       int frequency) {
  return "<sensei><analysis type=\"checkpoint\" frequency=\"" +
         std::to_string(frequency) + "\" output=\"" + out +
         "\"/></sensei>";
}

/// Sim-side XML activating the SST stream every `frequency` steps.  With
/// `compress`, the analysis element carries the per-plane codec selection:
/// blockfloat rate 8 on points and every data array, delta shuffle_rle on
/// the int64 connectivity (DESIGN.md §3c).
inline std::string InTransitAdiosXml(int frequency, bool compress = false) {
  std::string xml = "<sensei><analysis type=\"adios\" frequency=\"" +
                    std::to_string(frequency) + "\"";
  if (!compress) return xml + "/></sensei>";
  return xml +
         ">"
         "<points><codec type=\"blockfloat\" rate=\"8\"/></points>"
         "<connectivity><codec type=\"shuffle_rle\" delta=\"1\"/>"
         "</connectivity>"
         "<array name=\"*\"><codec type=\"blockfloat\" rate=\"8\"/></array>"
         "</analysis></sensei>";
}

/// Endpoint XML for the in transit Checkpointing measurement point.
inline std::string EndpointCheckpointXml(const std::string& out) {
  return "<sensei><analysis type=\"checkpoint\" output=\"" + out +
         "\"/></sensei>";
}

/// Endpoint XML for the in transit Catalyst measurement point: the paper's
/// two images per trigger.
inline std::string EndpointCatalystXml(const std::string& out) {
  return "<sensei><analysis type=\"catalyst\" output=\"" + out +
         "\" width=\"640\" height=\"240\">"
         "<render array=\"temperature\" name=\"side\" colormap=\"coolwarm\" "
         "azimuth=\"270\" elevation=\"0\" min=\"-0.5\" max=\"0.5\"/>"
         "<render array=\"velocity\" magnitude=\"1\" name=\"speed\" "
         "colormap=\"viridis\" azimuth=\"250\" elevation=\"20\"/>"
         "</analysis></sensei>";
}

}  // namespace bench
