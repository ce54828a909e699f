// Quickstart: the smallest complete NekRS-SENSEI pipeline.
//
// Runs a Taylor-Green vortex on 2 (threaded) MPI ranks, instruments it with
// the nek_sensei bridge, and lets an XML configuration — not code — decide
// what happens in situ: a stats reduction every 5 steps and one rendered
// image every 10 steps.
//
//   $ ./quickstart [output_dir] [--trace trace.json]
//                  [--heartbeat <steps>] [--metrics-out metrics.json]
//                  [--async] [--monitor [port]] [--status-out status.json]
//                  [--monitor-port-file port.txt]
//
// Produces quickstart_out/render_speed_*.png plus a stats log, and prints
// the run metrics the paper's figures are built from.  With --trace, also
// writes a Chrome-trace JSON (open in Perfetto / chrome://tracing) and a
// telemetry.json aggregate next to it.  With --heartbeat N, rank 0 prints
// a progress line (step rate, ETA, memory) every N steps; with
// --metrics-out, the run writes one rank-aggregated run-health
// metrics.json (min/mean/max/p95 + imbalance per metric).

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>

#include "core/workflows.hpp"
#include "nekrs/cases.hpp"

int main(int argc, char** argv) {
  std::string out = "quickstart_out";
  std::string trace_path;
  std::string metrics_path;
  int heartbeat_steps = 0;
  bool async = false;
  int monitor_port = -1;
  std::string status_path;
  std::string monitor_port_file;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace") {
      if (i + 1 >= argc) {
        std::cerr << "error: --trace needs a file argument\n";
        return 2;
      }
      trace_path = argv[++i];
    } else if (arg == "--metrics-out") {
      if (i + 1 >= argc) {
        std::cerr << "error: --metrics-out needs a file argument\n";
        return 2;
      }
      metrics_path = argv[++i];
    } else if (arg == "--heartbeat") {
      // Whole-string parse: "3x" and values past int range are rejected,
      // not truncated or wrapped.
      const char* text = i + 1 < argc ? argv[++i] : "";
      const char* end = text + std::strlen(text);
      const auto [ptr, ec] = std::from_chars(text, end, heartbeat_steps);
      if (ec != std::errc() || ptr != end || heartbeat_steps < 1) {
        std::cerr << "error: --heartbeat needs a positive step count\n";
        return 2;
      }
    } else if (arg == "--async") {
      async = true;
    } else if (arg == "--monitor") {
      // Optional all-digit port; anything else leaves port 0 (ephemeral).
      monitor_port = 0;
      if (i + 1 < argc) {
        const std::string next = argv[i + 1];
        if (!next.empty() &&
            next.find_first_not_of("0123456789") == std::string::npos) {
          // strtol saturates instead of wrapping, so a huge digit string
          // is rejected too.
          const long port = std::strtol(argv[++i], nullptr, 10);
          if (port > 65535) {
            std::cerr << "error: --monitor port must be in [0, 65535]\n";
            return 2;
          }
          monitor_port = static_cast<int>(port);
        }
      }
    } else if (arg == "--status-out") {
      if (i + 1 >= argc) {
        std::cerr << "error: --status-out needs a file argument\n";
        return 2;
      }
      status_path = argv[++i];
    } else if (arg == "--monitor-port-file") {
      if (i + 1 >= argc) {
        std::cerr << "error: --monitor-port-file needs a file argument\n";
        return 2;
      }
      monitor_port_file = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [output_dir] [options]\n"
          "  --trace <out.json>    enable span tracing; Chrome trace lands\n"
          "                        here (cross-rank aggregate: sibling\n"
          "                        telemetry.json)\n"
          "  --heartbeat <steps>   print a rank-0 progress heartbeat (step\n"
          "                        rate, ETA, memory) every N steps\n"
          "  --metrics-out <path>  write the run's rank-aggregated\n"
          "                        run-health metrics.json (min/mean/max/\n"
          "                        p95 + imbalance per metric)\n"
          "  --async               run the analyses on a per-rank worker\n"
          "                        thread (double-buffered staging) instead\n"
          "                        of inline after each step\n"
          "  --monitor [port]      serve live /metrics, /healthz, /status\n"
          "                        on rank 0's loopback during the run\n"
          "                        (omit the port for an ephemeral one)\n"
          "  --status-out <path>   persist the final /status JSON at\n"
          "                        shutdown\n"
          "  --monitor-port-file <path>  write the bound monitor port here\n"
          "  --help                show this help\n",
          argv[0]);
      return 0;
    } else {
      out = arg;
    }
  }
  std::filesystem::create_directories(out);

  // 1. A small flow problem (see nekrs/cases.hpp for the catalogue).
  nekrs::cases::TaylorGreenOptions tg;
  tg.elements = {3, 3, 2};
  tg.order = 5;
  nek_sensei::InSituOptions options;
  options.flow = nekrs::cases::TaylorGreenCase(tg);
  options.steps = 20;

  // 2. The SENSEI runtime configuration (Listing 1 of the paper): swap
  //    analyses by editing XML, not by recompiling.
  //    The optional <pipeline> element picks the execution mode: async
  //    offloads every update to a per-rank worker thread over
  //    double-buffered snapshots; outputs are byte-identical either way.
  const std::string pipeline =
      async ? "  <pipeline mode=\"async\" depth=\"2\"/>" : "";
  options.sensei_xml =
      "<sensei>" + pipeline +
      "  <analysis type=\"stats\" frequency=\"5\" arrays=\"velocity\""
      "            log=\"" + out + "/stats.log\"/>"
      "  <analysis type=\"catalyst\" frequency=\"10\" output=\"" + out + "\""
      "            width=\"640\" height=\"480\" prefix=\"render\">"
      "    <render array=\"velocity\" magnitude=\"1\" name=\"speed\""
      "            colormap=\"viridis\" azimuth=\"40\" elevation=\"30\"/>"
      "  </analysis>"
      "</sensei>";

  // 3. Optional tracing: one Chrome-trace track per rank, nested
  //    solver/bridge/analysis spans (could equally come from a
  //    <telemetry trace="..."/> element in the XML above).
  if (!trace_path.empty()) {
    options.telemetry.enabled = true;
    options.telemetry.trace_path = trace_path;
    options.telemetry.summary_path =
        (std::filesystem::path(trace_path).parent_path() / "telemetry.json")
            .string();
  }
  // Metrics plane (could equally come from <telemetry metrics="..."
  // heartbeat="N"/> in the XML): rank-aggregated run health + progress.
  options.telemetry.heartbeat_steps = heartbeat_steps;
  if (!metrics_path.empty()) {
    options.telemetry.metrics = true;
    options.telemetry.metrics_path = metrics_path;
  }
  // Live monitor (XML equivalent: <telemetry monitor="PORT"/>): scrape
  // http://127.0.0.1:<port>/metrics while the run is stepping.
  if (monitor_port >= 0) {
    options.telemetry.monitor_port = monitor_port;
    options.telemetry.status_path = status_path;
    options.telemetry.monitor_port_file = monitor_port_file;
  }

  // 4. Run on 2 ranks (threads standing in for MPI processes).
  const auto metrics = nek_sensei::RunInSitu(2, options);

  std::cout << "quickstart: " << metrics.steps << " steps on "
            << metrics.ranks.size() << " ranks\n"
            << "  mean busy time per step per rank: "
            << metrics.MeanSimStepSeconds() * 1e3 << " ms\n"
            << "  images rendered: " << metrics.images_written << "\n"
            << "  bytes written:   " << metrics.bytes_written << "\n"
            << "  peak host memory per rank: " << metrics.MaxSimHostPeakBytes()
            << " B\n"
            << "  peak device memory per rank: "
            << metrics.MaxSimDevicePeakBytes() << " B\n"
            << "outputs in " << out << "/\n";
  if (!trace_path.empty()) {
    std::cout << "trace written to " << trace_path << "\n";
  }
  if (!metrics_path.empty()) {
    std::cout << "run-health metrics written to " << metrics_path << "\n";
  }
  return 0;
}
