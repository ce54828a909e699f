// Figure 2 + §4.1 storage economy: in situ pebble-bed time-to-solution.
//
// Paper: pb146 on Polaris, 3000 steps, triggers every 100 steps, at
// 280/560/1120 ranks, configurations Original / Checkpointing / Catalyst.
// Expected shape: Original fastest; Catalyst a slight overhead over
// Checkpointing; Catalyst storage ~3 orders of magnitude below
// Checkpointing (6.5 MB vs 19 GB at paper scale).
//
// Here: the same three configurations at 2/4/8 threaded ranks, 30 steps,
// triggers every 10.  "total_busy_s" (sum of per-rank busy time in the
// stepping loop) is the time-to-solution proxy that stays meaningful when
// rank threads outnumber the host's cores; wall_s is also reported.

#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  const std::string out_root = bench::MakeOutputDir("fig2");
  const std::vector<int> rank_counts = bench::SweepRankCounts(args);
  const int kSteps = args.smoke ? 12 : 30;
  constexpr int kFrequency = 10;
  const int last_ranks = rank_counts.back();

  instrument::BenchReport bench_report;
  bench_report.bench = "fig2";
  // The "-async" suffix makes cross-mode comparisons a config mismatch in
  // compare_runs: async runs gate only against *_async baselines.
  bench_report.config = std::string(args.smoke ? "smoke" : "full") +
                        (args.async ? "-async" : "");

  instrument::Table time_table(
      "Figure 2: in situ time-to-solution (pb146 stand-in, 30 steps, "
      "trigger every 10)");
  time_table.SetHeader({"ranks", "config", "total_busy_s", "wall_s",
                        "per_step_ms", "storage", "images", "breakdown"});

  instrument::Table storage_table(
      "Section 4.1: storage economy per run (Catalyst vs Checkpointing)");
  storage_table.SetHeader(
      {"ranks", "checkpoint_bytes", "catalyst_bytes", "ratio"});

  for (int ranks : rank_counts) {
    std::size_t checkpoint_bytes = 0;
    std::size_t catalyst_bytes = 0;
    for (const std::string config : {"original", "checkpointing", "catalyst"}) {
      const std::string out =
          out_root + "/" + config + "_" + std::to_string(ranks);
      std::filesystem::create_directories(out);

      nek_sensei::InSituOptions options;
      options.flow = bench::PebbleBedBenchCase();
      options.steps = kSteps;
      if (config == "original") {
        options.use_sensei = false;
      } else if (config == "checkpointing") {
        options.sensei_xml = bench::WithPipeline(
            bench::InSituCheckpointXml(out, kFrequency), args.async);
      } else {
        options.sensei_xml = bench::WithPipeline(
            bench::InSituCatalystXml(out, kFrequency), args.async);
      }
      // The Catalyst run at the largest rank count is the headline trace:
      // with --trace, its Chrome trace lands at the requested path.
      const bool headline = config == "catalyst" && ranks == last_ranks;
      options.telemetry = bench::RunTelemetry(args, out, headline);

      const auto metrics = nek_sensei::RunInSitu(ranks, options);
      const std::string key = "fig2." + config + ".r" + std::to_string(ranks);
      bench_report.metrics[key + ".total_busy_seconds"] =
          metrics.TotalSimBusySeconds();
      bench_report.metrics[key + ".per_step_seconds"] =
          metrics.MeanSimStepSeconds();
      bench_report.metrics[key + ".bytes_written"] =
          static_cast<double>(metrics.bytes_written);
      bench_report.metrics[key + ".images"] =
          static_cast<double>(metrics.images_written);
      time_table.AddRow(
          {std::to_string(ranks), config,
           instrument::FormatSeconds(metrics.TotalSimBusySeconds()),
           instrument::FormatSeconds(metrics.wall_seconds),
           instrument::FormatSeconds(metrics.MeanSimStepSeconds() * 1e3),
           instrument::FormatBytes(metrics.bytes_written),
           std::to_string(metrics.images_written),
           bench::BreakdownCell(metrics.telemetry)});
      if (headline && args.trace) {
        instrument::TelemetryTable(
            metrics.telemetry,
            "Telemetry: catalyst @ " + std::to_string(ranks) + " ranks")
            .Print(std::cout);
      }
      if (config == "checkpointing") checkpoint_bytes = metrics.bytes_written;
      if (config == "catalyst") catalyst_bytes = metrics.bytes_written;
    }
    const double ratio =
        catalyst_bytes
            ? static_cast<double>(checkpoint_bytes) /
                  static_cast<double>(catalyst_bytes)
            : 0.0;
    char ratio_text[32];
    std::snprintf(ratio_text, sizeof(ratio_text), "%.1fx", ratio);
    storage_table.AddRow({std::to_string(ranks),
                          instrument::FormatBytes(checkpoint_bytes),
                          instrument::FormatBytes(catalyst_bytes),
                          ratio_text});
  }

  time_table.Print(std::cout);
  storage_table.Print(std::cout);

  // The paper's three-orders-of-magnitude gap (6.5 MB vs 19 GB) comes from
  // checkpoints growing with the grid while images stay fixed-size; the
  // sweep below shows the ratio growing with resolution, extrapolating to
  // the paper's scale (EXPERIMENTS.md E2).
  instrument::Table scaling_table(
      "Section 4.1: storage ratio vs grid resolution (2 ranks, 1 trigger)");
  scaling_table.SetHeader({"gridpoints", "checkpoint_per_trigger",
                           "catalyst_per_trigger", "ratio"});
  std::vector<std::array<int, 3>> resolutions = {
      {2, 2, 2}, {4, 4, 4}, {6, 6, 6}, {8, 8, 8}};
  if (args.smoke) resolutions.resize(2);
  for (const std::array<int, 3> elements : resolutions) {
    nekrs::cases::PebbleBedOptions pb;
    pb.elements = elements;
    pb.order = 4;
    pb.pebble_count = 27;
    pb.dt = 1.5e-3;

    std::size_t bytes_by_config[2] = {0, 0};
    for (int c = 0; c < 2; ++c) {
      const std::string out = out_root + "/scale_" +
                              std::to_string(elements[0]) + "_" +
                              std::to_string(c);
      std::filesystem::create_directories(out);
      nek_sensei::InSituOptions options;
      options.flow = nekrs::cases::PebbleBedCase(pb);
      options.steps = 4;
      options.sensei_xml = c == 0 ? bench::InSituCheckpointXml(out, 4)
                                  : bench::InSituCatalystXml(out, 4);
      bytes_by_config[c] = nek_sensei::RunInSitu(2, options).bytes_written;
    }
    const long points = 125L * elements[0] * elements[1] * elements[2];
    char ratio_text[32];
    std::snprintf(ratio_text, sizeof(ratio_text), "%.1fx",
                  static_cast<double>(bytes_by_config[0]) /
                      static_cast<double>(bytes_by_config[1]));
    scaling_table.AddRow({std::to_string(points),
                          instrument::FormatBytes(bytes_by_config[0]),
                          instrument::FormatBytes(bytes_by_config[1]),
                          ratio_text});
  }
  scaling_table.Print(std::cout);

  bool ok = bench::WriteCsvOrWarn(time_table, out_root + "/fig2_time.csv");
  ok = bench::WriteCsvOrWarn(storage_table, out_root + "/fig2_storage.csv") &&
       ok;
  ok = bench::WriteCsvOrWarn(scaling_table,
                             out_root + "/fig2_storage_scaling.csv") &&
       ok;
  ok = bench::WriteBenchReportOrWarn(args, bench_report) && ok;
  std::cout << "CSV written under " << out_root << "\n";
  if (args.trace) {
    std::cout << "Chrome trace written to " << args.trace_path
              << " (aggregate: " << args.SummaryPath() << ")\n";
  }
  return ok ? 0 : 1;
}
