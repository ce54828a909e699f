// Tests for the live run-health monitor (DESIGN.md §5c): the Prometheus
// and /status renderers as pure functions, the loopback HTTP server over
// real sockets (routes, port discovery, persist-on-stop, failed-bind
// degradation, concurrent scrapes), and the RunInSitu integration — a
// scraper thread hits the endpoint mid-run while an injected straggler
// makes its way into the served /status and the final metrics.json.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/workflows.hpp"
#include "instrument/metrics.hpp"
#include "instrument/monitor.hpp"
#include "nekrs/cases.hpp"

namespace {

using instrument::AnomalyRecord;
using instrument::MetricsReport;
using instrument::MetricStat;
using instrument::MonitorServer;
using instrument::MonitorStatus;
using instrument::RenderPrometheus;
using instrument::RenderStatusJson;

std::string TempSubdir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "/monitor_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// Minimal blocking HTTP GET against 127.0.0.1:port; returns the full
// response (headers + body), or "" on connect failure.
std::string HttpGet(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[2048];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string BodyOf(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string() : response.substr(split + 4);
}

// ------------------------------------------------------ Prometheus renderer

TEST(RenderPrometheusTest, EmptyReportRendersCommentPlaceholder) {
  EXPECT_EQ(RenderPrometheus(MetricsReport{}),
            "# nsm: no metrics published yet\n");
}

TEST(RenderPrometheusTest, CountersExposeCrossRankSumWithTypeLine) {
  MetricsReport report;
  report.ranks = 4;
  MetricStat stat;
  stat.ranks = 4;
  stat.sum = 16.0;
  report.counters["solver.steps"] = stat;
  const std::string text = RenderPrometheus(report);
  EXPECT_NE(text.find("# nsm run-health metrics (4 ranks)\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE nsm_solver_steps counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("\nnsm_solver_steps 16\n"), std::string::npos);
}

TEST(RenderPrometheusTest, GaugesExposeMinMeanMaxStatFamily) {
  MetricsReport report;
  report.ranks = 2;
  MetricStat stat;
  stat.min = 1.0;
  stat.mean = 2.5;
  stat.max = 4.0;
  report.gauges["sst.queue_depth"] = stat;
  const std::string text = RenderPrometheus(report);
  EXPECT_NE(text.find("# TYPE nsm_sst_queue_depth gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("nsm_sst_queue_depth{stat=\"min\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("nsm_sst_queue_depth{stat=\"mean\"} 2.5\n"),
            std::string::npos);
  EXPECT_NE(text.find("nsm_sst_queue_depth{stat=\"max\"} 4\n"),
            std::string::npos);
}

TEST(RenderPrometheusTest, HistogramBucketsAreCumulativeAtAscendingBounds) {
  MetricsReport report;
  report.ranks = 1;
  instrument::HistogramData h({0.001, 0.01});
  h.Observe(0.0005);  // underflow bucket (-inf, 0.001)
  h.Observe(0.005);   // [0.001, 0.01)
  h.Observe(0.5);     // overflow [0.01, +inf)
  report.histograms["bridge.update_seconds"] = h;
  const std::string text = RenderPrometheus(report);
  EXPECT_NE(text.find("# TYPE nsm_bridge_update_seconds histogram\n"),
            std::string::npos);
  // Per-interval counts [1, 1, 1] become cumulative counts at the bounds.
  EXPECT_NE(text.find("nsm_bridge_update_seconds_bucket{le=\"0.001\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("nsm_bridge_update_seconds_bucket{le=\"0.01\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("nsm_bridge_update_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("nsm_bridge_update_seconds_sum 0.5055\n"),
            std::string::npos);
  EXPECT_NE(text.find("nsm_bridge_update_seconds_count 3\n"),
            std::string::npos);
}

TEST(RenderPrometheusTest, CollidingFamiliesGetOneTypeDeclarationEach) {
  // solver.step_seconds is published as both a counter (total) and a
  // histogram (distribution); Prometheus allows one TYPE per family, so
  // the histogram must be renamed rather than redeclaring the counter.
  MetricsReport report;
  report.ranks = 1;
  MetricStat stat;
  stat.sum = 0.25;
  report.counters["solver.step_seconds"] = stat;
  instrument::HistogramData h({0.1});
  h.Observe(0.25);
  report.histograms["solver.step_seconds"] = h;
  report.gauges["solver.step_seconds"] = stat;
  const std::string text = RenderPrometheus(report);
  EXPECT_NE(text.find("# TYPE nsm_solver_step_seconds counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE nsm_solver_step_seconds_gauge gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE nsm_solver_step_seconds_hist histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("nsm_solver_step_seconds_hist_count 1\n"),
            std::string::npos);
  // Exactly one TYPE line mentions the bare family name.
  const std::string bare = "# TYPE nsm_solver_step_seconds ";
  const std::size_t first = text.find(bare);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find(bare, first + 1), std::string::npos);
}

TEST(RenderPrometheusTest, NamesAreSanitizedIntoThePrometheusAlphabet) {
  MetricsReport report;
  report.ranks = 1;
  report.counters["codec.wire-bytes/raw"] = MetricStat{};
  const std::string text = RenderPrometheus(report);
  EXPECT_NE(text.find("nsm_codec_wire_bytes_raw"), std::string::npos);
  // The raw dotted/dashed name must not leak into any sample line.
  EXPECT_EQ(text.find("wire-bytes"), std::string::npos);
  EXPECT_EQ(text.find("bytes/raw"), std::string::npos);
}

// ---------------------------------------------------------- /status renderer

TEST(RenderStatusJsonTest, UnknownEtaSerializesAsNull) {
  MonitorStatus status;
  status.step = 3;
  status.total_steps = 10;
  status.eta_seconds = -1.0;
  const std::string json = RenderStatusJson(status);
  EXPECT_NE(json.find("\"step\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"total_steps\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"eta_seconds\": null"), std::string::npos);

  status.eta_seconds = 12.5;
  EXPECT_NE(RenderStatusJson(status).find("\"eta_seconds\": 12.5"),
            std::string::npos);
}

TEST(RenderStatusJsonTest, SstQueueAndSharesAppearOnlyWhenKnown) {
  MonitorStatus status;
  std::string json = RenderStatusJson(status);
  EXPECT_EQ(json.find("sst_queue"), std::string::npos);
  EXPECT_EQ(json.find("insitu_percent"), std::string::npos);
  EXPECT_EQ(json.find("offload_percent"), std::string::npos);

  status.queue_depth = 1;
  status.queue_limit = 2;
  status.insitu_percent = 25.0;
  status.offload_percent = 10.0;
  json = RenderStatusJson(status);
  EXPECT_NE(json.find("\"sst_queue\": {\"depth\": 1, \"limit\": 2}"),
            std::string::npos);
  EXPECT_NE(json.find("\"insitu_percent\": 25"), std::string::npos);
  EXPECT_NE(json.find("\"offload_percent\": 10"), std::string::npos);
}

TEST(RenderStatusJsonTest, AnomaliesAndCounterTotalsAreRendered) {
  MonitorStatus status;
  AnomalyRecord anomaly;
  anomaly.rank = 2;
  anomaly.step = 7;
  anomaly.z = 5.5;
  anomaly.dominant_span = "transport";
  status.anomalies.push_back(anomaly);
  MetricStat stat;
  stat.sum = 42.0;
  status.metrics.counters["solver.steps"] = stat;
  const std::string json = RenderStatusJson(status);
  EXPECT_NE(json.find("\"anomalies\": [{"), std::string::npos);
  EXPECT_NE(json.find("\"dominant_span\": \"transport\""),
            std::string::npos);
  EXPECT_NE(json.find("\"solver.steps\": 42"), std::string::npos);
}

// ------------------------------------------------------------- HTTP server

TEST(MonitorServerTest, ServesHealthMetricsAndStatusOnEphemeralPort) {
  const std::string dir = TempSubdir("serve");
  MonitorServer::Options options;
  options.port = 0;
  options.port_file = dir + "/monitor.port";
  MonitorServer server(options);
  ASSERT_TRUE(server.Serving());
  ASSERT_GT(server.Port(), 0);
  // The discovery file holds exactly the bound port.
  EXPECT_EQ(Slurp(options.port_file),
            std::to_string(server.Port()) + "\n");

  const std::string health = HttpGet(server.Port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_EQ(BodyOf(health), "ok\n");

  // Before any publish, /metrics serves the placeholder with the
  // Prometheus exposition content type.
  const std::string empty_metrics = HttpGet(server.Port(), "/metrics");
  EXPECT_NE(empty_metrics.find("text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_EQ(BodyOf(empty_metrics), "# nsm: no metrics published yet\n");

  MonitorStatus status;
  status.step = 5;
  status.total_steps = 20;
  MetricStat stat;
  stat.sum = 10.0;
  status.metrics.ranks = 2;
  status.metrics.counters["solver.steps"] = stat;
  server.Publish(std::move(status));

  const std::string metrics = HttpGet(server.Port(), "/metrics");
  EXPECT_NE(metrics.find("nsm_solver_steps 10"), std::string::npos);
  const std::string published = HttpGet(server.Port(), "/status");
  EXPECT_NE(published.find("application/json"), std::string::npos);
  EXPECT_NE(published.find("\"step\": 5"), std::string::npos);

  const std::string missing = HttpGet(server.Port(), "/nope");
  EXPECT_NE(missing.find("404 Not Found"), std::string::npos);
  EXPECT_NE(missing.find("routes: /metrics /healthz /status"),
            std::string::npos);
  EXPECT_GE(server.Requests(), 5u);
}

TEST(MonitorServerTest, StopPersistsFinalStatusAndIsIdempotent) {
  const std::string dir = TempSubdir("persist");
  MonitorServer::Options options;
  options.port = 0;
  options.persist_path = dir + "/status.json";
  MonitorServer server(options);
  ASSERT_TRUE(server.Serving());

  MonitorStatus status;
  status.step = 9;
  status.total_steps = 9;
  status.eta_seconds = 0.0;
  server.Publish(std::move(status));
  server.Stop();
  server.Stop();  // idempotent

  const std::string persisted = Slurp(options.persist_path);
  EXPECT_NE(persisted.find("\"step\": 9"), std::string::npos);
  EXPECT_NE(persisted.find("\"eta_seconds\": 0"), std::string::npos);
}

TEST(MonitorServerTest, UnpublishedServerPersistsNothingOnStop) {
  const std::string dir = TempSubdir("nopublish");
  MonitorServer::Options options;
  options.port = 0;
  options.persist_path = dir + "/status.json";
  {
    MonitorServer server(options);
    ASSERT_TRUE(server.Serving());
  }  // destructor stops; nothing was published
  EXPECT_FALSE(std::filesystem::exists(options.persist_path));
}

TEST(MonitorServerTest, FailedBindDegradesToNotServing) {
  MonitorServer::Options first_options;
  first_options.port = 0;
  MonitorServer first(first_options);
  ASSERT_TRUE(first.Serving());

  // Binding the same port again must fail — and the failure must degrade
  // (Serving() false) rather than throw: observability never kills a run.
  MonitorServer::Options clash;
  clash.port = first.Port();
  MonitorServer second(clash);
  EXPECT_FALSE(second.Serving());
  EXPECT_EQ(second.Port(), -1);
  MonitorStatus status;
  second.Publish(std::move(status));  // still safe to feed
  second.Stop();
}

TEST(MonitorServerTest, ConcurrentScrapesAndPublishesAreSafe) {
  // TSan-facing: four scraper threads hammer /metrics and /status while
  // the owner thread keeps publishing fresh snapshots.
  MonitorServer::Options options;
  options.port = 0;
  MonitorServer server(options);
  ASSERT_TRUE(server.Serving());
  const int port = server.Port();

  constexpr int kThreads = 4;
  constexpr int kGetsPerThread = 20;
  std::atomic<int> ok{0};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < kThreads; ++t) {
    scrapers.emplace_back([port, t, &ok] {
      for (int i = 0; i < kGetsPerThread; ++i) {
        const std::string response =
            HttpGet(port, (t + i) % 2 == 0 ? "/metrics" : "/status");
        if (response.find("200 OK") != std::string::npos) {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    MonitorStatus status;
    status.step = i;
    status.total_steps = 50;
    MetricStat stat;
    stat.sum = static_cast<double>(i);
    status.metrics.ranks = 1;
    status.metrics.counters["solver.steps"] = stat;
    server.Publish(std::move(status));
  }
  for (std::thread& t : scrapers) t.join();
  EXPECT_EQ(ok.load(), kThreads * kGetsPerThread);
  EXPECT_GE(server.Requests(),
            static_cast<std::uint64_t>(kThreads * kGetsPerThread));
}

// ------------------------------------------------------ workflow integration

TEST(MonitorWorkflowTest, InSituRunIsScrapableMidRunAndPersistsArtifacts) {
  const std::string dir = TempSubdir("wf");
  nekrs::cases::TaylorGreenOptions tg;
  tg.elements = {2, 2, 4};  // z is the partition axis: one layer per rank
  tg.order = 3;

  nek_sensei::InSituOptions options;
  options.flow = nekrs::cases::TaylorGreenCase(tg);
  options.steps = 30;
  options.sensei_xml = "<sensei/>";
  options.telemetry.monitor_port = 0;  // ephemeral
  options.telemetry.metrics_path = dir + "/metrics.json";
  options.telemetry.status_path = dir + "/status.json";
  options.telemetry.monitor_port_file = dir + "/monitor.port";
  // Rank 0 busy-spins 20ms extra per step: keeps the run long enough for a
  // genuine mid-run scrape AND plants a solver-attributable straggler that
  // must surface in the served status and the final metrics.json.  The
  // spin is wall-clock-sized so it dominates the base step time even when
  // sanitizers inflate the compute.
  options.straggler_rank = 0;
  options.straggler_seconds = 0.02;

  // Scraper thread: discover the port from the port file, then poll the
  // live endpoint until the run finishes.
  std::atomic<bool> run_done{false};
  std::atomic<bool> healthz_ok{false};
  std::atomic<bool> metrics_wellformed{false};
  const std::string port_file = dir + "/monitor.port";
  std::thread scraper([&] {
    int port = -1;
    while (!run_done.load()) {
      if (port < 0 && std::filesystem::exists(port_file)) {
        port = std::atoi(Slurp(port_file).c_str());
      }
      if (port > 0) {
        if (BodyOf(HttpGet(port, "/healthz")) == "ok\n") {
          healthz_ok.store(true);
        }
        const std::string body = BodyOf(HttpGet(port, "/metrics"));
        // Either the pre-publish placeholder or real exposition — both
        // start with a comment line, never a torn document.
        if (!body.empty() && body[0] == '#') metrics_wellformed.store(true);
        if (healthz_ok.load() && metrics_wellformed.load()) return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const auto metrics = nek_sensei::RunInSitu(4, options);
  run_done.store(true);
  scraper.join();

  EXPECT_TRUE(healthz_ok.load());
  EXPECT_TRUE(metrics_wellformed.load());

  // The injected straggler was flagged and attributed to the solver span.
  ASSERT_FALSE(metrics.metrics_report.anomalies.empty());
  EXPECT_EQ(metrics.metrics_report.anomalies[0].rank, 0);
  EXPECT_EQ(metrics.metrics_report.anomalies[0].dominant_span, "solver");

  // Final artifacts: metrics.json carries the anomaly, status.json is the
  // last served snapshot (they agree), and the port file held the port.
  const std::string metrics_json = Slurp(dir + "/metrics.json");
  EXPECT_EQ(metrics_json.find("\"anomalies\": []"), std::string::npos);
  EXPECT_NE(metrics_json.find("\"anomalies\": ["), std::string::npos);
  EXPECT_NE(metrics_json.find("\"dominant_span\": \"solver\""),
            std::string::npos);
  const std::string status_json = Slurp(dir + "/status.json");
  EXPECT_NE(status_json.find("\"total_steps\": 30"), std::string::npos);
  EXPECT_NE(status_json.find("\"dominant_span\": \"solver\""),
            std::string::npos);
  EXPECT_NE(status_json.find("\"step\": 30,"), std::string::npos);
  EXPECT_GT(std::atoi(Slurp(port_file).c_str()), 0);
}

TEST(MonitorWorkflowTest, InTransitRunPublishesSimGroupStatusWithSstQueue) {
  // The in transit heartbeat ticks on the sim group while the endpoint sits
  // in its receive loop; world rank 0 serves the sim group's status.
  const std::string dir = TempSubdir("wf_intransit");
  nekrs::cases::RayleighBenardOptions rbc;
  rbc.elements = {2, 2, 2};
  rbc.order = 3;

  nek_sensei::InTransitOptions options;
  options.flow = nekrs::cases::RayleighBenardCase(rbc);
  options.steps = 6;
  options.sim_per_endpoint = 2;  // 2 sim ranks + 1 endpoint
  options.sim_xml =
      "<sensei><analysis type=\"adios\" frequency=\"2\"/></sensei>";
  options.sst_queue_limit = 1;
  options.telemetry.monitor_port = 0;  // ephemeral
  options.telemetry.metrics_path = dir + "/metrics.json";
  options.telemetry.status_path = dir + "/status.json";

  const auto metrics = nek_sensei::RunInTransit(2, options);
  ASSERT_EQ(metrics.ranks.size(), 3u);

  // Whether the endpoint's last e2e sample lands before the final tick is
  // timing-dependent, so e2e_seconds is deliberately not asserted.
  const std::string status_json = Slurp(dir + "/status.json");
  EXPECT_NE(status_json.find("\"step\": 6,"), std::string::npos)
      << status_json;
  EXPECT_NE(status_json.find("\"total_steps\": 6,"), std::string::npos);
  EXPECT_NE(status_json.find("\"sst_queue\": {\"depth\": "),
            std::string::npos);
  EXPECT_NE(status_json.find(", \"limit\": 1}"), std::string::npos);
  EXPECT_NE(Slurp(dir + "/metrics.json").find("\"anomalies\": ["),
            std::string::npos);
}

TEST(MonitorServerTest, OutOfRangePortDegradesToNotServing) {
  // htons would wrap 70000 to 4464; the server must refuse it instead, the
  // way it handles a failed bind, and write no port file.
  const std::string dir = TempSubdir("badport");
  for (const int port : {70000, 65536, -2}) {
    MonitorServer::Options options;
    options.port = port;
    options.port_file = dir + "/monitor.port";
    MonitorServer server(options);
    EXPECT_FALSE(server.Serving()) << port;
    EXPECT_EQ(server.Port(), -1) << port;
    EXPECT_FALSE(std::filesystem::exists(options.port_file)) << port;
  }
}

}  // namespace
