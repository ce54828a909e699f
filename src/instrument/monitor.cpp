#include "instrument/monitor.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <set>
#include <sstream>
#include <utility>

#include "instrument/report.hpp"

namespace instrument {

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:]; the repo's dotted
// plane.metric taxonomy maps onto it with an nsm_ namespace prefix and
// dots flattened to underscores.
std::string PromName(const std::string& name) {
  std::string out = "nsm_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void AppendGaugeStat(std::string& out, const std::string& name,
                     const char* stat, double value) {
  out += name + "{stat=\"" + stat + "\"} " + JsonNumber(value) + "\n";
}

std::string HttpResponse(const char* status, const char* content_type,
                         const std::string& body) {
  std::string out = "HTTP/1.1 ";
  out += status;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: " + std::to_string(body.size()) +
         "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

std::string RenderPrometheus(const MetricsReport& report) {
  if (report.Empty()) return "# nsm: no metrics published yet\n";
  std::string out;
  out += "# nsm run-health metrics (" + std::to_string(report.ranks) +
         " ranks)\n";
  // A name may be published through more than one instrument (a counter
  // and a span histogram could share one).  Prometheus allows each family
  // name exactly one TYPE, so later families that collide with an
  // already-emitted name get a type suffix.  The report
  // maps are ordered, so the renaming is deterministic.
  std::set<std::string> used;
  for (const auto& [name, stat] : report.counters) {
    const std::string prom = PromName(name);
    used.insert(prom);
    out += "# TYPE " + prom + " counter\n";
    out += prom + " " + JsonNumber(stat.sum) + "\n";
  }
  for (const auto& [name, stat] : report.gauges) {
    std::string prom = PromName(name);
    if (!used.insert(prom).second) {
      prom += "_gauge";
      used.insert(prom);
    }
    out += "# TYPE " + prom + " gauge\n";
    AppendGaugeStat(out, prom, "min", stat.min);
    AppendGaugeStat(out, prom, "mean", stat.mean);
    AppendGaugeStat(out, prom, "max", stat.max);
  }
  for (const auto& [name, h] : report.histograms) {
    std::string prom = PromName(name);
    if (!used.insert(prom).second) {
      prom += "_hist";
      used.insert(prom);
    }
    out += "# TYPE " + prom + " histogram\n";
    // The repo's buckets are per-interval counts with an underflow bucket;
    // Prometheus wants cumulative counts at ascending `le` bounds.  Bucket
    // i < edges.size() holds values below edges[i], so the cumulative sum
    // of buckets[0..i] is exactly the le=edges[i] count.
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.edges.size(); ++i) {
      cumulative += h.buckets[i];
      out += prom + "_bucket{le=\"" + JsonNumber(h.edges[i]) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += prom + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += prom + "_sum " + JsonNumber(h.sum) + "\n";
    out += prom + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

std::string RenderStatusJson(const MonitorStatus& status) {
  std::ostringstream out;
  out << "{\n  \"step\": " << status.step
      << ",\n  \"total_steps\": " << status.total_steps
      << ",\n  \"rate_steps_per_second\": "
      << JsonNumber(status.rate_steps_per_second) << ",\n  \"eta_seconds\": ";
  if (status.eta_seconds >= 0.0) {
    out << JsonNumber(status.eta_seconds);
  } else {
    out << "null";
  }
  out << ",\n  \"step_seconds\": {\"min\": "
      << JsonNumber(status.step_seconds_min)
      << ", \"mean\": " << JsonNumber(status.step_seconds_mean)
      << ", \"max\": " << JsonNumber(status.step_seconds_max) << "}";
  if (status.queue_limit > 0) {
    out << ",\n  \"sst_queue\": {\"depth\": " << status.queue_depth
        << ", \"limit\": " << status.queue_limit << "}";
  }
  if (status.insitu_percent >= 0.0) {
    out << ",\n  \"insitu_percent\": " << JsonNumber(status.insitu_percent);
  }
  if (status.offload_percent >= 0.0) {
    out << ",\n  \"offload_percent\": "
        << JsonNumber(status.offload_percent);
  }
  if (status.e2e_seconds >= 0.0) {
    out << ",\n  \"e2e_seconds\": " << JsonNumber(status.e2e_seconds);
  }
  out << ",\n  \"anomalies\": [";
  for (std::size_t i = 0; i < status.anomalies.size(); ++i) {
    if (i) out << ", ";
    out << AnomalyJson(status.anomalies[i]);
  }
  out << "],\n  \"counters\": {";
  bool comma = false;
  for (const auto& [name, stat] : status.metrics.counters) {
    if (comma) out << ", ";
    comma = true;
    out << "\"" << JsonEscape(name) << "\": " << JsonNumber(stat.sum);
  }
  out << "}\n}\n";
  return out.str();
}

MonitorServer::MonitorServer(const Options& options) : options_(options) {
  // htons would silently wrap an out-of-range port (70000 -> 4464): refuse
  // it like a failed bind instead.
  if (options_.port < 0 || options_.port > 65535) {
    std::fprintf(stderr,
                 "warning: monitor disabled: port %d outside [0, 65535]\n",
                 options_.port);
    return;
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    std::fprintf(stderr, "warning: monitor disabled: socket() failed\n");
    return;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    std::fprintf(stderr,
                 "warning: monitor disabled: cannot bind 127.0.0.1:%d\n",
                 options_.port);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = static_cast<int>(ntohs(bound.sin_port));
  }
  if (!options_.port_file.empty()) {
    AtomicFile file(options_.port_file);
    file.Stream() << port_ << "\n";
    if (!file.Commit()) {
      std::fprintf(stderr, "warning: failed to write monitor port file %s\n",
                   options_.port_file.c_str());
    }
  }
  std::fprintf(stderr,
               "[monitor] serving http://127.0.0.1:%d "
               "(/metrics /healthz /status)\n",
               port_);
  std::fflush(stderr);
  server_ = std::thread([this] { ServeLoop(); });
}

MonitorServer::~MonitorServer() { Stop(); }

void MonitorServer::Publish(MonitorStatus status) {
  {
    core::MutexLock lock(mutex_);
    status_ = std::move(status);
    published_ = true;
  }
  // The monitor's own plane, fed on the publishing (rank-0) thread — the
  // server thread never touches a registry.
  if (auto* metrics = CurrentMetrics()) {
    metrics->SetTotal("monitor.requests",
                      static_cast<double>(Requests()));
    metrics->Add("monitor.publishes", 1.0);
  }
}

void MonitorServer::UpdateMetrics(MetricsReport report,
                                  std::vector<AnomalyRecord> anomalies) {
  core::MutexLock lock(mutex_);
  status_.metrics = std::move(report);
  status_.anomalies = std::move(anomalies);
  published_ = true;
}

void MonitorServer::Stop() {
  if (stopped_) return;
  stopped_ = true;
  stop_.store(true, std::memory_order_relaxed);
  if (server_.joinable()) server_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!options_.persist_path.empty()) {
    MonitorStatus final_status;
    bool have = false;
    {
      core::MutexLock lock(mutex_);
      have = published_;
      if (have) final_status = status_;
    }
    if (have) {
      AtomicFile file(options_.persist_path);
      file.Stream() << RenderStatusJson(final_status);
      if (!file.Commit()) {
        std::fprintf(stderr, "warning: failed to persist monitor status %s\n",
                     options_.persist_path.c_str());
      }
    }
  }
}

void MonitorServer::ServeLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    HandleConnection(fd);
    ::close(fd);
  }
}

void MonitorServer::HandleConnection(int fd) {
  timeval timeout{};
  timeout.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  std::string request;
  char buf[1024];
  while (request.size() < 8192 &&
         request.find("\r\n\r\n") == std::string::npos) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    request.append(buf, static_cast<std::size_t>(n));
  }
  // "GET <target> HTTP/1.x" — anything else (or a torn read) is a 400.
  std::string target;
  const std::size_t sp1 = request.find(' ');
  if (request.compare(0, 4, "GET ") == 0 && sp1 != std::string::npos) {
    const std::size_t sp2 = request.find(' ', sp1 + 1);
    if (sp2 != std::string::npos) {
      target = request.substr(sp1 + 1, sp2 - sp1 - 1);
    }
  }
  const std::string response = ResponseFor(target);
  std::size_t sent = 0;
  while (sent < response.size()) {
    const ssize_t n = ::send(fd, response.data() + sent,
                             response.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
}

std::string MonitorServer::ResponseFor(const std::string& target) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (target == "/healthz") {
    return HttpResponse("200 OK", "text/plain; charset=utf-8", "ok\n");
  }
  if (target == "/metrics") {
    MetricsReport report;
    {
      core::MutexLock lock(mutex_);
      report = status_.metrics;
    }
    return HttpResponse("200 OK",
                        "text/plain; version=0.0.4; charset=utf-8",
                        RenderPrometheus(report));
  }
  if (target == "/status") {
    MonitorStatus status;
    {
      core::MutexLock lock(mutex_);
      status = status_;
    }
    return HttpResponse("200 OK", "application/json",
                        RenderStatusJson(status));
  }
  if (target.empty()) {
    return HttpResponse("400 Bad Request", "text/plain; charset=utf-8",
                        "bad request\n");
  }
  return HttpResponse("404 Not Found", "text/plain; charset=utf-8",
                      "not found (routes: /metrics /healthz /status)\n");
}

}  // namespace instrument
