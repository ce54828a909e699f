#include "instrument/metrics.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "instrument/report.hpp"
#include "instrument/timer.hpp"

namespace instrument {

namespace {

// -- snapshot wire format helpers -------------------------------------------
// Flat length-prefixed binary: ranks share one process, so host byte order
// and native doubles are fine (the blob never leaves the machine).

void PutU64(std::vector<std::byte>& out, std::uint64_t v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(v));
  std::memcpy(out.data() + at, &v, sizeof(v));
}

void PutF64(std::vector<std::byte>& out, double v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(v));
  std::memcpy(out.data() + at, &v, sizeof(v));
}

void PutString(std::vector<std::byte>& out, const std::string& s) {
  PutU64(out, s.size());
  const std::size_t at = out.size();
  out.resize(at + s.size());
  std::memcpy(out.data() + at, s.data(), s.size());
}

class Cursor {
 public:
  explicit Cursor(std::span<const std::byte> bytes) : bytes_(bytes) {}

  std::uint64_t U64() {
    std::uint64_t v;
    Copy(&v, sizeof(v));
    return v;
  }

  double F64() {
    double v;
    Copy(&v, sizeof(v));
    return v;
  }

  std::string String() {
    const std::uint64_t len = U64();
    if (len > bytes_.size() - at_) Fail();
    std::string s(reinterpret_cast<const char*>(bytes_.data() + at_),
                  static_cast<std::size_t>(len));
    at_ += static_cast<std::size_t>(len);
    return s;
  }

  [[nodiscard]] bool Done() const { return at_ == bytes_.size(); }

 private:
  void Copy(void* dst, std::size_t n) {
    if (n > bytes_.size() - at_) Fail();
    std::memcpy(dst, bytes_.data() + at_, n);
    at_ += n;
  }

  [[noreturn]] static void Fail() {
    throw std::runtime_error("metrics: malformed snapshot blob");
  }

  std::span<const std::byte> bytes_;
  std::size_t at_ = 0;
};

}  // namespace

// -- HistogramData -----------------------------------------------------------

HistogramData::HistogramData(std::vector<double> bucket_edges)
    : edges(std::move(bucket_edges)), buckets(edges.size() + 1, 0) {
  if (!std::is_sorted(edges.begin(), edges.end()) ||
      std::adjacent_find(edges.begin(), edges.end()) != edges.end()) {
    throw std::invalid_argument(
        "metrics: histogram edges must be strictly ascending");
  }
}

std::size_t HistogramData::BucketIndex(double value) const {
  // upper_bound: first edge strictly greater than value, so a value exactly
  // on a boundary lands in the bucket that boundary opens (the upper one).
  return static_cast<std::size_t>(
      std::upper_bound(edges.begin(), edges.end(), value) - edges.begin());
}

void HistogramData::Observe(double value) {
  ++buckets[BucketIndex(value)];
  sum += value;
  if (count == 0 || value < min) min = value;
  if (count == 0 || value > max) max = value;
  ++count;
}

void HistogramData::Merge(const HistogramData& other) {
  if (edges != other.edges) {
    throw std::runtime_error("metrics: histogram bucket edges mismatch");
  }
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
  sum += other.sum;
  if (other.count) {
    if (count == 0 || other.min < min) min = other.min;
    if (count == 0 || other.max > max) max = other.max;
  }
  count += other.count;
}

// -- MetricsSnapshot ---------------------------------------------------------

std::vector<std::byte> MetricsSnapshot::Serialize() const {
  std::vector<std::byte> out;
  PutU64(out, counters.size());
  for (const auto& [name, value] : counters) {
    PutString(out, name);
    PutF64(out, value);
  }
  PutU64(out, gauges.size());
  for (const auto& [name, g] : gauges) {
    PutString(out, name);
    PutF64(out, g.last);
    PutF64(out, g.low);
    PutF64(out, g.high);
    PutF64(out, g.sum);
    PutU64(out, g.samples);
  }
  PutU64(out, histograms.size());
  for (const auto& [name, h] : histograms) {
    PutString(out, name);
    PutU64(out, h.edges.size());
    for (double e : h.edges) PutF64(out, e);
    for (std::uint64_t b : h.buckets) PutU64(out, b);
    PutU64(out, h.count);
    PutF64(out, h.sum);
    PutF64(out, h.min);
    PutF64(out, h.max);
  }
  return out;
}

MetricsSnapshot MetricsSnapshot::Deserialize(std::span<const std::byte> bytes) {
  MetricsSnapshot snapshot;
  Cursor in(bytes);
  const std::uint64_t n_counters = in.U64();
  for (std::uint64_t i = 0; i < n_counters; ++i) {
    std::string name = in.String();
    snapshot.counters[std::move(name)] = in.F64();
  }
  const std::uint64_t n_gauges = in.U64();
  for (std::uint64_t i = 0; i < n_gauges; ++i) {
    std::string name = in.String();
    GaugeData g;
    g.last = in.F64();
    g.low = in.F64();
    g.high = in.F64();
    g.sum = in.F64();
    g.samples = in.U64();
    snapshot.gauges[std::move(name)] = g;
  }
  const std::uint64_t n_hist = in.U64();
  for (std::uint64_t i = 0; i < n_hist; ++i) {
    std::string name = in.String();
    const std::uint64_t n_edges = in.U64();
    std::vector<double> edges(n_edges);
    for (double& e : edges) e = in.F64();
    HistogramData h(std::move(edges));
    for (std::uint64_t& b : h.buckets) b = in.U64();
    h.count = in.U64();
    h.sum = in.F64();
    h.min = in.F64();
    h.max = in.F64();
    snapshot.histograms.emplace(std::move(name), std::move(h));
  }
  if (!in.Done()) {
    throw std::runtime_error("metrics: trailing bytes in snapshot blob");
  }
  return snapshot;
}

// -- MetricsRegistry ---------------------------------------------------------

void MetricsRegistry::Set(std::string_view name, double value) {
  owner_.Check("instrument::MetricsRegistry::Set");
  auto [it, inserted] = gauges_.try_emplace(std::string(name));
  GaugeData& g = it->second;
  g.last = value;
  if (inserted || value < g.low) g.low = value;
  if (inserted || value > g.high) g.high = value;
  g.sum += value;
  ++g.samples;
}

void MetricsRegistry::Add(std::string_view name, double delta) {
  owner_.Check("instrument::MetricsRegistry::Add");
  counters_[std::string(name)] += delta;
}

void MetricsRegistry::SetTotal(std::string_view name, double total) {
  owner_.Check("instrument::MetricsRegistry::SetTotal");
  double& value = counters_[std::string(name)];
  value = std::max(value, total);
}

void MetricsRegistry::Observe(std::string_view name, double value) {
  owner_.Check("instrument::MetricsRegistry::Observe");
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), HistogramData(DefaultLatencyEdges()))
             .first;
  }
  it->second.Observe(value);
}

void MetricsRegistry::DefineHistogram(std::string_view name,
                                      std::vector<double> edges) {
  owner_.Check("instrument::MetricsRegistry::DefineHistogram");
  histograms_.insert_or_assign(std::string(name),
                               HistogramData(std::move(edges)));
}

void MetricsRegistry::MergeFrom(const MetricsSnapshot& other) {
  owner_.Check("instrument::MetricsRegistry::MergeFrom");
  for (const auto& [name, value] : other.counters) {
    counters_[name] += value;
  }
  for (const auto& [name, gauge] : other.gauges) {
    auto [it, inserted] = gauges_.try_emplace(name, gauge);
    if (inserted) continue;
    GaugeData& mine = it->second;
    mine.last = gauge.last;  // the merged-in side is the later observer
    mine.low = std::min(mine.low, gauge.low);
    mine.high = std::max(mine.high, gauge.high);
    mine.sum += gauge.sum;
    mine.samples += gauge.samples;
  }
  for (const auto& [name, histogram] : other.histograms) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, histogram);
    } else {
      it->second.Merge(histogram);
    }
  }
}

std::vector<double> MetricsRegistry::DefaultLatencyEdges() {
  return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0};
}

double MetricsRegistry::Counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

double MetricsRegistry::HistogramSum(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? 0.0 : it->second.sum;
}

const GaugeData* MetricsRegistry::Gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  snapshot.counters = counters_;
  snapshot.gauges = gauges_;
  snapshot.histograms = {histograms_.begin(), histograms_.end()};
  return snapshot;
}

void MetricsRegistry::Clear() {
  // Clearing is an explicit ownership handoff point (benches reuse a
  // registry across configurations): release the owner binding too.
  owner_.Reset();
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

// -- reduction ---------------------------------------------------------------

namespace {

MetricStat ReduceValues(std::vector<double>& values) {
  MetricStat stat;
  stat.ranks = static_cast<int>(values.size());
  if (values.empty()) return stat;
  std::sort(values.begin(), values.end());
  stat.min = values.front();
  stat.max = values.back();
  for (double v : values) stat.sum += v;
  stat.mean = stat.sum / static_cast<double>(values.size());
  stat.p95 = Percentile(values, 0.95);
  stat.imbalance = stat.mean > 0.0 ? stat.max / stat.mean : 0.0;
  return stat;
}

}  // namespace

MetricsReport ReduceSnapshots(const std::vector<MetricsSnapshot>& per_rank) {
  MetricsReport report;
  report.ranks = static_cast<int>(per_rank.size());

  std::map<std::string, std::vector<double>> counter_values;
  std::map<std::string, std::vector<double>> histogram_values;
  std::map<std::string, std::vector<double>> gauge_values;
  std::map<std::string, std::pair<double, double>> gauge_marks;
  for (const MetricsSnapshot& snapshot : per_rank) {
    for (const auto& [name, value] : snapshot.counters) {
      counter_values[name].push_back(value);
    }
    for (const auto& [name, g] : snapshot.gauges) {
      // A gauge's per-rank representative is its high watermark (peak queue
      // depth, peak memory); the global low/high watermarks are kept too.
      gauge_values[name].push_back(g.high);
      auto [it, inserted] = gauge_marks.try_emplace(name, g.low, g.high);
      if (!inserted) {
        it->second.first = std::min(it->second.first, g.low);
        it->second.second = std::max(it->second.second, g.high);
      }
    }
    for (const auto& [name, h] : snapshot.histograms) {
      histogram_values[name].push_back(h.sum);
      auto it = report.histograms.find(name);
      if (it == report.histograms.end()) {
        report.histograms.emplace(name, h);
      } else {
        it->second.Merge(h);
      }
    }
  }
  for (auto& [name, values] : counter_values) {
    report.counters[name] = ReduceValues(values);
  }
  for (auto& [name, values] : histogram_values) {
    report.histogram_sums[name] = ReduceValues(values);
  }
  for (auto& [name, values] : gauge_values) {
    MetricStat stat = ReduceValues(values);
    const auto& [low, high] = gauge_marks.at(name);
    stat.low_watermark = low;
    stat.high_watermark = high;
    report.gauges[name] = stat;
  }
  return report;
}

double MetricsReport::CounterSum(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second.sum;
}

const MetricStat* MetricsReport::Gauge(const std::string& name) const {
  auto it = gauges.find(name);
  return it == gauges.end() ? nullptr : &it->second;
}

// -- export ------------------------------------------------------------------

namespace {

void WriteStatObject(std::ostream& out, const MetricStat& stat, bool gauge) {
  out << "{\"ranks\": " << stat.ranks << ", \"min\": " << JsonNumber(stat.min)
      << ", \"mean\": " << JsonNumber(stat.mean)
      << ", \"max\": " << JsonNumber(stat.max)
      << ", \"p95\": " << JsonNumber(stat.p95)
      << ", \"sum\": " << JsonNumber(stat.sum)
      << ", \"imbalance\": " << JsonNumber(stat.imbalance);
  if (gauge) {
    out << ", \"low_watermark\": " << JsonNumber(stat.low_watermark)
        << ", \"high_watermark\": " << JsonNumber(stat.high_watermark);
  }
  out << "}";
}

void WriteStat(std::ostream& out, const std::string& name,
               const MetricStat& stat, bool gauge, bool& first) {
  if (!first) out << ",";
  first = false;
  out << "\n    \"" << JsonEscape(name) << "\": ";
  WriteStatObject(out, stat, gauge);
}

}  // namespace

bool WriteMetricsJson(const std::string& path, const MetricsReport& report) {
  AtomicFile file(path);
  if (!file.Ok()) return false;
  std::ostream& out = file.Stream();
  out << "{\n  \"ranks\": " << report.ranks << ",\n";
  out << "  \"counters\": {";
  bool first = true;
  for (const auto& [name, stat] : report.counters) {
    WriteStat(out, name, stat, /*gauge=*/false, first);
  }
  out << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, stat] : report.gauges) {
    WriteStat(out, name, stat, /*gauge=*/true, first);
  }
  out << "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : report.histograms) {
    if (!first) out << ",";
    first = false;
    out << "\n    \"" << JsonEscape(name) << "\": {\"count\": " << h.count
        << ", \"sum\": " << JsonNumber(h.sum)
        << ", \"mean\": " << JsonNumber(h.Mean())
        << ", \"min\": " << JsonNumber(h.min)
        << ", \"max\": " << JsonNumber(h.max) << ", \"edges\": [";
    for (std::size_t i = 0; i < h.edges.size(); ++i) {
      if (i) out << ", ";
      out << JsonNumber(h.edges[i]);
    }
    out << "], \"buckets\": [";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i) out << ", ";
      out << h.buckets[i];
    }
    out << "]";
    if (const auto it = report.histogram_sums.find(name);
        it != report.histogram_sums.end()) {
      out << ", \"per_rank_sum\": ";
      WriteStatObject(out, it->second, /*gauge=*/false);
    }
    out << "}";
  }
  // Always present, [] for a balanced run: consumers can distinguish "the
  // detector ran clean" from "an old file without the anomalies plane".
  out << "\n  },\n  \"anomalies\": [";
  for (std::size_t i = 0; i < report.anomalies.size(); ++i) {
    if (i) out << ",";
    out << "\n    " << AnomalyJson(report.anomalies[i]);
  }
  out << (report.anomalies.empty() ? "]\n}\n" : "\n  ]\n}\n");
  return file.Commit();
}

}  // namespace instrument
