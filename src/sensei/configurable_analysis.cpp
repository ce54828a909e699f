#include "sensei/configurable_analysis.hpp"

#include <cstdlib>
#include <stdexcept>

#include "sensei/catalyst_adaptor.hpp"
#include "sensei/autocorrelation_adaptor.hpp"
#include "sensei/bpfile_adaptor.hpp"
#include "sensei/checkpoint_adaptor.hpp"
#include "sensei/histogram_adaptor.hpp"
#include "sensei/stats_adaptor.hpp"

namespace sensei {

namespace {

svtk::Centering ParseCentering(const std::string& text) {
  if (text == "cell") return svtk::Centering::kCell;
  if (text == "point" || text.empty()) return svtk::Centering::kPoint;
  throw std::invalid_argument("sensei: unknown centering '" + text + "'");
}

CatalystView ParseView(const xmlcfg::Element& e) {
  CatalystView view;
  view.array = e.Attr("array", view.array);
  view.centering = ParseCentering(e.Attr("centering"));
  view.color_by_magnitude = e.AttrInt("magnitude", 0) != 0;
  view.colormap = e.Attr("colormap", view.colormap);
  view.azimuth = e.AttrDouble("azimuth", view.azimuth);
  view.elevation = e.AttrDouble("elevation", view.elevation);
  view.zoom = e.AttrDouble("zoom", view.zoom);
  view.range_min = e.AttrDouble("min", 0.0);
  view.range_max = e.AttrDouble("max", 0.0);
  if (e.HasAttr("threshold_min")) {
    view.threshold_min = e.AttrDouble("threshold_min");
  }
  if (e.HasAttr("threshold_max")) {
    view.threshold_max = e.AttrDouble("threshold_max");
  }
  if (e.HasAttr("isovalue")) {
    view.isovalue = e.AttrDouble("isovalue");
    view.iso_array = e.Attr("iso_array");
  }
  if (e.HasAttr("slice_axis")) {
    const std::string axis = e.Attr("slice_axis");
    if (axis == "x" || axis == "0") view.slice_axis = 0;
    else if (axis == "y" || axis == "1") view.slice_axis = 1;
    else if (axis == "z" || axis == "2") view.slice_axis = 2;
    else throw std::invalid_argument("sensei: bad slice_axis '" + axis + "'");
    view.slice_position = e.AttrDouble("slice_position", 0.0);
  }
  view.name = e.Attr("name", view.array);
  return view;
}

std::shared_ptr<AnalysisAdaptor> MakeCatalyst(const xmlcfg::Element& e,
                                              mpimini::Comm&) {
  CatalystOptions options;
  // Range-checked before narrowing, so "4294967936" cannot wrap to 640.
  options.width = CheckedImageSize("width", e.AttrInt("width", options.width));
  options.height =
      CheckedImageSize("height", e.AttrInt("height", options.height));
  options.output_dir = e.Attr("output", ".");
  options.prefix = e.Attr("prefix", "render");
  options.format = e.Attr("format", "png");
  options.scalar_bar = e.AttrInt("scalar_bar", 1) != 0;
  for (const xmlcfg::Element* view : e.FindAll("render")) {
    options.views.push_back(ParseView(*view));
  }
  if (options.views.empty() && e.HasAttr("array")) {
    options.views.push_back(ParseView(e));
  }
  if (options.views.empty()) {
    throw std::invalid_argument(
        "sensei: catalyst analysis needs <render> children or an array "
        "attribute");
  }
  return std::make_shared<CatalystAnalysisAdaptor>(std::move(options));
}

std::shared_ptr<AnalysisAdaptor> MakeCheckpoint(const xmlcfg::Element& e,
                                                mpimini::Comm&) {
  CheckpointOptions options;
  options.output_dir = e.Attr("output", ".");
  options.prefix = e.Attr("prefix", "chk");
  options.encoding = e.Attr("encoding", "binary") == "ascii"
                         ? svtk::VtuEncoding::kAscii
                         : svtk::VtuEncoding::kBinary;
  options.arrays = SplitList(e.Attr("arrays"));
  return std::make_shared<CheckpointAnalysisAdaptor>(std::move(options));
}

std::shared_ptr<AnalysisAdaptor> MakeAutocorrelation(const xmlcfg::Element& e,
                                                     mpimini::Comm&) {
  AutocorrelationOptions options;
  options.array = e.Attr("array", options.array);
  options.centering = ParseCentering(e.Attr("centering"));
  options.by_magnitude = e.AttrInt("magnitude", 1) != 0;
  options.window = static_cast<int>(e.AttrInt("window", options.window));
  options.max_lag = static_cast<int>(e.AttrInt("max_lag", options.max_lag));
  options.output_dir = e.Attr("output");
  return std::make_shared<AutocorrelationAnalysisAdaptor>(std::move(options));
}

std::shared_ptr<AnalysisAdaptor> MakeBpFile(const xmlcfg::Element& e,
                                            mpimini::Comm&) {
  BpFileOptions options;
  options.output_dir = e.Attr("output", ".");
  options.prefix = e.Attr("prefix", "stream");
  options.arrays = SplitList(e.Attr("arrays"));
  options.codecs = ParseTransportCodecs(e);
  return std::make_shared<BpFileAnalysisAdaptor>(std::move(options));
}

std::shared_ptr<AnalysisAdaptor> MakeStats(const xmlcfg::Element& e,
                                           mpimini::Comm&) {
  StatsOptions options;
  options.arrays = SplitList(e.Attr("arrays"));
  options.log_path = e.Attr("log");
  return std::make_shared<StatsAnalysisAdaptor>(std::move(options));
}

std::shared_ptr<AnalysisAdaptor> MakeHistogram(const xmlcfg::Element& e,
                                               mpimini::Comm&) {
  HistogramOptions options;
  options.array = e.Attr("array", options.array);
  options.centering = ParseCentering(e.Attr("centering"));
  options.by_magnitude = e.AttrInt("magnitude", 0) != 0;
  options.bins = static_cast<int>(e.AttrInt("bins", options.bins));
  options.output_dir = e.Attr("output");
  return std::make_shared<HistogramAnalysisAdaptor>(std::move(options));
}

}  // namespace

codec::Spec ParseCodecSpec(const xmlcfg::Element& parent) {
  const xmlcfg::Element* e = parent.FindChild("codec");
  if (e == nullptr) return {};
  codec::Spec spec;
  const std::string type = e->Attr("type", "identity");
  if (type == "identity") {
    spec.kind = codec::Kind::kIdentity;
  } else if (type == "blockfloat") {
    spec.kind = codec::Kind::kBlockFloat;
  } else if (type == "shuffle_rle") {
    spec.kind = codec::Kind::kShuffleRle;
  } else {
    throw std::invalid_argument(
        "sensei: unknown codec type '" + type +
        "' (expected identity, blockfloat, or shuffle_rle)");
  }
  const long rate = e->AttrInt("rate", spec.rate);
  if (rate < codec::kMinBlockFloatRate || rate > codec::kMaxBlockFloatRate) {
    throw std::invalid_argument(
        "sensei: codec rate " + std::to_string(rate) + " outside [" +
        std::to_string(codec::kMinBlockFloatRate) + ", " +
        std::to_string(codec::kMaxBlockFloatRate) + "]");
  }
  spec.rate = static_cast<int>(rate);
  spec.delta = e->AttrInt("delta", spec.delta ? 1 : 0) != 0;
  return spec;
}

TransportCodecs ParseTransportCodecs(const xmlcfg::Element& analysis) {
  TransportCodecs codecs;
  if (const xmlcfg::Element* points = analysis.FindChild("points")) {
    codecs.points = ParseCodecSpec(*points);
  }
  if (const xmlcfg::Element* conn = analysis.FindChild("connectivity")) {
    codecs.connectivity = ParseCodecSpec(*conn);
  }
  if (codecs.connectivity.kind == codec::Kind::kBlockFloat) {
    // Reject at configuration time, before the first staged step would.
    throw std::invalid_argument(
        "sensei: blockfloat codec cannot apply to the int64 connectivity "
        "plane (use shuffle_rle)");
  }
  for (const xmlcfg::Element* array : analysis.FindAll("array")) {
    const std::string name = array->Attr("name");
    if (name.empty()) {
      throw std::invalid_argument(
          "sensei: <array> codec element needs a name attribute "
          "(\"*\" selects every array)");
    }
    codecs.arrays[name] = ParseCodecSpec(*array);
  }
  return codecs;
}

std::vector<std::string> SplitList(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    std::size_t end = csv.find(',', begin);
    if (end == std::string::npos) end = csv.size();
    std::string item = csv.substr(begin, end - begin);
    // trim spaces
    while (!item.empty() && item.front() == ' ') item.erase(item.begin());
    while (!item.empty() && item.back() == ' ') item.pop_back();
    if (!item.empty()) out.push_back(std::move(item));
    begin = end + 1;
  }
  return out;
}

ConfigurableAnalysis::ConfigurableAnalysis(mpimini::Comm comm) : comm_(comm) {
  factories_["catalyst"] = MakeCatalyst;
  factories_["checkpoint"] = MakeCheckpoint;
  factories_["bpfile"] = MakeBpFile;
  factories_["autocorrelation"] = MakeAutocorrelation;
  factories_["stats"] = MakeStats;
  factories_["histogram"] = MakeHistogram;
}

void ConfigurableAnalysis::RegisterFactory(const std::string& type,
                                           Factory factory) {
  factories_[type] = std::move(factory);
}

void ConfigurableAnalysis::Initialize(const xmlcfg::Element& root) {
  if (root.name != "sensei") {
    throw std::invalid_argument("sensei: configuration root must be <sensei>");
  }
  for (const xmlcfg::Element* analysis : root.FindAll("analysis")) {
    if (analysis->AttrInt("enabled", 1) == 0) continue;
    const std::string type = analysis->Attr("type");
    auto factory = factories_.find(type);
    if (factory == factories_.end()) {
      throw std::invalid_argument("sensei: unknown analysis type '" + type +
                                  "'");
    }
    Entry entry;
    entry.type = type;
    entry.frequency = static_cast<int>(analysis->AttrInt("frequency", 1));
    if (entry.frequency < 1) {
      throw std::invalid_argument("sensei: frequency must be >= 1");
    }
    entry.adaptor = factory->second(*analysis, comm_);
    entry.span_name = "analysis." + type;
    entries_.push_back(std::move(entry));
  }
}

instrument::TelemetryConfig ParseTelemetryConfig(const xmlcfg::Element& root) {
  instrument::TelemetryConfig config;
  if (root.name != "sensei") {
    throw std::invalid_argument("sensei: configuration root must be <sensei>");
  }
  const xmlcfg::Element* telemetry = root.FindChild("telemetry");
  if (telemetry == nullptr) return config;
  config.enabled = telemetry->AttrInt("enabled", 1) != 0;
  config.trace_path = telemetry->Attr("trace");
  config.summary_path = telemetry->Attr("summary");
  const long capacity = telemetry->AttrInt(
      "capacity", static_cast<long>(config.span_capacity));
  if (capacity < 1) {
    throw std::invalid_argument("sensei: telemetry capacity must be >= 1");
  }
  config.span_capacity = static_cast<std::size_t>(capacity);
  config.wait_min_seconds =
      telemetry->AttrDouble("wait_min_seconds", config.wait_min_seconds);
  // Metrics plane: metrics="path" requests the rank-aggregated
  // metrics.json; heartbeat="N" the rank-0 progress line every N steps.
  config.metrics_path = telemetry->Attr("metrics");
  config.metrics = !config.metrics_path.empty();
  const long heartbeat = telemetry->AttrInt("heartbeat", 0);
  if (heartbeat < 0) {
    throw std::invalid_argument("sensei: telemetry heartbeat must be >= 0");
  }
  config.heartbeat_steps = static_cast<int>(heartbeat);
  // Live monitor: monitor="PORT" serves /metrics, /healthz, and /status on
  // rank 0's loopback for the duration of the run (0 = ephemeral port);
  // status="path" persists the final /status JSON, port_file="path" writes
  // the bound port (how scripts find an ephemeral one).
  if (!telemetry->Attr("monitor").empty()) {
    const long port = telemetry->AttrInt("monitor", 0);
    if (port < 0 || port > 65535) {
      throw std::invalid_argument(
          "sensei: telemetry monitor port must be in [0, 65535]");
    }
    config.monitor_port = static_cast<int>(port);
  }
  config.status_path = telemetry->Attr("status");
  config.monitor_port_file = telemetry->Attr("port_file");
  return config;
}

void ConfigurableAnalysis::InitializeFromFile(const std::string& path) {
  Initialize(xmlcfg::ParseFile(path).root);
}

bool ConfigurableAnalysis::Execute(DataAdaptor& data) {
  bool ok = true;
  bool ran = false;
  for (Entry& entry : entries_) {
    if (data.GetDataTimeStep() % entry.frequency != 0) continue;
    instrument::Span span(entry.span_name);
    ok = entry.adaptor->Execute(data) && ok;
    ran = true;
  }
  if (ran) {
    instrument::Span span("analysis.release");
    data.ReleaseData();
  }
  return ok;
}

void ConfigurableAnalysis::Finalize() {
  for (Entry& entry : entries_) entry.adaptor->Finalize();
}

bool ConfigurableAnalysis::AnyDue(int step) const {
  for (const Entry& entry : entries_) {
    if (step % entry.frequency == 0) return true;
  }
  return false;
}

std::optional<std::vector<std::string>> ConfigurableAnalysis::RequiredArrays(
    int step) const {
  std::vector<std::string> names;
  for (const Entry& entry : entries_) {
    if (step % entry.frequency != 0) continue;
    std::vector<std::string> requested = entry.adaptor->RequestedArrays();
    if (requested.empty()) return std::nullopt;  // "every advertised array"
    for (std::string& name : requested) {
      bool have = false;
      for (const std::string& existing : names) {
        if (existing == name) {
          have = true;
          break;
        }
      }
      if (!have) names.push_back(std::move(name));
    }
  }
  return names;
}

PipelineConfig ParsePipelineConfig(const xmlcfg::Element& root) {
  PipelineConfig config;
  if (root.name != "sensei") {
    throw std::invalid_argument("sensei: configuration root must be <sensei>");
  }
  const xmlcfg::Element* pipeline = root.FindChild("pipeline");
  if (pipeline == nullptr) {
    // Environment default (CI's async-default lane); explicit XML wins.
    const char* env = std::getenv("NEK_SENSEI_ASYNC");
    if (env != nullptr) {
      const std::string value = env;
      config.async = value == "1" || value == "on" || value == "ON";
    }
    return config;
  }
  const std::string mode = pipeline->Attr("mode", "sync");
  if (mode == "async") {
    config.async = true;
  } else if (mode != "sync") {
    throw std::invalid_argument("sensei: unknown pipeline mode '" + mode +
                                "' (expected sync or async)");
  }
  const long depth = pipeline->AttrInt("depth", config.depth);
  if (depth < 1) {
    throw std::invalid_argument("sensei: pipeline depth must be >= 1");
  }
  config.depth = static_cast<int>(depth);
  return config;
}

std::size_t ConfigurableAnalysis::TotalBytesWritten() const {
  std::size_t total = 0;
  for (const Entry& entry : entries_) total += entry.adaptor->BytesWritten();
  return total;
}

std::shared_ptr<AnalysisAdaptor> ConfigurableAnalysis::Find(
    const std::string& kind) const {
  for (const Entry& entry : entries_) {
    if (entry.adaptor->Kind() == kind) return entry.adaptor;
  }
  return nullptr;
}

}  // namespace sensei
