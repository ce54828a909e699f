#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <numbers>
#include <numeric>
#include <stdexcept>

#include "adios/sst.hpp"
#include "core/bridge.hpp"
#include "core/buffer.hpp"
#include "mpimini/runtime.hpp"
#include "nekrs/cases.hpp"
#include "occamini/device.hpp"
#include "sensei/adios_adaptor.hpp"
#include "sensei/catalyst_adaptor.hpp"
#include "sensei/checkpoint_adaptor.hpp"
#include "sensei/configurable_analysis.hpp"
#include "sensei/intransit_data_adaptor.hpp"
#include "stats.hpp"
#include "xmlcfg/xml.hpp"

namespace perfbench {

namespace {

// ---- Workload inputs --------------------------------------------------------

std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double UnitDouble(std::uint64_t& state) {
  return static_cast<double>(SplitMix64(state) >> 11) * 0x1.0p-53;
}

nekrs::FlowConfig PebbleBedFlow(unsigned variant) {
  nekrs::cases::PebbleBedOptions pb;
  pb.elements = {4, 4, 8};
  pb.order = 4;
  pb.pebble_count = 146;
  pb.dt = 1.5e-3;
  pb.seed = 146u + variant;  // variant 0 is the figure benches' layout
  nekrs::FlowConfig config = nekrs::cases::PebbleBedCase(pb);
  config.pressure_multigrid = true;  // Chebyshev, float V-cycle, direct coarse
  return config;
}

// The Fig 5 RBC slab at 2 sim ranks (constant element size, partitioned
// along x), plus a seeded temperature noise: a few Fourier modes, periodic
// in x and y and zero on both plates, so every rank evaluates the same
// value at a shared node and the Dirichlet data is untouched.
nekrs::FlowConfig RayleighBenardFlow(int sim_ranks, unsigned variant) {
  nekrs::cases::RayleighBenardOptions rbc;
  rbc.elements = {2 * sim_ranks, 2, 4};
  rbc.order = 4;
  rbc.aspect = 0.75 * sim_ranks;
  rbc.rayleigh = 1e5;
  rbc.dt = 5e-3;
  nekrs::FlowConfig config = nekrs::cases::RayleighBenardCase(rbc);
  config.mesh.partition_axis = 0;
  config.pressure_multigrid = true;

  struct Mode {
    double amplitude, kx, ky, phase_x, phase_y;
  };
  std::vector<Mode> modes;
  std::uint64_t state = 0x5EEDull * (variant + 1);
  const double lx = config.mesh.length[0];
  const double ly = config.mesh.length[1];
  for (int m = 0; m < 4; ++m) {
    Mode mode;
    mode.amplitude = 0.01 * (UnitDouble(state) - 0.5);
    const int nx = 1 + static_cast<int>(UnitDouble(state) * 3);
    const int ny = static_cast<int>(UnitDouble(state) * 2);
    mode.kx = 2.0 * std::numbers::pi * nx / lx;
    mode.ky = 2.0 * std::numbers::pi * ny / ly;
    mode.phase_x = 2.0 * std::numbers::pi * UnitDouble(state);
    mode.phase_y = 2.0 * std::numbers::pi * UnitDouble(state);
    modes.push_back(mode);
  }
  const nekrs::InitialCondition base = config.initial_condition;
  config.initial_condition = [base, modes](double x, double y, double z,
                                           double& u, double& v, double& w,
                                           double& t) {
    base(x, y, z, u, v, w, t);
    const double envelope = std::sin(std::numbers::pi * z);
    for (const Mode& m : modes) {
      t += m.amplitude * envelope * std::cos(m.kx * x + m.phase_x) *
           std::cos(m.ky * y + m.phase_y);
    }
  };
  return config;
}

// ---- SENSEI configurations --------------------------------------------------

constexpr const char* kCodecs =
    "<points><codec type=\"blockfloat\" rate=\"8\"/></points>"
    "<connectivity><codec type=\"shuffle_rle\" delta=\"1\"/></connectivity>"
    "<array name=\"*\"><codec type=\"blockfloat\" rate=\"8\"/></array>";

std::string SimXml(const Workload& w, const std::string& out) {
  const std::string freq = "frequency=\"" + std::to_string(w.frequency) + "\"";
  switch (w.pipeline) {
    case Pipeline::kInSituSync:
      return "<sensei><pipeline mode=\"sync\"/><analysis type=\"catalyst\" " +
             freq + " output=\"" + out +
             "\" width=\"320\" height=\"240\"><render array=\"temperature\" "
             "colormap=\"plasma\" azimuth=\"35\" elevation=\"25\"/>"
             "</analysis></sensei>";
    case Pipeline::kInSituAsync:
      return "<sensei><pipeline mode=\"async\" depth=\"2\"/>"
             "<analysis type=\"checkpoint\" " +
             freq + " output=\"" + out + "\"/></sensei>";
    case Pipeline::kInTransit:
      return "<sensei><pipeline mode=\"sync\"/><analysis type=\"adios\" " +
             freq + ">" + kCodecs + "</analysis></sensei>";
  }
  return "<sensei/>";
}

std::string EndpointXml(const std::string& out) {
  return "<sensei><analysis type=\"catalyst\" output=\"" + out +
         "\" width=\"640\" height=\"240\">"
         "<render array=\"temperature\" name=\"side\" colormap=\"coolwarm\" "
         "azimuth=\"270\" elevation=\"0\" min=\"-0.5\" max=\"0.5\"/>"
         "<render array=\"velocity\" magnitude=\"1\" name=\"speed\" "
         "colormap=\"viridis\" azimuth=\"250\" elevation=\"20\"/>"
         "</analysis></sensei>";
}

// The public options structs equal to what the XML above parses into; the
// wrapped-vs-unwrapped test holds the two in step.
sensei::CatalystOptions InSituCatalystOptions(const std::string& out) {
  sensei::CatalystOptions options;
  options.width = 320;
  options.height = 240;
  options.output_dir = out;
  sensei::CatalystView view;
  view.array = "temperature";
  view.colormap = "plasma";
  view.azimuth = 35.0;
  view.elevation = 25.0;
  view.name = "temperature";
  options.views.push_back(view);
  return options;
}

sensei::CatalystOptions EndpointCatalystOptions(const std::string& out) {
  sensei::CatalystOptions options;
  options.width = 640;
  options.height = 240;
  options.output_dir = out;
  sensei::CatalystView side;
  side.array = "temperature";
  side.colormap = "coolwarm";
  side.azimuth = 270.0;
  side.elevation = 0.0;
  side.range_min = -0.5;
  side.range_max = 0.5;
  side.name = "side";
  sensei::CatalystView speed;
  speed.array = "velocity";
  speed.color_by_magnitude = true;
  speed.colormap = "viridis";
  speed.azimuth = 250.0;
  speed.elevation = 20.0;
  speed.name = "speed";
  options.views = {side, speed};
  return options;
}

// ---- Per-trial records ------------------------------------------------------

// Lane of the calling thread in the span log: its rank id on rank threads
// (set by the rank bodies), rank + kWorkerLane on async workers.
thread_local int t_lane = -1;
thread_local bool t_endpoint = false;

int CurrentLane() {
  if (t_lane >= 0) return t_lane;
  const mpimini::RankEnv* env = mpimini::CurrentEnv();
  return env != nullptr ? env->rank + kWorkerLane : -1;
}

double BusySeconds() {
  const mpimini::RankEnv* env = mpimini::CurrentEnv();
  return env != nullptr ? env->busy.Seconds() : 0.0;
}

double Seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

struct StepSample {
  int step = 0;
  bool trigger = false;
  std::int64_t begin_ns = 0;
  std::int64_t step_end_ns = 0;
  std::int64_t update_end_ns = 0;
  // Traced trials only.
  double step_busy_s = 0.0;
  double update_busy_s = 0.0;
  // pressure, velocity, temperature, makef
  double kernel_s[4] = {0.0, 0.0, 0.0, 0.0};
  double d2h_bytes = 0.0;
  double d2h_s = 0.0;
  int pressure_iters = 0;
  int velocity_iters = 0;
};

struct EndpointSample {
  double next_wall_s = 0.0;
  double next_busy_s = 0.0;
  double execute_s = 0.0;
};

// One wrapped-adaptor Execute.
struct AnalysisSample {
  std::string layer;
  bool endpoint = false;
  double wall_s = 0.0;
  double busy_s = 0.0;
  double access_s = 0.0;
  double grid_bytes = 0.0;
  double triangles = 0.0;
  double pixels = 0.0;
  double image_bytes = 0.0;
  double images = 0.0;
};

// Written by exactly one rank thread each; read after the join.
struct RankLog {
  bool is_sim = true;
  double solver_setup_s = 0.0;
  std::int64_t first_step_ns = 0;
  std::int64_t finalize_begin_ns = 0;
  std::int64_t finalize_end_ns = 0;
  std::vector<StepSample> steps;
  std::vector<EndpointSample> endpoint;
  std::vector<int> delivered;
  int operations = 0;
  int failed_operations = 0;
  double host_peak_bytes = 0.0;
  double bytes_written = 0.0;
  double offloaded_s = 0.0;
  core::BufferStats buffers;  ///< delta over steps + finalize
  adios::SstStats writer;
  adios::SstStats reader;
  int comm_rank = -1;
  double quantity = 0.0;
  double max_divergence = 0.0;
};

struct Shared {
  explicit Shared(bool trace, int world) : spans(trace), ranks(world) {}
  SpanLog spans;
  LatencyPairer pairer;
  std::vector<RankLog> ranks;
  std::mutex mutex;
  std::vector<AnalysisSample> analyses;  // guarded by mutex

  void Add(AnalysisSample sample) {
    std::lock_guard<std::mutex> lock(mutex);
    analyses.push_back(std::move(sample));
  }
};

// ---- Timing wrappers --------------------------------------------------------

// DataAdaptor proxy timing every mesh/array access an analysis makes.
// Release stays with ConfigurableAnalysis, which releases the adaptor it
// owns after the analyses ran.
class TimingDataAdaptor final : public sensei::DataAdaptor {
 public:
  TimingDataAdaptor(sensei::DataAdaptor& inner, SpanLog* spans, int lane)
      : inner_(inner), spans_(spans), lane_(lane) {
    SetPipelineTime(inner.GetDataTimeStep(), inner.GetDataTime());
    SetCommunicator(inner.GetCommunicator());
  }

  int GetNumberOfMeshes() override { return inner_.GetNumberOfMeshes(); }

  sensei::MeshMetadata GetMeshMetadata(int id) override {
    Access access(*this);
    return inner_.GetMeshMetadata(id);
  }

  std::shared_ptr<svtk::UnstructuredGrid> GetMesh(int id) override {
    Access access(*this);
    mesh_ = inner_.GetMesh(id);
    return mesh_;
  }

  bool AddArray(svtk::UnstructuredGrid& mesh, const std::string& name,
                svtk::Centering centering) override {
    Access access(*this);
    return inner_.AddArray(mesh, name, centering);
  }

  [[nodiscard]] double AccessSeconds() const { return Seconds(access_ns_); }
  [[nodiscard]] double GridBytes() const {
    return mesh_ ? static_cast<double>(mesh_->MemoryBytes()) : 0.0;
  }

 private:
  class Access {
   public:
    explicit Access(TimingDataAdaptor& owner)
        : owner_(owner),
          span_(owner.spans_, "core.data_access", owner.GetDataTimeStep(),
                owner.lane_),
          begin_ns_(NowNs()) {}
    ~Access() { owner_.access_ns_ += NowNs() - begin_ns_; }
    Access(const Access&) = delete;
    Access& operator=(const Access&) = delete;

   private:
    TimingDataAdaptor& owner_;
    ScopedSpan span_;
    std::int64_t begin_ns_;
  };

  sensei::DataAdaptor& inner_;
  SpanLog* spans_;
  int lane_;
  std::int64_t access_ns_ = 0;
  std::shared_ptr<svtk::UnstructuredGrid> mesh_;
};

// Wraps a real adaptor: one span per Execute, wall and busy time, the
// proxy's data-access time, and — for adaptors whose Execute produces the
// workload's output — the step's consumption time for the latency pairing.
class TimedAnalysis final : public sensei::AnalysisAdaptor {
 public:
  TimedAnalysis(std::string layer,
                std::shared_ptr<sensei::AnalysisAdaptor> inner, Shared& shared,
                bool output)
      : layer_(std::move(layer)),
        inner_(std::move(inner)),
        catalyst_(std::dynamic_pointer_cast<sensei::CatalystAnalysisAdaptor>(
            inner_)),
        shared_(shared),
        output_(output) {}

  bool Execute(sensei::DataAdaptor& data) override {
    const int lane = CurrentLane();
    const int step = data.GetDataTimeStep();
    ScopedSpan span(&shared_.spans, layer_, step, lane);
    TimingDataAdaptor proxy(data, &shared_.spans, lane);
    const std::size_t bytes0 = inner_->BytesWritten();
    const std::size_t images0 = catalyst_ ? catalyst_->ImagesWritten() : 0;
    const double busy0 = BusySeconds();
    const std::int64_t begin_ns = NowNs();
    const bool ok = inner_->Execute(proxy);
    const std::int64_t end_ns = NowNs();
    const double busy = BusySeconds() - busy0;
    span.End();
    if (output_) shared_.pairer.Consumed(step, end_ns);

    AnalysisSample sample;
    sample.layer = layer_;
    sample.endpoint = t_endpoint;
    sample.wall_s = Seconds(end_ns - begin_ns);
    sample.busy_s = busy;
    sample.access_s = proxy.AccessSeconds();
    sample.grid_bytes = proxy.GridBytes();
    if (catalyst_) {
      sample.triangles =
          static_cast<double>(catalyst_->LastStats().triangles_drawn);
      sample.pixels = static_cast<double>(catalyst_->LastStats().pixels_shaded);
      sample.images = static_cast<double>(catalyst_->ImagesWritten() - images0);
      sample.image_bytes = static_cast<double>(inner_->BytesWritten() - bytes0);
    }
    shared_.Add(std::move(sample));
    return ok;
  }

  void Finalize() override { inner_->Finalize(); }
  [[nodiscard]] std::string Kind() const override { return inner_->Kind(); }
  [[nodiscard]] std::vector<std::string> RequestedArrays() const override {
    return inner_->RequestedArrays();
  }
  [[nodiscard]] std::size_t BytesWritten() const override {
    return inner_->BytesWritten();
  }

 private:
  std::string layer_;
  std::shared_ptr<sensei::AnalysisAdaptor> inner_;
  std::shared_ptr<sensei::CatalystAnalysisAdaptor> catalyst_;
  Shared& shared_;
  bool output_;
};

// ---- Rank bodies ------------------------------------------------------------

struct SimCounters {
  double busy_s = 0.0;
  double kernel_s[4] = {0.0, 0.0, 0.0, 0.0};
  double d2h_bytes = 0.0;
  double d2h_s = 0.0;
};

SimCounters ReadCounters(const occamini::Device& device) {
  SimCounters c;
  c.busy_s = BusySeconds();
  const auto& kernels = device.Kernels();
  auto seconds = [&](const char* name) {
    const auto it = kernels.find(name);
    return it == kernels.end() ? 0.0 : it->second.seconds;
  };
  c.kernel_s[0] = seconds("pressure");
  c.kernel_s[1] = seconds("velocity_x") + seconds("velocity_y") +
                  seconds("velocity_z");
  c.kernel_s[2] = seconds("temperature");
  c.kernel_s[3] = seconds("makef");
  c.d2h_bytes = static_cast<double>(device.Transfers().d2h_bytes);
  c.d2h_s = device.Transfers().d2h_seconds;
  return c;
}

core::BufferStats Delta(const core::BufferStats& a,
                        const core::BufferStats& b) {
  core::BufferStats d;
  d.allocations = b.allocations - a.allocations;
  d.full_copies = b.full_copies - a.full_copies;
  d.small_copies = b.small_copies - a.small_copies;
  return d;
}

// `comm` is the stepping communicator; `world` is the in transit world
// (null in situ), whose last rank is the endpoint.
void SimRank(const Workload& w, const nekrs::FlowConfig& flow,
             const TrialOptions& options, mpimini::Comm comm,
             mpimini::Comm* world, Shared& shared) {
  const int rank = world != nullptr ? world->Rank() : comm.Rank();
  t_lane = rank;
  RankLog& log = shared.ranks[static_cast<std::size_t>(rank)];
  log.comm_rank = comm.Rank();
  SpanLog* spans = &shared.spans;
  const bool traced = options.trace;
  occamini::Device device(occamini::Backend::kSimGpu);
  const std::int64_t setup_begin_ns = NowNs();
  nekrs::FlowSolver solver(comm, device, flow);
  log.solver_setup_s = Seconds(NowNs() - setup_begin_ns);

  std::shared_ptr<sensei::AdiosAnalysisAdaptor> adios;
  auto customize = [&](sensei::ConfigurableAnalysis& analysis) {
    auto wrap = [&](const std::string& layer,
                    std::shared_ptr<sensei::AnalysisAdaptor> inner,
                    bool output) -> std::shared_ptr<sensei::AnalysisAdaptor> {
      if (!options.wrap) return inner;
      return std::make_shared<TimedAnalysis>(layer, std::move(inner), shared,
                                             output);
    };
    if (world != nullptr) {
      analysis.RegisterFactory(
          "adios", [&, wrap](const xmlcfg::Element& e, mpimini::Comm&) {
            sensei::AdiosOptions adios_options;
            adios_options.arrays = sensei::SplitList(e.Attr("arrays"));
            adios_options.sst.queue_limit = 1;
            adios_options.codecs = sensei::ParseTransportCodecs(e);
            adios = std::make_shared<sensei::AdiosAnalysisAdaptor>(
                *world, w.sim_ranks, adios_options);
            return wrap("sensei.adios", adios, false);
          });
    }
    if (!options.wrap) return;
    analysis.RegisterFactory(
        "catalyst", [&, wrap](const xmlcfg::Element&, mpimini::Comm&) {
          return wrap("sensei.catalyst",
                      std::make_shared<sensei::CatalystAnalysisAdaptor>(
                          InSituCatalystOptions(options.out_dir)),
                      true);
        });
    analysis.RegisterFactory(
        "checkpoint", [&, wrap](const xmlcfg::Element&, mpimini::Comm&) {
          sensei::CheckpointOptions checkpoint;
          checkpoint.output_dir = options.out_dir;
          return wrap("sensei.checkpoint",
                      std::make_shared<sensei::CheckpointAnalysisAdaptor>(
                          std::move(checkpoint)),
                      true);
        });
  };
  nek_sensei::Bridge bridge(solver, SimXml(w, options.out_dir), customize);

  mpimini::RankEnv* env = mpimini::CurrentEnv();
  const core::BufferStats buffers0 = core::LocalBufferStats();
  log.steps.reserve(static_cast<std::size_t>(w.steps));
  log.first_step_ns = NowNs();
  for (int i = 0; i < w.steps; ++i) {
    const int step = i + 1;
    StepSample s;
    s.step = step;
    s.trigger = step % w.frequency == 0;
    ScopedSpan step_span(spans, "step", step, rank);
    SimCounters c0;
    if (traced) c0 = ReadCounters(device);
    s.begin_ns = NowNs();
    {
      ScopedSpan span(spans, "nekrs.step", step, rank);
      solver.Step();
    }
    s.step_end_ns = NowNs();
    SimCounters c1;
    if (traced) c1 = ReadCounters(device);
    if (s.trigger) shared.pairer.Produced(step, s.step_end_ns);
    bool ok = false;
    {
      ScopedSpan span(spans, "core.update", step, rank);
      ok = bridge.Update();
    }
    s.update_end_ns = NowNs();
    ++log.operations;
    if (!ok) ++log.failed_operations;
    if (traced) {
      const SimCounters c2 = ReadCounters(device);
      s.step_busy_s = c1.busy_s - c0.busy_s;
      s.update_busy_s = c2.busy_s - c1.busy_s;
      for (int k = 0; k < 4; ++k) {
        s.kernel_s[k] = c1.kernel_s[k] - c0.kernel_s[k];
      }
      s.d2h_bytes = c2.d2h_bytes - c1.d2h_bytes;
      s.d2h_s = c2.d2h_s - c1.d2h_s;
      s.pressure_iters = solver.LastStats().pressure_iterations;
      s.velocity_iters = solver.LastStats().velocity_iterations;
    }
    log.steps.push_back(s);
  }
  log.finalize_begin_ns = NowNs();
  {
    ScopedSpan span(spans, "core.finalize", w.steps, rank);
    bridge.Finalize();
  }
  log.finalize_end_ns = NowNs();
  log.buffers = Delta(buffers0, core::LocalBufferStats());
  log.host_peak_bytes =
      static_cast<double>((env != nullptr ? env->memory.HostPeakBytes() : 0) +
                          bridge.WorkerHostPeakBytes());
  log.offloaded_s = std::max(0.0, bridge.OffloadedSeconds());
  log.bytes_written =
      static_cast<double>(bridge.Analysis().TotalBytesWritten());
  if (adios) log.writer = adios->TransportStats();

  // Output checks: collective diagnostics, outside every timed window.
  log.quantity = w.rbc ? solver.NusseltNumber() : solver.KineticEnergy();
  log.max_divergence = solver.MaxDivergence();
}

void EndpointRank(const Workload& w, const TrialOptions& options,
                  mpimini::Comm& world, mpimini::Comm group, Shared& shared) {
  const int rank = world.Rank();
  t_lane = rank;
  t_endpoint = true;
  RankLog& log = shared.ranks[static_cast<std::size_t>(rank)];
  log.is_sim = false;
  log.comm_rank = group.Rank();
  SpanLog* spans = &shared.spans;

  std::vector<int> writers(static_cast<std::size_t>(w.sim_ranks));
  std::iota(writers.begin(), writers.end(), 0);
  adios::SstReader reader(world, writers, {.queue_limit = 1});
  sensei::InTransitDataAdaptor data(group);
  sensei::ConfigurableAnalysis analysis(group);
  if (options.wrap) {
    analysis.RegisterFactory(
        "catalyst", [&](const xmlcfg::Element&, mpimini::Comm&) {
          return std::make_shared<TimedAnalysis>(
              "sensei.catalyst",
              std::make_shared<sensei::CatalystAnalysisAdaptor>(
                  EndpointCatalystOptions(options.out_dir)),
              shared, false);
        });
  }
  analysis.Initialize(xmlcfg::Parse(EndpointXml(options.out_dir)).root);

  for (;;) {
    EndpointSample e;
    ScopedSpan next_span(spans, "adios.next_step", -1, rank);
    const double busy0 = BusySeconds();
    const std::int64_t next_begin_ns = NowNs();
    std::optional<adios::SstReader::Step> step = reader.NextStep();
    e.next_wall_s = Seconds(NowNs() - next_begin_ns);
    e.next_busy_s = BusySeconds() - busy0;
    next_span.SetId(step ? step->step : -1);
    next_span.End();
    if (!step) break;
    log.delivered.push_back(step->step);
    data.SetStep(step->step, 0.0, step->payloads);
    const std::int64_t execute_begin_ns = NowNs();
    bool ok = false;
    {
      ScopedSpan span(spans, "endpoint.execute", step->step, rank);
      ok = analysis.Execute(data);
    }
    const std::int64_t execute_end_ns = NowNs();
    shared.pairer.Consumed(step->step, execute_end_ns);
    e.execute_s = Seconds(execute_end_ns - execute_begin_ns);
    ++log.operations;
    if (!ok) ++log.failed_operations;
    log.endpoint.push_back(e);
  }
  {
    ScopedSpan span(spans, "endpoint.finalize", w.steps, rank);
    analysis.Finalize();
  }
  log.finalize_end_ns = NowNs();
  log.reader = reader.Stats();
  log.bytes_written = static_cast<double>(analysis.TotalBytesWritten());
}

// ---- Trial summary ----------------------------------------------------------

std::uint64_t HashOutputs(const std::string& dir, int* files) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::uint64_t hash = 0xCBF29CE484222325ull;
  auto mix = [&](unsigned char byte) {
    hash ^= byte;
    hash *= 0x100000001B3ull;
  };
  for (const auto& path : paths) {
    for (const char c : path.filename().string()) {
      mix(static_cast<unsigned char>(c));
    }
    std::ifstream in(path, std::ios::binary);
    for (std::istreambuf_iterator<char> it(in), end; it != end; ++it) {
      mix(static_cast<unsigned char>(*it));
    }
  }
  *files = static_cast<int>(paths.size());
  return hash;
}

void Check(TrialResult& result, bool ok, const std::string& what) {
  ++result.attempted;
  if (ok) return;
  ++result.failed;
  result.failures.push_back(what);
}

std::map<std::string, double> LayerMetrics(
    const Workload& w, const Shared& shared,
    const std::vector<SpanRecord>& spans) {
  std::map<std::string, double> m;
  std::vector<double> step_ms, busy_ms, wait_ms, pressure_iters, velocity_iters;
  std::vector<double> kernel_ms[4];
  std::vector<double> d2h_bytes, d2h_ms, update_trigger_ms, update_idle_ms,
      submit_wait_ms;
  double setup_s = 0.0;
  double finalize_s = 0.0;
  double offloaded_s = 0.0;
  double small_copies = 0.0, full_copies = 0.0, allocations = 0.0;
  double raw = 0.0, wire = 0.0;
  std::vector<double> recv_wait_ms, recv_busy_ms, execute_ms;
  double payload_bytes = 0.0, control_messages = 0.0, delivered = 0.0;
  int sim = 0;
  for (const RankLog& log : shared.ranks) {
    if (!log.is_sim) {
      for (const EndpointSample& e : log.endpoint) {
        recv_wait_ms.push_back((e.next_wall_s - e.next_busy_s) * 1e3);
        recv_busy_ms.push_back(e.next_busy_s * 1e3);
        execute_ms.push_back(e.execute_s * 1e3);
      }
      payload_bytes += static_cast<double>(log.reader.payload_bytes);
      control_messages += static_cast<double>(log.reader.control_messages);
      delivered += static_cast<double>(log.delivered.size());
      continue;
    }
    ++sim;
    setup_s = std::max(setup_s, log.solver_setup_s);
    finalize_s = std::max(
        finalize_s, Seconds(log.finalize_end_ns - log.finalize_begin_ns));
    offloaded_s += log.offloaded_s;
    small_copies += static_cast<double>(log.buffers.small_copies);
    full_copies += static_cast<double>(log.buffers.full_copies);
    allocations += static_cast<double>(log.buffers.allocations);
    raw += static_cast<double>(log.writer.raw_bytes);
    wire += static_cast<double>(log.writer.wire_bytes);
    for (const StepSample& s : log.steps) {
      const double step_wall = Seconds(s.step_end_ns - s.begin_ns);
      const double update_wall = Seconds(s.update_end_ns - s.step_end_ns);
      step_ms.push_back(step_wall * 1e3);
      busy_ms.push_back(s.step_busy_s * 1e3);
      wait_ms.push_back((step_wall - s.step_busy_s) * 1e3);
      for (int k = 0; k < 4; ++k) kernel_ms[k].push_back(s.kernel_s[k] * 1e3);
      if (log.comm_rank == 0) {
        pressure_iters.push_back(s.pressure_iters);
        velocity_iters.push_back(s.velocity_iters);
      }
      if (s.trigger) {
        d2h_bytes.push_back(s.d2h_bytes);
        d2h_ms.push_back(s.d2h_s * 1e3);
        update_trigger_ms.push_back(update_wall * 1e3);
        submit_wait_ms.push_back((update_wall - s.update_busy_s) * 1e3);
      } else {
        update_idle_ms.push_back(update_wall * 1e3);
      }
    }
  }
  const double rank_steps = static_cast<double>(sim) * w.steps;
  m["nekrs.step_ms"] = Mean(step_ms);
  m["nekrs.pressure_iters"] = Mean(pressure_iters);
  m["nekrs.velocity_iters"] = Mean(velocity_iters);
  m["nekrs.setup_s"] = setup_s;
  m["mpimini.solver_busy_ms"] = Mean(busy_ms);
  m["mpimini.solver_wait_ms"] = Mean(wait_ms);
  m["occamini.kernel.pressure_ms"] = Mean(kernel_ms[0]);
  m["occamini.kernel.velocity_ms"] = Mean(kernel_ms[1]);
  m["occamini.kernel.temperature_ms"] = Mean(kernel_ms[2]);
  m["occamini.kernel.makef_ms"] = Mean(kernel_ms[3]);
  m["occamini.d2h_bytes"] = Mean(d2h_bytes);
  m["occamini.d2h_ms"] = Mean(d2h_ms);
  m["core.update_ms_trigger"] = Mean(update_trigger_ms);
  m["core.update_ms_idle"] = Mean(update_idle_ms);
  m["core.submit_wait_ms"] = Mean(submit_wait_ms);
  m["core.offloaded_s"] = sim > 0 ? offloaded_s / sim : 0.0;
  m["core.finalize_s"] = finalize_s;
  m["core.buffer.small_copies"] = small_copies / rank_steps;
  m["core.buffer.full_copies"] = full_copies / rank_steps;
  m["core.buffer.allocations"] = allocations / rank_steps;

  std::map<std::string, std::vector<double>> wall, wait;
  std::vector<double> access_ms, grid_bytes, triangles, pixels;
  double image_bytes = 0.0, images = 0.0;
  for (const AnalysisSample& a : shared.analyses) {
    wall[a.layer].push_back(a.wall_s * 1e3);
    wait[a.layer].push_back((a.wall_s - a.busy_s) * 1e3);
    if (!a.endpoint) {
      access_ms.push_back(a.access_s * 1e3);
      grid_bytes.push_back(a.grid_bytes);
    }
    if (a.layer == "sensei.catalyst") {
      triangles.push_back(a.triangles);
      pixels.push_back(a.pixels);
      image_bytes += a.image_bytes;
      images += a.images;
    }
  }
  m["core.data_access_ms"] = Mean(access_ms);
  m["svtk.grid_bytes"] = Mean(grid_bytes);
  m["sensei.catalyst_ms"] = Mean(wall["sensei.catalyst"]);
  m["sensei.catalyst_wait_ms"] = Mean(wait["sensei.catalyst"]);
  m["sensei.checkpoint_ms"] = Mean(wall["sensei.checkpoint"]);
  m["sensei.adios_ms"] = Mean(wall["sensei.adios"]);
  m["sensei.adios_wait_ms"] = Mean(wait["sensei.adios"]);
  m["render.triangles"] = Mean(triangles);
  m["render.pixels_shaded"] = Mean(pixels);
  m["render.image_bytes"] = images > 0.0 ? image_bytes / images : 0.0;
  m["adios.recv_wait_ms"] = Mean(recv_wait_ms);
  m["adios.recv_busy_ms"] = Mean(recv_busy_ms);
  m["adios.payload_bytes"] = delivered > 0.0 ? payload_bytes / delivered : 0.0;
  m["adios.control_messages"] =
      delivered > 0.0 ? control_messages / delivered : 0.0;
  m["codec.ratio"] = wire > 0.0 ? raw / wire : 0.0;
  m["stream_bytes"] = wire;
  m["endpoint.execute_ms"] = Mean(execute_ms);

  // Coverage: the share of each sim rank's step-loop wall time that no
  // layer span (nekrs.step, core.update) covers.
  const std::vector<std::int64_t> self = SelfTimesNs(spans);
  double step_total = 0.0;
  double step_self = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != "step") continue;
    step_total += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    step_self += static_cast<double>(self[i]);
  }
  m["budget.residual_pct"] =
      step_total > 0.0 ? 100.0 * step_self / step_total : 0.0;
  return m;
}

}  // namespace

int Workload::Threads() const {
  switch (pipeline) {
    case Pipeline::kInSituSync:
      return sim_ranks;
    case Pipeline::kInSituAsync:
      return 2 * sim_ranks;
    case Pipeline::kInTransit:
      return sim_ranks + 1;
  }
  return sim_ranks;
}

const std::map<std::string, std::string>& LayerMetricUnits() {
  static const std::map<std::string, std::string> units = {
      {"nekrs.step_ms", "ms"},
      {"nekrs.pressure_iters", "count"},
      {"nekrs.velocity_iters", "count"},
      {"nekrs.setup_s", "s"},
      {"mpimini.solver_busy_ms", "ms"},
      {"mpimini.solver_wait_ms", "ms"},
      {"occamini.kernel.pressure_ms", "ms"},
      {"occamini.kernel.velocity_ms", "ms"},
      {"occamini.kernel.temperature_ms", "ms"},
      {"occamini.kernel.makef_ms", "ms"},
      {"occamini.d2h_bytes", "B"},
      {"occamini.d2h_ms", "ms"},
      {"core.update_ms_trigger", "ms"},
      {"core.update_ms_idle", "ms"},
      {"core.submit_wait_ms", "ms"},
      {"core.offloaded_s", "s"},
      {"core.finalize_s", "s"},
      {"core.buffer.small_copies", "count"},
      {"core.buffer.full_copies", "count"},
      {"core.buffer.allocations", "count"},
      {"core.data_access_ms", "ms"},
      {"svtk.grid_bytes", "B"},
      {"sensei.catalyst_ms", "ms"},
      {"sensei.catalyst_wait_ms", "ms"},
      {"sensei.checkpoint_ms", "ms"},
      {"sensei.adios_ms", "ms"},
      {"sensei.adios_wait_ms", "ms"},
      {"render.triangles", "count"},
      {"render.pixels_shaded", "count"},
      {"render.image_bytes", "B"},
      {"adios.recv_wait_ms", "ms"},
      {"adios.recv_busy_ms", "ms"},
      {"adios.payload_bytes", "B"},
      {"adios.control_messages", "count"},
      {"codec.ratio", "ratio"},
      {"stream_bytes", "B"},
      {"endpoint.execute_ms", "ms"},
      {"budget.residual_pct", "%"},
      {"trace.overhead_pct", "%"},
  };
  return units;
}

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"pb146-insitu-catalyst", Pipeline::kInSituSync, false, 2, 120, 3, 1},
      {"pb146-async-checkpoint", Pipeline::kInSituAsync, false, 2, 90, 3, 0},
      {"rbc-intransit-catalyst", Pipeline::kInTransit, true, 2, 160, 20, 2},
  };
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

unsigned SeedVariant(std::uint64_t seed) {
  return static_cast<unsigned>(seed % kSeedVariants);
}

nekrs::FlowConfig MakeFlowConfig(const Workload& workload, std::uint64_t seed) {
  const unsigned variant = SeedVariant(seed);
  return workload.rbc ? RayleighBenardFlow(workload.sim_ranks, variant)
                      : PebbleBedFlow(variant);
}

TrialResult RunTrial(const Workload& w, std::uint64_t seed,
                     const TrialOptions& options) {
  const nekrs::FlowConfig flow = MakeFlowConfig(w, seed);
  std::filesystem::create_directories(options.out_dir);
  Shared shared(options.trace, w.WorldRanks());

  // Program telemetry stays off: RunSettings defaults to trace = false and
  // metrics = false.
  const mpimini::RunSettings settings;
  const std::int64_t run_begin_ns = NowNs();
  mpimini::Runtime::Run(w.WorldRanks(), settings, [&](mpimini::Comm& world) {
    if (w.pipeline != Pipeline::kInTransit) {
      SimRank(w, flow, options, world, nullptr, shared);
      return;
    }
    const bool is_sim = world.Rank() < w.sim_ranks;
    mpimini::Comm group = world.Split(is_sim ? 0 : 1, world.Rank());
    if (is_sim) {
      SimRank(w, flow, options, group, &world, shared);
    } else {
      EndpointRank(w, options, world, group, shared);
    }
  });

  TrialResult result;
  std::int64_t first_step_ns = run_begin_ns;
  std::int64_t finalize_end_ns = run_begin_ns;
  double storage = 0.0;
  double peak = 0.0;
  std::vector<int> delivered;
  for (const RankLog& log : shared.ranks) {
    if (log.is_sim) first_step_ns = std::max(first_step_ns, log.first_step_ns);
    finalize_end_ns = std::max(finalize_end_ns, log.finalize_end_ns);
    storage += log.bytes_written;
    if (log.is_sim) peak = std::max(peak, log.host_peak_bytes);
    if (log.is_sim && log.comm_rank == 0) {
      result.quantity = log.quantity;
      result.max_divergence = log.max_divergence;
    }
    if (!log.is_sim) delivered = log.delivered;
    result.attempted += log.operations;
    result.failed += log.failed_operations;
    if (log.failed_operations > 0) {
      result.failures.push_back(std::to_string(log.failed_operations) +
                                " failed Update/Execute calls");
    }
  }
  result.setup_s = Seconds(first_step_ns - run_begin_ns);
  result.time_to_solution_s = Seconds(finalize_end_ns - first_step_ns);
  result.storage_bytes = storage;
  result.sim_host_peak_mb = peak * 1e-6;

  for (int i = 0; i < w.steps; ++i) {
    double slowest = 0.0;
    for (const RankLog& log : shared.ranks) {
      if (!log.is_sim) continue;
      const StepSample& s = log.steps.at(static_cast<std::size_t>(i));
      slowest = std::max(slowest, Seconds(s.update_end_ns - s.begin_ns) * 1e3);
    }
    result.step_ms.push_back(slowest);
  }
  const LatencyPairer::Result pairs = shared.pairer.Pair();
  result.e2e_ms = pairs.latencies_ms;

  // Output checks.
  std::vector<int> expected;
  for (int s = w.frequency; s <= w.steps; s += w.frequency) {
    expected.push_back(s);
  }
  if (options.wrap) {
    Check(result,
          static_cast<int>(result.e2e_ms.size()) == w.Triggers() &&
              pairs.unpaired == 0,
          "expected one step->output latency per trigger");
  }
  if (w.pipeline == Pipeline::kInTransit) {
    // One operation per expected delivered step: received exactly once, in
    // order.
    for (std::size_t i = 0; i < expected.size(); ++i) {
      Check(result, i < delivered.size() && delivered[i] == expected[i],
            "endpoint did not receive step " + std::to_string(expected[i]) +
                " in order");
    }
    Check(result, delivered.size() == expected.size(),
          "endpoint received " + std::to_string(delivered.size()) +
              " steps, expected " + std::to_string(expected.size()));
  }
  int files = 0;
  result.output_hash = HashOutputs(options.out_dir, &files);
  const int expected_files =
      w.views > 0 ? w.Triggers() * w.views : w.Triggers() * w.sim_ranks;
  Check(result, files == expected_files,
        "wrote " + std::to_string(files) + " output files, expected " +
            std::to_string(expected_files) +
            (w.views > 0 ? " (triggers x views)" : " (triggers x ranks)"));

  if (options.trace) {
    result.spans = shared.spans.Spans();
    result.layers = LayerMetrics(w, shared, result.spans);
  }
  return result;
}

}  // namespace perfbench
