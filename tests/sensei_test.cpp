#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "mpimini/runtime.hpp"
#include "adios/bp_file.hpp"
#include "sensei/adios_adaptor.hpp"
#include "sensei/autocorrelation_adaptor.hpp"
#include "sensei/bpfile_adaptor.hpp"
#include "sensei/catalyst_adaptor.hpp"
#include "sensei/checkpoint_adaptor.hpp"
#include "sensei/configurable_analysis.hpp"
#include "sensei/histogram_adaptor.hpp"
#include "sensei/intransit_data_adaptor.hpp"
#include "sensei/stats_adaptor.hpp"
#include "sensei/transport_stage.hpp"
#include "svtk/serialize.hpp"
#include "svtk/vtu_writer.hpp"

namespace {

using mpimini::Comm;
using mpimini::Runtime;

// A minimal simulation-side DataAdaptor over a synthetic per-rank grid:
// one unit cube per rank, shifted along x by the rank index.
class TestDataAdaptor final : public sensei::DataAdaptor {
 public:
  explicit TestDataAdaptor(Comm comm) { SetCommunicator(comm); }

  int GetNumberOfMeshes() override { return 1; }

  sensei::MeshMetadata GetMeshMetadata(int) override {
    sensei::MeshMetadata md;
    md.num_blocks = GetCommunicator().Size();
    md.global_bounds = {0.0, static_cast<double>(GetCommunicator().Size()),
                        0.0, 1.0, 0.0, 1.0};
    md.arrays.push_back({"scalar", svtk::Centering::kPoint, 1});
    md.arrays.push_back({"vec", svtk::Centering::kPoint, 3});
    return md;
  }

  std::shared_ptr<svtk::UnstructuredGrid> GetMesh(int) override {
    if (mesh_) return mesh_;
    mesh_ = std::make_shared<svtk::UnstructuredGrid>(8, 1);
    const double x0 = GetCommunicator().Rank();
    int p = 0;
    for (int k = 0; k < 2; ++k) {
      for (int j = 0; j < 2; ++j) {
        for (int i = 0; i < 2; ++i) {
          mesh_->SetPoint(static_cast<std::size_t>(p++), x0 + i, j, k);
        }
      }
    }
    mesh_->SetCell(0, {0, 1, 3, 2, 4, 5, 7, 6});
    return mesh_;
  }

  bool AddArray(svtk::UnstructuredGrid& mesh, const std::string& name,
                svtk::Centering centering) override {
    if (centering != svtk::Centering::kPoint) return false;
    if (name == "scalar") {
      svtk::DataArray& a = mesh.AddPointArray("scalar", 1);
      for (std::size_t t = 0; t < 8; ++t) {
        a.At(t) = GetCommunicator().Rank() + 0.125 * static_cast<double>(t);
      }
      ++arrays_added;
      return true;
    }
    if (name == "vec") {
      svtk::DataArray& a = mesh.AddPointArray("vec", 3);
      for (std::size_t t = 0; t < 8; ++t) {
        a.At(t, 0) = 3.0;
        a.At(t, 1) = 4.0;
        a.At(t, 2) = 0.0;
      }
      return true;
    }
    return false;
  }

  void ReleaseData() override {
    mesh_.reset();
    ++releases;
  }

  int arrays_added = 0;
  int releases = 0;

 private:
  std::shared_ptr<svtk::UnstructuredGrid> mesh_;
};

std::string TempSubdir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "/sensei_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(CheckpointAdaptorTest, WritesOneVtuPerRank) {
  const std::string dir = TempSubdir("chk");
  Runtime::Run(3, [&](Comm& comm) {
    TestDataAdaptor data(comm);
    data.SetPipelineTime(200, 2.0);
    sensei::CheckpointOptions options;
    options.output_dir = dir;
    sensei::CheckpointAnalysisAdaptor adaptor(options);
    ASSERT_TRUE(adaptor.Execute(data));
    EXPECT_GT(adaptor.BytesWritten(), 0u);
    EXPECT_EQ(adaptor.FilesWritten(), 1u);
    const std::string path = adaptor.FilePath(200, comm.Rank());
    EXPECT_TRUE(std::filesystem::exists(path));
    // The file is a valid VTU with the advertised arrays attached.
    svtk::UnstructuredGrid grid = svtk::ReadVtu(path);
    EXPECT_EQ(grid.NumPoints(), 8u);
    EXPECT_NE(grid.PointArray("scalar"), nullptr);
    EXPECT_NE(grid.PointArray("vec"), nullptr);
  });
}

TEST(CheckpointAdaptorTest, ArraySubsetRespected) {
  const std::string dir = TempSubdir("chk_subset");
  Runtime::Run(1, [&](Comm& comm) {
    TestDataAdaptor data(comm);
    sensei::CheckpointOptions options;
    options.output_dir = dir;
    options.arrays = {"scalar"};
    sensei::CheckpointAnalysisAdaptor adaptor(options);
    ASSERT_TRUE(adaptor.Execute(data));
    svtk::UnstructuredGrid grid = svtk::ReadVtu(adaptor.FilePath(0, 0));
    EXPECT_NE(grid.PointArray("scalar"), nullptr);
    EXPECT_EQ(grid.PointArray("vec"), nullptr);
  });
}

TEST(CatalystAdaptorTest, RendersCompositedImageOnRoot) {
  const std::string dir = TempSubdir("cat");
  Runtime::Run(2, [&](Comm& comm) {
    TestDataAdaptor data(comm);
    data.SetPipelineTime(7, 0.07);
    sensei::CatalystOptions options;
    options.width = 64;
    options.height = 48;
    options.output_dir = dir;
    sensei::CatalystView view;
    view.array = "scalar";
    view.name = "main";
    options.views.push_back(view);
    sensei::CatalystAnalysisAdaptor adaptor(options);
    ASSERT_TRUE(adaptor.Execute(data));
    if (comm.Rank() == 0) {
      EXPECT_EQ(adaptor.ImagesWritten(), 1u);
      EXPECT_TRUE(std::filesystem::exists(dir + "/render_main_000007.png"));
      EXPECT_GT(adaptor.BytesWritten(), 0u);
    } else {
      EXPECT_EQ(adaptor.ImagesWritten(), 0u);
    }
  });
}

TEST(CatalystAdaptorTest, TwoViewsRenderTwoImages) {
  // The in transit case renders two images per trigger (§4.2).
  const std::string dir = TempSubdir("cat2");
  Runtime::Run(1, [&](Comm& comm) {
    TestDataAdaptor data(comm);
    sensei::CatalystOptions options;
    options.width = 32;
    options.height = 32;
    options.output_dir = dir;
    sensei::CatalystView a;
    a.array = "scalar";
    a.name = "front";
    sensei::CatalystView b;
    b.array = "vec";
    b.color_by_magnitude = true;
    b.name = "side";
    b.azimuth = 90.0;
    options.views = {a, b};
    sensei::CatalystAnalysisAdaptor adaptor(options);
    ASSERT_TRUE(adaptor.Execute(data));
    EXPECT_EQ(adaptor.ImagesWritten(), 2u);
  });
}

TEST(CatalystAdaptorTest, RejectsImageSizesOutsideRange) {
  for (const auto& [width, height] :
       {std::pair{0, 48}, {-5, 48}, {64, 0}, {64, -5}, {16385, 48}}) {
    sensei::CatalystOptions options;
    options.width = width;
    options.height = height;
    options.views.emplace_back();
    EXPECT_THROW(sensei::CatalystAnalysisAdaptor{options},
                 std::invalid_argument)
        << width << "x" << height;
  }
  sensei::CatalystOptions largest;
  largest.width = sensei::kMaxCatalystImageSize;
  largest.height = 1;
  largest.views.emplace_back();
  EXPECT_NO_THROW(sensei::CatalystAnalysisAdaptor{largest});
}

TEST(CatalystAdaptorTest, XmlImageSizesAreCheckedAtInitialize) {
  Runtime::Run(1, [](Comm& comm) {
    // "4294967936" is 2^32 + 640: narrowing it to int would yield 640.
    for (const char* size : {"0", "-5", "5000000000", "4294967936"}) {
      for (const char* key : {"width", "height"}) {
        sensei::ConfigurableAnalysis analysis(comm);
        const std::string xml =
            std::string("<sensei><analysis type=\"catalyst\" ") +
            "array=\"scalar\" " + key + "=\"" + size + "\"/></sensei>";
        try {
          analysis.Initialize(xmlcfg::Parse(xml).root);
          ADD_FAILURE() << key << "=" << size << " passed Initialize";
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()).find(std::string(key) + " " + size),
                    std::string::npos)
              << e.what();
        }
      }
    }
  });
}

TEST(StatsAdaptorTest, GlobalReductionAcrossRanks) {
  Runtime::Run(4, [](Comm& comm) {
    TestDataAdaptor data(comm);
    sensei::StatsAnalysisAdaptor adaptor({{"scalar"}, ""});
    ASSERT_TRUE(adaptor.Execute(data));
    const auto& stats = adaptor.Last().at("scalar");
    EXPECT_DOUBLE_EQ(stats.min, 0.0);
    // Max over ranks: rank 3 + 0.875.
    EXPECT_DOUBLE_EQ(stats.max, 3.875);
    // Mean: mean over ranks of (rank + mean(0..0.875)) = 1.5 + 0.4375.
    EXPECT_NEAR(stats.mean, 1.9375, 1e-12);
  });
}

TEST(StatsAdaptorTest, AppendsLogOnRoot) {
  const std::string dir = TempSubdir("stats");
  const std::string log = dir + "/stats.log";
  Runtime::Run(2, [&](Comm& comm) {
    TestDataAdaptor data(comm);
    sensei::StatsAnalysisAdaptor adaptor({{"scalar"}, log});
    data.SetPipelineTime(1, 0.1);
    ASSERT_TRUE(adaptor.Execute(data));
    data.SetPipelineTime(2, 0.2);
    ASSERT_TRUE(adaptor.Execute(data));
  });
  std::ifstream in(log);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 2);
}

TEST(HistogramAdaptorTest, CountsSumToGlobalTuples) {
  Runtime::Run(3, [](Comm& comm) {
    TestDataAdaptor data(comm);
    sensei::HistogramOptions options;
    options.array = "scalar";
    options.bins = 8;
    sensei::HistogramAnalysisAdaptor adaptor(options);
    ASSERT_TRUE(adaptor.Execute(data));
    long total = 0;
    for (long c : adaptor.Counts()) total += c;
    EXPECT_EQ(total, 3 * 8);
    EXPECT_DOUBLE_EQ(adaptor.RangeMin(), 0.0);
    EXPECT_DOUBLE_EQ(adaptor.RangeMax(), 2.875);
  });
}

TEST(HistogramAdaptorTest, MagnitudeOfVector) {
  Runtime::Run(1, [](Comm& comm) {
    TestDataAdaptor data(comm);
    sensei::HistogramOptions options;
    options.array = "vec";
    options.by_magnitude = true;
    options.bins = 4;
    sensei::HistogramAnalysisAdaptor adaptor(options);
    ASSERT_TRUE(adaptor.Execute(data));
    // |(3,4,0)| = 5 for every tuple: degenerate range.
    EXPECT_DOUBLE_EQ(adaptor.RangeMin(), 5.0);
    EXPECT_DOUBLE_EQ(adaptor.RangeMax(), 5.0);
    long total = 0;
    for (long c : adaptor.Counts()) total += c;
    EXPECT_EQ(total, 8);
  });
}

// ---- ConfigurableAnalysis ---------------------------------------------------

TEST(ConfigurableAnalysisTest, InstantiatesFromListing1StyleXml) {
  const std::string dir = TempSubdir("cfg");
  Runtime::Run(1, [&](Comm& comm) {
    sensei::ConfigurableAnalysis analysis(comm);
    analysis.Initialize(
        xmlcfg::Parse("<sensei>"
                      "  <analysis type=\"catalyst\" frequency=\"100\" "
                      "output=\"" + dir + "\" array=\"scalar\" width=\"32\" "
                      "height=\"32\"/>"
                      "  <analysis type=\"checkpoint\" frequency=\"50\" "
                      "output=\"" + dir + "\"/>"
                      "  <analysis type=\"stats\" frequency=\"10\" "
                      "arrays=\"scalar\"/>"
                      "</sensei>")
            .root);
    ASSERT_EQ(analysis.Analyses().size(), 3u);
    EXPECT_EQ(analysis.Analyses()[0].frequency, 100);
    EXPECT_NE(analysis.Find("catalyst"), nullptr);
    EXPECT_NE(analysis.Find("checkpoint"), nullptr);
    EXPECT_EQ(analysis.Find("adios"), nullptr);
  });
}

TEST(ConfigurableAnalysisTest, FrequencyGatesExecution) {
  const std::string dir = TempSubdir("freq");
  Runtime::Run(1, [&](Comm& comm) {
    sensei::ConfigurableAnalysis analysis(comm);
    analysis.Initialize(
        xmlcfg::Parse("<sensei><analysis type=\"checkpoint\" "
                      "frequency=\"10\" output=\"" + dir + "\"/></sensei>")
            .root);
    TestDataAdaptor data(comm);
    for (int step = 1; step <= 30; ++step) {
      data.SetPipelineTime(step, 0.01 * step);
      analysis.Execute(data);
    }
    auto checkpoint =
        std::dynamic_pointer_cast<sensei::CheckpointAnalysisAdaptor>(
            analysis.Find("checkpoint"));
    ASSERT_NE(checkpoint, nullptr);
    EXPECT_EQ(checkpoint->FilesWritten(), 3u);  // steps 10, 20, 30
    // ReleaseData ran once per triggered step only.
    EXPECT_EQ(data.releases, 3);
  });
}

TEST(ConfigurableAnalysisTest, DisabledAnalysesSkipped) {
  Runtime::Run(1, [](Comm& comm) {
    sensei::ConfigurableAnalysis analysis(comm);
    analysis.Initialize(
        xmlcfg::Parse("<sensei><analysis type=\"stats\" enabled=\"0\"/>"
                      "</sensei>")
            .root);
    EXPECT_TRUE(analysis.Analyses().empty());
  });
}

TEST(ConfigurableAnalysisTest, UnknownTypeThrows) {
  Runtime::Run(1, [](Comm& comm) {
    sensei::ConfigurableAnalysis analysis(comm);
    EXPECT_THROW(
        analysis.Initialize(
            xmlcfg::Parse("<sensei><analysis type=\"libsim\"/></sensei>")
                .root),
        std::invalid_argument);
  });
}

TEST(ConfigurableAnalysisTest, CustomFactoryAndBytesTotal) {
  const std::string dir = TempSubdir("custom");
  Runtime::Run(1, [&](Comm& comm) {
    sensei::ConfigurableAnalysis analysis(comm);
    analysis.RegisterFactory(
        "stats",  // override the builtin
        [&](const xmlcfg::Element&, mpimini::Comm&) {
          return std::make_shared<sensei::StatsAnalysisAdaptor>(
              sensei::StatsOptions{{"scalar"}, dir + "/s.log"});
        });
    analysis.Initialize(
        xmlcfg::Parse("<sensei><analysis type=\"stats\"/></sensei>").root);
    TestDataAdaptor data(comm);
    data.SetPipelineTime(1, 0.0);
    analysis.Execute(data);
    EXPECT_GT(analysis.TotalBytesWritten(), 0u);
  });
}

TEST(ConfigurableAnalysisTest, EmptyConfigIsNoTransportMode) {
  Runtime::Run(1, [](Comm& comm) {
    sensei::ConfigurableAnalysis analysis(comm);
    analysis.Initialize(xmlcfg::Parse("<sensei/>").root);
    TestDataAdaptor data(comm);
    EXPECT_TRUE(analysis.Execute(data));
    EXPECT_EQ(data.releases, 0);  // nothing ran, nothing released
    EXPECT_EQ(analysis.TotalBytesWritten(), 0u);
  });
}

// ---- Pipeline configuration -------------------------------------------------

TEST(PipelineConfigTest, DefaultsToSync) {
  unsetenv("NEK_SENSEI_ASYNC");
  const auto config =
      sensei::ParsePipelineConfig(xmlcfg::Parse("<sensei/>").root);
  EXPECT_FALSE(config.async);
  EXPECT_EQ(config.depth, 2);
}

TEST(PipelineConfigTest, ParsesAsyncModeAndDepth) {
  const auto config = sensei::ParsePipelineConfig(
      xmlcfg::Parse("<sensei><pipeline mode=\"async\" depth=\"3\"/></sensei>")
          .root);
  EXPECT_TRUE(config.async);
  EXPECT_EQ(config.depth, 3);
}

TEST(PipelineConfigTest, RejectsUnknownModeAndBadDepth) {
  auto parse = [](const std::string& xml) {
    return sensei::ParsePipelineConfig(xmlcfg::Parse(xml).root).async;
  };
  EXPECT_THROW(parse("<sensei><pipeline mode=\"turbo\"/></sensei>"),
               std::invalid_argument);
  EXPECT_THROW(parse("<sensei><pipeline mode=\"async\" depth=\"0\"/></sensei>"),
               std::invalid_argument);
  EXPECT_THROW(parse("<other/>"), std::invalid_argument);
}

TEST(PipelineConfigTest, EnvironmentSelectsAsyncWhenElementAbsent) {
  // The CI async-default lane: NEK_SENSEI_ASYNC flips configurations that
  // do not pin a <pipeline> element.
  setenv("NEK_SENSEI_ASYNC", "1", 1);
  const auto flipped =
      sensei::ParsePipelineConfig(xmlcfg::Parse("<sensei/>").root);
  EXPECT_TRUE(flipped.async);
  EXPECT_EQ(flipped.depth, 2);

  // An explicit mode always wins over the environment.
  const auto pinned = sensei::ParsePipelineConfig(
      xmlcfg::Parse("<sensei><pipeline mode=\"sync\"/></sensei>").root);
  EXPECT_FALSE(pinned.async);

  setenv("NEK_SENSEI_ASYNC", "off", 1);
  EXPECT_FALSE(
      sensei::ParsePipelineConfig(xmlcfg::Parse("<sensei/>").root).async);
  unsetenv("NEK_SENSEI_ASYNC");
}

// ---- Telemetry configuration ------------------------------------------------

TEST(TelemetryConfigXmlTest, RejectsNonFiniteNegativeOrOversizedBounds) {
  // wait_min_seconds becomes an int64 nanosecond threshold and capacity an
  // up-front per-rank span allocation: both must be bounded at parse time.
  auto parse = [](const std::string& attrs) {
    return sensei::ParseTelemetryConfig(
        xmlcfg::Parse("<sensei><telemetry " + attrs + "/></sensei>").root);
  };
  for (const std::string wait : {"nan", "inf", "-1", "1e300", "61"}) {
    SCOPED_TRACE(wait);
    try {
      (void)parse("wait_min_seconds=\"" + wait + "\"");
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("wait_min_seconds"),
                std::string::npos)
          << e.what();
    }
  }
  for (const std::string capacity : {"0", "1073741824"}) {
    SCOPED_TRACE(capacity);
    try {
      (void)parse("capacity=\"" + capacity + "\"");
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("capacity"), std::string::npos)
          << e.what();
    }
  }
}

TEST(TelemetryConfigXmlTest, AcceptsDefaultsAndRealisticBounds) {
  auto parse = [](const std::string& attrs) {
    return sensei::ParseTelemetryConfig(
        xmlcfg::Parse("<sensei><telemetry " + attrs + "/></sensei>").root);
  };
  const instrument::TelemetryConfig defaults = parse("");
  EXPECT_EQ(defaults.span_capacity, instrument::TelemetryConfig{}.span_capacity);
  EXPECT_DOUBLE_EQ(defaults.wait_min_seconds,
                   instrument::TelemetryConfig{}.wait_min_seconds);
  const instrument::TelemetryConfig tuned =
      parse("wait_min_seconds=\"1e-4\" capacity=\"4194304\"");
  EXPECT_EQ(tuned.TracerOptions().wait_min_ns, 100'000);
  EXPECT_EQ(tuned.span_capacity, std::size_t{1} << 22);
}

// ---- Transport codec selection + split grid staging -------------------------

svtk::UnstructuredGrid MakeStagedCube() {
  svtk::UnstructuredGrid grid(8, 1);
  int p = 0;
  for (int k = 0; k < 2; ++k) {
    for (int j = 0; j < 2; ++j) {
      for (int i = 0; i < 2; ++i) {
        grid.SetPoint(static_cast<std::size_t>(p++), 1.5 * i, 2.5 * j,
                      3.5 * k);
      }
    }
  }
  grid.SetCell(0, {0, 1, 3, 2, 4, 5, 7, 6});
  svtk::DataArray& scalar = grid.AddPointArray("scalar", 1);
  for (std::size_t t = 0; t < 8; ++t) {
    scalar.At(t) = 0.125 * static_cast<double>(t) - 0.5;
  }
  svtk::DataArray& vol = grid.AddCellArray("vol", 1);
  vol.At(0) = 42.0;
  return grid;
}

adios::StepPayload StageAndShip(const svtk::UnstructuredGrid& grid,
                                const sensei::TransportCodecs& codecs) {
  adios::StepChain staged;
  staged.step = 0;
  staged.writer_rank = 0;
  sensei::StageGridTo(
      [&staged](const std::string& name, core::BufferChain chain,
                const codec::Spec& spec) {
        staged.variables[name] = std::move(chain);
        if (!spec.Identity()) staged.codecs[name] = spec;
      },
      grid, codecs);
  core::Buffer packed = adios::MarshalChain(staged).Pack("test");
  return adios::UnmarshalStep(packed.bytes());
}

void ExpectGridsMatch(const svtk::UnstructuredGrid& a,
                      const svtk::UnstructuredGrid& b, double tol) {
  ASSERT_EQ(a.NumPoints(), b.NumPoints());
  ASSERT_EQ(a.Connectivity().size(), b.Connectivity().size());
  for (std::size_t i = 0; i < a.Points().size(); ++i) {
    EXPECT_NEAR(a.Points()[i], b.Points()[i], tol) << "point " << i;
  }
  for (std::size_t i = 0; i < a.Connectivity().size(); ++i) {
    EXPECT_EQ(a.Connectivity()[i], b.Connectivity()[i]) << "conn " << i;
  }
  ASSERT_EQ(a.PointArrayNames(), b.PointArrayNames());
  ASSERT_EQ(a.CellArrayNames(), b.CellArrayNames());
}

TEST(TransportCodecsTest, ParsesCodecSpecVariants) {
  const codec::Spec none =
      sensei::ParseCodecSpec(xmlcfg::Parse("<points/>").root);
  EXPECT_TRUE(none.Identity());

  const codec::Spec bf = sensei::ParseCodecSpec(
      xmlcfg::Parse("<points><codec type=\"blockfloat\" rate=\"12\"/>"
                    "</points>")
          .root);
  EXPECT_EQ(bf.kind, codec::Kind::kBlockFloat);
  EXPECT_EQ(bf.rate, 12);

  const codec::Spec rle = sensei::ParseCodecSpec(
      xmlcfg::Parse("<connectivity><codec type=\"shuffle_rle\" delta=\"1\"/>"
                    "</connectivity>")
          .root);
  EXPECT_EQ(rle.kind, codec::Kind::kShuffleRle);
  EXPECT_TRUE(rle.delta);
}

TEST(TransportCodecsTest, RejectsUnknownTypeAndBadRate) {
  EXPECT_THROW(
      (void)sensei::ParseCodecSpec(
          xmlcfg::Parse("<p><codec type=\"zstd\"/></p>").root),
      std::invalid_argument);
  EXPECT_THROW(
      (void)sensei::ParseCodecSpec(
          xmlcfg::Parse("<p><codec type=\"blockfloat\" rate=\"1\"/></p>")
              .root),
      std::invalid_argument);
  EXPECT_THROW(
      (void)sensei::ParseCodecSpec(
          xmlcfg::Parse("<p><codec type=\"blockfloat\" rate=\"33\"/></p>")
              .root),
      std::invalid_argument);
}

TEST(TransportCodecsTest, ParsesPerPlaneSelectionWithWildcard) {
  const auto root = xmlcfg::Parse(
      "<analysis type=\"adios\">"
      "  <points><codec type=\"blockfloat\" rate=\"8\"/></points>"
      "  <connectivity><codec type=\"shuffle_rle\" delta=\"1\"/>"
      "</connectivity>"
      "  <array name=\"pressure\"><codec type=\"blockfloat\" rate=\"16\"/>"
      "</array>"
      "  <array name=\"*\"><codec type=\"blockfloat\" rate=\"8\"/></array>"
      "</analysis>");
  const sensei::TransportCodecs codecs =
      sensei::ParseTransportCodecs(root.root);
  EXPECT_TRUE(codecs.Any());
  EXPECT_EQ(codecs.points.kind, codec::Kind::kBlockFloat);
  EXPECT_EQ(codecs.connectivity.kind, codec::Kind::kShuffleRle);
  EXPECT_EQ(codecs.ForArray("pressure").rate, 16);
  EXPECT_EQ(codecs.ForArray("temperature").rate, 8);  // wildcard
  EXPECT_EQ(codecs.ForArray("temperature").kind, codec::Kind::kBlockFloat);

  const sensei::TransportCodecs empty = sensei::ParseTransportCodecs(
      xmlcfg::Parse("<analysis type=\"adios\"/>").root);
  EXPECT_FALSE(empty.Any());
  EXPECT_TRUE(empty.ForArray("anything").Identity());
}

TEST(TransportCodecsTest, RejectsBlockfloatConnectivityAtParseTime) {
  EXPECT_THROW(
      (void)sensei::ParseTransportCodecs(
          xmlcfg::Parse("<analysis type=\"adios\"><connectivity>"
                        "<codec type=\"blockfloat\" rate=\"8\"/>"
                        "</connectivity></analysis>")
              .root),
      std::invalid_argument);
}

TEST(TransportCodecsTest, RequiresArrayName) {
  EXPECT_THROW(
      (void)sensei::ParseTransportCodecs(
          xmlcfg::Parse("<analysis type=\"adios\"><array>"
                        "<codec type=\"blockfloat\" rate=\"8\"/>"
                        "</array></analysis>")
              .root),
      std::invalid_argument);
}

TEST(TransportStageTest, IdentityRoundTripIsExact) {
  const svtk::UnstructuredGrid grid = MakeStagedCube();
  const adios::StepPayload payload = StageAndShip(grid, {});
  // Identity staging ships raw == wire.
  EXPECT_EQ(payload.raw_bytes, payload.wire_bytes);
  const svtk::UnstructuredGrid back = sensei::ReassembleGrid(payload);
  ExpectGridsMatch(grid, back, 0.0);
  EXPECT_EQ(back.PointArray("scalar")->At(3), grid.PointArray("scalar")->At(3));
  EXPECT_EQ(back.CellArray("vol")->At(0), 42.0);
}

TEST(TransportStageTest, CodecRoundTripHonoursBounds) {
  const svtk::UnstructuredGrid grid = MakeStagedCube();
  sensei::TransportCodecs codecs;
  codecs.points.kind = codec::Kind::kBlockFloat;
  codecs.points.rate = 16;
  codecs.connectivity.kind = codec::Kind::kShuffleRle;
  codecs.connectivity.delta = true;
  codec::Spec array_spec;
  array_spec.kind = codec::Kind::kBlockFloat;
  array_spec.rate = 16;
  codecs.arrays["*"] = array_spec;

  const adios::StepPayload payload = StageAndShip(grid, codecs);
  const svtk::UnstructuredGrid back = sensei::ReassembleGrid(payload);
  const double bound =
      codec::BlockFloatErrorBound(grid.Points(), 16);
  ExpectGridsMatch(grid, back, bound);
  const double scalar_bound = codec::BlockFloatErrorBound(
      grid.PointArray("scalar")->Data(), 16);
  for (std::size_t t = 0; t < 8; ++t) {
    EXPECT_NEAR(back.PointArray("scalar")->At(t),
                grid.PointArray("scalar")->At(t), scalar_bound);
  }
}

TEST(TransportStageTest, BlockfloatOnConnectivityThrowsAtStageTime) {
  const svtk::UnstructuredGrid grid = MakeStagedCube();
  sensei::TransportCodecs codecs;
  codecs.connectivity.kind = codec::Kind::kBlockFloat;
  EXPECT_THROW(
      sensei::StageGridTo(
          [](const std::string&, core::BufferChain, const codec::Spec&) {},
          grid, codecs),
      std::invalid_argument);
}

TEST(TransportStageTest, LegacySingleBlobPayloadStillReassembles) {
  // Old writers (and restart files) ship the whole grid as one "mesh" blob;
  // ReassembleGrid must keep reading them, keyed on the svtk magic.
  const svtk::UnstructuredGrid grid = MakeStagedCube();
  adios::StepChain staged;
  staged.step = 0;
  staged.writer_rank = 0;
  staged.variables["mesh"] = svtk::SerializeChain(grid);
  core::Buffer packed = adios::MarshalChain(staged).Pack("test");
  const adios::StepPayload payload = adios::UnmarshalStep(packed.bytes());
  const svtk::UnstructuredGrid back = sensei::ReassembleGrid(payload);
  ExpectGridsMatch(grid, back, 0.0);
}

TEST(TransportStageTest, MissingPlaneThrowsDescriptively) {
  const svtk::UnstructuredGrid grid = MakeStagedCube();
  adios::StepChain staged;
  sensei::StageGridTo(
      [&staged](const std::string& name, core::BufferChain chain,
                const codec::Spec&) {
        staged.variables[name] = std::move(chain);
      },
      grid, {});
  staged.variables.erase("mesh.points");
  core::Buffer packed = adios::MarshalChain(staged).Pack("test");
  const adios::StepPayload payload = adios::UnmarshalStep(packed.bytes());
  try {
    (void)sensei::ReassembleGrid(payload);
    FAIL() << "reassembled a payload with no points plane";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("mesh.points"), std::string::npos)
        << e.what();
  }
}

// ---- In transit: adios sender + endpoint consumer ---------------------------

TEST(InTransitTest, StreamedBlocksMergeOnEndpoint) {
  Runtime::Run(3, [](Comm& world) {
    // ranks 0,1 = writers; rank 2 = endpoint.
    if (world.Rank() < 2) {
      Comm sim = world.Split(0, world.Rank());
      TestDataAdaptor data(sim);
      data.SetPipelineTime(5, 0.5);
      sensei::AdiosAnalysisAdaptor sender(world, 2, {});
      ASSERT_TRUE(sender.Execute(data));
      sender.Finalize();
      EXPECT_EQ(sender.TransportStats().steps, 1u);
    } else {
      Comm ep = world.Split(1, world.Rank());
      adios::SstReader reader(world, {0, 1});
      sensei::InTransitDataAdaptor data(ep);
      auto step = reader.NextStep();
      ASSERT_TRUE(step.has_value());
      data.SetStep(step->step, 0.0, step->payloads);
      EXPECT_EQ(data.GetDataTimeStep(), 5);
      EXPECT_DOUBLE_EQ(data.GetDataTime(), 0.5);

      auto mesh = data.GetMesh(0);
      EXPECT_EQ(mesh->NumPoints(), 16u);  // two 8-point blocks merged
      EXPECT_EQ(mesh->NumCells(), 2u);
      EXPECT_NE(mesh->PointArray("scalar"), nullptr);
      // Connectivity renumbered: second cell references points >= 8.
      auto cell1 = mesh->GetCell(1);
      for (auto n : cell1) EXPECT_GE(n, 8);
      // Arrays preserved blockwise: block 1's scalar starts at rank 1 value.
      EXPECT_DOUBLE_EQ(mesh->PointArray("scalar")->At(8), 1.0);

      sensei::MeshMetadata md = data.GetMeshMetadata(0);
      EXPECT_DOUBLE_EQ(md.global_bounds[1], 2.0);  // spans both blocks

      EXPECT_FALSE(reader.NextStep().has_value());
    }
  });
}

TEST(InTransitTest, EndpointRunsCheckpointAnalysis) {
  const std::string dir = TempSubdir("ep_chk");
  Runtime::Run(3, [&](Comm& world) {
    if (world.Rank() < 2) {
      Comm sim = world.Split(0, world.Rank());
      TestDataAdaptor data(sim);
      sensei::AdiosAnalysisAdaptor sender(world, 2, {});
      for (int step = 0; step < 3; ++step) {
        data.SetPipelineTime(step, 0.1 * step);
        ASSERT_TRUE(sender.Execute(data));
      }
      sender.Finalize();
    } else {
      Comm ep = world.Split(1, world.Rank());
      adios::SstReader reader(world, {0, 1});
      sensei::InTransitDataAdaptor data(ep);
      sensei::ConfigurableAnalysis analysis(ep);
      analysis.Initialize(
          xmlcfg::Parse("<sensei><analysis type=\"checkpoint\" output=\"" +
                        dir + "\"/></sensei>")
              .root);
      while (auto step = reader.NextStep()) {
        data.SetStep(step->step, 0.0, step->payloads);
        ASSERT_TRUE(analysis.Execute(data));
      }
      analysis.Finalize();
      auto checkpoint =
          std::dynamic_pointer_cast<sensei::CheckpointAnalysisAdaptor>(
              analysis.Find("checkpoint"));
      EXPECT_EQ(checkpoint->FilesWritten(), 3u);
    }
  });
}


// ---- BP-file (post hoc) adaptor ---------------------------------------------

TEST(BpFileAdaptorTest, WritesReplayableStream) {
  const std::string dir = TempSubdir("bp");
  Runtime::Run(2, [&](Comm& comm) {
    TestDataAdaptor data(comm);
    sensei::BpFileOptions options;
    options.output_dir = dir;
    sensei::BpFileAnalysisAdaptor adaptor(options);
    for (int step = 0; step < 3; ++step) {
      data.SetPipelineTime(step * 10, step * 0.1);
      ASSERT_TRUE(adaptor.Execute(data));
      data.ReleaseData();
    }
    adaptor.Finalize();
    EXPECT_GT(adaptor.BytesWritten(), 0u);

    // Replay this rank's stream: steps in order, mesh deserializable.
    adios::BpFileReader reader(adaptor.FilePath(comm.Rank()));
    int expected = 0;
    while (auto step = reader.NextStep()) {
      EXPECT_EQ(step->step, expected * 10);
      auto grid = sensei::ReassembleGrid(*step);
      EXPECT_EQ(grid.NumPoints(), 8u);
      EXPECT_NE(grid.PointArray("scalar"), nullptr);
      double time = -1.0;
      std::memcpy(&time, step->variables.at("time").data(), sizeof(double));
      EXPECT_DOUBLE_EQ(time, expected * 0.1);
      ++expected;
    }
    EXPECT_EQ(expected, 3);
  });
}

TEST(BpFileAdaptorTest, ConfigurableViaXml) {
  const std::string dir = TempSubdir("bp_xml");
  Runtime::Run(1, [&](Comm& comm) {
    sensei::ConfigurableAnalysis analysis(comm);
    analysis.Initialize(
        xmlcfg::Parse("<sensei><analysis type=\"bpfile\" frequency=\"2\" "
                      "output=\"" + dir + "\" arrays=\"scalar\"/></sensei>")
            .root);
    TestDataAdaptor data(comm);
    for (int step = 1; step <= 4; ++step) {
      data.SetPipelineTime(step, 0.0);
      analysis.Execute(data);
    }
    analysis.Finalize();
    adios::BpFileReader reader(dir + "/stream_rank0000.bp");
    int steps = 0;
    while (auto step = reader.NextStep()) {
      auto grid = sensei::ReassembleGrid(*step);
      EXPECT_NE(grid.PointArray("scalar"), nullptr);
      EXPECT_EQ(grid.PointArray("vec"), nullptr);  // subset respected
      ++steps;
    }
    EXPECT_EQ(steps, 2);  // steps 2 and 4
  });
}


// ---- Failure propagation ----------------------------------------------------

namespace {
class FailingAdaptor final : public sensei::AnalysisAdaptor {
 public:
  bool Execute(sensei::DataAdaptor&) override { return false; }
  std::string Kind() const override { return "failing"; }
};
}  // namespace

TEST(FailureTest, AnalysisFailureIsReportedNotSwallowed) {
  Runtime::Run(1, [](Comm& comm) {
    sensei::ConfigurableAnalysis analysis(comm);
    analysis.RegisterFactory(
        "failing", [](const xmlcfg::Element&, mpimini::Comm&) {
          return std::make_shared<FailingAdaptor>();
        });
    analysis.Initialize(
        xmlcfg::Parse("<sensei>"
                      "<analysis type=\"failing\"/>"
                      "<analysis type=\"stats\" arrays=\"scalar\"/>"
                      "</sensei>")
            .root);
    TestDataAdaptor data(comm);
    data.SetPipelineTime(1, 0.0);
    // The failure is reported, and the healthy analysis still ran.
    EXPECT_FALSE(analysis.Execute(data));
    auto stats = std::dynamic_pointer_cast<sensei::StatsAnalysisAdaptor>(
        analysis.Find("stats"));
    EXPECT_EQ(stats->Last().count("scalar"), 1u);
  });
}


// ---- Autocorrelation --------------------------------------------------------

namespace {
// DataAdaptor whose scalar oscillates in time with a controllable signal.
class SignalDataAdaptor final : public sensei::DataAdaptor {
 public:
  explicit SignalDataAdaptor(Comm comm) { SetCommunicator(comm); }

  int GetNumberOfMeshes() override { return 1; }
  sensei::MeshMetadata GetMeshMetadata(int) override {
    sensei::MeshMetadata md;
    md.arrays.push_back({"signal", svtk::Centering::kPoint, 1});
    return md;
  }
  std::shared_ptr<svtk::UnstructuredGrid> GetMesh(int) override {
    if (!mesh_) {
      mesh_ = std::make_shared<svtk::UnstructuredGrid>(8, 1);
      for (int p = 0; p < 8; ++p) {
        mesh_->SetPoint(static_cast<std::size_t>(p), p, 0, 0);
      }
      mesh_->SetCell(0, {0, 1, 2, 3, 4, 5, 6, 7});
    }
    return mesh_;
  }
  bool AddArray(svtk::UnstructuredGrid& mesh, const std::string& name,
                svtk::Centering) override {
    if (name != "signal") return false;
    svtk::DataArray& a = mesh.AddPointArray("signal", 1);
    for (std::size_t t = 0; t < 8; ++t) a.At(t) = value;
    return true;
  }
  void ReleaseData() override { mesh_.reset(); }

  double value = 0.0;

 private:
  std::shared_ptr<svtk::UnstructuredGrid> mesh_;
};
}  // namespace

TEST(AutocorrelationTest, AlternatingSignalHasNegativeLagOne) {
  // A field flipping sign every trigger is perfectly anti-correlated at
  // lag 1 and perfectly correlated at lag 2.
  Runtime::Run(2, [](Comm& comm) {
    SignalDataAdaptor data(comm);
    sensei::AutocorrelationOptions options;
    options.array = "signal";
    options.by_magnitude = false;
    options.window = 6;
    options.max_lag = 2;
    sensei::AutocorrelationAnalysisAdaptor adaptor(options);
    for (int step = 0; step < 8; ++step) {
      data.value = (step % 2 == 0) ? 1.0 : -1.0;
      data.SetPipelineTime(step, 0.1 * step);
      ASSERT_TRUE(adaptor.Execute(data));
      data.ReleaseData();
    }
    ASSERT_EQ(adaptor.Correlations().size(), 3u);
    EXPECT_NEAR(adaptor.Correlations()[0], 1.0, 1e-12);
    EXPECT_NEAR(adaptor.Correlations()[1], -1.0, 0.05);
    EXPECT_NEAR(adaptor.Correlations()[2], 1.0, 0.05);
  });
}

TEST(AutocorrelationTest, WindowFillsBeforeReporting) {
  Runtime::Run(1, [](Comm& comm) {
    SignalDataAdaptor data(comm);
    sensei::AutocorrelationOptions options;
    options.array = "signal";
    options.by_magnitude = false;
    options.window = 4;
    options.max_lag = 2;
    sensei::AutocorrelationAnalysisAdaptor adaptor(options);
    for (int step = 0; step < 3; ++step) {
      data.value = step;
      ASSERT_TRUE(adaptor.Execute(data));
      data.ReleaseData();
    }
    EXPECT_TRUE(adaptor.Correlations().empty());
    EXPECT_EQ(adaptor.SnapshotsHeld(), 3);
    data.value = 3;
    ASSERT_TRUE(adaptor.Execute(data));
    EXPECT_FALSE(adaptor.Correlations().empty());
    EXPECT_EQ(adaptor.SnapshotsHeld(), 4);
  });
}

TEST(AutocorrelationTest, StatefulWindowMemoryIsTracked) {
  Runtime::Run(1, [](Comm& comm) {
    mpimini::RankEnv* env = mpimini::CurrentEnv();
    SignalDataAdaptor data(comm);
    sensei::AutocorrelationOptions options;
    options.array = "signal";
    options.window = 5;
    options.max_lag = 2;
    sensei::AutocorrelationAnalysisAdaptor adaptor(options);
    for (int step = 0; step < 10; ++step) {
      data.value = step;
      adaptor.Execute(data);
      data.ReleaseData();
    }
    // Exactly `window` snapshots of 8 doubles stay resident.
    EXPECT_EQ(env->memory.CurrentBytes("autocorrelation"),
              5u * 8u * sizeof(double));
  });
}

TEST(AutocorrelationTest, ConfigurableViaXmlAndValidates) {
  Runtime::Run(1, [](Comm& comm) {
    sensei::ConfigurableAnalysis analysis(comm);
    analysis.Initialize(
        xmlcfg::Parse("<sensei><analysis type=\"autocorrelation\" "
                      "array=\"signal\" window=\"4\" max_lag=\"2\"/>"
                      "</sensei>")
            .root);
    EXPECT_NE(analysis.Find("autocorrelation"), nullptr);
    EXPECT_THROW(sensei::AutocorrelationAnalysisAdaptor(
                     {"x", svtk::Centering::kPoint, false, 1, 1, ""}),
                 std::invalid_argument);
    EXPECT_THROW(sensei::AutocorrelationAnalysisAdaptor(
                     {"x", svtk::Centering::kPoint, false, 4, 7, ""}),
                 std::invalid_argument);
  });
}

}  // namespace
