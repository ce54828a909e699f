#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <numbers>

#include "mpimini/runtime.hpp"
#include "render/camera.hpp"
#include "render/colormap.hpp"
#include "render/compositor.hpp"
#include "render/image_io.hpp"
#include "render/rasterizer.hpp"

namespace {

using render::Camera;
using render::Colormap;
using render::FitCamera;
using render::Framebuffer;
using render::GetColormap;
using render::RenderSpec;
using render::Rgb;

svtk::UnstructuredGrid MakeCube(double lo, double hi, double scalar) {
  svtk::UnstructuredGrid grid(8, 1);
  int p = 0;
  for (int k = 0; k < 2; ++k) {
    for (int j = 0; j < 2; ++j) {
      for (int i = 0; i < 2; ++i) {
        grid.SetPoint(static_cast<std::size_t>(p++), i ? hi : lo,
                      j ? hi : lo, k ? hi : lo);
      }
    }
  }
  grid.SetCell(0, {0, 1, 3, 2, 4, 5, 7, 6});
  svtk::DataArray& s = grid.AddPointArray("f", 1);
  for (std::size_t t = 0; t < 8; ++t) s.At(t) = scalar;
  return grid;
}

TEST(ColormapTest, EndpointsAndMidpoints) {
  const Colormap& gray = GetColormap("grayscale");
  EXPECT_EQ(gray.Sample(0.0), (Rgb{0, 0, 0}));
  EXPECT_EQ(gray.Sample(1.0), (Rgb{255, 255, 255}));
  EXPECT_EQ(gray.Sample(0.5), (Rgb{128, 128, 128}));
}

TEST(ColormapTest, ClampsOutOfRange) {
  const Colormap& gray = GetColormap("grayscale");
  EXPECT_EQ(gray.Sample(-5.0), gray.Sample(0.0));
  EXPECT_EQ(gray.Sample(7.0), gray.Sample(1.0));
}

TEST(ColormapTest, MapUsesRange) {
  const Colormap& gray = GetColormap("grayscale");
  EXPECT_EQ(gray.Map(15.0, 10.0, 20.0), gray.Sample(0.5));
  EXPECT_EQ(gray.Map(3.0, 3.0, 3.0), gray.Sample(0.5));  // degenerate
}

TEST(ColormapTest, KnownMapsExistUnknownThrows) {
  EXPECT_NO_THROW(GetColormap("viridis"));
  EXPECT_NO_THROW(GetColormap("coolwarm"));
  EXPECT_NO_THROW(GetColormap("plasma"));
  EXPECT_THROW(GetColormap("sunset"), std::invalid_argument);
}

TEST(CameraTest, LookAtProjectsTargetToCenter) {
  Camera camera;
  camera.position = {3.0, 2.0, 4.0};
  camera.target = {0.5, 0.5, 0.5};
  const render::Vec4 clip =
      render::Transform(camera.ViewProjection(), camera.target);
  EXPECT_GT(clip.w, 0.0);
  EXPECT_NEAR(clip.x / clip.w, 0.0, 1e-9);
  EXPECT_NEAR(clip.y / clip.w, 0.0, 1e-9);
}

TEST(CameraTest, FitCameraSeesWholeBox) {
  const std::array<double, 6> bounds{0, 1, 0, 1, 0, 1};
  Camera camera = FitCamera(bounds, 30.0, 20.0, 1.0);
  const render::Mat4 vp = camera.ViewProjection();
  // All 8 corners project inside clip space.
  for (int c = 0; c < 8; ++c) {
    const render::Vec3 corner{(c & 1) ? 1.0 : 0.0, (c & 2) ? 1.0 : 0.0,
                              (c & 4) ? 1.0 : 0.0};
    const render::Vec4 clip = render::Transform(vp, corner);
    ASSERT_GT(clip.w, 0.0);
    EXPECT_LE(std::abs(clip.x / clip.w), 1.0);
    EXPECT_LE(std::abs(clip.y / clip.w), 1.0);
  }
}

TEST(FramebufferTest, ClearSetsBackgroundAndFarDepth) {
  Framebuffer fb(8, 4);
  fb.Clear({1, 2, 3});
  EXPECT_EQ(fb.Pixel(0, 0), (Rgb{1, 2, 3}));
  EXPECT_EQ(fb.Pixel(7, 3), (Rgb{1, 2, 3}));
  EXPECT_EQ(fb.Depth(4, 2), Framebuffer::kFarDepth);
}

TEST(FramebufferTest, RejectsNonPositiveSizeBeforeAllocating) {
  EXPECT_THROW(Framebuffer(-5, 10), std::invalid_argument);
  EXPECT_THROW(Framebuffer(10, 0), std::invalid_argument);
}

TEST(FramebufferTest, TracksRenderMemory) {
  instrument::MemoryTracker tracker;
  instrument::TrackerScope scope(&tracker);
  {
    Framebuffer fb(100, 50);
    EXPECT_EQ(tracker.CurrentBytes("render"),
              100u * 50u * (3 + sizeof(float)));
  }
  EXPECT_EQ(tracker.CurrentBytes("render"), 0u);
}

TEST(RasterizerTest, CubeCoversCenterPixels) {
  svtk::UnstructuredGrid grid = MakeCube(0.0, 1.0, 5.0);
  Framebuffer fb(64, 64);
  fb.Clear({0, 0, 0});
  RenderSpec spec;
  spec.array = "f";
  spec.colormap = "grayscale";
  spec.range_min = 0.0;
  spec.range_max = 10.0;
  Camera camera = FitCamera(grid.Bounds(), 40.0, 25.0, 1.0);
  auto stats = render::RasterizeGrid(grid, spec, camera, fb);
  EXPECT_EQ(stats.cells_drawn, 1u);
  EXPECT_GT(stats.pixels_shaded, 100u);
  // Center pixel shows the cube colored at scalar 5 in [0,10] => mid-gray.
  EXPECT_EQ(fb.Pixel(32, 32), (Rgb{128, 128, 128}));
  // Corner pixel stays background.
  EXPECT_EQ(fb.Pixel(0, 0), (Rgb{0, 0, 0}));
  EXPECT_LT(fb.Depth(32, 32), Framebuffer::kFarDepth);
}

TEST(RasterizerTest, NearerCubeWinsDepthTest) {
  // Two cubes along the view axis; the nearer one must cover the center.
  Camera camera;
  camera.position = {0.5, 0.5, 6.0};
  camera.target = {0.5, 0.5, 0.0};
  camera.up = {0.0, 1.0, 0.0};
  camera.aspect = 1.0;

  Framebuffer fb(64, 64);
  fb.Clear({0, 0, 0});
  RenderSpec spec;
  spec.array = "f";
  spec.colormap = "grayscale";
  spec.range_min = 0.0;
  spec.range_max = 10.0;

  svtk::UnstructuredGrid far_cube = MakeCube(0.0, 1.0, 0.0);    // black
  svtk::UnstructuredGrid near_cube = MakeCube(0.25, 0.75, 10.0);  // white
  // Shift the near cube toward the camera in z.
  for (std::size_t i = 0; i < near_cube.NumPoints(); ++i) {
    near_cube.Points()[3 * i + 2] += 2.0;
  }
  render::RasterizeGrid(far_cube, spec, camera, fb);
  render::RasterizeGrid(near_cube, spec, camera, fb);
  EXPECT_EQ(fb.Pixel(32, 32), (Rgb{255, 255, 255}));
}

TEST(RasterizerTest, ThresholdSkipsCells) {
  svtk::UnstructuredGrid grid = MakeCube(0.0, 1.0, 5.0);
  Framebuffer fb(32, 32);
  fb.Clear({0, 0, 0});
  RenderSpec spec;
  spec.array = "f";
  spec.threshold_min = 6.0;  // cell mean is 5 -> excluded
  Camera camera = FitCamera(grid.Bounds(), 40.0, 25.0, 1.0);
  auto stats = render::RasterizeGrid(grid, spec, camera, fb);
  EXPECT_EQ(stats.cells_drawn, 0u);
  EXPECT_EQ(stats.pixels_shaded, 0u);
}

TEST(RasterizerTest, CellCenteredColoring) {
  svtk::UnstructuredGrid grid = MakeCube(0.0, 1.0, 0.0);
  svtk::DataArray& c = grid.AddCellArray("rank", 1);
  c.At(0) = 1.0;
  Framebuffer fb(32, 32);
  fb.Clear({0, 0, 0});
  RenderSpec spec;
  spec.array = "rank";
  spec.centering = svtk::Centering::kCell;
  spec.colormap = "grayscale";
  spec.range_min = 0.0;
  spec.range_max = 1.0;
  Camera camera = FitCamera(grid.Bounds(), 40.0, 25.0, 1.0);
  render::RasterizeGrid(grid, spec, camera, fb);
  EXPECT_EQ(fb.Pixel(16, 16), (Rgb{255, 255, 255}));
}

TEST(RasterizerTest, MissingArrayThrows) {
  svtk::UnstructuredGrid grid = MakeCube(0.0, 1.0, 0.0);
  Framebuffer fb(16, 16);
  RenderSpec spec;
  spec.array = "nope";
  Camera camera = FitCamera(grid.Bounds(), 40.0, 25.0, 1.0);
  EXPECT_THROW(render::RasterizeGrid(grid, spec, camera, fb),
               std::invalid_argument);
}

class CompositorRankTest : public ::testing::TestWithParam<int> {};

TEST_P(CompositorRankTest, NearestDepthWinsAcrossRanks) {
  const int nranks = GetParam();
  mpimini::Runtime::Run(nranks, [nranks](mpimini::Comm& comm) {
    Framebuffer fb(16, 16);
    fb.Clear({0, 0, 0});
    // Each rank writes its id at depth (rank+1): rank 0 is nearest.
    const auto shade = static_cast<unsigned char>(50 + comm.Rank() * 10);
    fb.SetPixel(8, 8, {shade, shade, shade},
                static_cast<float>(comm.Rank() + 1));
    render::CompositeToRoot(comm, fb, 0);
    if (comm.Rank() == 0) {
      EXPECT_EQ(fb.Pixel(8, 8), (Rgb{50, 50, 50}));
      EXPECT_EQ(fb.Pixel(0, 0), (Rgb{0, 0, 0}));
    }
    (void)nranks;
  });
}

TEST_P(CompositorRankTest, DisjointRegionsAllSurvive) {
  const int nranks = GetParam();
  mpimini::Runtime::Run(nranks, [](mpimini::Comm& comm) {
    Framebuffer fb(16, 16);
    fb.Clear({0, 0, 0});
    fb.SetPixel(comm.Rank(), 0, {255, 0, 0}, 1.0F);
    render::CompositeToRoot(comm, fb, 0);
    if (comm.Rank() == 0) {
      for (int r = 0; r < comm.Size(); ++r) {
        EXPECT_EQ(fb.Pixel(r, 0), (Rgb{255, 0, 0})) << "rank " << r;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Ranks, CompositorRankTest,
                         ::testing::Values(1, 2, 4));

TEST(ImageIoTest, PpmRoundTrip) {
  Framebuffer fb(20, 10);
  fb.Clear({7, 8, 9});
  fb.SetPixel(3, 2, {200, 100, 50}, 1.0F);
  const std::string path = ::testing::TempDir() + "/img.ppm";
  const std::size_t bytes = render::WritePpm(fb, path);
  EXPECT_EQ(bytes, std::filesystem::file_size(path));
  Framebuffer back = render::ReadPpm(path);
  EXPECT_EQ(back.Width(), 20);
  EXPECT_EQ(back.Height(), 10);
  EXPECT_EQ(back.Pixel(3, 2), (Rgb{200, 100, 50}));
  EXPECT_EQ(back.Pixel(0, 0), (Rgb{7, 8, 9}));
}

TEST(ImageIoTest, PpmSizeIsHeaderPlusPixels) {
  Framebuffer fb(640, 480);
  const std::string path = ::testing::TempDir() + "/size.ppm";
  const std::size_t bytes = render::WritePpm(fb, path);
  EXPECT_EQ(bytes, 15u + 640u * 480u * 3u);
}


TEST(RasterizerTest, SliceKeepsOnlyStraddlingCells) {
  // Two unit cubes stacked in z; slice through the lower one only.
  svtk::UnstructuredGrid lower = MakeCube(0.0, 1.0, 5.0);
  svtk::UnstructuredGrid upper = MakeCube(0.0, 1.0, 5.0);
  for (std::size_t i = 0; i < upper.NumPoints(); ++i) {
    upper.Points()[3 * i + 2] += 1.5;
  }
  RenderSpec spec;
  spec.array = "f";
  spec.slice_axis = 2;
  spec.slice_position = 0.5;  // inside the lower cube only
  Framebuffer fb(32, 32);
  fb.Clear({0, 0, 0});
  Camera camera = FitCamera({0, 1, 0, 1, 0, 2.5}, 40, 25, 1.0);
  auto s_low = render::RasterizeGrid(lower, spec, camera, fb);
  auto s_up = render::RasterizeGrid(upper, spec, camera, fb);
  EXPECT_EQ(s_low.cells_drawn, 1u);
  EXPECT_EQ(s_up.cells_drawn, 0u);
}

// ---- Visible-face culling oracle ------------------------------------------

// The rasterizer without culling: every triangle of every selected cell,
// in RasterizeGrid's draw order, through the public triangle rasterizer.
render::RasterStats ReferenceRasterize(const svtk::UnstructuredGrid& grid,
                                       const RenderSpec& spec,
                                       const Camera& camera, Framebuffer& fb) {
  constexpr int kFaces[6][4] = {{0, 3, 2, 1}, {4, 5, 6, 7}, {0, 1, 5, 4},
                                {1, 2, 6, 5}, {2, 3, 7, 6}, {3, 0, 4, 7}};
  const bool by_point = spec.centering == svtk::Centering::kPoint;
  const svtk::DataArray* array =
      by_point ? grid.PointArray(spec.array) : grid.CellArray(spec.array);
  const bool magnitude = spec.color_by_magnitude && array->Components() > 1;
  auto scalar_of = [&](std::size_t tuple) {
    return magnitude ? array->Magnitude(tuple) : array->At(tuple);
  };
  double lo = spec.range_min;
  double hi = spec.range_max;
  if (lo == hi) {
    const auto range = array->ValueRange(magnitude);
    lo = range.min;
    hi = range.max;
  }
  const Colormap& cmap = GetColormap(spec.colormap);
  const render::Mat4 vp = camera.ViewProjection();
  const render::Mat4 view = camera.ViewMatrix();
  std::vector<render::ScreenVertex> projected(grid.NumPoints());
  for (std::size_t i = 0; i < grid.NumPoints(); ++i) {
    const auto p = grid.GetPoint(i);
    projected[i] = render::ProjectPoint(vp, view, {p[0], p[1], p[2]},
                                        fb.Width(), fb.Height());
    if (by_point) projected[i].scalar = scalar_of(i);
  }
  render::RasterStats stats;
  for (std::size_t cell = 0; cell < grid.NumCells(); ++cell) {
    const auto nodes = grid.GetCell(cell);
    if (spec.slice_axis) {
      double lo_c = 1e300, hi_c = -1e300;
      for (std::int64_t nid : nodes) {
        const double v = grid.GetPoint(static_cast<std::size_t>(nid))
            [static_cast<std::size_t>(*spec.slice_axis)];
        lo_c = std::min(lo_c, v);
        hi_c = std::max(hi_c, v);
      }
      if (spec.slice_position < lo_c || spec.slice_position > hi_c) continue;
    }
    const double cell_scalar = by_point ? 0.0 : scalar_of(cell);
    if (spec.threshold_min || spec.threshold_max) {
      double probe = cell_scalar;
      if (by_point) {
        probe = 0.0;
        for (std::int64_t nid : nodes) {
          probe += scalar_of(static_cast<std::size_t>(nid));
        }
        probe /= 8.0;
      }
      if (spec.threshold_min && probe < *spec.threshold_min) continue;
      if (spec.threshold_max && probe > *spec.threshold_max) continue;
    }
    for (const auto& face : kFaces) {
      render::ScreenVertex c[4];
      for (int k = 0; k < 4; ++k) {
        c[k] = projected[static_cast<std::size_t>(nodes[face[k]])];
        if (!by_point) c[k].scalar = cell_scalar;
      }
      render::RasterizeShadedTriangle(c[0], c[1], c[2], cmap, lo, hi, 1.0, fb,
                                      stats);
      render::RasterizeShadedTriangle(c[0], c[2], c[3], cmap, lo, hi, 1.0, fb,
                                      stats);
    }
  }
  return stats;
}

bool SamePlanes(const Framebuffer& a, const Framebuffer& b) {
  return a.Color().size() == b.Color().size() &&
         std::memcmp(a.Color().data(), b.Color().data(), a.Color().size()) ==
             0 &&
         std::memcmp(a.DepthPlane().data(), b.DepthPlane().data(),
                     a.DepthPlane().size() * sizeof(float)) == 0;
}

struct OracleRun {
  render::RasterStats reference;
  render::RasterStats culled;
};

// Renders `grid` both ways into fresh 160x120 framebuffers and requires
// bit-identical color and depth planes.
OracleRun ExpectMatchesReference(const svtk::UnstructuredGrid& grid,
                                 const RenderSpec& spec,
                                 const Camera& camera) {
  Framebuffer expected(160, 120);
  Framebuffer actual(160, 120);
  expected.Clear(spec.background);
  actual.Clear(spec.background);
  OracleRun run;
  run.reference = ReferenceRasterize(grid, spec, camera, expected);
  run.culled = render::RasterizeGrid(grid, spec, camera, actual);
  EXPECT_GT(run.reference.pixels_shaded, 0u);
  EXPECT_TRUE(SamePlanes(expected, actual));
  return run;
}

// An n^3 lattice of hex cells over [0,1]^3.  With `elements` > 1 the
// lattice is cut into elements^3 blocks of order^3 cells that each own
// their points, cosine-spaced like GLL nodes: the BuildSemGrid layout,
// where faces between elements have coincident points but distinct ids.
svtk::UnstructuredGrid MakeLattice(int elements, int order) {
  const int np = order + 1;
  const auto per_element = static_cast<std::size_t>(np * np * np);
  const auto nel = static_cast<std::size_t>(elements * elements * elements);
  svtk::UnstructuredGrid grid(nel * per_element,
                              nel * static_cast<std::size_t>(order) * order *
                                  order);
  auto node = [&](int i) {
    if (elements == 1) return static_cast<double>(i) / order;
    return 0.5 * (1.0 - std::cos(std::numbers::pi * i / order));
  };
  std::size_t cell = 0;
  for (std::size_t e = 0; e < nel; ++e) {
    const int ex = static_cast<int>(e) % elements;
    const int ey = static_cast<int>(e) / elements % elements;
    const int ez = static_cast<int>(e) / (elements * elements);
    const auto base = static_cast<std::int64_t>(e * per_element);
    auto id = [&](int i, int j, int k) {
      return base + i + np * (j + np * k);
    };
    for (int k = 0; k < np; ++k) {
      for (int j = 0; j < np; ++j) {
        for (int i = 0; i < np; ++i) {
          grid.SetPoint(static_cast<std::size_t>(id(i, j, k)),
                        (ex + node(i)) / elements, (ey + node(j)) / elements,
                        (ez + node(k)) / elements);
        }
      }
    }
    for (int k = 0; k < order; ++k) {
      for (int j = 0; j < order; ++j) {
        for (int i = 0; i < order; ++i) {
          grid.SetCell(cell++, {id(i, j, k), id(i + 1, j, k),
                                id(i + 1, j + 1, k), id(i, j + 1, k),
                                id(i, j, k + 1), id(i + 1, j, k + 1),
                                id(i + 1, j + 1, k + 1), id(i, j + 1, k + 1)});
        }
      }
    }
  }
  svtk::DataArray& f = grid.AddPointArray("f", 1);
  for (std::size_t t = 0; t < grid.NumPoints(); ++t) {
    const auto p = grid.GetPoint(t);
    f.At(t) = std::sin(6.0 * p[0]) * std::cos(5.0 * p[1]) + p[2];
  }
  svtk::DataArray& c = grid.AddCellArray("c", 1);
  for (std::size_t t = 0; t < grid.NumCells(); ++t) {
    c.At(t) = static_cast<double>((t * 7919) % 101);
  }
  return grid;
}

RenderSpec LatticeSpec() {
  RenderSpec spec;
  spec.array = "f";
  spec.colormap = "plasma";
  return spec;
}

Camera LatticeCamera(double zoom = 1.0) {
  return FitCamera({0, 1, 0, 1, 0, 1}, 35.0, 25.0, 160.0 / 120.0, zoom);
}

TEST(VisibleFaceTest, UnitCubeMatchesEveryFaceReference) {
  const svtk::UnstructuredGrid grid = MakeCube(0.0, 1.0, 5.0);
  RenderSpec spec;
  spec.array = "f";
  spec.colormap = "grayscale";
  spec.range_min = 0.0;
  spec.range_max = 10.0;
  const OracleRun run = ExpectMatchesReference(grid, spec, LatticeCamera());
  // Three faces face the camera; the back faces are skipped.
  EXPECT_EQ(run.culled.triangles_drawn, 6u);
  EXPECT_LT(run.culled.pixels_shaded, run.reference.pixels_shaded);
}

TEST(VisibleFaceTest, MirroredHexTakesOrientationFromSignedVolume) {
  svtk::UnstructuredGrid grid = MakeCube(0.0, 1.0, 0.0);
  grid.SetCell(0, {4, 5, 7, 6, 0, 1, 3, 2});  // top and bottom swapped
  for (std::size_t t = 0; t < 8; ++t) {
    grid.PointArray("f")->At(t) = static_cast<double>(t);
  }
  const OracleRun run =
      ExpectMatchesReference(grid, LatticeSpec(), LatticeCamera());
  EXPECT_EQ(run.culled.triangles_drawn, 6u);
}

TEST(VisibleFaceTest, SharedPointLatticeSkipsInteriorFaces) {
  const svtk::UnstructuredGrid grid = MakeLattice(1, 8);
  const OracleRun run =
      ExpectMatchesReference(grid, LatticeSpec(), LatticeCamera());
  // Only the three camera-facing sides of the block are drawn: 3 * 64
  // quads, 2 triangles each.
  EXPECT_EQ(run.culled.triangles_drawn, 3u * 64u * 2u);
  EXPECT_GT(run.reference.pixels_shaded, 3 * run.culled.pixels_shaded);
}

TEST(VisibleFaceTest, PerElementPointsStillDrawFacesBetweenElements) {
  const svtk::UnstructuredGrid grid = MakeLattice(2, 4);
  const OracleRun run =
      ExpectMatchesReference(grid, LatticeSpec(), LatticeCamera());
  EXPECT_LT(run.culled.triangles_drawn, run.reference.triangles_drawn);
}

TEST(VisibleFaceTest, ThresholdAndSliceSubsetsMatch) {
  const svtk::UnstructuredGrid grid = MakeLattice(1, 8);
  RenderSpec threshold = LatticeSpec();
  threshold.threshold_min = 0.2;
  threshold.threshold_max = 1.1;
  ExpectMatchesReference(grid, threshold, LatticeCamera());
  RenderSpec slice = LatticeSpec();
  slice.slice_axis = 1;
  slice.slice_position = 0.4;
  ExpectMatchesReference(grid, slice, LatticeCamera());
  const svtk::UnstructuredGrid sem = MakeLattice(2, 4);
  ExpectMatchesReference(sem, threshold, LatticeCamera());
  ExpectMatchesReference(sem, slice, LatticeCamera());
}

TEST(VisibleFaceTest, CellCenteredColoringMatches) {
  RenderSpec spec = LatticeSpec();
  spec.array = "c";
  spec.centering = svtk::Centering::kCell;
  ExpectMatchesReference(MakeLattice(1, 8), spec, LatticeCamera());
  spec.threshold_min = 30.0;
  ExpectMatchesReference(MakeLattice(2, 4), spec, LatticeCamera());
}

TEST(VisibleFaceTest, EyeInsideBoundsDrawsEveryFace) {
  const svtk::UnstructuredGrid grid = MakeLattice(1, 8);
  const Camera camera = FitCamera(grid.Bounds(), 45.0, 25.0, 160.0 / 120.0,
                                  4.0);
  for (double v : {camera.position.x, camera.position.y, camera.position.z}) {
    ASSERT_GT(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
  const OracleRun run = ExpectMatchesReference(grid, LatticeSpec(), camera);
  EXPECT_EQ(run.culled.triangles_drawn, run.reference.triangles_drawn);
  EXPECT_EQ(run.culled.pixels_shaded, run.reference.pixels_shaded);
}

TEST(VisibleFaceTest, GridReachingBehindTheEyeDrawsEveryFace) {
  // A 4x1x1 bar seen from beside its middle: the eye is outside the bounds,
  // but the bar's far end lies behind it, so the faces that would hide
  // back faces near the eye are dropped and nothing may be culled.
  svtk::UnstructuredGrid grid = MakeLattice(1, 4);
  for (std::size_t i = 0; i < grid.NumPoints(); ++i) {
    grid.Points()[3 * i] *= 4.0;
  }
  Camera camera;
  camera.position = {1.0, -0.3, 0.5};
  camera.target = {3.0, 0.5, 0.5};
  camera.aspect = 160.0 / 120.0;
  camera.near_plane = 0.01;
  const OracleRun run = ExpectMatchesReference(grid, LatticeSpec(), camera);
  EXPECT_EQ(run.culled.pixels_shaded, run.reference.pixels_shaded);
}

TEST(VisibleFaceTest, TwoRankCompositeMatches) {
  const svtk::UnstructuredGrid whole = MakeLattice(2, 4);
  mpimini::Runtime::Run(2, [&](mpimini::Comm& comm) {
    // Each rank draws four of the eight elements, as a split mesh would.
    const std::size_t cells = whole.NumCells() / 2;
    svtk::UnstructuredGrid part(whole.NumPoints(), cells);
    std::copy(whole.Points().begin(), whole.Points().end(),
              part.Points().begin());
    for (std::size_t c = 0; c < cells; ++c) {
      part.SetCell(c, whole.GetCell(static_cast<std::size_t>(comm.Rank()) *
                                        cells +
                                    c));
    }
    svtk::DataArray& f = part.AddPointArray("f", 1);
    for (std::size_t t = 0; t < part.NumPoints(); ++t) {
      f.At(t) = whole.PointArray("f")->At(t);
    }
    RenderSpec spec = LatticeSpec();
    spec.range_min = -1.0;
    spec.range_max = 2.0;
    Framebuffer expected(160, 120);
    Framebuffer actual(160, 120);
    expected.Clear(spec.background);
    actual.Clear(spec.background);
    ReferenceRasterize(part, spec, LatticeCamera(), expected);
    render::RasterizeGrid(part, spec, LatticeCamera(), actual);
    render::CompositeToRoot(comm, expected, 0);
    render::CompositeToRoot(comm, actual, 0);
    if (comm.Rank() == 0) {
      EXPECT_TRUE(SamePlanes(expected, actual));
    }
  });
}

TEST(ScalarBarTest, DrawsGradientAndTicks) {
  Framebuffer fb(120, 90);
  fb.Clear({0, 0, 0});
  render::DrawScalarBar(render::GetColormap("grayscale"), 0.0, 1.0, fb);
  const int bar_width = std::max(6, fb.Width() / 60);
  const int x = fb.Width() - 2 * bar_width + bar_width / 2;  // inside bar
  const int top = fb.Height() / 10;
  const int bottom = fb.Height() - top;
  // Top of the bar maps to hi (white), bottom to lo (black-ish).
  EXPECT_GT(fb.Pixel(x, top + 1).r, 200);
  EXPECT_LT(fb.Pixel(x, bottom - 2).r, 55);
}

}  // namespace
