// Ablation A4 (DESIGN.md): the Catalyst-stand-in rendering pipeline —
// rasterization cost vs resolution and geometry, one in situ rank's image,
// and depth compositing vs rank count (the IceT role).

#include <benchmark/benchmark.h>

#include <cmath>

#include "core/nek_data_adaptor.hpp"
#include "mpimini/runtime.hpp"
#include "render/compositor.hpp"
#include "render/rasterizer.hpp"
#include "sem/box_mesh.hpp"

namespace {

// A block of n^3 hex cells with a smooth scalar.
svtk::UnstructuredGrid MakeBlock(int n) {
  const int np = n + 1;
  svtk::UnstructuredGrid grid(
      static_cast<std::size_t>(np) * np * np,
      static_cast<std::size_t>(n) * n * n);
  for (int k = 0; k < np; ++k) {
    for (int j = 0; j < np; ++j) {
      for (int i = 0; i < np; ++i) {
        const std::size_t p =
            static_cast<std::size_t>(i + np * (j + np * k));
        grid.SetPoint(p, static_cast<double>(i) / n,
                      static_cast<double>(j) / n,
                      static_cast<double>(k) / n);
      }
    }
  }
  std::size_t c = 0;
  auto id = [np](int i, int j, int k) {
    return static_cast<std::int64_t>(i + np * (j + np * k));
  };
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) {
        grid.SetCell(c++, {id(i, j, k), id(i + 1, j, k), id(i + 1, j + 1, k),
                           id(i, j + 1, k), id(i, j, k + 1),
                           id(i + 1, j, k + 1), id(i + 1, j + 1, k + 1),
                           id(i, j + 1, k + 1)});
      }
    }
  }
  svtk::DataArray& s = grid.AddPointArray("f", 1);
  for (std::size_t t = 0; t < grid.NumPoints(); ++t) {
    auto p = grid.GetPoint(t);
    s.At(t) = std::sin(6.0 * p[0]) * std::cos(5.0 * p[1]) + p[2];
  }
  return grid;
}

void BM_RasterizeByResolution(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  svtk::UnstructuredGrid grid = MakeBlock(8);
  render::RenderSpec spec;
  spec.array = "f";
  render::Camera camera = render::FitCamera(grid.Bounds(), 40, 25,
                                            1.0, 1.0);
  render::Framebuffer fb(size, size);
  for (auto _ : state) {
    fb.Clear(spec.background);
    auto stats = render::RasterizeGrid(grid, spec, camera, fb);
    benchmark::DoNotOptimize(stats.pixels_shaded);
  }
  state.counters["pixels"] = static_cast<double>(size) * size;
}
BENCHMARK(BM_RasterizeByResolution)->RangeMultiplier(2)->Range(128, 1024);

void BM_RasterizeByGeometry(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  svtk::UnstructuredGrid grid = MakeBlock(n);
  render::RenderSpec spec;
  spec.array = "f";
  render::Camera camera = render::FitCamera(grid.Bounds(), 40, 25, 1.0, 1.0);
  render::Framebuffer fb(512, 512);
  for (auto _ : state) {
    fb.Clear(spec.background);
    auto stats = render::RasterizeGrid(grid, spec, camera, fb);
    benchmark::DoNotOptimize(stats.triangles_drawn);
  }
  state.counters["cells"] = static_cast<double>(n) * n * n;
}
BENCHMARK(BM_RasterizeByGeometry)->RangeMultiplier(2)->Range(4, 16);

// One pb146 sim rank's image (perfbench pb146-insitu-catalyst): its
// 4x4x4-element z-slab of the 4x4x8 order-4 mesh, tessellated by
// BuildSemGrid (every element owns its points), at 320x240 with the
// camera framed on the whole domain.
void BM_RasterizeSemGrid(benchmark::State& state) {
  sem::BoxMeshSpec mesh_spec;
  mesh_spec.order = 4;
  mesh_spec.elements = {4, 4, 8};
  const sem::BoxMesh mesh(mesh_spec, /*rank=*/0, /*nranks=*/2);
  const auto grid = nek_sensei::BuildSemGrid(mesh, sem::MakeGllRule(4));
  svtk::DataArray& t = grid->AddPointArray("temperature", 1);
  for (std::size_t i = 0; i < grid->NumPoints(); ++i) {
    const auto p = grid->GetPoint(i);
    t.At(i) = std::sin(6.0 * p[0]) * std::cos(5.0 * p[1]) + p[2];
  }
  render::RenderSpec spec;
  spec.array = "temperature";
  spec.colormap = "plasma";
  const render::Camera camera =
      render::FitCamera({0, 1, 0, 1, 0, 1}, 35, 25, 320.0 / 240.0);
  render::Framebuffer fb(320, 240);
  render::RasterStats stats;
  for (auto _ : state) {
    fb.Clear(spec.background);
    stats = render::RasterizeGrid(*grid, spec, camera, fb);
    benchmark::DoNotOptimize(fb.Color().data());
    benchmark::ClobberMemory();
  }
  state.counters["triangles"] = static_cast<double>(stats.triangles_drawn);
  state.counters["pixels"] = static_cast<double>(stats.pixels_shaded);
}
BENCHMARK(BM_RasterizeSemGrid)->Unit(benchmark::kMillisecond);

void BM_CompositeByRanks(benchmark::State& state) {
  const int nranks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    mpimini::Runtime::Run(nranks, [&](mpimini::Comm& comm) {
      render::Framebuffer fb(512, 512);
      fb.Clear({0, 0, 0});
      fb.SetPixel(comm.Rank(), 0, {255, 255, 255},
                  static_cast<float>(comm.Rank()));
      render::CompositeToRoot(comm, fb, 0);
    });
  }
  state.counters["ranks"] = nranks;
}
BENCHMARK(BM_CompositeByRanks)
    ->RangeMultiplier(2)
    ->Range(1, 8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
