// Software rasterization of svtk unstructured hex grids: the Catalyst/
// ParaView rendering stand-in.
//
// Each selected hex cell (after the slice/threshold selection, as with
// ParaView's Slice and Threshold filters) is drawn as its six quad faces,
// two triangles each, with per-vertex scalar colors mapped through a
// Colormap; a z-buffer resolves visibility without global sorting.
//
// Only faces that can win the depth test are rasterized, as ParaView draws
// an unstructured grid from its external faces.  A face that exactly two
// selected cells share by four distinct point ids is interior and skipped,
// and so is every triangle whose screen-space winding is back-facing for
// its cell (the orientation comes from the cell's signed volume, so a
// mirrored hex renders correctly).  Faces match by point id only: grids
// that give each element its own points still draw the faces between
// elements.  The culls apply only while the eye lies outside the grid's
// bounds and every point projects in front of it; otherwise (a zoomed-in
// eye inside the mesh) every face is drawn.
//
// From such an eye, a ray through a conforming mesh (cells do not overlap)
// first meets a kept, front-facing triangle.  Draw order and per-pixel
// arithmetic are those of drawing every face, so the color and depth planes
// are bit-identical to drawing every face wherever that nearest triangle
// also wins the z-test, as it does in exact arithmetic; the oracle tests
// in tests/render_test.cpp pin this on the grid layouts the pipeline draws.
//
// Each rank rasterizes its own blocks; the compositor then merges
// framebuffers across ranks by depth (direct-send compositing).
#pragma once

#include <limits>
#include <optional>
#include <string>

#include "instrument/memory_tracker.hpp"
#include "render/camera.hpp"
#include "render/colormap.hpp"
#include "svtk/unstructured_grid.hpp"

namespace render {

/// RGB + depth framebuffer. Pixels are tracked under category "render".
class Framebuffer {
 public:
  Framebuffer(int width, int height);

  [[nodiscard]] int Width() const { return width_; }
  [[nodiscard]] int Height() const { return height_; }

  void Clear(Rgb background);

  [[nodiscard]] Rgb Pixel(int x, int y) const;
  [[nodiscard]] float Depth(int x, int y) const;
  void SetPixel(int x, int y, Rgb color, float depth);

  /// Raw planes, row-major, y = 0 at the top.
  [[nodiscard]] const instrument::TrackedBuffer<unsigned char>& Color() const {
    return color_;
  }
  [[nodiscard]] const instrument::TrackedBuffer<float>& DepthPlane() const {
    return depth_;
  }
  instrument::TrackedBuffer<unsigned char>& Color() { return color_; }
  instrument::TrackedBuffer<float>& DepthPlane() { return depth_; }

  static constexpr float kFarDepth = std::numeric_limits<float>::infinity();

 private:
  int width_;
  int height_;
  instrument::TrackedBuffer<unsigned char> color_;  // 3 bytes per pixel
  instrument::TrackedBuffer<float> depth_;
};

/// What to render and how to color it.
struct RenderSpec {
  std::string array;                  ///< field name to color by
  svtk::Centering centering = svtk::Centering::kPoint;
  bool color_by_magnitude = false;    ///< use |vector| for multi-component
  std::string colormap = "viridis";
  double range_min = 0.0;             ///< color range; min==max => auto
  double range_max = 0.0;
  /// Optional threshold: draw only cells whose (mean) scalar lies inside.
  std::optional<double> threshold_min;
  std::optional<double> threshold_max;
  /// Optional axis-aligned slice (ParaView Slice filter): draw only cells
  /// straddling the plane axis = position (0=x, 1=y, 2=z).
  std::optional<int> slice_axis;
  double slice_position = 0.0;
  Rgb background{20, 20, 30};
};

/// Work actually done: a triangle counts once it shades a pixel, a cell once
/// one of its triangles does, so culled faces and occluded cells add nothing.
struct RasterStats {
  std::size_t cells_drawn = 0;
  std::size_t triangles_drawn = 0;
  std::size_t pixels_shaded = 0;
};

/// A projected vertex ready for rasterization.
struct ScreenVertex {
  double x = 0.0;
  double y = 0.0;
  double depth = 0.0;  ///< view-space depth for z-buffering
  double scalar = 0.0;
  bool visible = false;
};

/// Project a world-space point; `vp` and `view` come from the camera.
ScreenVertex ProjectPoint(const Mat4& vp, const Mat4& view, const Vec3& world,
                          int width, int height);

/// Rasterize one triangle with barycentric scalar interpolation; `shade`
/// multiplies the mapped color (1 = unshaded; isosurfaces pass a Lambert
/// factor).
void RasterizeShadedTriangle(const ScreenVertex& a, const ScreenVertex& b,
                             const ScreenVertex& c, const Colormap& cmap,
                             double lo, double hi, double shade,
                             Framebuffer& fb, RasterStats& stats);

/// Draw a vertical scalar bar (ParaView-style legend) along the right edge
/// of the framebuffer: the colormap gradient with tick marks at the bottom
/// (lo), middle, and top (hi). Drawn at zero depth so it overlays geometry.
void DrawScalarBar(const Colormap& cmap, double lo, double hi,
                   Framebuffer& fb);

/// Rasterize `grid` into `fb` (which must already be cleared / may contain
/// prior geometry). Returns drawing statistics.
RasterStats RasterizeGrid(const svtk::UnstructuredGrid& grid,
                          const RenderSpec& spec, const Camera& camera,
                          Framebuffer& fb);

}  // namespace render
