#include "render/rasterizer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace render {

namespace {

// Pixel count of a width x height image, validated before any plane is
// allocated (a negative size would otherwise surface as a length_error).
std::size_t CheckedPixels(int width, int height) {
  if (width < 1 || height < 1) {
    throw std::invalid_argument("render: framebuffer size must be positive");
  }
  return static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
}

}  // namespace

Framebuffer::Framebuffer(int width, int height)
    : width_(width),
      height_(height),
      color_("render", CheckedPixels(width, height) * 3),
      depth_("render", CheckedPixels(width, height)) {
  Clear(Rgb{0, 0, 0});
}

void Framebuffer::Clear(Rgb background) {
  for (std::size_t p = 0; p < depth_.size(); ++p) {
    color_[3 * p + 0] = background.r;
    color_[3 * p + 1] = background.g;
    color_[3 * p + 2] = background.b;
    depth_[p] = kFarDepth;
  }
}

Rgb Framebuffer::Pixel(int x, int y) const {
  const std::size_t p =
      static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
      static_cast<std::size_t>(x);
  return {color_[3 * p + 0], color_[3 * p + 1], color_[3 * p + 2]};
}

float Framebuffer::Depth(int x, int y) const {
  return depth_[static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
                static_cast<std::size_t>(x)];
}

void Framebuffer::SetPixel(int x, int y, Rgb color, float depth) {
  const std::size_t p =
      static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
      static_cast<std::size_t>(x);
  color_[3 * p + 0] = color.r;
  color_[3 * p + 1] = color.g;
  color_[3 * p + 2] = color.b;
  depth_[p] = depth;
}

namespace {

// The six faces of a VTK hexahedron (quad corner indices into the cell's
// 8 nodes), each wound outward.
constexpr int kHexFaces[6][4] = {{0, 3, 2, 1}, {4, 5, 6, 7}, {0, 1, 5, 4},
                                 {1, 2, 6, 5}, {2, 3, 7, 6}, {3, 0, 4, 7}};

// A face's four point ids, sorted: equal keys mean a shared face.
using FaceKey = std::array<std::int64_t, 4>;

// Flags each face of `cells` (face 6*k + f is kHexFaces[f] of cells[k])
// that exactly two of those cells share by four distinct point ids, VTK's
// surface-filter rule.  A flat open-addressing table of face indices finds
// the pairs in one pass; probes compare whole keys, so a hash collision
// never pairs two different faces.
std::vector<bool> InteriorFaces(const svtk::UnstructuredGrid& grid,
                                const std::vector<std::size_t>& cells) {
  // 32-bit face indices halve the table's footprint, which is most of the
  // pass's cost; a grid too large for them keeps every face.
  constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
  const std::size_t nfaces = 6 * cells.size();
  if (nfaces >= kNone) return std::vector<bool>(nfaces, false);
  int bits = 1;
  while ((std::size_t{1} << bits) < 2 * nfaces) ++bits;
  const std::size_t mask = (std::size_t{1} << bits) - 1;
  std::vector<std::uint32_t> table(mask + 1, kNone);
  std::vector<FaceKey> keys(nfaces);
  std::vector<std::uint32_t> first(nfaces, kNone);  // first face with the key
  std::vector<std::uint8_t> sharers(nfaces, 0);     // at the first face, <= 3
  for (std::size_t k = 0; k < cells.size(); ++k) {
    const auto nodes = grid.GetCell(cells[k]);
    for (std::size_t f = 0; f < 6; ++f) {
      const auto face = static_cast<std::uint32_t>(6 * k + f);
      FaceKey& key = keys[face];
      for (std::size_t i = 0; i < 4; ++i) key[i] = nodes[kHexFaces[f][i]];
      // A five-comparator sorting network; std::sort is slower on 4 ids.
      for (const auto& [i, j] :
           {std::pair{0, 1}, {2, 3}, {0, 2}, {1, 3}, {1, 2}}) {
        if (key[j] < key[i]) std::swap(key[i], key[j]);
      }
      if (key[0] == key[1] || key[1] == key[2] || key[2] == key[3]) continue;
      std::uint64_t hash = 0;
      for (std::int64_t id : key) {
        hash = (hash ^ static_cast<std::uint64_t>(id)) * 0x9E3779B97F4A7C15;
      }
      std::size_t slot = static_cast<std::size_t>(hash >> (64 - bits));
      while (table[slot] != kNone && keys[table[slot]] != key) {
        slot = (slot + 1) & mask;
      }
      if (table[slot] == kNone) table[slot] = face;
      first[face] = table[slot];
      if (sharers[table[slot]] < 3) ++sharers[table[slot]];
    }
  }
  std::vector<bool> interior(nfaces, false);
  for (std::size_t face = 0; face < nfaces; ++face) {
    interior[face] = first[face] != kNone && sharers[first[face]] == 2;
  }
  return interior;
}

// Six times the signed volume that the cell's twelve triangles enclose:
// positive when kHexFaces winds outward, negative for a mirrored cell.
double SignedVolume6(const svtk::UnstructuredGrid& grid,
                     const std::array<std::int64_t, 8>& nodes) {
  const auto origin = grid.GetPoint(static_cast<std::size_t>(nodes[0]));
  auto corner = [&](int k) {
    const auto p = grid.GetPoint(static_cast<std::size_t>(nodes[k]));
    return Vec3{p[0] - origin[0], p[1] - origin[1], p[2] - origin[2]};
  };
  double volume6 = 0.0;
  for (const auto& face : kHexFaces) {
    const Vec3 a = corner(face[0]);
    const Vec3 b = corner(face[1]);
    const Vec3 c = corner(face[2]);
    const Vec3 d = corner(face[3]);
    volume6 += Dot(a, Cross(b, c)) + Dot(a, Cross(c, d));
  }
  return volume6;
}

bool Contains(const std::array<double, 6>& bounds, const Vec3& p) {
  return p.x >= bounds[0] && p.x <= bounds[1] && p.y >= bounds[2] &&
         p.y <= bounds[3] && p.z >= bounds[4] && p.z <= bounds[5];
}

double SignedArea(const ScreenVertex& a, const ScreenVertex& b,
                  const ScreenVertex& c) {
  return (b.x - a.x) * (c.y - a.y) - (c.x - a.x) * (b.y - a.y);
}

}  // namespace

ScreenVertex ProjectPoint(const Mat4& vp, const Mat4& view, const Vec3& world,
                          int width, int height) {
  ScreenVertex v;
  const Vec4 clip = Transform(vp, world);
  if (clip.w <= 0.0) {
    v.visible = false;
    return v;
  }
  v.x = (clip.x / clip.w * 0.5 + 0.5) * width;
  v.y = (1.0 - (clip.y / clip.w * 0.5 + 0.5)) * height;
  const Vec4 eye = Transform(view, world);
  v.depth = -eye.z;  // distance along the view axis
  v.visible = v.depth > 0.0;
  return v;
}

void RasterizeShadedTriangle(const ScreenVertex& a, const ScreenVertex& b,
                             const ScreenVertex& c, const Colormap& cmap,
                             double lo, double hi, double shade,
                             Framebuffer& fb, RasterStats& stats) {
  if (!a.visible || !b.visible || !c.visible) return;
  const double area = SignedArea(a, b, c);
  if (std::abs(area) < 1e-12) return;

  const int min_x = std::max(0, static_cast<int>(std::floor(
                                    std::min({a.x, b.x, c.x}))));
  const int max_x = std::min(fb.Width() - 1, static_cast<int>(std::ceil(
                                                 std::max({a.x, b.x, c.x}))));
  const int min_y = std::max(0, static_cast<int>(std::floor(
                                    std::min({a.y, b.y, c.y}))));
  const int max_y = std::min(fb.Height() - 1, static_cast<int>(std::ceil(
                                                  std::max({a.y, b.y, c.y}))));
  if (min_x > max_x || min_y > max_y) return;

  bool drew = false;
  const double inv_area = 1.0 / area;
  for (int y = min_y; y <= max_y; ++y) {
    for (int x = min_x; x <= max_x; ++x) {
      const double px = x + 0.5;
      const double py = y + 0.5;
      const double w0 = ((b.x - px) * (c.y - py) - (c.x - px) * (b.y - py)) *
                        inv_area;
      const double w1 = ((c.x - px) * (a.y - py) - (a.x - px) * (c.y - py)) *
                        inv_area;
      const double w2 = 1.0 - w0 - w1;
      if (w0 < 0.0 || w1 < 0.0 || w2 < 0.0) continue;
      const double depth = w0 * a.depth + w1 * b.depth + w2 * c.depth;
      if (depth <= 0.0) continue;
      const auto fdepth = static_cast<float>(depth);
      if (fdepth >= fb.Depth(x, y)) continue;
      const double scalar = w0 * a.scalar + w1 * b.scalar + w2 * c.scalar;
      Rgb color = cmap.Map(scalar, lo, hi);
      if (shade != 1.0) {
        color.r = static_cast<unsigned char>(color.r * shade);
        color.g = static_cast<unsigned char>(color.g * shade);
        color.b = static_cast<unsigned char>(color.b * shade);
      }
      fb.SetPixel(x, y, color, fdepth);
      ++stats.pixels_shaded;
      drew = true;
    }
  }
  if (drew) ++stats.triangles_drawn;
}

void DrawScalarBar(const Colormap& cmap, double lo, double hi,
                   Framebuffer& fb) {
  (void)lo;
  (void)hi;
  const int bar_width = std::max(6, fb.Width() / 60);
  const int margin = bar_width;
  const int top = fb.Height() / 10;
  const int bottom = fb.Height() - top;
  const int x0 = fb.Width() - margin - bar_width;
  if (x0 < 0 || bottom <= top) return;
  for (int y = top; y < bottom; ++y) {
    const double t =
        1.0 - static_cast<double>(y - top) / static_cast<double>(bottom - top);
    const Rgb color = cmap.Sample(t);
    for (int x = x0; x < x0 + bar_width; ++x) {
      fb.SetPixel(x, y, color, 0.0F);
    }
  }
  // White tick marks at lo / mid / hi.
  for (int yt : {top, (top + bottom) / 2, bottom - 1}) {
    for (int x = x0 - bar_width / 2; x < x0; ++x) {
      fb.SetPixel(x, yt, {255, 255, 255}, 0.0F);
    }
  }
}

RasterStats RasterizeGrid(const svtk::UnstructuredGrid& grid,
                          const RenderSpec& spec, const Camera& camera,
                          Framebuffer& fb) {
  RasterStats stats;
  const svtk::DataArray* array =
      spec.centering == svtk::Centering::kPoint
          ? grid.PointArray(spec.array)
          : grid.CellArray(spec.array);
  if (!array) {
    throw std::invalid_argument("render: no such array '" + spec.array + "'");
  }

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

  // Project all points once.
  const Mat4 vp = camera.ViewProjection();
  const Mat4 view = camera.ViewMatrix();
  const std::size_t np = grid.NumPoints();
  std::vector<ScreenVertex> projected(np);
  bool all_visible = true;
  for (std::size_t i = 0; i < np; ++i) {
    const auto p = grid.GetPoint(i);
    projected[i] = ProjectPoint(vp, view, {p[0], p[1], p[2]}, fb.Width(),
                                fb.Height());
    all_visible = all_visible && projected[i].visible;
    if (spec.centering == svtk::Centering::kPoint) {
      projected[i].scalar = scalar_of(i);
    }
  }

  // Select the cells to draw, in cell order: those straddling the slice
  // plane whose (mean) scalar lies inside the threshold band.
  auto selected = [&](std::size_t cell) {
    const auto nodes = grid.GetCell(cell);
    if (spec.slice_axis) {
      double lo_c = 0.0, hi_c = 0.0;
      for (int k = 0; k < 8; ++k) {
        const auto p = grid.GetPoint(static_cast<std::size_t>(nodes[k]));
        const double v = p[static_cast<std::size_t>(*spec.slice_axis)];
        if (k == 0) {
          lo_c = hi_c = v;
        } else {
          lo_c = std::min(lo_c, v);
          hi_c = std::max(hi_c, v);
        }
      }
      if (spec.slice_position < lo_c || spec.slice_position > hi_c) {
        return false;
      }
    }
    if (spec.threshold_min || spec.threshold_max) {
      double probe = 0.0;
      if (spec.centering == svtk::Centering::kCell) {
        probe = scalar_of(cell);
      } else {
        for (std::int64_t nid : nodes) {
          probe += scalar_of(static_cast<std::size_t>(nid));
        }
        probe /= 8.0;
      }
      if (spec.threshold_min && probe < *spec.threshold_min) return false;
      if (spec.threshold_max && probe > *spec.threshold_max) return false;
    }
    return true;
  };
  std::vector<std::size_t> cells;
  for (std::size_t cell = 0; cell < grid.NumCells(); ++cell) {
    if (selected(cell)) cells.push_back(cell);
  }

  // Visible faces only.  While the eye is outside the grid and every point
  // lies in front of it, a ray meets an interior face or a back-facing
  // triangle only after a front face nearer to the eye, so skipping them
  // leaves every pixel as drawing them would.  Otherwise (a zoomed-in eye
  // inside the mesh, a grid reaching behind the camera) every face is drawn.
  const bool cull =
      all_visible && !Contains(grid.Bounds(), camera.position);
  const std::vector<bool> interior =
      cull ? InteriorFaces(grid, cells) : std::vector<bool>();

  // `front` has the sign of a front-facing triangle's screen area; 0 draws
  // both facings.
  auto draw = [&](const ScreenVertex& a, const ScreenVertex& b,
                  const ScreenVertex& c, double front) {
    if (SignedArea(a, b, c) * front < 0.0) return;
    RasterizeShadedTriangle(a, b, c, cmap, lo, hi, 1.0, fb, stats);
  };

  for (std::size_t k = 0; k < cells.size(); ++k) {
    const std::size_t cell = cells[k];
    const auto nodes = grid.GetCell(cell);
    const double cell_scalar =
        spec.centering == svtk::Centering::kCell ? scalar_of(cell) : 0.0;
    // y points down on screen, so a face wound outward (positive volume)
    // and seen from outside has negative area.
    const double front = cull ? -SignedVolume6(grid, nodes) : 0.0;
    bool drew_cell = false;
    for (std::size_t f = 0; f < 6; ++f) {
      if (cull && interior[6 * k + f]) continue;
      ScreenVertex corners[4];
      for (int i = 0; i < 4; ++i) {
        corners[i] =
            projected[static_cast<std::size_t>(nodes[kHexFaces[f][i]])];
        if (spec.centering == svtk::Centering::kCell) {
          corners[i].scalar = cell_scalar;
        }
      }
      const std::size_t before = stats.triangles_drawn;
      draw(corners[0], corners[1], corners[2], front);
      draw(corners[0], corners[2], corners[3], front);
      drew_cell = drew_cell || stats.triangles_drawn != before;
    }
    if (drew_cell) ++stats.cells_drawn;
  }
  return stats;
}

}  // namespace render
