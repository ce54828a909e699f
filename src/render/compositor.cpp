#include "render/compositor.hpp"

#include <cstring>
#include <stdexcept>

namespace render {

namespace {
constexpr int kTagColor = 7101;
constexpr int kTagDepth = 7102;
}  // namespace

void CompositeToRoot(mpimini::Comm& comm, Framebuffer& fb, int root) {
  const std::size_t pixels =
      static_cast<std::size_t>(fb.Width()) * static_cast<std::size_t>(fb.Height());
  if (comm.Rank() != root) {
    comm.Send<unsigned char>(root, kTagColor,
                             {fb.Color().data(), fb.Color().size()});
    comm.Send<float>(root, kTagDepth,
                     {fb.DepthPlane().data(), fb.DepthPlane().size()});
    return;
  }
  for (int src = 0; src < comm.Size(); ++src) {
    if (src == root) continue;
    // Read the peer's planes in place; Recv<T> would copy each one into a
    // fresh vector on the step->image path.
    const core::Buffer color = comm.RecvBuffer(src, kTagColor);
    const core::Buffer depth_bytes = comm.RecvBuffer(src, kTagDepth);
    if (color.size() != 3 * pixels ||
        depth_bytes.size() != pixels * sizeof(float)) {
      throw std::runtime_error("render: compositor framebuffer size mismatch");
    }
    const std::span<const float> depth = depth_bytes.As<float>();
    for (std::size_t p = 0; p < pixels; ++p) {
      if (depth[p] < fb.DepthPlane()[p]) {
        fb.DepthPlane()[p] = depth[p];
        std::memcpy(fb.Color().data() + 3 * p, color.data() + 3 * p, 3);
      }
    }
  }
}

}  // namespace render
