#include "render/splat.hpp"

namespace psanim::render {

SplatStats splat_particles(Framebuffer& fb, const Camera& cam,
                           std::span<const psys::Particle> particles,
                           BlendMode mode) {
  return splat_points(fb, cam, particles, mode);
}

void splat_store(Framebuffer& fb, const Camera& cam,
                 const psys::SlicedStore& store, BlendMode mode) {
  for (const auto& slice : store.raw_slices()) {
    splat_particles(fb, cam, slice, mode);
  }
}

}  // namespace psanim::render
