#pragma once

// Frame comparison utilities: used by tests to prove the parallel pipeline
// produces the same image as the sequential one, and by the distributed
// image-generation ablation.

#include <cstdint>

#include "render/framebuffer.hpp"

namespace psanim::render {

struct ImageDiff {
  double max_abs = 0.0;   ///< max per-channel absolute difference
  double mean_abs = 0.0;  ///< mean per-channel absolute difference
  double psnr_db = 0.0;   ///< peak signal-to-noise ratio (inf -> 999)
  bool same_dims = true;
};

ImageDiff compare(const Framebuffer& a, const Framebuffer& b);

/// Convenience: true when images match within `tol` per channel.
bool images_match(const Framebuffer& a, const Framebuffer& b,
                  double tol = 1e-5);

/// FNV-1a over the raw color and depth planes: the bit-exactness
/// fingerprint the determinism corpus, the farm and the pooled-vs-unpooled
/// scene pins compare. Equal hashes == byte-identical images.
std::uint64_t hash_framebuffer(const Framebuffer& fb);

}  // namespace psanim::render
