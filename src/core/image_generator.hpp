#pragma once

// The image generator process (§3.1.1): collects the particles sent by
// the calculators and renders each frame, plus the external objects in the
// scene. In sort-last mode (§6 extension) it composites partial images
// instead.

#include <cstdint>
#include <string>
#include <vector>

#include "core/frame_loop.hpp"
#include "core/wire.hpp"
#include "mp/communicator.hpp"
#include "obs/role_tracer.hpp"
#include "render/camera.hpp"
#include "render/framebuffer.hpp"
#include "trace/telemetry.hpp"

namespace psanim::core {

class ImageGenerator {
 public:
  ImageGenerator(const SimSettings& settings, const Scene& scene,
                 RoleEnv env);

  void run(mp::Endpoint& ep);

  const trace::Telemetry& telemetry() const { return tel_; }
  /// The last rendered frame.
  const render::Framebuffer& final_frame() const { return fb_; }

 private:
  void render_externals(mp::Endpoint& ep);
  void write_frame_if_due(std::uint32_t frame) const;
  /// Restart-eligible crashes scheduled for `frame`: roll back to the
  /// snapshot and rewind `frame` (returns true). Merge-mode crashes need
  /// no action here — per-frame membership accounts for them.
  bool handle_crashes(mp::Endpoint& ep, std::uint32_t& frame);
  /// Snapshot (telemetry + clock) into the vault + digest to the manager.
  /// The framebuffer is rebuilt from scratch every frame, so it is not
  /// part of the image.
  void capture(mp::Endpoint& ep, std::uint32_t frame);
  /// Restore telemetry from this rank's vault image for frame `f0`.
  void restore(mp::Endpoint& ep, std::uint32_t f0);

  const SimSettings& set_;
  const Scene& scene_;
  RoleEnv env_;
  render::Camera cam_;
  render::Framebuffer fb_;
  trace::Telemetry tel_;
  /// Crashes already handled (by calculator index) — replayed frames must
  /// not re-trigger a rollback.
  std::vector<char> crash_done_;
  /// Observability: this rank's spans/instants and metric updates.
  obs::RoleTracer tr_;
  obs::ImageGenMetrics metrics_;
};

}  // namespace psanim::core
