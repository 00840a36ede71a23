#pragma once

// Layer replay: one animation pushed through the public layer calls on one
// thread, in the order Manager::run, Calculator::run and
// ImageGenerator::run make them, one domain per calculator (the style of
// core::run_sequential). Every call into a layer sits in a span named after
// the layer, so the span log's self times give the per-layer breakdown.
//
// Load reports are built from the same CostModel the calculators charge, so
// the public lb policy sees the same loads up to floating-point rounding.
// Particle counts therefore track the real run closely but need not match
// it exactly; replay.fidelity measures how closely.

#include <cstdint>

#include "cluster/cluster_spec.hpp"
#include "cluster/cost_model.hpp"
#include "cluster/placement.hpp"
#include "core/frame_loop.hpp"
#include "spans.hpp"

namespace psbench {

/// Span names of the layers the replay times. Self times of all other
/// spans (the replay's own loop) are not attributed to any layer.
inline constexpr const char* kLayers[] = {
    "psys.create",         "psys.actions",       "psys.store",
    "core.exchange_codec", "core.frame_codec",   "render.splat",
    "lb",                  "mp.mailbox",
};

struct ReplayCounts {
  /// Sum over frames and calculators of particles held after the exchange
  /// (the run's telemetry particles_held).
  std::uint64_t particle_frames = 0;
  /// Particles times non-create actions applied, over the whole replay.
  std::uint64_t particle_passes = 0;
};

/// Replay `settings.frames` frames of `scene` as run_parallel would run them
/// on `spec`/`placement`. Supports the configurations the benchmark uses:
/// gather image generation, bundled exchange, no collisions, faults or
/// checkpoints (throws std::invalid_argument otherwise).
ReplayCounts replay_animation(const psanim::core::Scene& scene,
                              const psanim::core::SimSettings& settings,
                              const psanim::cluster::ClusterSpec& spec,
                              const psanim::cluster::Placement& placement,
                              const psanim::cluster::CostModel& cost,
                              SpanLog& log);

}  // namespace psbench
