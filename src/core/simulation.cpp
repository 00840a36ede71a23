#include "core/simulation.hpp"

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>

#include "ckpt/vault.hpp"
#include "core/calculator.hpp"
#include "mp/buffer_pool.hpp"
#include "core/image_generator.hpp"
#include "core/manager.hpp"
#include "obs/analysis.hpp"
#include "obs/trace.hpp"
#include "platform/fabric.hpp"
#include "platform/parse.hpp"
#include "psys/store.hpp"
#include "render/objects.hpp"
#include "render/splat.hpp"

namespace psanim::core {

namespace {

/// Register the human names the obs trace shows for ranks and message
/// tags (Perfetto process names, flow-arrow labels). Must run before the
/// role threads start — both ends of a flow read the tag table.
void name_trace(obs::Trace& trace, const SimSettings& s) {
  trace.set_rank_name(kManagerRank, "manager");
  trace.set_rank_name(kImageGenRank, "image generator");
  for (int c = 0; c < s.ncalc; ++c) {
    trace.set_rank_name(calc_rank(c), "calc " + std::to_string(c));
  }
  trace.name_tag(kTagCreate, "create");
  trace.name_tag(kTagExchange, "exchange");
  trace.name_tag(kTagLoadReport, "load-report");
  trace.name_tag(kTagOrders, "orders");
  trace.name_tag(kTagEdgeProposal, "edge-proposal");
  trace.name_tag(kTagDomains, "domains");
  trace.name_tag(kTagBalance, "balance");
  trace.name_tag(kTagFrame, "frame");
  trace.name_tag(kTagFramePart, "frame-part");
  trace.name_tag(kTagGhost, "ghost");
  trace.name_tag(kTagFrameAck, "frame-ack");
  trace.name_tag(kTagCrash, "crash");
  trace.name_tag(kTagCkptDigest, "ckpt-digest");
}

/// Fold the injector's tally into the merged registry so one metrics dump
/// covers protocol, checkpointing and the fault layer alike.
void fault_metrics(obs::MetricsRegistry& reg, const fault::FaultStats& fs) {
  reg.counter("psanim_fault_drops_total").add(static_cast<double>(fs.drops));
  reg.counter("psanim_fault_duplicates_total")
      .add(static_cast<double>(fs.duplicates));
  reg.counter("psanim_fault_delay_spikes_total")
      .add(static_cast<double>(fs.delay_spikes));
  reg.counter("psanim_fault_degraded_msgs_total")
      .add(static_cast<double>(fs.degraded_msgs));
  reg.counter("psanim_fault_injected_delay_seconds_total")
      .add(fs.injected_delay_s);
  reg.counter("psanim_fault_restart_recoveries_total")
      .add(static_cast<double>(fs.restart_recoveries));
  reg.counter("psanim_fault_merge_recoveries_total")
      .add(static_cast<double>(fs.merge_recoveries));
}

/// Message-path allocation counters for this run: the buffer pool's global
/// tally is sampled around the run and the deltas exported, so one dump
/// shows both virtual-time results and the wall-clock allocation behavior
/// the pool exists to eliminate (misses == heap allocations).
void pool_metrics(obs::MetricsRegistry& reg,
                  const mp::BufferPool::Stats& before,
                  const mp::BufferPool::Stats& after) {
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  reg.counter("psanim_mp_buffer_acquires_total")
      .add(delta(after.acquires, before.acquires));
  reg.counter("psanim_mp_buffer_pool_hits_total")
      .add(delta(after.hits, before.hits));
  reg.counter("psanim_mp_buffer_heap_allocs_total")
      .add(delta(after.misses, before.misses));
  reg.counter("psanim_mp_buffer_releases_total")
      .add(delta(after.releases, before.releases));
}

// Concurrent-run detection for the pool export. mp::BufferPool is one
// process-wide instance (thread-safe, but its counters are global), so a
// per-run delta is only attributable when no other run_parallel overlapped
// this one. The farm runs many jobs concurrently; their per-job exports are
// disabled via ObsSettings::pool_metrics, and this guard additionally
// protects ad-hoc concurrent callers.
std::atomic<std::uint64_t> g_runs_started{0};
std::atomic<int> g_runs_active{0};

}  // namespace

ParallelResult run_parallel(const Scene& scene, const SimSettings& settings,
                            const cluster::ClusterSpec& spec,
                            const cluster::Placement& placement,
                            const cluster::CostModel& cost,
                            mp::RuntimeOptions rt_options) {
  settings.validate();
  const int world = world_size_for(settings.ncalc);
  if (placement.world_size() != world) {
    throw std::invalid_argument(
        "run_parallel: placement must cover manager, image generator and "
        "every calculator");
  }
  settings.fault_plan.validate(settings.ncalc, settings.frames);

  // Checkpointing needs a vault; when the caller did not supply one (and
  // so cannot want the images afterwards), the run owns a private one.
  SimSettings eff = settings;
  std::unique_ptr<ckpt::Vault> own_vault;
  if (eff.ckpt.enabled() && eff.ckpt_vault == nullptr) {
    own_vault = std::make_unique<ckpt::Vault>();
    eff.ckpt_vault = own_vault.get();
  }
  if (eff.resume_from &&
      (!eff.ckpt_vault || !eff.ckpt_vault->manifest(*eff.resume_from))) {
    throw std::invalid_argument(
        "run_parallel: resume_from requires a supplied vault holding a "
        "sealed checkpoint for frame " + std::to_string(*eff.resume_from));
  }
  if (eff.stop_after && own_vault) {
    throw std::invalid_argument(
        "run_parallel: stop_after seals a checkpoint to resume from later "
        "— supply a vault that outlives the run (settings.ckpt_vault)");
  }

  const auto rates = cluster::rank_rates(spec, placement, cost.smp_contention);

  // A-priori powers the manager uses for proportional splits — the paper
  // calibrates processing power from sequential execution times (§4),
  // which our rate model is the ground truth of.
  std::vector<double> calc_powers;
  calc_powers.reserve(static_cast<std::size_t>(settings.ncalc));
  for (int c = 0; c < settings.ncalc; ++c) {
    calc_powers.push_back(rates.at(static_cast<std::size_t>(calc_rank(c))));
  }

  // Observability: the caller's trace, or (own_vault pattern) a private
  // one when only a JSON export path was requested.
  std::unique_ptr<obs::Trace> own_trace;
  obs::Trace* trace = eff.obs.trace;
  if (trace == nullptr && !eff.obs.trace_json_path.empty()) {
    own_trace = std::make_unique<obs::Trace>();
    trace = own_trace.get();
    eff.obs.trace = trace;
  }
  if (trace != nullptr) {
    trace->begin_run(world,
                     eff.obs.flight_recorder ? eff.obs.flight_capacity : 0);
    name_trace(*trace, eff);
    rt_options.trace = trace;
  }

  // The injector lives here, not in the runtime: one per run, shared by
  // every rank's endpoint through the RuntimeOptions hook seam. Its fault
  // notes land in the run's trace (sized above).
  std::unique_ptr<fault::Injector> injector;
  if (eff.fault_plan.any() && rt_options.fault == nullptr) {
    injector = std::make_unique<fault::Injector>(eff.fault_plan, world, trace);
    rt_options.fault = injector.get();
  }

  // Topology platform: the settings' description wins over the spec's.
  // Flat (the default) keeps the legacy per-pair cost function and no
  // contention hook — bit-identical to pre-platform behavior.
  const std::string& plat_desc =
      !platform::is_flat(eff.platform) ? eff.platform : spec.platform;
  std::unique_ptr<platform::Platform> plat;
  std::unique_ptr<platform::Fabric> fabric;
  if (!platform::is_flat(plat_desc)) {
    plat = std::make_unique<platform::Platform>(
        platform::parse(plat_desc, spec.node_count()));
    std::vector<std::size_t> node_of(static_cast<std::size_t>(world));
    for (int r = 0; r < world; ++r) {
      node_of[static_cast<std::size_t>(r)] = static_cast<std::size_t>(
          placement.node_of_rank.at(static_cast<std::size_t>(r)));
    }
    fabric = std::make_unique<platform::Fabric>(*plat, std::move(node_of));
    rt_options.contention = fabric.get();
  }

  const std::uint64_t start_stamp = g_runs_started.fetch_add(1) + 1;
  const bool entered_alone = g_runs_active.fetch_add(1) == 0;
  struct ActiveGuard {
    ~ActiveGuard() { g_runs_active.fetch_sub(1); }
  } active_guard;
  const mp::BufferPool::Stats pool_before = mp::BufferPool::global().stats();

  mp::Runtime runtime(
      world,
      plat ? cluster::make_link_cost_fn(spec, placement, cost, *plat)
           : cluster::make_link_cost_fn(spec, placement, cost),
      rt_options);

  // Per-rank output slots; each thread writes only its own index.
  std::vector<trace::Telemetry> tele(static_cast<std::size_t>(world));
  std::optional<render::Framebuffer> final_frame;
  std::vector<Decomposition> final_decomps;
  std::vector<std::vector<std::vector<psys::Particle>>> final_parts(
      static_cast<std::size_t>(world));

  const auto procs = runtime.run([&](mp::Endpoint& ep) {
    // This rank's checkpoint storage: the platform's node disk when it
    // charges anything, else whatever the checkpoint policy configured.
    platform::DiskModel disk = eff.ckpt.disk;
    if (plat) {
      const auto node = static_cast<std::size_t>(
          placement.node_of_rank.at(static_cast<std::size_t>(ep.rank())));
      if (!plat->disk_of(node).free()) disk = plat->disk_of(node);
    }
    const RoleEnv env{&cost, rates.at(static_cast<std::size_t>(ep.rank())),
                      trace ? &trace->metrics(ep.rank()) : nullptr, disk};
    if (ep.rank() == kManagerRank) {
      Manager m(eff, scene, env, calc_powers);
      m.run(ep);
      tele[static_cast<std::size_t>(ep.rank())] = m.telemetry();
      final_decomps = m.decompositions();
    } else if (ep.rank() == kImageGenRank) {
      ImageGenerator ig(eff, scene, env);
      ig.run(ep);
      tele[static_cast<std::size_t>(ep.rank())] = ig.telemetry();
      final_frame = ig.final_frame();
    } else {
      Calculator c(eff, scene, env, calc_index(ep.rank()));
      c.run(ep);
      tele[static_cast<std::size_t>(ep.rank())] = c.telemetry();
      auto& mine = final_parts[static_cast<std::size_t>(ep.rank())];
      for (std::size_t s = 0; s < scene.systems.size(); ++s) {
        mine.push_back(c.snapshot(static_cast<psys::SystemId>(s)));
      }
    }
  });

  ParallelResult result;
  result.procs = procs;
  // The animation is done when its last image is: the image generator's
  // finishing clock is the run's time-to-images.
  result.animation_s =
      procs.at(static_cast<std::size_t>(kImageGenRank)).finish_time;
  for (const auto& t : tele) result.telemetry.merge(t);
  if (final_frame) result.final_frame = std::move(*final_frame);
  result.final_decomps = std::move(final_decomps);
  if (injector) result.fault_stats = injector->stats();
  // How each crash was recovered — a function of (plan, policy), recorded
  // so experiments can attribute degradation vs. replay cost. Crashes at
  // or before a resume point were already recovered in the original run.
  for (const auto& c : eff.fault_plan.crashes) {
    if (eff.resume_from && c.at_frame <= *eff.resume_from) continue;
    if (eff.stop_after && c.at_frame > *eff.stop_after) continue;
    if (eff.ckpt.restarts(c.at_frame)) {
      ++result.fault_stats.restart_recoveries;
    } else {
      ++result.fault_stats.merge_recoveries;
    }
  }
  result.final_particles.assign(scene.systems.size(), {});
  for (const auto& per_rank : final_parts) {
    for (std::size_t s = 0; s < per_rank.size(); ++s) {
      result.final_particles[s].insert(result.final_particles[s].end(),
                                       per_rank[s].begin(),
                                       per_rank[s].end());
    }
  }
  if (trace != nullptr) {
    result.metrics = trace->merged_metrics();
    fault_metrics(result.metrics, result.fault_stats);
    if (!eff.obs.trace_json_path.empty()) {
      trace->write_chrome_json(eff.obs.trace_json_path);
    }
    if (eff.obs.analyzing()) {
      // Post-hoc critical-path / straggler attribution over the records
      // this run produced. A pure function of the per-rank streams, so the
      // exported numbers inherit the run's bit-determinism.
      const obs::Analysis analysis = obs::analyze(*trace);
      obs::fold_summary(analysis, result.metrics);
      if (!eff.obs.analysis_json_path.empty()) {
        obs::write_analysis_json(analysis, eff.obs.analysis_json_path);
      }
    }
  }
  const mp::BufferPool::Stats pool_after = mp::BufferPool::global().stats();
  // Exclusive iff nothing was active at entry and no run started since.
  const bool exclusive =
      entered_alone && g_runs_started.load() == start_stamp;
  if (eff.obs.pool_metrics && exclusive) {
    pool_metrics(result.metrics, pool_before, pool_after);
  } else if (eff.obs.pool_metrics) {
    result.metrics.counter("psanim_mp_buffer_stats_skipped_shared").inc();
  }
  return result;
}

SequentialResult run_sequential(const Scene& scene,
                                const SimSettings& settings, double rate,
                                const cluster::CostModel& cost) {
  settings.validate();
  // Mirror the single-calculator layout exactly (same SlicedStore, same
  // RNG streams with calculator index 0) so run_parallel(ncalc=1) evolves
  // the identical particle set.
  const Rng base(settings.seed);
  std::vector<psys::SlicedStore> stores;
  stores.reserve(scene.systems.size());
  for (std::size_t s = 0; s < scene.systems.size(); ++s) {
    stores.emplace_back(settings.axis, -Aabb::kHuge, Aabb::kHuge,
                        settings.store_slices);
  }

  render::Camera cam = render::Camera::framing(
      scene.look_center, scene.look_radius, settings.image_width,
      settings.image_height);
  render::Framebuffer fb(settings.image_width, settings.image_height);

  double clock = 0.0;
  for (std::uint32_t frame = 0; frame < settings.frames; ++frame) {
    clock += cost.frame_overhead_s / rate;
    // Creation (same stream as the manager's).
    for (std::size_t s = 0; s < scene.systems.size(); ++s) {
      Rng rng = base.derive(0xC0FFEEu, s, frame);
      psys::ActionContext ctx{settings.dt, &rng, 0};
      std::vector<psys::Particle> born;
      for (const psys::Source* src : scene.systems[s].actions().sources()) {
        src->generate(born, ctx);
      }
      clock += cost.compute_s(cost.create_cost, born.size(), rate);
      stores[s].insert_batch(born);
    }
    // Actions (same streams as calculator 0's, same fused traversal).
    for (std::size_t s = 0; s < scene.systems.size(); ++s) {
      auto& store = stores[s];
      const std::size_t held = store.size();
      psys::FusedPasses fused(
          scene.systems[s].actions(), settings.dt, [&](std::size_t ai) {
            return base.derive(s, frame).derive(ai, /*calc=*/0);
          });
      store.for_each_slice(
          [&](std::span<psys::Particle> ps) { fused.apply(ps); });
      for (const auto& pass : fused.passes()) {
        clock += cost.compute_s(cost.action_cost * pass.action->cost_weight(),
                                held, rate);
      }
      const std::size_t removed = store.compact_dead();
      clock += cost.compute_s(cost.pack_cost, removed, rate);
      // Keep internal slices consistent, as the calculator's exchange
      // scan does (everything stays owned — one domain spans all space).
      store.extract_outside();
    }
    // Render.
    fb.clear({0.02f, 0.02f, 0.03f});
    render::draw_ground_grid(fb, cam, scene.space.lo.y,
                             scene.look_radius * 1.2f, 16,
                             {0.18f, 0.2f, 0.22f});
    const auto px = static_cast<std::size_t>(
        34 * std::max(settings.image_width, settings.image_height));
    clock += cost.compute_s(cost.render_cost, px, rate);
    std::size_t rendered = 0;
    for (auto& store : stores) {
      const auto parts = store.snapshot();
      render::splat_particles(fb, cam, parts, render::BlendMode::kAdditive);
      rendered += parts.size();
    }
    clock += cost.compute_s(cost.render_cost, rendered, rate);
  }

  SequentialResult result;
  result.total_s = clock;
  result.per_frame_s = settings.frames > 0
                           ? clock / static_cast<double>(settings.frames)
                           : 0.0;
  for (const auto& store : stores) result.final_particles += store.size();
  result.final_frame = std::move(fb);
  for (auto& store : stores) result.populations.push_back(store.snapshot());
  return result;
}

}  // namespace psanim::core
