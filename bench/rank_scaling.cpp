// Rank-count scaling of the execution cores (EXPERIMENTS.md "Execution
// core scaling"): wall-clock cost of driving W-rank worlds through a
// fixed message-passing workload (a two-lap accumulating ring plus one
// allgather), for the fiber scheduler at several worker counts and the
// thread-per-rank oracle where it still applies (W <= 256).
//
// The virtual makespan column is the cross-check: every configuration of
// the same world must report the *same* virtual finish time — scheduling
// is a wall-clock knob, never a result knob.
//
// With --out FILE the bench also runs the platform-topology sweep (flat
// vs crossbar/fat-tree/dragonfly/WAN on a fixed snow workload, every leg
// twice, each leg traced and fed through obs::analysis for its
// critical-path compute/wire split) and writes BENCH_PR8.json in the bench
// record format (bench/record.hpp). The virtual rows are bit-reproducible;
// wall_ms is a host_ms row.
//
// Gates: bench::check_scaling and bench::check_platform_sweep
// (bench/gates.hpp); exit 1 on a violation.
//
// Usage: rank_scaling [--laps N] [--out FILE]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/gates.hpp"
#include "core/simulation.hpp"
#include "mp/collectives.hpp"
#include "mp/communicator.hpp"
#include "mp/message.hpp"
#include "mp/runtime.hpp"
#include "obs/analysis.hpp"
#include "obs/trace.hpp"
#include "render/compare.hpp"
#include "sim/run_config.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace psanim;

/// The ring workload on `world` ranks; makespan_s is the max virtual
/// finish over ranks.
bench::ScalingRow run_world(int world, std::string core, mp::ExecMode mode,
                            int workers, int laps) {
  auto cost = [](int, int, std::size_t bytes) {
    return mp::MsgCost{.send_cpu_s = 1e-6,
                       .wire_s = 1e-5 + static_cast<double>(bytes) * 1e-9,
                       .recv_cpu_s = 2e-6};
  };
  mp::Runtime rt(world, cost,
                 mp::RuntimeOptions{.exec_mode = mode, .workers = workers});
  const auto t0 = std::chrono::steady_clock::now();
  const auto results = rt.run([world, laps](mp::Endpoint& ep) {
    const int rank = ep.rank();
    const int right = (rank + 1) % world;
    const int left = (rank + world - 1) % world;
    for (int lap = 0; lap < laps; ++lap) {
      if (rank == 0) {
        mp::Writer w;
        w.put<std::uint64_t>(1);
        ep.send(right, 1, std::move(w));
        ep.recv(left, 1);
      } else {
        const mp::Message m = ep.recv(left, 1);
        mp::Reader r(m);
        mp::Writer w;
        w.put<std::uint64_t>(r.get<std::uint64_t>() + 1);
        ep.send(right, 1, std::move(w));
      }
    }
    mp::Writer w;
    w.put<std::int32_t>(rank);
    mp::allgather(ep, w.take());
  });
  const auto t1 = std::chrono::steady_clock::now();

  const double wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  bench::ScalingRow row{world, std::move(core), wall_ms, 0.0};
  for (const auto& r : results) {
    row.makespan_s = std::max(row.makespan_s, r.finish_time);
  }
  return row;
}

/// One leg of the platform sweep: the fixed snow workload on 8 E800
/// calculators over Fast-Ethernet, under `platform` (empty = flat). Each
/// leg is traced and fed through obs::analysis, so the sweep reports not
/// just *that* a topology is slower but *where* the extra time sits on
/// the critical path (compute vs wire).
bench::SweepLeg run_platform_leg(const std::string& platform) {
  const sim::ScenarioParams p{
      .systems = 4, .particles_per_system = 3'000, .frames = 10};
  const core::Scene scene = sim::make_snow_scene(p);

  sim::RunConfig cfg;
  cfg.groups = {{cluster::NodeType::e800(), 8, 8}};
  cfg.network = net::Interconnect::kFastEthernet;
  cfg.platform = platform;
  const auto built = sim::build_cluster(cfg);

  obs::Trace trace;
  core::SimSettings settings;
  settings.frames = p.frames;
  settings.ncalc = built.ncalc;
  settings.image_width = 64;
  settings.image_height = 48;
  settings.obs.trace = &trace;
  const auto r =
      core::run_parallel(scene, settings, built.spec, built.placement, {},
                         mp::RuntimeOptions{.recv_timeout_s = 60.0});

  const obs::Analysis analysis = obs::analyze(trace);
  bench::SweepLeg leg;
  leg.makespan_s = r.animation_s;
  leg.fb_hash = render::hash_framebuffer(r.final_frame);
  leg.cp_makespan_s = analysis.critical_path.makespan_s;
  leg.cp_compute_s = analysis.critical_path.compute_s;
  leg.cp_wire_s = analysis.critical_path.wire_s;
  leg.cp_wire_share = analysis.critical_path.wire_share();
  return leg;
}

}  // namespace

int main(int argc, char** argv) {
  int laps = 2;
  std::string out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--laps") == 0 && i + 1 < argc) {
      laps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--laps N] [--out FILE]\n", argv[0]);
      return 2;
    }
  }
  std::vector<bench::ScalingRow> scaling;
  bench::Violations violations;

  std::printf("# execution-core scaling: ring x%d + allgather\n", laps);
  std::printf("%6s  %-16s  %10s  %18s\n", "world", "core", "wall_ms",
              "virtual_makespan_s");
  for (const int world : {64, 256, 512, 1000}) {
    const auto emit = [&](bench::ScalingRow row) {
      std::printf("%6d  %-16s  %10.2f  %18.9f\n", world, row.core.c_str(),
                  row.wall_ms, row.makespan_s);
      scaling.push_back(std::move(row));
    };
    for (const int workers : {1, 2, 8}) {
      emit(run_world(world, "fibers/w" + std::to_string(workers),
                     mp::ExecMode::kFibers, workers, laps));
    }
    if (world <= mp::Runtime::kMaxThreadRanks) {
      emit(run_world(world, "threads", mp::ExecMode::kThreads, 0, laps));
    } else {
      std::printf("%6d  %-16s  %10s  %18s\n", world, "threads", "refused",
                  "-");
    }
  }
  std::printf("# every row of a world must share one virtual makespan\n");
  bench::check_scaling(violations, scaling);
  if (out.empty()) return bench::report(violations);

  // Platform-topology sweep: same scene on the flat model and on each zone
  // platform, every leg twice.
  std::printf("\n# platform sweep: snow 4x3000 x10f, 8*E800, fast-ethernet\n");
  std::printf("%-14s  %18s  %16s  %10s\n", "platform", "virtual_makespan_s",
              "fb_hash", "wire_share");
  std::vector<bench::SweepRow> sweep;
  for (const std::string plat : {"flat", "crossbar", "fattree",
                                 "fattree-slim", "dragonfly", "wan2"}) {
    const std::string desc = plat == "flat" ? "" : plat;
    bench::SweepRow row{plat, run_platform_leg(desc), run_platform_leg(desc)};
    std::printf("%-14s  %18.9f  %016llx  %9.1f%%\n", plat.c_str(),
                row.run1.makespan_s,
                static_cast<unsigned long long>(row.run1.fb_hash),
                100.0 * row.run1.cp_wire_share);
    sweep.push_back(std::move(row));
  }
  bench::check_platform_sweep(violations, sweep);

  bench::Record rec("rank_scaling");
  rec.add("ring", "laps", laps, "count");
  for (const auto& r : scaling) {
    const std::string leg = "world" + std::to_string(r.world) + "/" + r.core;
    rec.add(leg, "world", r.world, "count");
    rec.add(leg, "wall_ms", r.wall_ms, "host_ms");
    rec.add(leg, "virtual_makespan_s", r.makespan_s, "s");
  }
  for (const auto& r : sweep) {
    rec.add(r.platform, "makespan_run1_s", r.run1.makespan_s, "s");
    rec.add(r.platform, "makespan_run2_s", r.run2.makespan_s, "s");
    rec.add(r.platform, "fb_hash", r.run1.fb_hash, "hash");
    rec.add(r.platform, "cp_makespan_s", r.run1.cp_makespan_s, "s");
    rec.add(r.platform, "cp_compute_s", r.run1.cp_compute_s, "s");
    rec.add(r.platform, "cp_wire_s", r.run1.cp_wire_s, "s");
    rec.add(r.platform, "cp_wire_share", r.run1.cp_wire_share, "ratio");
  }
  if (!rec.write(out)) return 2;
  return bench::report(violations);
}
