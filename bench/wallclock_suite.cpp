// Wall-clock benchmark suite: measures REAL host time and heap traffic on
// the hot paths the virtual-time model abstracts away, and writes
// BENCH_PR4.json in the bench record format (bench/record.hpp).
//
// Three sections:
//   1. kernels  — optimized vs in-process legacy reference implementations
//      (linear-deque mailbox matching, per-field vertex packing), so the
//      speedup is measured in one binary on one machine.
//   2. pool_kernel — the encode/send/decode round trip with the buffer
//      pool enabled vs disabled, counting heap allocations (pool misses).
//   3. scenes   — reduced table1 snow / table3 fountain runs in pooled and
//      unpooled variants.
//
// Gates (bench/gates.hpp; exit 1 on a violation): each kernel reaches its
// min_speedup floor, the pool cuts heap allocations at least 2x, and the
// pooled and unpooled variants of a scene agree on every virtual result.
// Wall times and pool counters are host_* rows; `tools/bench_json.py check
// NEW --baseline BENCH_PR4.json` holds the rest to the committed artifact.

#include <chrono>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "bench/gates.hpp"
#include "core/simulation.hpp"
#include "core/wire.hpp"
#include "math/rng.hpp"
#include "mp/buffer_pool.hpp"
#include "mp/mailbox.hpp"
#include "mp/message.hpp"
#include "render/compare.hpp"
#include "sim/run_config.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace psanim;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Best (minimum) wall time of `reps` runs of fn() — the standard way to
/// reject scheduler noise for short kernels.
template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const double s = seconds_since(t0);
    if (s < best) best = s;
  }
  return best;
}

// --- legacy reference implementations -------------------------------------

/// The pre-PR4 mailbox: one flat deque, every pop scans all queued
/// messages for the smallest (arrive_time, src, seq) match.
class LegacyMailbox {
 public:
  void push(mp::Message m) { q_.push_back(std::move(m)); }

  mp::Message pop_match(int src, int tag, double /*timeout_s*/) {
    auto best = q_.end();
    for (auto it = q_.begin(); it != q_.end(); ++it) {
      if (src != mp::kAny && it->src != src) continue;
      if (tag != mp::kAny && it->tag != tag) continue;
      if (best == q_.end() || earlier(*it, *best)) best = it;
    }
    mp::Message m = std::move(*best);
    q_.erase(best);
    return m;
  }

  std::size_t size() const { return q_.size(); }

 private:
  static bool earlier(const mp::Message& a, const mp::Message& b) {
    if (a.arrive_time != b.arrive_time) return a.arrive_time < b.arrive_time;
    if (a.src != b.src) return a.src < b.src;
    return a.seq < b.seq;
  }

  std::deque<mp::Message> q_;
};

/// The pre-PR4 vertex codec: one bounds-checked put/get per field instead
/// of a bulk memcpy of the packed array. Byte layout is identical (the
/// suite asserts it), so only the marshalling cost differs.
mp::Writer legacy_encode_frame_vertices(
    std::uint32_t frame, const std::vector<core::RenderVertex>& verts) {
  mp::Writer w;
  core::put_control_header(w);
  w.put(frame);
  w.put<std::uint64_t>(verts.size());
  for (const auto& v : verts) {
    const core::PackedVertex p = core::pack_vertex(v);
    w.put(p.x);
    w.put(p.y);
    w.put(p.z);
    w.put(p.r);
    w.put(p.g);
    w.put(p.b);
    w.put(p.size_q);
  }
  return w;
}

std::vector<core::RenderVertex> legacy_decode_frame_vertices(
    const mp::Message& m, std::uint32_t expect_frame) {
  mp::Reader r(m);
  core::check_control_header(r, "legacy_decode_frame_vertices");
  core::check_frame(r.get<std::uint32_t>(), expect_frame,
                    "legacy_decode_frame_vertices");
  const auto n = r.get<std::uint64_t>();
  std::vector<core::RenderVertex> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    core::PackedVertex p;
    p.x = r.get<float>();
    p.y = r.get<float>();
    p.z = r.get<float>();
    p.r = r.get<std::uint8_t>();
    p.g = r.get<std::uint8_t>();
    p.b = r.get<std::uint8_t>();
    p.size_q = r.get<std::uint8_t>();
    out.push_back(core::unpack_vertex(p));
  }
  return out;
}

// --- input data -----------------------------------------------------------

std::vector<psys::Particle> make_particles(std::size_t n,
                                           std::uint64_t seed = 42) {
  Rng rng(seed);
  std::vector<psys::Particle> out(n);
  for (auto& p : out) {
    p.pos = rng.in_box({-10, 0, -10}, {10, 10, 10});
    p.prev_pos = p.pos;
    p.vel = rng.in_unit_ball() * 3.0f;
    p.color = {0.5f, 0.6f, 0.9f};
    p.size = 0.05f;
    p.lifetime = 5.0f;
  }
  return out;
}

std::vector<core::RenderVertex> make_verts(std::size_t n) {
  const auto parts = make_particles(n);
  std::vector<core::RenderVertex> verts;
  verts.reserve(parts.size());
  for (const auto& p : parts) verts.push_back(core::to_render_vertex(p));
  return verts;
}

// --- results --------------------------------------------------------------

struct KernelResult {
  std::string name;
  std::size_t items = 0;
  int reps = 0;
  double optimized_s = 0.0;
  double legacy_s = 0.0;
  double min_speedup = 1.0;  ///< floor gated by check_kernel_floor
};

struct PoolKernelResult {
  std::string name;
  std::size_t items = 0;
  int reps = 0;
  double pooled_s = 0.0;
  double unpooled_s = 0.0;
  std::uint64_t pooled_heap_allocs = 0;
  std::uint64_t unpooled_heap_allocs = 0;
};

struct SceneVariant {
  double wall_s = 0.0;
  bench::SceneVirtual virt;
  mp::BufferPool::Stats pool;
};

struct SceneResult {
  std::string name;
  sim::ScenarioParams params;
  int ncalc = 0;
  SceneVariant variants[2];  ///< [0] pooled, [1] unpooled
};

// --- kernel benches -------------------------------------------------------

/// Steady-protocol mailbox pop: kSrcs x kTags streams, arrive times
/// nondecreasing (the runtime's non-overtaking property), popped in the
/// protocol's known-sender order. Pushes happen outside the timed region.
KernelResult bench_mailbox(bool wildcard, std::size_t n, int reps) {
  constexpr int kSrcs = 16;
  constexpr int kTags = 4;
  auto fill = [&](auto& box) {
    for (std::size_t i = 0; i < n; ++i) {
      mp::Message m;
      m.src = static_cast<int>(i % kSrcs);
      m.tag = 200 + static_cast<int>((i / kSrcs) % kTags);
      m.seq = i;
      m.arrive_time = 1e-6 * static_cast<double>(i);
      box.push(std::move(m));
    }
  };

  // O(1)/O(log) vs O(depth): an order-of-magnitude gap, so a 2x floor.
  KernelResult kr{wildcard ? "mailbox_pop_any" : "mailbox_pop_exact", n, reps,
                  0.0, 0.0, 2.0};
  const auto drain = [&](auto& mb) {
    fill(mb);
    for (std::size_t i = 0; i < n; ++i) {
      const int src = wildcard ? mp::kAny : static_cast<int>(i % kSrcs);
      const int tag =
          wildcard ? mp::kAny : 200 + static_cast<int>((i / kSrcs) % kTags);
      (void)mb.pop_match(src, tag, 10.0);
    }
  };
  kr.optimized_s = best_of(reps, [&] {
    mp::Mailbox mb;
    drain(mb);
  });
  kr.legacy_s = best_of(reps, [&] {
    LegacyMailbox mb;
    drain(mb);
  });
  return kr;
}

KernelResult bench_pack(std::size_t n, int reps) {
  const auto verts = make_verts(n);

  // Sanity: the two encoders must produce identical bytes.
  {
    mp::Writer a = core::encode_frame_vertices(7, verts);
    mp::Writer b = legacy_encode_frame_vertices(7, verts);
    if (a.bytes() != b.bytes()) {
      std::fprintf(stderr, "FATAL: legacy/optimized pack bytes differ\n");
      std::exit(1);
    }
  }

  // A 0.7x regression guard; the record shows the real speedup.
  KernelResult kr{"pack_vertices", n, reps, 0.0, 0.0, 0.7};
  kr.optimized_s = best_of(reps, [&] {
    mp::Writer w = core::encode_frame_vertices(7, verts);
    volatile std::size_t sink = w.size();
    (void)sink;
  });
  kr.legacy_s = best_of(reps, [&] {
    mp::Writer w = legacy_encode_frame_vertices(7, verts);
    volatile std::size_t sink = w.size();
    (void)sink;
  });
  return kr;
}

KernelResult bench_unpack(std::size_t n, int reps) {
  const auto verts = make_verts(n);
  mp::Message m;
  m.payload = core::encode_frame_vertices(7, verts).take();

  KernelResult kr{"unpack_vertices", n, reps, 0.0, 0.0, 0.7};
  kr.optimized_s = best_of(reps, [&] {
    auto out = core::decode_frame_vertices(m, 7);
    volatile std::size_t sink = out.size();
    (void)sink;
  });
  kr.legacy_s = best_of(reps, [&] {
    auto out = legacy_decode_frame_vertices(m, 7);
    volatile std::size_t sink = out.size();
    (void)sink;
  });
  return kr;
}

/// Full message round trip (encode batches -> payload -> decode), pool on
/// vs off. With the pool on, steady state performs zero heap allocations.
PoolKernelResult bench_pool_roundtrip(std::size_t n, int reps) {
  const auto parts = make_particles(n);
  std::vector<core::SystemBatch> batches;
  batches.push_back(core::SystemBatch{0, parts});

  auto round_trip = [&] {
    mp::Writer w = core::encode_batches(3, batches);
    mp::Message m;
    m.payload = w.take();
    auto out = core::decode_batches(m, 3);
    volatile std::size_t sink = out.size();
    (void)sink;
  };

  auto& pool = mp::BufferPool::global();
  PoolKernelResult pr{"exchange_roundtrip", n, reps, 0.0, 0.0, 0, 0};

  pool.trim();
  pool.set_enabled(true);
  round_trip();  // warm the pool: steady state starts at rep 2
  pool.reset_stats();
  pr.pooled_s = best_of(reps, round_trip);
  pr.pooled_heap_allocs = pool.stats().misses;

  pool.set_enabled(false);
  pool.reset_stats();
  pr.unpooled_s = best_of(reps, round_trip);
  pr.unpooled_heap_allocs = pool.stats().misses;
  pool.set_enabled(true);
  return pr;
}

// --- scene benches --------------------------------------------------------

SceneResult bench_scene(const std::string& name, const core::Scene& scene,
                        const sim::ScenarioParams& params,
                        const sim::RunConfig& cfg) {
  const sim::BuiltCluster bc = sim::build_cluster(cfg);
  core::SimSettings settings;
  settings.ncalc = bc.ncalc;
  settings.frames = params.frames;
  settings.dt = params.dt;
  settings.space = cfg.space;
  settings.lb = cfg.lb;
  settings.image_width = 160;
  settings.image_height = 120;

  SceneResult sr{name, params, bc.ncalc, {}};

  auto& pool = mp::BufferPool::global();
  for (int v = 0; v < 2; ++v) {
    const bool pooled = (v == 0);
    pool.trim();
    pool.set_enabled(pooled);
    pool.reset_stats();
    const auto t0 = Clock::now();
    const core::ParallelResult res =
        core::run_parallel(scene, settings, bc.spec, bc.placement);
    SceneVariant& out = sr.variants[v];
    out.wall_s = seconds_since(t0);
    out.virt.makespan_s = res.animation_s;
    out.virt.fb_hash = render::hash_framebuffer(res.final_frame);
    for (const auto& sys : res.final_particles) {
      out.virt.final_particles += sys.size();
    }
    out.pool = pool.stats();
  }
  pool.set_enabled(true);
  return sr;
}

// --- record ---------------------------------------------------------------

bench::Record to_record(const std::vector<KernelResult>& kernels,
                        const PoolKernelResult& pk,
                        const std::vector<SceneResult>& scenes) {
  bench::Record rec("wallclock_suite");
  for (const auto& k : kernels) {
    rec.add(k.name, "items", k.items, "count");
    rec.add(k.name, "reps", k.reps, "count");
    rec.add(k.name, "optimized_s", k.optimized_s, "host_s");
    rec.add(k.name, "legacy_s", k.legacy_s, "host_s");
    rec.add(k.name, "min_speedup", k.min_speedup, "ratio");
  }
  rec.add(pk.name, "items", pk.items, "count");
  rec.add(pk.name, "reps", pk.reps, "count");
  rec.add(pk.name, "pooled_s", pk.pooled_s, "host_s");
  rec.add(pk.name, "unpooled_s", pk.unpooled_s, "host_s");
  rec.add(pk.name, "pooled_heap_allocs", pk.pooled_heap_allocs, "host_count");
  rec.add(pk.name, "unpooled_heap_allocs", pk.unpooled_heap_allocs,
          "host_count");
  for (const auto& s : scenes) {
    rec.add(s.name, "systems", s.params.systems, "count");
    rec.add(s.name, "particles_per_system", s.params.particles_per_system,
            "count");
    rec.add(s.name, "frames", s.params.frames, "count");
    rec.add(s.name, "ncalc", s.ncalc, "count");
    for (int v = 0; v < 2; ++v) {
      const SceneVariant& var = s.variants[v];
      const std::string leg = s.name + (v == 0 ? "/pooled" : "/unpooled");
      rec.add(leg, "wall_s", var.wall_s, "host_s");
      rec.add(leg, "virtual_makespan_s", var.virt.makespan_s, "s");
      rec.add(leg, "fb_hash", var.virt.fb_hash, "hash");
      rec.add(leg, "final_particles", var.virt.final_particles, "count");
      rec.add(leg, "buffer_acquires", var.pool.acquires, "host_count");
      rec.add(leg, "buffer_pool_hits", var.pool.hits, "host_count");
      rec.add(leg, "buffer_heap_allocs", var.pool.misses, "host_count");
      rec.add(leg, "buffer_releases", var.pool.releases, "host_count");
    }
  }
  return rec;
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  std::string out = "BENCH_PR4.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full") {
      full = true;
    } else if (arg == "--quick") {
      full = false;
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: %s [--quick|--full] [--out FILE]\n", argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  const std::size_t mb_n = full ? 32768 : 8192;
  const std::size_t pk_n = full ? (1u << 16) : (1u << 14);
  const int reps = full ? 7 : 5;

  std::printf("=== wallclock_suite (%s) ===\n", full ? "full" : "quick");

  const std::vector<KernelResult> kernels = {
      bench_mailbox(/*wildcard=*/false, mb_n, reps),
      bench_mailbox(/*wildcard=*/true, mb_n, reps), bench_pack(pk_n, reps),
      bench_unpack(pk_n, reps)};
  for (const auto& k : kernels) {
    std::printf("%-20s n=%-7zu optimized %.3f ms  legacy %.3f ms  (%.1fx)\n",
                k.name.c_str(), k.items, k.optimized_s * 1e3, k.legacy_s * 1e3,
                k.legacy_s / k.optimized_s);
  }

  const PoolKernelResult pk = bench_pool_roundtrip(pk_n, reps);
  std::printf(
      "%-20s n=%-7zu pooled %.3f ms (%llu allocs)  unpooled %.3f ms "
      "(%llu allocs)\n",
      pk.name.c_str(), pk.items, pk.pooled_s * 1e3,
      static_cast<unsigned long long>(pk.pooled_heap_allocs),
      pk.unpooled_s * 1e3,
      static_cast<unsigned long long>(pk.unpooled_heap_allocs));

  sim::ScenarioParams params;
  params.systems = full ? 8 : 4;
  params.particles_per_system = full ? 8000 : 1500;
  params.frames = full ? 30 : 12;

  std::vector<SceneResult> scenes;
  scenes.push_back(bench_scene(
      "table1_snow_fs_dlb", sim::make_snow_scene(params), params,
      bench::e800_row(2, 4, core::SpaceMode::kFinite,
                      core::LbMode::kDynamicPairwise)));
  scenes.push_back(bench_scene(
      "table3_fountain_is_slb", sim::make_fountain_scene(params), params,
      bench::e800_row(2, 4, core::SpaceMode::kInfinite,
                      core::LbMode::kStatic)));
  bench::Violations violations;
  for (const auto& k : kernels) {
    bench::check_kernel_floor(violations, k.name, k.legacy_s, k.optimized_s,
                              k.min_speedup);
  }
  bench::check_alloc_guard(violations, pk.name, pk.pooled_heap_allocs,
                           pk.unpooled_heap_allocs);
  for (const auto& s : scenes) {
    for (int v = 0; v < 2; ++v) {
      const SceneVariant& var = s.variants[v];
      std::printf(
          "%-22s pool=%d wall %.3f s  virtual %.6f s  allocs %llu "
          "(hits %llu)\n",
          s.name.c_str(), v == 0 ? 1 : 0, var.wall_s, var.virt.makespan_s,
          static_cast<unsigned long long>(var.pool.misses),
          static_cast<unsigned long long>(var.pool.hits));
    }
    bench::check_pool_variants(violations, s.name, s.variants[0].virt,
                               s.variants[1].virt);
    bench::check_alloc_guard(violations, s.name, s.variants[0].pool.misses,
                             s.variants[1].pool.misses);
  }

  if (!to_record(kernels, pk, scenes).write(out)) return 2;
  return bench::report(violations);
}
