#include "workloads.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>

#include "cluster/cluster_spec.hpp"
#include "core/simulation.hpp"
#include "farm/farm.hpp"
#include "measure.hpp"
#include "mp/buffer_pool.hpp"
#include "render/compare.hpp"
#include "replay.hpp"
#include "sim/run_config.hpp"
#include "sim/scenario.hpp"
#include "spans.hpp"

namespace psbench {

namespace cluster = psanim::cluster;
namespace core = psanim::core;
namespace farm = psanim::farm;
namespace mp = psanim::mp;
namespace sim = psanim::sim;

namespace {

std::string exact_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string exact_hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

double seconds(Ns ns) { return static_cast<double>(ns) / 1e9; }

/// What the run itself counts, from its public results (ParallelResult
/// telemetry and traffic, the buffer pool's stats).
struct Counts {
  std::uint64_t particle_frames = 0;
  std::uint64_t crossers = 0;
  std::uint64_t donated = 0;
  std::uint64_t sorted_elements = 0;
  std::uint64_t splats = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;

  void add(const core::ParallelResult& r) {
    for (const auto& fs : r.telemetry.calc_frames()) {
      particle_frames += fs.particles_held;
      crossers += fs.crossers_out;
      donated += fs.balance_sent;
      sorted_elements += fs.sorted_elements;
    }
    for (const auto& is : r.telemetry.image_frames()) {
      splats += is.particles_rendered;
    }
    for (const auto& p : r.procs) {
      messages += p.traffic.msgs_sent;
      bytes += p.traffic.bytes_sent;
    }
  }
};

/// The traced run times the 1-worker run and the replay several times,
/// alternating, and reports each time's median over the passes: the replay
/// and the run it tiles are separate executions, and a burst of machine
/// noise during one of them must not decide the sign of the remainder.
/// Smoke-scale passes take a tenth of a second and leave a remainder of a
/// few milliseconds, so they get more passes. The counts are odd, so every
/// median is one measured value and the tiling stays exact.
int traced_passes(Scale scale) { return scale == Scale::kSmoke ? 9 : 3; }

/// Median over the passes; 0 for a time no pass recorded.
Ns middle(const std::vector<Ns>& passes) {
  return passes.empty() ? 0 : median(passes);
}

/// Every per-layer metric. A layer a workload does not exercise reads 0:
/// the farm_* metrics on the animation workloads.
struct Layers {
  /// Per pass: replay self time per span name, and the 1-worker (launch
  /// cap 1) wall the layers tile.
  std::map<std::string, std::vector<Ns>> self;
  std::vector<Ns> wall1;
  double wall_many_s = 0;  ///< the 1-worker run with the full thread budget
  std::uint64_t particle_passes = 0;
  std::uint64_t replay_particle_frames = 0;
  Counts counts;
  double pool_hit_ratio = 0;  ///< over the first 1-worker run
  // Farm only, per pass.
  std::vector<Ns> submit, run;
  std::uint64_t launches = 0, preemptions = 0, backfills = 0;

  void add_pass(Ns wall_ns, const std::map<std::string, Ns>& pass) {
    wall1.push_back(wall_ns);
    for (const auto& [name, ns] : pass) self[name].push_back(ns);
  }

  TraceResult result() const {
    TraceResult t;
    const auto add = [&](const char* name, double value, const char* unit) {
      t.metrics.push_back(Metric{name, value, unit});
    };
    const auto layer = [&](const char* span) {
      const auto it = self.find(span);
      return it == self.end() ? Ns{0} : middle(it->second);
    };
    const Ns wall1_ns = middle(wall1);
    Ns attributed = 0;
    for (const char* span : kLayers) attributed += layer(span);
    const Ns unattributed = wall1_ns - attributed;

    add("psys.create_s", seconds(layer("psys.create")), "s");
    add("psys.actions_s", seconds(layer("psys.actions")), "s");
    add("psys.actions_ns_per_particle_pass",
        particle_passes ? static_cast<double>(layer("psys.actions")) /
                              static_cast<double>(particle_passes)
                        : 0.0,
        "ns");
    add("psys.store_s", seconds(layer("psys.store")), "s");
    add("core.exchange_codec_s", seconds(layer("core.exchange_codec")), "s");
    add("core.frame_codec_s", seconds(layer("core.frame_codec")), "s");
    add("render.splat_s", seconds(layer("render.splat")), "s");
    add("lb.s", seconds(layer("lb")), "s");
    add("mp.mailbox_s", seconds(layer("mp.mailbox")), "s");
    add("runtime.unattributed_s", seconds(unattributed), "s");
    add("runtime.worker_speedup", seconds(wall1_ns) / wall_many_s, "ratio");
    const double fidelity =
        counts.particle_frames
            ? static_cast<double>(replay_particle_frames) /
                  static_cast<double>(counts.particle_frames)
            : 0.0;
    add("replay.fidelity", fidelity, "ratio");
    add("work.particle_frames", static_cast<double>(counts.particle_frames),
        "count");
    add("core.crossers", static_cast<double>(counts.crossers), "count");
    add("lb.donated", static_cast<double>(counts.donated), "count");
    add("lb.sorted_elements", static_cast<double>(counts.sorted_elements),
        "count");
    add("render.splats", static_cast<double>(counts.splats), "count");
    add("mp.messages", static_cast<double>(counts.messages), "count");
    add("mp.bytes", static_cast<double>(counts.bytes), "bytes");
    add("mp.pool_hit_ratio", pool_hit_ratio, "ratio");
    const Ns run_ns = middle(run);
    const Ns admission = run_ns - layer("farm.exec");
    add("farm.submit_s", seconds(middle(submit)), "s");
    add("farm.run_s", seconds(run_ns), "s");
    add("farm.exec_s", seconds(layer("farm.exec")), "s");
    add("farm.admission_s", seconds(admission), "s");
    add("farm.admission_us_per_launch",
        launches ? static_cast<double>(admission) / 1e3 /
                       static_cast<double>(launches)
                 : 0.0,
        "us");
    add("farm.launches", static_cast<double>(launches), "count");
    add("farm.preemptions", static_cast<double>(preemptions), "count");
    add("farm.backfills", static_cast<double>(backfills), "count");

    t.checks.push_back(Check{
        "tiling_exact", attributed + unattributed == wall1_ns,
        "layers " + std::to_string(attributed) + " ns + unattributed " +
            std::to_string(unattributed) + " ns = 1-worker wall " +
            std::to_string(wall1_ns) + " ns"});
    // The replay and the 1-worker run are separate executions, and what
    // the run does beyond the layer calls is a few percent of it, so the
    // remainder may dip below zero by as much as the run's own spread over
    // the passes, but no further.
    const auto [lo, hi] = std::minmax_element(wall1.begin(), wall1.end());
    const Ns spread = wall1.empty() ? 0 : *hi - *lo;
    t.checks.push_back(Check{
        "unattributed_nonnegative_within_spread", unattributed >= -spread,
        "unattributed " + std::to_string(unattributed) +
            " ns, 1-worker passes spread " + std::to_string(spread) + " ns"});
    t.checks.push_back(Check{"replay_fidelity_in_range",
                             fidelity >= 0.97 && fidelity <= 1.03,
                             "replay.fidelity " + exact_double(fidelity) +
                                 " (must be in [0.97, 1.03])"});
    return t;
  }
};

/// Buffer-pool hits over acquires since `before`.
double hit_ratio_since(const mp::BufferPool::Stats& before) {
  const auto after = mp::BufferPool::global().stats();
  const auto acquires = after.acquires - before.acquires;
  return acquires ? static_cast<double>(after.hits - before.hits) /
                        static_cast<double>(acquires)
                  : 0.0;
}

// --- animation workloads ---------------------------------------------------

/// One of the paper's E800 table rows: 8 systems on Myrinet with GCC and
/// dynamic pairwise balancing, rendered at 320x240.
struct AnimationDef {
  bool fountain = false;
  std::size_t particles = 0;  ///< steady population per system
  int nodes = 0;              ///< E800 nodes for the calculators
  int procs = 0;              ///< calculators
  core::SpaceMode space = core::SpaceMode::kFinite;

  AnimationDef smoke() const {
    AnimationDef d = *this;
    d.particles /= 100;
    if (d.procs > 8) {  // rank_storm: its messages grow with procs^2
      d.nodes /= 8;
      d.procs /= 8;
    }
    return d;
  }
};

/// The scene is the paper's 60-frame animation (creation rate and particle
/// lifetime derive from 60 frames, so the population reaches `particles`
/// per system at frame 30); the run stops after its first kFrames frames,
/// which are identical to the first frames of the full animation.
constexpr std::uint32_t kSceneFrames = 60;
constexpr std::uint32_t kFrames = 40;

struct Inputs {
  core::Scene scene;
  sim::BuiltCluster built;
  core::SimSettings settings;
};

Inputs make_inputs(const AnimationDef& def, std::uint64_t seed) {
  sim::ScenarioParams p;
  p.systems = 8;
  p.particles_per_system = def.particles;
  p.frames = kSceneFrames;
  sim::RunConfig cfg;
  cfg.groups = {{cluster::NodeType::e800(), def.nodes, def.procs}};
  cfg.network = psanim::net::Interconnect::kMyrinet;
  cfg.compiler = cluster::Compiler::kGcc;
  cfg.space = def.space;
  cfg.lb = core::LbMode::kDynamicPairwise;
  Inputs in{def.fountain ? sim::make_fountain_scene(p)
                         : sim::make_snow_scene(p),
            sim::build_cluster(cfg), core::SimSettings{}};
  in.settings.frames = kFrames;
  in.settings.dt = p.dt;
  in.settings.ncalc = in.built.ncalc;
  in.settings.space = cfg.space;
  in.settings.lb = cfg.lb;
  in.settings.seed = seed;
  return in;
}

class Animation final : public Workload {
 public:
  Animation(AnimationDef def, std::uint64_t seed, Scale scale, Budget budget)
      : def_(scale == Scale::kSmoke ? def.smoke() : def),
        warm_(def.smoke()),
        seed_(seed),
        budget_(budget),
        scale_(scale) {}

  /// Inputs, plus one run of the workload at smoke scale, so lazy
  /// process-wide set-up (fiber stacks, worker threads, the buffer pool,
  /// allocator arenas) is done before the first timed repetition.
  void setup() override {
    run(make_inputs(warm_, seed_), budget_.workers);
    in_.reset();
    in_.emplace(make_inputs(def_, seed_));
  }

  int thread_limit() const override { return 1 + budget_.workers; }

  RepResult rep() override {
    RepResult out;
    try {
      const Run r = run(*in_, budget_.workers);
      out.wall_s = seconds(r.wall_ns);
      out.cpu_s = r.cpu_s;
      out.jobs = 1;
      out.exact = exact(r.result);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "psbench: repetition failed: %s\n", e.what());
      out.failed = 1;
    }
    return out;
  }

  TraceResult trace(const std::string& trace_json) override {
    Layers l;
    std::vector<Exact> one_exact;
    for (int pass = 0; pass < traced_passes(scale_); ++pass) {
      Ns wall_ns = 0;
      {
        // From a cold pool, the 1-worker run's pool traffic is exact.
        if (pass == 0) mp::BufferPool::global().trim();
        const auto pool0 = mp::BufferPool::global().stats();
        const Run one = run(*in_, 1);
        wall_ns = one.wall_ns;
        if (pass == 0) {
          l.pool_hit_ratio = hit_ratio_since(pool0);
          l.counts.add(one.result);
          one_exact = exact(one.result);
        }
      }
      SpanLog log;
      const ReplayCounts rc = replay_animation(
          in_->scene, in_->settings, in_->built.spec, in_->built.placement,
          cluster::CostModel{}, log);
      l.add_pass(wall_ns, log.self_by_name());
      if (pass == 0) {
        l.particle_passes = rc.particle_passes;
        l.replay_particle_frames = rc.particle_frames;
        log.write_chrome_json(trace_json);
      }
    }
    const Run many = run(*in_, budget_.workers);
    l.wall_many_s = seconds(many.wall_ns);

    TraceResult t = l.result();
    t.checks.push_back(Check{"worker_count_invariant",
                             one_exact == exact(many.result),
                             "1-worker and " + std::to_string(budget_.workers) +
                                 "-worker runs agree on every exact result"});
    return t;
  }

 private:
  struct Run {
    core::ParallelResult result;
    Ns wall_ns = 0;
    double cpu_s = 0.0;
  };

  static Run run(const Inputs& in, int workers) {
    mp::RuntimeOptions rt;
    rt.exec_mode = mp::ExecMode::kFibers;
    rt.workers = workers;
    Run r;
    const double c0 = cpu_seconds();
    const Ns t0 = now_ns();
    r.result = core::run_parallel(in.scene, in.settings, in.built.spec,
                                  in.built.placement, cluster::CostModel{}, rt);
    r.wall_ns = now_ns() - t0;
    r.cpu_s = cpu_seconds() - c0;
    return r;
  }

  static std::vector<Exact> exact(const core::ParallelResult& r) {
    std::size_t particles = 0;
    for (const auto& sys : r.final_particles) particles += sys.size();
    const auto fb_hash = psanim::render::hash_framebuffer(r.final_frame);
    return {{"makespan_s", exact_double(r.animation_s)},
            {"fb_hash", exact_hex(fb_hash)},
            {"final_particles", std::to_string(particles)}};
  }

  AnimationDef def_;
  AnimationDef warm_;
  std::uint64_t seed_;
  Budget budget_;
  Scale scale_;
  std::optional<Inputs> in_;
};

// --- farm workload -----------------------------------------------------------

/// splitmix64, as bench/farm_arrivals uses: seedable and stdlib-free, so
/// the stream is the same on every platform.
struct SplitMix {
  std::uint64_t state;
  std::uint64_t next_u64() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double uniform() {  // (0, 1]
    return (static_cast<double>(next_u64() >> 11) + 1.0) * 0x1.0p-53;
  }
  double exponential(double mean) { return -std::log(uniform()) * mean; }
};

/// One job of the farm_arrivals stream. chain_parent >= 0 makes it
/// closed-loop: it arrives `submit_s` after that job terminates.
struct JobShape {
  std::string tenant;
  int priority = 0;
  std::uint32_t frames = 4;
  int ncalc = 1;
  double submit_s = 0.0;
  int chain_parent = -1;
  std::uint64_t seed = 0;
};

constexpr int kFarmNodes = 8;
constexpr int kSlotsPerNode = 4;

/// Heavy-tailed and wide: 80/15/4/1% of 4/12/40/120 frames, the long
/// sequences on 3 and 6 calculators.
JobShape batch_shape(SplitMix& rng) {
  JobShape s;
  s.tenant = "batch";
  const double u = rng.uniform();
  s.frames = u < 0.80 ? 4 : u < 0.95 ? 12 : u < 0.99 ? 40 : 120;
  s.ncalc = s.frames >= 120 ? 6 : s.frames >= 40 ? 3 : 1;
  return s;
}

/// Poisson arrivals, one in five from the high-priority interactive
/// tenant, and every 10th job followed by a closed-loop 4-frame job.
std::vector<JobShape> make_stream(std::size_t jobs, double interarrival,
                                  std::uint64_t seed) {
  SplitMix rng{0x5EEDFA51ull + seed * 0x9E3779B97F4A7C15ull};
  const auto job_seed = [seed](std::size_t idx) {
    return (seed << 32) ^ (0x1000 + idx);
  };
  std::vector<JobShape> out;
  double clock = 0.0;
  while (out.size() < jobs) {
    clock += rng.exponential(interarrival);
    JobShape s;
    if (rng.uniform() < 0.20) {
      s.tenant = "interactive";
      s.priority = 5;
    } else {
      s = batch_shape(rng);
    }
    s.submit_s = clock;
    s.seed = job_seed(out.size());
    out.push_back(s);
    if (out.size() % 10 == 0 && out.size() < jobs) {
      JobShape follow;
      follow.tenant = s.tenant;
      follow.priority = s.priority;
      follow.chain_parent = static_cast<int>(out.size() - 1);
      follow.submit_s = 0.5 * interarrival;  // think delay
      follow.seed = job_seed(out.size());
      out.push_back(follow);
    }
  }
  return out;
}

farm::JobSpec make_job(const JobShape& shape, std::size_t idx) {
  sim::ScenarioParams p;
  p.systems = 1;
  p.particles_per_system = 40;
  p.frames = shape.frames;
  farm::JobSpec j;
  j.name = "j" + std::to_string(idx);
  j.scene = sim::make_fountain_scene(p);
  j.settings.ncalc = shape.ncalc;
  j.settings.frames = shape.frames;
  j.settings.seed = shape.seed;
  j.settings.image_width = 32;
  j.settings.image_height = 24;
  j.tenant = shape.tenant;
  j.priority = shape.priority;
  j.submit_time_s = shape.submit_s;
  j.after_seq = shape.chain_parent;
  return j;
}

cluster::ClusterSpec farm_cluster() {
  cluster::ClusterSpec spec;
  spec.add(cluster::NodeType::generic(1.0, kSlotsPerNode), kFarmNodes);
  return spec;
}

/// Mean interarrival for offered load 0.9, calibrated exactly as
/// bench/farm_arrivals does: one standalone probe per job class, weighted
/// by the class mix (1/11 of all jobs are closed-loop 4-frame follow-ups).
double calibrate_interarrival() {
  struct Probe {
    std::uint32_t frames;
    int ncalc;
    double weight;
  };
  const double root = 10.0 / 11.0;
  const Probe classes[] = {
      {4, 1, root * (0.20 + 0.80 * 0.80) + (1.0 - root)},
      {12, 1, root * 0.80 * 0.15},
      {40, 3, root * 0.80 * 0.04},
      {120, 6, root * 0.80 * 0.01},
  };
  const cluster::ClusterSpec spec = farm_cluster();
  double rank_s_per_job = 0.0;
  for (const auto& c : classes) {
    JobShape shape;
    shape.frames = c.frames;
    shape.ncalc = c.ncalc;
    const int world = c.ncalc + 2;
    const auto assign = farm::assign_slots(
        spec, std::vector<int>(kFarmNodes, kSlotsPerNode), world);
    const double duration =
        farm::standalone_run(make_job(shape, 0), assign).animation_s;
    rank_s_per_job += c.weight * duration * static_cast<double>(world);
  }
  return rank_s_per_job / (kFarmNodes * kSlotsPerNode * 0.9);
}

class FarmBackfill final : public Workload {
 public:
  FarmBackfill(std::uint64_t seed, Scale scale, Budget budget)
      : seed_(seed),
        jobs_(scale == Scale::kSmoke ? 50 : 5'000),
        budget_(budget),
        scale_(scale) {}

  void setup() override {
    shapes_ = make_stream(jobs_, calibrate_interarrival(), seed_);
    specs_ = make_specs();
  }

  /// Main thread, farm driver, and per concurrent launch one launch thread
  /// plus the job's one fiber worker.
  int thread_limit() const override { return 2 + 2 * budget_.launch_cap; }

  RepResult rep() override {
    if (specs_.empty()) specs_ = make_specs();  // consumed by submit
    RepResult out;
    const FarmRun r = run(budget_.launch_cap, std::move(specs_));
    specs_.clear();
    out.wall_s = seconds(r.submit_ns + r.run_ns);
    out.cpu_s = r.cpu_s;
    out.attempted = shapes_.size();
    out.jobs = r.report.jobs_done;
    out.failed = shapes_.size() - r.report.jobs_done;
    out.exact = exact(r.report);
    return out;
  }

  TraceResult trace(const std::string& trace_json) override {
    Layers l;
    std::size_t hash_mismatches = 0;
    std::vector<Exact> one_exact;
    for (int pass = 0; pass < traced_passes(scale_); ++pass) {
      if (pass == 0) mp::BufferPool::global().trim();  // see Animation
      const auto pool0 = mp::BufferPool::global().stats();
      const FarmRun one = run(1, make_specs());
      l.submit.push_back(one.submit_ns);
      l.run.push_back(one.run_ns);
      if (pass == 0) {
        l.pool_hit_ratio = hit_ratio_since(pool0);
        l.backfills = one.report.jobs_backfilled;
        one_exact = exact(one.report);
      }
      SpanLog log;
      hash_mismatches += replay_jobs(one, log, pass == 0 ? &l : nullptr);
      l.add_pass(one.submit_ns + one.run_ns, log.self_by_name());
      if (pass == 0) log.write_chrome_json(trace_json);
    }
    const FarmRun many = run(budget_.launch_cap, make_specs());
    l.wall_many_s = seconds(many.submit_ns + many.run_ns);

    TraceResult t = l.result();
    t.checks.push_back(Check{
        "farm_replay_hashes", hash_mismatches == 0,
        std::to_string(hash_mismatches) + " of " +
            std::to_string(traced_passes(scale_) * shapes_.size()) +
            " standalone replays differ from the farm's framebuffer hash"});
    t.checks.push_back(Check{
        "launch_cap_invariant", one_exact == exact(many.report),
        "launch caps 1 and " + std::to_string(budget_.launch_cap) +
            " agree on every exact result"});
    return t;
  }

 private:
  struct FarmRun {
    Ns submit_ns = 0;
    Ns run_ns = 0;
    double cpu_s = 0.0;
    farm::Report report;
    std::vector<farm::JobHandle> handles;
  };

  /// Replay every job of `batch` standalone on its recorded assignment (one
  /// farm.exec span each, its framebuffer hash checked against the
  /// farm's), then through the layer replay. Counts go to `counts_to`
  /// when given. Returns the number of hash mismatches.
  std::size_t replay_jobs(const FarmRun& batch, SpanLog& log,
                          Layers* counts_to) const {
    std::size_t hash_mismatches = 0;
    for (std::size_t i = 0; i < shapes_.size(); ++i) {
      const farm::JobResult& jr = batch.handles[i].await();
      const farm::JobSpec spec = make_job(shapes_[i], i);
      core::ParallelResult r;
      {
        // farm::standalone_run's call, on the one fiber worker the farm
        // gave each job, so farm.exec_s times the same execution.
        const SpanLog::Scope span(log, "farm.exec");
        r = core::run_parallel(spec.scene, spec.settings,
                               jr.assignment.sub_spec, jr.assignment.placement,
                               cluster::CostModel{}, job_runtime());
      }
      if (psanim::render::hash_framebuffer(r.final_frame) != jr.fb_hash) {
        ++hash_mismatches;
      }
      const ReplayCounts rc =
          replay_animation(spec.scene, spec.settings, jr.assignment.sub_spec,
                           jr.assignment.placement, cluster::CostModel{}, log);
      if (counts_to != nullptr) {
        counts_to->launches += 1 + static_cast<std::uint64_t>(jr.preemptions);
        counts_to->preemptions += static_cast<std::uint64_t>(jr.preemptions);
        counts_to->counts.add(r);
        counts_to->particle_passes += rc.particle_passes;
        counts_to->replay_particle_frames += rc.particle_frames;
      }
    }
    return hash_mismatches;
  }

  std::vector<farm::JobSpec> make_specs() const {
    std::vector<farm::JobSpec> specs;
    specs.reserve(shapes_.size());
    for (std::size_t i = 0; i < shapes_.size(); ++i) {
      specs.push_back(make_job(shapes_[i], i));
    }
    return specs;
  }

  static mp::RuntimeOptions job_runtime() {
    mp::RuntimeOptions rt;
    rt.exec_mode = mp::ExecMode::kFibers;
    rt.workers = 1;
    return rt;
  }

  FarmRun run(int launch_cap, std::vector<farm::JobSpec> specs) const {
    farm::FarmOptions opts;
    opts.policy = farm::Policy::kPriority;
    opts.easy_backfill = true;
    opts.victim_selection = farm::VictimSelection::kCostAware;
    opts.preempt_interval = 4;  // 4-frame clips stay unpreemptible
    opts.keep_results = false;
    opts.exec_mode = mp::ExecMode::kFibers;
    opts.max_parallel_launches = launch_cap;
    opts.workers_per_job = 1;
    FarmRun r;
    const double c0 = cpu_seconds();
    const Ns t0 = now_ns();
    farm::Farm f(farm_cluster(), opts);
    r.handles.reserve(specs.size());
    for (auto& s : specs) r.handles.push_back(f.submit(std::move(s)));
    const Ns t1 = now_ns();
    r.report = f.run();
    r.run_ns = now_ns() - t1;
    r.submit_ns = t1 - t0;
    r.cpu_s = cpu_seconds() - c0;
    return r;
  }

  static std::vector<Exact> exact(const farm::Report& r) {
    return {{"makespan_s", exact_double(r.makespan_s)},
            {"jobs_done", std::to_string(r.jobs_done)},
            {"jobs_preempted", std::to_string(r.jobs_preempted)},
            {"jobs_backfilled", std::to_string(r.jobs_backfilled)}};
  }

  std::uint64_t seed_;
  std::size_t jobs_;
  Budget budget_;
  Scale scale_;
  std::vector<JobShape> shapes_;
  std::vector<farm::JobSpec> specs_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"snow_paper", "fountain_paper",
                                              "rank_storm", "farm_backfill"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Scale scale,
                                        const Budget& budget) {
  if (name == "snow_paper") {
    return std::make_unique<Animation>(
        AnimationDef{false, 400'000, 8, 8, core::SpaceMode::kFinite}, seed,
        scale, budget);
  }
  if (name == "fountain_paper") {
    return std::make_unique<Animation>(
        AnimationDef{true, 400'000, 8, 8, core::SpaceMode::kInfinite}, seed,
        scale, budget);
  }
  if (name == "rank_storm") {
    return std::make_unique<Animation>(
        AnimationDef{false, 5'000, 128, 256, core::SpaceMode::kFinite}, seed,
        scale, budget);
  }
  if (name == "farm_backfill") {
    return std::make_unique<FarmBackfill>(seed, scale, budget);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace psbench
