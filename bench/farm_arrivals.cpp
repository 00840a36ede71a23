// farm_arrivals: preemptive-scheduling stress bench, writing
// BENCH_PR10_FARM.json in the bench record format (bench/record.hpp).
//
// One heavy-tailed multi-tenant job stream — an "interactive" tenant
// submitting short high-priority clips into a "batch" tenant's long-job
// background, open-loop Poisson arrivals plus closed-loop think-delay
// chains — replayed on the same 8-node shared cluster under FIFO,
// preemptive priority (strict head-of-line reservation), EASY backfill
// around the blocked head, and backfill with preemption-cost-aware victim
// selection. All legs replay the identical stream, so every cross-leg
// ratio is apples to apples. The heavy tail is also *wide* (40f -> world
// 5, 120f -> world 8): with uniform 3-rank jobs EASY would have nothing to
// do — a hole every job fits into is never a hole — so wide heads make the
// reservation actually strand slots, and the admission decision is
// exercised thousands of times per leg. All reported times are
// farm-virtual, so every row is bit-reproducible; the priority and
// backfill_costaware legs each run twice.
//
// The headline gates: preemptive priority cuts the interactive tenant's
// p99 wait below FIFO's, and backfill holds the batch makespan within 1.3x
// of FIFO's with the interactive p99 wait within 2x of strict priority's.
// bench::check_arrivals (bench/gates.hpp) lists the rest; exit 1 on a
// violation.
//
// Usage: farm_arrivals [--full] [--jobs N] [--out BENCH_PR10_FARM.json]
//   quick (default): a few hundred jobs — the CI/perf-tier scale;
//   --full: 10k+ jobs, the committed-artifact scale.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/gates.hpp"
#include "cluster/cluster_spec.hpp"
#include "farm/farm.hpp"
#include "farm/job.hpp"
#include "obs/metrics.hpp"
#include "sim/scenario.hpp"

using namespace psanim;

namespace {

// splitmix64: tiny, seedable, stdlib-free (std::exponential_distribution
// is implementation-defined, and this artifact must be bit-reproducible).
struct Rng {
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

/// One job of the stream. chain_parent >= 0 makes it closed-loop: it
/// arrives `think_s` after that job terminates instead of at an absolute
/// instant.
struct JobShape {
  std::string tenant;
  int priority = 0;
  std::uint32_t frames = 4;
  int ncalc = 1;  ///< world = ncalc + 2 (manager + image generator)
  double submit_s = 0.0;  ///< absolute arrival (roots) or think delay
  int chain_parent = -1;
  std::uint64_t seed = 0;
};

/// Heavy-tailed batch sizes: mostly 4-frame clips, a thin tail of
/// 120-frame sequences that dominates total work. The tail is also
/// *wide* — long sequences ask for more calculators (40f -> world 5,
/// 120f -> world 8 on 4-slot nodes), which is what gives EASY backfill
/// real holes to fill: a blocked wide head strands slots that narrow
/// jobs provably fit into.
std::uint32_t sample_frames(Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.80) return 4;
  if (u < 0.95) return 12;
  if (u < 0.99) return 40;
  return 120;
}

int ncalc_for(std::uint32_t frames) {
  if (frames >= 120) return 6;  // world 8
  if (frames >= 40) return 3;   // world 5
  return 1;                     // world 3
}

std::vector<JobShape> make_stream(std::size_t jobs, double interarrival_mean) {
  Rng rng{.state = 0x5EEDFA51ull};
  std::vector<JobShape> out;
  out.reserve(jobs);
  double clock = 0.0;
  while (out.size() < jobs) {
    clock += rng.exponential(interarrival_mean);
    JobShape s;
    s.submit_s = clock;
    s.seed = 0x1000 + out.size();
    // One arrival in five is the interactive tenant: short clip, high
    // priority. The rest is batch work carrying the heavy tail.
    if (rng.uniform() < 0.20) {
      s.tenant = "interactive";
      s.priority = 5;
      s.frames = 4;
    } else {
      s.tenant = "batch";
      s.priority = 0;
      s.frames = sample_frames(rng);
      s.ncalc = ncalc_for(s.frames);
    }
    out.push_back(s);
    // Every 10th job spawns a closed-loop follow-up: same tenant, arrives
    // a think delay after its parent terminates.
    if (out.size() % 10 == 0 && out.size() < jobs) {
      JobShape follow = out.back();
      follow.chain_parent = static_cast<int>(out.size() - 1);
      follow.submit_s = 0.5 * interarrival_mean;  // think delay
      follow.frames = 4;
      follow.ncalc = 1;
      follow.seed = 0x2000 + out.size();
      out.push_back(follow);
    }
  }
  return out;
}

farm::JobSpec make_job(const JobShape& shape, std::size_t idx) {
  const sim::ScenarioParams p{
      .systems = 1, .particles_per_system = 40, .frames = shape.frames};
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

/// The whole stream under the policy, backfill and victim selection of
/// `opts`.
bench::ArrivalLeg run_leg(const std::vector<JobShape>& stream,
                         farm::FarmOptions opts) {
  cluster::ClusterSpec spec;
  spec.add(cluster::NodeType::generic(1.0, 4), 8);  // 32 slots
  opts.recv_timeout_s = 60.0;
  opts.preempt_interval = 4;  // 4-frame clips stay unpreemptible
  opts.keep_results = false;  // 10k framebuffers would not fit
  farm::Farm f(std::move(spec), opts);
  std::vector<farm::JobHandle> handles;
  handles.reserve(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    handles.push_back(f.submit(make_job(stream[i], i)));
  }
  const farm::Report r = f.run();

  bench::ArrivalLeg out;
  out.slo = bench::farm_slo(r);
  out.jobs_failed = r.jobs_failed;
  out.jobs_preempted = r.jobs_preempted;
  out.jobs_backfilled = r.jobs_backfilled;
  out.tenant_rank_s = r.tenant_rank_s;

  // Per-tenant SLOs, from the job records. Arrival instants: roots carry
  // theirs in the shape; closed-loop jobs arrive a think delay after the
  // parent's terminal instant.
  std::map<std::string, obs::Quantiles> waits, slows;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto& jr = handles[i].await();
    if (jr.state != farm::JobState::kDone) continue;
    double arrive = stream[i].submit_s;
    if (stream[i].chain_parent >= 0) {
      arrive = handles[static_cast<std::size_t>(stream[i].chain_parent)]
                   .await()
                   .finish_s +
               stream[i].submit_s;
    }
    waits[stream[i].tenant].observe(jr.start_s - arrive);
    if (jr.standalone_makespan_s > 0.0) {
      slows[stream[i].tenant].observe((jr.finish_s - arrive) /
                                      jr.standalone_makespan_s);
    }
    out.preemption_events += jr.preemptions;
    if (jr.migrated) ++out.migrations;
  }
  for (auto& [tenant, q] : waits) {
    out.tenants[tenant] = {q.count(), q.quantile(0.5), q.quantile(0.99),
                           slows[tenant].quantile(0.99)};
  }
  return out;
}

void add_rows(bench::Record& rec, const std::string& leg,
              const bench::ArrivalLeg& l) {
  bench::add_rows(rec, leg, l.slo);
  rec.add(leg, "jobs_failed", l.jobs_failed, "count");
  rec.add(leg, "jobs_preempted", l.jobs_preempted, "count");
  rec.add(leg, "jobs_backfilled", l.jobs_backfilled, "count");
  rec.add(leg, "preemption_events", l.preemption_events, "count");
  rec.add(leg, "migrations", l.migrations, "count");
  for (const auto& [tenant, t] : l.tenants) {
    const std::string tleg = leg + "/" + tenant;
    rec.add(tleg, "jobs", t.jobs, "count");
    rec.add(tleg, "wait_p50_s", t.wait_p50_s, "s");
    rec.add(tleg, "wait_p99_s", t.wait_p99_s, "s");
    rec.add(tleg, "slowdown_p99", t.slowdown_p99, "ratio");
  }
  for (const auto& [tenant, rank_s] : l.tenant_rank_s) {
    rec.add(leg + "/" + tenant, "tenant_rank_s", rank_s, "s");
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  const char* out_path = "BENCH_PR10_FARM.json";
  std::size_t jobs_override = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) full = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs_override = static_cast<std::size_t>(std::atol(argv[++i]));
    }
  }
  const std::size_t jobs = jobs_override ? jobs_override : (full ? 10'000 : 300);

  // Calibrate the arrival rate from one standalone probe per job class so
  // offered load stays ~0.9 across cost-model changes. Expected
  // rank-seconds per arrival is the class mix (20% interactive 4f/w3;
  // batch 80/15/4/1% over 4f/w3, 12f/w3, 40f/w5, 120f/w8; every 10th job
  // spawns a 4f/w3 closed-loop follow-up, so 1/11 of all jobs are that
  // class) dotted with each class's measured duration x world.
  struct Probe {
    std::uint32_t frames;
    int ncalc;
    double weight;  // fraction of all jobs in this class
  };
  const double root = 10.0 / 11.0;  // non-follow-up fraction
  const Probe classes[] = {
      {4, 1, root * (0.20 + 0.80 * 0.80) + (1.0 - root)},
      {12, 1, root * 0.80 * 0.15},
      {40, 3, root * 0.80 * 0.04},
      {120, 6, root * 0.80 * 0.01},
  };
  cluster::ClusterSpec probe_cluster;
  probe_cluster.add(cluster::NodeType::generic(1.0, 4), 8);
  double rank_s_per_job = 0.0;
  for (const auto& c : classes) {
    const JobShape shape{.tenant = "probe", .frames = c.frames,
                         .ncalc = c.ncalc};
    const int world = c.ncalc + 2;
    const auto assign =
        farm::assign_slots(probe_cluster, std::vector<int>(8, 4), world);
    const double dur =
        farm::standalone_run(make_job(shape, 0), assign).animation_s;
    rank_s_per_job += c.weight * dur * static_cast<double>(world);
    std::printf("probe %3uf/w%d: %.6f virtual s (weight %.4f)\n", c.frames,
                world, dur, c.weight);
  }
  const double interarrival = rank_s_per_job / (32.0 * 0.9);
  std::printf("expected %.6f rank-s/job -> interarrival %.6f s\n",
              rank_s_per_job, interarrival);

  const auto stream = make_stream(jobs, interarrival);
  std::size_t n_interactive = 0;
  for (const auto& s : stream) n_interactive += s.tenant == "interactive";
  std::printf("stream: %zu jobs (%zu interactive, %zu batch)\n",
              stream.size(), n_interactive, stream.size() - n_interactive);

  farm::FarmOptions fifo, prio, bf, bfc;
  prio.policy = bf.policy = bfc.policy = farm::Policy::kPriority;
  bf.easy_backfill = bfc.easy_backfill = true;
  bfc.victim_selection = farm::VictimSelection::kCostAware;
  const std::pair<const char*, farm::FarmOptions> legs[] = {
      {"fifo", fifo}, {"priority", prio}, {"priority_rerun", prio},
      {"backfill", bf}, {"backfill_costaware", bfc},
      {"backfill_costaware_rerun", bfc}};
  std::map<std::string, bench::ArrivalLeg> out;
  bench::Record rec("farm_arrivals");
  rec.add("stream", "jobs", stream.size(), "count");
  rec.add("stream", "slots", 32, "count");
  rec.add("stream", "interarrival_mean_s", interarrival, "s");
  for (const auto& [name, cfg] : legs) {
    const bench::ArrivalLeg& l = out[name] = run_leg(stream, cfg);
    std::printf("%-24s makespan=%.3f done=%zu preempted=%zu backfilled=%zu "
                "events=%ld migrations=%ld | wait p99=%.4f\n",
                name, l.slo.makespan_s, l.slo.jobs_done, l.jobs_preempted,
                l.jobs_backfilled, l.preemption_events, l.migrations,
                l.slo.wait_p99_s);
    for (const auto& [tenant, t] : l.tenants) {
      std::printf("  %-12s jobs=%zu wait p99=%.4f\n", tenant.c_str(), t.jobs,
                  t.wait_p99_s);
    }
    add_rows(rec, name, l);
  }
  const double fifo_mk = out["fifo"].slo.makespan_s;
  std::printf("batch makespan stretch vs fifo: strict %.2fx -> backfill "
              "%.2fx (costaware %.2fx)\n",
              out["priority"].slo.makespan_s / fifo_mk,
              out["backfill"].slo.makespan_s / fifo_mk,
              out["backfill_costaware"].slo.makespan_s / fifo_mk);

  if (!rec.write(out_path)) return 2;
  return bench::report(bench::check_arrivals(out, stream.size()));
}
