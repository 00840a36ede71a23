// farm_throughput: FIFO vs SJF over a jobs x nodes sweep on the shared
// virtual cluster, writing BENCH_PR8_FARM.json in the bench record format
// (bench/record.hpp).
//
// Every scenario runs the identical job mix under both policies; all
// reported times are *virtual* (farm DES time), so the numbers are
// bit-reproducible across hosts and runs. Besides the mean-level columns,
// every policy carries the scheduler SLO distribution from farm::Report —
// exact-sample p50/p95/p99 of wait, p99 turnaround, p50/p99 slowdown, and
// the peak queue depth. The headline scenario ("hetero_strand") is the
// case where queue discipline changes makespan on a heterogeneous cluster:
// FIFO dispatches the long job immediately — onto the slow node, the only
// one free — while SJF keeps it queued behind the shorts and it lands on
// the fast node, cutting the farm makespan.
//
// Gates: bench::check_sjf (bench/gates.hpp) — sane percentiles, SJF's p99
// wait within FIFO's makespan and, on hetero_strand and serial_quad, SJF's
// makespan at most FIFO's; exit 1 on a violation.
//
// Usage: farm_throughput [--full] [--verbose] [--out BENCH_PR8_FARM.json]

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/gates.hpp"
#include "cluster/cluster_spec.hpp"
#include "farm/farm.hpp"
#include "farm/job.hpp"
#include "sim/scenario.hpp"

using namespace psanim;

namespace {

struct JobShape {
  std::string name;
  std::string scene;  // "snow" | "fountain"
  int ncalc;
  std::uint32_t frames;
  std::uint64_t seed;
};

struct Scenario {
  std::string name;
  cluster::ClusterSpec spec;
  std::vector<JobShape> jobs;
  bool assert_sjf_le_fifo = false;
};

farm::JobSpec make_job(const JobShape& shape, std::size_t scale_particles) {
  const sim::ScenarioParams p{.systems = 2,
                              .particles_per_system = scale_particles,
                              .frames = shape.frames};
  farm::JobSpec j;
  j.name = shape.name;
  j.scene = shape.scene == "snow" ? sim::make_snow_scene(p)
                                  : sim::make_fountain_scene(p);
  j.settings.ncalc = shape.ncalc;
  j.settings.frames = shape.frames;
  j.settings.seed = shape.seed;
  j.settings.image_width = 64;
  j.settings.image_height = 48;
  return j;
}

farm::Report run_policy(const Scenario& sc, farm::Policy policy,
                        std::size_t scale_particles, bool verbose) {
  farm::FarmOptions opts;
  opts.policy = policy;
  opts.recv_timeout_s = 60.0;
  farm::Farm f(sc.spec, opts);
  std::vector<farm::JobHandle> handles;
  for (const auto& shape : sc.jobs) {
    handles.push_back(f.submit(make_job(shape, scale_particles)));
  }
  farm::Report r = f.run();
  if (verbose) {
    for (auto& h : handles) {
      const auto& jr = h.await();
      std::printf("    [%s] %-8s start=%.6f finish=%.6f own=%.6f "
                  "stretch=%.4f nodes=",
                  to_string(policy).c_str(), h.name().c_str(), jr.start_s,
                  jr.finish_s, jr.standalone_makespan_s, jr.stretch);
      for (std::size_t k = 0; k < jr.assignment.shared_nodes.size(); ++k) {
        std::printf("%d:%d ", jr.assignment.shared_nodes[k],
                    jr.assignment.ranks_per_node[k]);
      }
      std::printf("\n");
    }
  }
  return r;
}

std::vector<Scenario> make_scenarios() {
  std::vector<Scenario> out;

  // The headline: one fast quad + one half-speed quad. Submit order is
  // adversarial for FIFO: a short job grabs the fast node at t=0, so the
  // long job is dispatched onto the slow node — doubling its service time,
  // and its finish IS the makespan. SJF ranks the long job last; by the
  // time the short queue drains the slow node is mid-short and the fast
  // node frees next, so the long job inherits the fast node. Enough shorts
  // are needed to cover the long job's wait — with too few, the slow node
  // frees first and work-conserving backfill strands the long job there
  // under SJF too (tried: 3 shorts lose, 5 win).
  {
    Scenario sc;
    sc.name = "hetero_strand";
    sc.spec.add(cluster::NodeType::generic(1.0, 4));
    sc.spec.add(cluster::NodeType::generic(0.5, 4));
    sc.jobs = {
        {"short0", "snow", 2, 4, 0xB0},
        {"long0", "fountain", 2, 36, 0xB1},
        {"short1", "snow", 2, 4, 0xB2},
        {"short2", "fountain", 2, 4, 0xB3},
        {"short3", "snow", 2, 4, 0xB4},
        {"short4", "fountain", 2, 4, 0xB5},
    };
    sc.assert_sjf_le_fifo = true;
    out.push_back(std::move(sc));
  }

  // Serial bottleneck: one quad node, jobs run one at a time. Work
  // conservation makes the makespans equal; SJF's win is flow time.
  {
    Scenario sc;
    sc.name = "serial_quad";
    sc.spec.add(cluster::NodeType::generic(1.0, 4));
    sc.jobs = {
        {"long0", "fountain", 2, 16, 0xC0},
        {"short0", "snow", 2, 4, 0xC1},
        {"short1", "snow", 2, 4, 0xC2},
        {"short2", "fountain", 2, 6, 0xC3},
    };
    sc.assert_sjf_le_fifo = true;
    out.push_back(std::move(sc));
  }

  // Wider mix: 6 heterogeneous nodes, 10 jobs of mixed widths/lengths,
  // several waves deep — exercises backfill, placement and the SMP
  // contention stretch together.
  {
    Scenario sc;
    sc.name = "mixed_cluster";
    sc.spec.add(cluster::NodeType::generic(1.0, 4), 2);
    sc.spec.add(cluster::NodeType::generic(0.7, 2), 2);
    sc.spec.add(cluster::NodeType::generic(0.5, 2), 2);
    for (int i = 0; i < 10; ++i) {
      sc.jobs.push_back({"mix" + std::to_string(i),
                         i % 2 ? "fountain" : "snow", 1 + (i % 2),
                         static_cast<std::uint32_t>(4 + 4 * (i % 3)),
                         0xD0 + static_cast<std::uint64_t>(i)});
    }
    out.push_back(std::move(sc));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  bool verbose = false;
  const char* out_path = "BENCH_PR8_FARM.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) full = true;
    if (std::strcmp(argv[i], "--verbose") == 0) verbose = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  const std::size_t scale_particles = full ? 20'000 : 600;

  bench::Record rec("farm_throughput");
  bench::Violations violations;
  for (const auto& sc : make_scenarios()) {
    const farm::Report fifo =
        run_policy(sc, farm::Policy::kFifo, scale_particles, verbose);
    const farm::Report sjf =
        run_policy(sc, farm::Policy::kSjf, scale_particles, verbose);
    int slots = 0;
    for (const auto& n : sc.spec.nodes) slots += n.cpus;

    std::printf("%-14s nodes=%zu slots=%d jobs=%zu | fifo makespan=%.6f "
                "flow=%.6f | sjf makespan=%.6f flow=%.6f\n",
                sc.name.c_str(), sc.spec.node_count(), slots, sc.jobs.size(),
                fifo.makespan_s, fifo.total_flow_s, sjf.makespan_s,
                sjf.total_flow_s);
    bench::check_sjf(violations, sc.name, bench::farm_slo(fifo),
                     bench::farm_slo(sjf), sc.assert_sjf_le_fifo);

    rec.add(sc.name, "nodes", sc.spec.node_count(), "count");
    rec.add(sc.name, "slots", slots, "count");
    rec.add(sc.name, "jobs", sc.jobs.size(), "count");
    rec.add(sc.name, "sjf_flow_improvement",
            fifo.total_flow_s > 0.0
                ? 1.0 - sjf.total_flow_s / fifo.total_flow_s
                : 0.0,
            "ratio");
    for (const auto& [policy, r] : {std::pair{"fifo", &fifo},
                                    std::pair{"sjf", &sjf}}) {
      const std::string leg = sc.name + "/" + policy;
      bench::add_rows(rec, leg, bench::farm_slo(*r));
      rec.add(leg, "total_flow_s", r->total_flow_s, "s");
      rec.add(leg, "mean_turnaround_s", r->mean_turnaround_s, "s");
    }
  }
  if (!rec.write(out_path)) return 2;
  return bench::report(violations);
}
