// Ablation — interconnect sweep. The paper evaluates Myrinet and
// Fast-Ethernet; Gigabit Ethernet (its related-work machines used it) sits
// between. Both workloads, 8 calculators, FS-DLB, GCC, E800 nodes.
//
// Expected shape: snow (little exchange) degrades mildly from Myrinet to
// Fast-Ethernet; fountain (7x the exchange volume) degrades hard — the
// §5.3 conclusion that DLB needs a high-speed network.
//
// A second sweep re-runs the Table-2 heterogeneous mix (2*B(4P) + 2*C(2P),
// Fast-Ethernet + ICC) under zone platforms — crossbar, slim fat-tree,
// WAN-partitioned — against the flat zone, the paper's per-pair network.
// The explicit "flat" leg must reproduce the default run (no platform
// named) bit-exactly (the sweep harness itself may not perturb results);
// the zone legs show what shared-link contention and long-haul uplinks
// cost the same workload.

#include <cstdlib>

#include "bench/bench_util.hpp"

int main(int argc, char** argv) {
  using namespace psanim;
  const auto args = bench::BenchArgs::parse(argc, argv);
  args.print_header("Ablation: interconnect sweep (snow vs fountain)");

  const core::SimSettings settings = args.settings();
  const core::Scene snow = sim::make_snow_scene(args.scenario);
  const core::Scene fountain = sim::make_fountain_scene(args.scenario);

  trace::Table t({"Network", "snow speedup", "fountain speedup",
                  "fountain/snow"});
  for (const auto net :
       {net::Interconnect::kMyrinet, net::Interconnect::kGigabitEthernet,
        net::Interconnect::kFastEthernet}) {
    auto cfg = bench::e800_row(8, 8, core::SpaceMode::kFinite,
                               core::LbMode::kDynamicPairwise);
    cfg.network = net;
    const auto rs = sim::run_speedup(snow, settings, cfg);
    const auto rf = sim::run_speedup(fountain, settings, cfg);
    t.add_row({net::to_string(net), trace::Table::num(rs.speedup),
               trace::Table::num(rf.speedup),
               trace::Table::num(rs.speedup > 0 ? rf.speedup / rs.speedup
                                                : 0.0)});
  }
  bench::print_table(t);

  // --- zone-platform sweep on the Table-2 hetero mix -------------------
  auto hetero = [&] {
    sim::RunConfig cfg;
    cfg.groups = {{cluster::NodeType::e800(), 2, 4},
                  {cluster::NodeType::zx2000(), 2, 2}};
    cfg.network = net::Interconnect::kFastEthernet;
    cfg.compiler = cluster::Compiler::kIcc;
    cfg.space = core::SpaceMode::kFinite;
    cfg.lb = core::LbMode::kDynamicPairwise;
    cfg.baseline_node = cluster::NodeType::zx2000();
    return cfg;
  }();
  const double seq_s = sim::measure_sequential(snow, settings, hetero);
  // The default run: no platform named, so the spec's flat zone.
  const auto by_default = sim::run_speedup(snow, settings, hetero, seq_s);

  std::printf("Platform sweep: table-2 hetero mix (%s), snow\n",
              hetero.label().c_str());
  trace::Table pt({"Platform", "makespan s", "speedup", "vs flat"});
  for (const char* plat :
       {"flat", "crossbar", "fattree-slim", "wan2"}) {
    auto cfg = hetero;
    cfg.platform = plat;
    const auto r = sim::run_speedup(snow, settings, cfg, seq_s);
    if (std::string(plat) == "flat" &&
        (r.parallel.animation_s != by_default.parallel.animation_s ||
         r.speedup != by_default.speedup)) {
      std::fprintf(stderr,
                   "FATAL: flat platform leg drifted from the default run "
                   "(%.17g != %.17g)\n",
                   r.parallel.animation_s, by_default.parallel.animation_s);
      return 1;
    }
    pt.add_row({plat, trace::Table::num(r.parallel.animation_s),
                trace::Table::num(r.speedup),
                trace::Table::num(r.parallel.animation_s /
                                  by_default.parallel.animation_s)});
  }
  bench::print_table(pt);
  return 0;
}
