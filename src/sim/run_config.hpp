#pragma once

// Experiment configuration: one row of a §5 table — which nodes run how
// many calculator processes, over which network, compiled how, under which
// space/balancing mode, and which machine the sequential baseline uses.

#include <string>
#include <vector>

#include "cluster/cluster_spec.hpp"
#include "cluster/placement.hpp"
#include "core/frame_loop.hpp"

namespace psanim::sim {

/// "4*B (8 P.)" — `procs` calculator processes spread over `nodes` nodes
/// of `type`.
struct NodeGroup {
  cluster::NodeType type;
  int nodes = 1;
  int procs = 1;
};

struct RunConfig {
  std::vector<NodeGroup> groups;
  net::Interconnect network = net::Interconnect::kMyrinet;
  cluster::Compiler compiler = cluster::Compiler::kGcc;
  core::SpaceMode space = core::SpaceMode::kFinite;
  core::LbMode lb = core::LbMode::kDynamicPairwise;
  /// Machine the sequential time is measured on (Table 1: E800+GCC,
  /// Table 2: Itanium+ICC — "the best performance" combination per table).
  cluster::NodeType baseline_node = cluster::NodeType::e800();
  /// Topology platform description (platform::parse form), forwarded into
  /// the built spec. Empty/"flat" = the flat zone, the paper's per-pair
  /// network.
  std::string platform;

  int total_procs() const {
    int n = 0;
    for (const auto& g : groups) n += g.procs;
    return n;
  }

  /// "8*B / 16 P." style label for table rows.
  std::string label() const;
};

/// Built cluster: node 0 hosts the manager, node 1 the image generator
/// (same type as the first group — the testbed always had spare nodes),
/// remaining nodes host calculators group by group, processes spread one
/// per node first within each group.
struct BuiltCluster {
  cluster::ClusterSpec spec;
  cluster::Placement placement;
  int ncalc = 0;
};

BuiltCluster build_cluster(const RunConfig& cfg);

/// Effective sequential rate of the baseline machine under the config's
/// compiler.
double baseline_rate(const RunConfig& cfg);

}  // namespace psanim::sim
