#include "cluster/cost_model.hpp"

#include <cmath>
#include <utility>

#include "platform/parse.hpp"

namespace psanim::cluster {

double CostModel::host_overhead_s(net::Interconnect ic) const {
  switch (ic) {
    case net::Interconnect::kLoopback: return 0.5e-6;
    case net::Interconnect::kMyrinet: return 3e-6;        // user-level GM
    case net::Interconnect::kGigabitEthernet: return 40e-6;
    // Kernel TCP on a 2001 Fast-Ethernet stack: syscall + checksum +
    // copies; ~120 us per message on the reference PIII.
    case net::Interconnect::kFastEthernet: return 120e-6;
    case net::Interconnect::kCustom: return 10e-6;
  }
  return 10e-6;
}

double CostModel::host_bandwidth_bps(net::Interconnect ic) const {
  switch (ic) {
    case net::Interconnect::kLoopback: return 800e6;
    case net::Interconnect::kMyrinet: return 500e6;  // zero-copy GM DMA
    case net::Interconnect::kGigabitEthernet: return 100e6;
    case net::Interconnect::kFastEthernet: return 60e6;  // TCP copies
    case net::Interconnect::kCustom: return 200e6;
  }
  return 200e6;
}

double CostModel::sort_s(std::size_t n, double rate) const {
  if (n < 2) return 0.0;
  const auto dn = static_cast<double>(n);
  return sort_cost * dn * std::log2(dn) / rate;
}

platform::Platform make_platform(const ClusterSpec& spec,
                                 const std::string& desc) {
  const std::string& named = platform::is_flat(desc) ? spec.platform : desc;
  if (!platform::is_flat(named)) {
    return platform::parse(named, spec.node_count());
  }
  std::vector<net::NicSet> nics;
  nics.reserve(spec.node_count());
  for (const auto& n : spec.nodes) nics.push_back(n.nics);
  return platform::Platform::flat(std::move(nics), spec.preferred);
}

mp::LinkCostFn make_link_cost_fn(const ClusterSpec& spec,
                                 const Placement& placement,
                                 const CostModel& cost,
                                 const platform::Platform& platform) {
  const auto rates = rank_rates(spec, placement, cost.smp_contention);
  const auto node_of = placement.node_of_rank;
  const CostModel cm = cost;
  const platform::Platform* plat = &platform;

  return [rates, node_of, cm, plat](int src, int dst,
                                    std::size_t bytes) -> mp::MsgCost {
    const auto sn =
        static_cast<std::size_t>(node_of.at(static_cast<std::size_t>(src)));
    const auto dn =
        static_cast<std::size_t>(node_of.at(static_cast<std::size_t>(dst)));
    double wire_s = 0.0;
    net::Interconnect src_kind, dst_kind;
    if (sn == dn) {
      const auto lb = net::LinkModel::loopback();
      wire_s = lb.cost_s(bytes);
      src_kind = dst_kind = lb.kind;
    } else {
      const auto w = plat->wire(sn, dn);
      wire_s = w.latency_s + static_cast<double>(bytes) / w.bottleneck_bps;
      src_kind = w.src_kind;
      dst_kind = w.dst_kind;
    }
    const double send_host =
        cm.host_overhead_s(src_kind) +
        static_cast<double>(bytes) / cm.host_bandwidth_bps(src_kind);
    const double recv_host =
        cm.host_overhead_s(dst_kind) +
        static_cast<double>(bytes) / cm.host_bandwidth_bps(dst_kind);
    return mp::MsgCost{
        .send_cpu_s = send_host / rates.at(static_cast<std::size_t>(src)),
        .wire_s = wire_s,
        .recv_cpu_s = recv_host / rates.at(static_cast<std::size_t>(dst)),
    };
  };
}

}  // namespace psanim::cluster
