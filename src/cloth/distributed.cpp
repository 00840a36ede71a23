#include "cloth/distributed.hpp"

#include <algorithm>

#include "mp/message.hpp"

namespace psanim::cloth {

namespace {

constexpr int kTagGhost = 200;
constexpr int kTagGather = 201;
/// Bend springs reach two columns deep.
constexpr int kGhostDepth = 2;

static_assert(std::is_trivially_copyable_v<ClothNode>,
              "ghost columns travel as raw bytes");

/// Pack columns [lo, hi) of the mesh.
mp::Writer pack_columns(const ClothMesh& mesh, int lo, int hi) {
  mp::Writer w;
  w.put<std::int32_t>(lo);
  w.put<std::int32_t>(hi);
  std::vector<ClothNode> nodes;
  nodes.reserve(static_cast<std::size_t>(mesh.rows()) *
                static_cast<std::size_t>(std::max(0, hi - lo)));
  for (int c = lo; c < hi; ++c) {
    for (int r = 0; r < mesh.rows(); ++r) {
      nodes.push_back(mesh.node(r, c));
    }
  }
  w.put_vector(nodes);
  return w;
}

void unpack_columns(ClothMesh& mesh, const mp::Message& m) {
  mp::Reader rd(m);
  const int lo = rd.get<std::int32_t>();
  const int hi = rd.get<std::int32_t>();
  const auto nodes = rd.get_vector<ClothNode>();
  std::size_t i = 0;
  for (int c = lo; c < hi; ++c) {
    for (int r = 0; r < mesh.rows(); ++r) {
      mesh.node(r, c) = nodes.at(i++);
    }
  }
}

}  // namespace

std::pair<int, int> column_range(int cols, int rank, int nranks) {
  const int base = cols / nranks;
  const int rem = cols % nranks;
  const int lo = rank * base + std::min(rank, rem);
  const int hi = lo + base + (rank < rem ? 1 : 0);
  return {lo, hi};
}

ClothSeqResult run_cloth_sequential(const ClothMesh& initial, int steps,
                                    float dt,
                                    std::vector<psys::DomainPtr> obstacles,
                                    double rate,
                                    const ClothCostModel& cloth_cost) {
  ClothSeqResult result{0.0, initial};
  for (int s = 0; s < steps; ++s) {
    step_sequential(result.final_state, dt, obstacles);
    const auto n = static_cast<double>(result.final_state.node_count());
    result.sim_seconds +=
        (n * static_cast<double>(stencil_size()) * cloth_cost.spring_cost +
         n * cloth_cost.integrate_cost) /
        rate;
  }
  return result;
}

ClothRunResult run_cloth_parallel(const ClothMesh& initial, int steps,
                                  float dt,
                                  std::vector<psys::DomainPtr> obstacles,
                                  int ncalc,
                                  const cluster::ClusterSpec& spec,
                                  const cluster::Placement& placement,
                                  const cluster::CostModel& cost,
                                  const ClothCostModel& cloth_cost) {
  if (placement.world_size() != ncalc) {
    throw std::invalid_argument(
        "run_cloth_parallel: placement must cover exactly the calculators");
  }
  const platform::Platform plat = cluster::make_platform(spec, spec.platform);
  mp::Runtime rt(ncalc,
                 cluster::make_link_cost_fn(spec, placement, cost, plat));
  const auto rates = cluster::rank_rates(spec, placement, cost.smp_contention);

  // Rank 0 assembles the final mesh here after the gather.
  ClothMesh assembled = initial;

  const auto procs = rt.run([&](mp::Endpoint& ep) {
    const int rank = ep.rank();
    const double rate = rates.at(static_cast<std::size_t>(rank));
    const auto [c0, c1] = column_range(initial.cols(), rank, ncalc);
    ClothMesh mesh = initial;  // full array; only [c0, c1) is authoritative

    const int left = rank - 1;
    const int right = rank + 1;

    std::vector<Vec3> forces(
        static_cast<std::size_t>(mesh.rows()) *
        static_cast<std::size_t>(std::max(0, c1 - c0)));

    const NodeAccessor read = [&](int r, int c)
        -> std::optional<std::pair<Vec3, Vec3>> {
      if (!mesh.in_grid(r, c)) return std::nullopt;
      const ClothNode& n = mesh.node(r, c);
      return std::make_pair(n.pos, n.vel);
    };

    for (int step = 0; step < steps; ++step) {
      // Ghost exchange: boundary columns to each neighbor, theirs back.
      const int send_left_hi = std::min(c1, c0 + kGhostDepth);
      const int send_right_lo = std::max(c0, c1 - kGhostDepth);
      if (left >= 0) {
        ep.charge((send_left_hi - c0) * mesh.rows() * cloth_cost.pack_cost /
                  rate);
        ep.send(left, kTagGhost, pack_columns(mesh, c0, send_left_hi));
      }
      if (right < ncalc) {
        ep.charge((c1 - send_right_lo) * mesh.rows() * cloth_cost.pack_cost /
                  rate);
        ep.send(right, kTagGhost, pack_columns(mesh, send_right_lo, c1));
      }
      if (left >= 0) unpack_columns(mesh, ep.recv(left, kTagGhost));
      if (right < ncalc) unpack_columns(mesh, ep.recv(right, kTagGhost));

      // Forces for owned columns from the start-of-step snapshot.
      for (int c = c0; c < c1; ++c) {
        for (int r = 0; r < mesh.rows(); ++r) {
          const ClothNode& n = mesh.node(r, c);
          forces[static_cast<std::size_t>(c - c0) *
                     static_cast<std::size_t>(mesh.rows()) +
                 static_cast<std::size_t>(r)] =
              node_force(mesh.params(), n.pos, n.vel, n.mass, r, c, read);
        }
      }
      const auto owned = static_cast<double>((c1 - c0) * mesh.rows());
      ep.charge(owned * static_cast<double>(stencil_size()) *
                cloth_cost.spring_cost / rate);

      // Integrate owned nodes.
      for (int c = c0; c < c1; ++c) {
        for (int r = 0; r < mesh.rows(); ++r) {
          ClothNode& n = mesh.node(r, c);
          if (n.pinned) continue;
          n.vel += forces[static_cast<std::size_t>(c - c0) *
                              static_cast<std::size_t>(mesh.rows()) +
                          static_cast<std::size_t>(r)] *
                   (dt / n.mass);
          n.pos += n.vel * dt;
          for (const auto& obstacle : obstacles) {
            resolve_obstacle(*obstacle, n.pos, n.vel);
          }
        }
      }
      ep.charge(owned * cloth_cost.integrate_cost / rate);
    }

    // Gather the owned columns at rank 0.
    if (rank != 0) {
      ep.send(0, kTagGather, pack_columns(mesh, c0, c1));
    } else {
      for (int c = c0; c < c1; ++c) {
        for (int r = 0; r < mesh.rows(); ++r) {
          assembled.node(r, c) = mesh.node(r, c);
        }
      }
      for (int src = 1; src < ncalc; ++src) {
        unpack_columns(assembled, ep.recv(src, kTagGather));
      }
    }
  });

  ClothRunResult result{0.0, std::move(assembled), procs};
  for (const auto& p : procs) {
    result.sim_seconds = std::max(result.sim_seconds, p.finish_time);
  }
  return result;
}

}  // namespace psanim::cloth
