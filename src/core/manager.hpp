#pragma once

// The manager process (§3.1.1): creates every particle, scatters them to
// calculators by domain, and runs the load-balancing evaluation each
// frame. It owns the authoritative copy of every system's decomposition.

#include <memory>
#include <vector>

#include "core/decomposition.hpp"
#include "core/frame_loop.hpp"
#include "core/wire.hpp"
#include "math/rng.hpp"
#include "mp/communicator.hpp"
#include "obs/role_tracer.hpp"
#include "trace/telemetry.hpp"

namespace psanim::core {

class Manager {
 public:
  Manager(const SimSettings& settings, const Scene& scene, RoleEnv env,
          std::vector<double> calc_powers);

  /// Execute all frames; called from the manager rank's thread.
  void run(mp::Endpoint& ep);

  const trace::Telemetry& telemetry() const { return tel_; }
  /// Decompositions after the last frame (diagnostics / tests).
  const std::vector<Decomposition>& decompositions() const { return decomps_; }

 private:
  void create_and_scatter(mp::Endpoint& ep, std::uint32_t frame);
  void balance(mp::Endpoint& ep, std::uint32_t frame);
  /// Consume obituaries of calculators whose crash frame is `frame` and
  /// run the policy's recovery: restart-from-checkpoint (returns true,
  /// `frame` rewound to the snapshot successor) or domain merge.
  bool handle_crashes(mp::Endpoint& ep, std::uint32_t& frame);
  /// Merge each dead domain into its nearest surviving neighbor
  /// (ascending; PR-1 degradation path).
  void merge_crashed(mp::Endpoint& ep, std::uint32_t frame,
                     const std::vector<int>& dead);
  /// Coordinated snapshot: capture own state, collect every participant's
  /// digest and seal the frame's manifest in the vault.
  void checkpoint_phase(mp::Endpoint& ep, std::uint32_t frame);
  /// Restore own vault image for snapshot frame `f0`.
  void restore(mp::Endpoint& ep, std::uint32_t f0);
  /// Recompute alive_/alive_list_ for the start of `frame`.
  void refresh_membership(std::uint32_t frame);
  /// Protocol receive with the per-phase deadline from SimSettings.
  mp::Message recv_p(mp::Endpoint& ep, int src, int tag) {
    return ep.recv_within(src, tag, set_.phase_timeout_s);
  }

  const SimSettings& set_;
  const Scene& scene_;
  RoleEnv env_;
  std::vector<double> calc_powers_;  ///< a-priori power weight per calculator
  std::vector<Decomposition> decomps_;
  /// One policy instance per system: pair-alternation state is
  /// per-system, matching the paper's per-system evaluation.
  std::vector<std::unique_ptr<lb::LoadBalancer>> policies_;
  Rng base_rng_;
  trace::Telemetry tel_;
  /// Calculators still running at the current frame (crash recovery).
  std::vector<char> alive_;
  std::vector<int> alive_list_;
  /// Crashes already handled (by calculator index) — replayed frames must
  /// not re-consume an obituary or re-run a recovery.
  std::vector<char> crash_done_;
  /// Observability: this rank's spans/instants and metric updates.
  obs::RoleTracer tr_;
  obs::ManagerMetrics metrics_;
};

}  // namespace psanim::core
