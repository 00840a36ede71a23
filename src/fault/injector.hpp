#pragma once

// Injector: executes a FaultPlan against the mp substrate. Implements
// mp::FaultHook; every per-message decision is hashed from
// (plan.seed, src, dst, tag, per-pair message counter), so the fault
// stream for a given plan is identical across runs regardless of thread
// scheduling. The per-pair counters are touched only by the sending
// rank's thread — the same safety argument as Runtime::last_arrival — and
// each fault note goes to the acting rank's obs recorder under the same
// rule (sender in on_send, receiver in on_duplicate_dropped).

#include <atomic>
#include <cstdint>
#include <string_view>
#include <vector>

#include "fault/fault_plan.hpp"
#include "mp/fault_hook.hpp"

namespace psanim::obs {
class Trace;
}

namespace psanim::fault {

/// Aggregate counters over one run, snapshot via Injector::stats().
struct FaultStats {
  std::uint64_t sends_inspected = 0;
  std::uint64_t drops = 0;  ///< lost transmissions (each one retransmitted)
  std::uint64_t duplicates = 0;
  std::uint64_t duplicates_discarded = 0;
  std::uint64_t delay_spikes = 0;
  std::uint64_t degraded_msgs = 0;
  /// Total extra wire seconds injected across all messages.
  double injected_delay_s = 0.0;

  /// How each calculator crash was recovered (filled in by the run
  /// driver, not the injector): restart-from-checkpoint vs. domain merge.
  std::uint64_t restart_recoveries = 0;
  std::uint64_t merge_recoveries = 0;

  std::uint64_t total_faults() const {
    return drops + duplicates + delay_spikes + degraded_msgs;
  }
};

class Injector final : public mp::FaultHook {
 public:
  /// `trace` (optional, not owned, already sized for `world_size`)
  /// receives one instant per injected fault, stamped with the acting
  /// rank's virtual time and current frame.
  Injector(FaultPlan plan, int world_size, obs::Trace* trace = nullptr);

  const FaultPlan& plan() const { return plan_; }
  FaultStats stats() const;

  mp::SendFaults on_send(int src, int dst, int tag, std::size_t wire_bytes,
                         double depart_s, double base_wire_s,
                         std::uint32_t frame) override;
  void on_duplicate_dropped(int rank, int src, double vtime,
                            std::uint32_t frame) override;
  double compute_factor(int rank, double vtime) const override;

 private:
  /// Record `label` as an instant on `rank`'s recorder (owner thread only;
  /// no-op without a trace).
  void note(int rank, double vtime, std::uint32_t frame,
            std::string_view label);

  FaultPlan plan_;
  int world_;
  obs::Trace* trace_;
  /// Messages sent so far per ordered (src, dst) pair; row src is only
  /// touched by rank src's thread.
  std::vector<std::uint64_t> pair_sends_;

  std::atomic<std::uint64_t> sends_inspected_{0};
  std::atomic<std::uint64_t> drops_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> duplicates_discarded_{0};
  std::atomic<std::uint64_t> delay_spikes_{0};
  std::atomic<std::uint64_t> degraded_msgs_{0};
  /// Nanoseconds, so the hot path needs no atomic<double> CAS loop.
  std::atomic<std::uint64_t> injected_delay_ns_{0};
};

}  // namespace psanim::fault
