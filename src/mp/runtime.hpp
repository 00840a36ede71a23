#pragma once

// Runtime: executes one body per model rank and joins them all — run()
// does not return while any rank lives. Exceptions thrown by process
// bodies are captured and the first one (by rank) is rethrown to the
// caller.
//
// Two execution cores share that contract:
//
//  * kFibers (default) — a cooperative scheduler: a small pool of worker
//    threads (RuntimeOptions::workers, default hardware concurrency)
//    drives every rank as a suspended stackful fiber. Blocking receives
//    yield into the scheduler instead of parking an OS thread, so worlds
//    of thousands of ranks run on a laptop without a kernel
//    context-switch storm. See mp/fiber.hpp for the determinism and
//    deadlock-detection story.
//  * kThreads — the original thread-per-rank core, kept as a
//    differential-testing oracle (the golden corpus is checked under
//    both). It refuses worlds beyond kMaxThreadRanks, where spawning one
//    OS thread per rank stops being viable.
//
// Results are bit-identical between the two cores and across worker
// counts: everything observable is virtual-time arithmetic over the
// mailbox's (arrive_time, src, seq) order, which no scheduler choice can
// perturb.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mp/communicator.hpp"
#include "mp/mailbox.hpp"

namespace psanim::mp {

/// Final state of one process after a run.
struct ProcessResult {
  int rank = 0;
  double finish_time = 0.0;  ///< virtual clock at body return
  double compute_s = 0.0;
  double comm_s = 0.0;
  double wait_s = 0.0;
  /// Times this rank's role died and was respawned from a checkpoint.
  std::uint32_t restarts = 0;
  TrafficStats traffic;
};

class ContentionHook;
class FaultHook;
class TraceHook;
class FiberScheduler;

/// Which execution core drives the ranks.
enum class ExecMode {
  /// Resolve from the PSANIM_EXEC_MODE environment variable ("fibers" |
  /// "threads"); kFibers when unset. CI's differential legs flip the env
  /// var without touching call sites.
  kDefault,
  kFibers,
  kThreads,
};

struct RuntimeOptions {
  /// Wall-clock receive timeout; protocol deadlocks fail loudly instead of
  /// hanging forever. Tests lower this. Under kFibers the deadline also
  /// orders the scheduler's deadlock-victim election (see mp/fiber.hpp).
  double recv_timeout_s = 60.0;
  /// Optional delivery/compute fault hook (not owned; must outlive the
  /// runtime). Null means a perfectly reliable cluster.
  FaultHook* fault = nullptr;
  /// Optional message-trace hook (not owned; must outlive the runtime).
  /// Null means no per-message observability.
  TraceHook* trace = nullptr;
  /// Optional shared-link contention hook (not owned; must outlive the
  /// runtime). Null means contention-free links, as on a platform with
  /// no shared link (the flat zone).
  ContentionHook* contention = nullptr;
  /// Execution core; see ExecMode.
  ExecMode exec_mode = ExecMode::kDefault;
  /// Worker threads driving the fiber scheduler; <= 0 means hardware
  /// concurrency (and is clamped to the world size). Ignored by kThreads.
  int workers = 0;
  /// Per-fiber stack bytes; 0 picks default_fiber_stack_bytes(). Ignored
  /// by kThreads.
  std::size_t fiber_stack_bytes = 0;
};

class Runtime {
 public:
  /// Hard ceiling for the thread-per-rank oracle: beyond this, one OS
  /// thread per rank is the scaling bug the fiber core exists to fix, so
  /// kThreads refuses instead of melting the host.
  static constexpr int kMaxThreadRanks = 256;

  Runtime(int world_size, LinkCostFn cost_fn,
          RuntimeOptions options = RuntimeOptions{});

  int world_size() const { return world_size_; }
  const RuntimeOptions& options() const { return options_; }

  /// The core run() will use: options().exec_mode with kDefault resolved
  /// through PSANIM_EXEC_MODE (kFibers when unset).
  ExecMode resolved_exec_mode() const;

  /// Execute `body(endpoint)` on every rank concurrently; blocks until all
  /// ranks return, then rethrows the lowest-rank exception if any.
  /// Returns per-rank results ordered by rank.
  std::vector<ProcessResult> run(
      const std::function<void(Endpoint&)>& body);

  // --- used by Endpoint ---
  Mailbox& mailbox(int rank) { return *mailboxes_.at(static_cast<std::size_t>(rank)); }
  /// Blocking receive for `rank`: routed to the fiber scheduler's yield
  /// point when one is driving this run, to the mailbox's condition
  /// variable otherwise. `vnow` is the caller's virtual clock (ready-queue
  /// ordering; unused by the threaded path).
  Message pop_match_blocking(int rank, int src, int tag, double timeout_s,
                             double vnow);
  MsgCost message_cost(int src, int dst, std::size_t wire_bytes) const {
    return cost_fn_(src, dst, wire_bytes);
  }
  std::uint64_t next_seq() { return seq_.fetch_add(1, std::memory_order_relaxed); }

  /// Per-(src, dst) last virtual arrival, enforcing MPI's non-overtaking
  /// guarantee: a later message on the same ordered pair never arrives
  /// before an earlier one, even if it is much smaller. Only the src
  /// rank's execution context touches row src.
  double& last_arrival(int src, int dst) {
    return last_arrival_[static_cast<std::size_t>(src) *
                             static_cast<std::size_t>(world_size_) +
                         static_cast<std::size_t>(dst)];
  }

 private:
  std::vector<ProcessResult> run_threads(
      const std::function<void(Endpoint&)>& body);
  std::vector<ProcessResult> run_fibers(
      const std::function<void(Endpoint&)>& body);

  int world_size_;
  LinkCostFn cost_fn_;
  RuntimeOptions options_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<double> last_arrival_;
  std::atomic<std::uint64_t> seq_{0};
  /// Non-null exactly while run_fibers is driving ranks.
  FiberScheduler* sched_ = nullptr;
};

}  // namespace psanim::mp
