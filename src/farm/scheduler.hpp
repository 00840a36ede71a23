#pragma once

// psanim::farm::Scheduler — the farm's scheduling policy as a
// single-threaded, deterministic state machine over farm-virtual time.
//
// It owns every decision the farm's discrete-event simulation makes: the
// arrival heap and closed-loop releases, the wait queue (kept in policy
// order across passes), the slot ledger (free slots and resident ranks per
// shared node), running segments and their SMP contention stretch,
// preemption victims, EASY reservations and backfill, suspended jobs'
// restore records, and the fair-share service ledger. It takes no locks,
// starts no threads, writes no files and never runs a job. Farm::drive()
// feeds it events and applies its decisions to job results, the journal
// and the report — so a test can drive it from a synthetic duration table
// instead.
//
// Protocol, per scheduling instant:
//   arrive();                 admit the arrivals due by now()
//   cancel(seq);              for each job in queue() a handle cancelled
//   schedule();               one admission pass -> decisions + batch()
//   abort_launch(seq);        for each batch() launch that never ran
//                             (cancel won the claim, or the run threw) ...
//   launched(seq, ...);       ... then for each one that ran, in batch
//                             order; re-run the pass (arrive() onward)
//                             while any launch aborted
//   advance();                step to the next finish/vacate/arrival
// until idle().

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/policy.hpp"
#include "ckpt/vault.hpp"
#include "cluster/cluster_spec.hpp"
#include "farm/job.hpp"

namespace psanim::farm {

struct FarmOptions;

/// Per-shared-node usage over the whole farm run, fed by the shared node
/// clocks.
struct NodeUsage {
  int peak_ranks = 0;       ///< max resident ranks at any farm-virtual instant
  double busy_rank_s = 0.0; ///< integral of resident ranks over farm time
};

/// One thing the scheduler decided, in decision order.
struct Decision {
  enum class Kind {
    kVictim,    ///< mark `seq` to drain to `frame` and vacate for `blocked`
    kReserve,   ///< the blocked head `seq` is promised a start by `at`
    kBackfill,  ///< `seq` starts past the blocked head (kLaunch follows)
    kLaunch,    ///< start `seq`; its segment is in batch()
    kFinish,    ///< `seq` completed at `at`
    kVacate,    ///< `seq` sealed `frame`, freed its slots and is suspended
  };
  Kind kind = Kind::kLaunch;
  int seq = 0;
  double at = 0.0;          ///< decision instant; kReserve: the promise
  std::uint32_t frame = 0;  ///< kVictim/kVacate: the checkpoint frame
  int blocked = -1;         ///< kVictim: the job the eviction makes room for

  bool operator==(const Decision&) const = default;
};

/// One stint of a job on the shared cluster, from launch to finish or
/// vacate. A vacated segment is the job's suspended record (`resume` = the
/// sealed frame, `remaining_s` its exact leftover work, `assignment` the
/// grant a restore must match) until it relaunches as a restore.
struct Segment {
  int seq = 0;
  Assignment assignment;
  bool restore = false;   ///< resumes a suspended job from `resume`
  bool migrated = false;  ///< the restore landed on other shared nodes
  /// Checkpoint plumbing, set under a preemptive policy only: the vault
  /// that outlives the segment (farm-owned, or a non-owning alias of the
  /// tenant's own), the effective policy, and the frame it resumes from.
  std::shared_ptr<ckpt::Vault> vault;
  ckpt::CkptPolicy ckpt;
  std::optional<std::uint32_t> resume;
  double remaining_s = 0.0;  ///< suspended: virtual work past the vacate

  double start = 0.0;       ///< launch instant (farm time)
  double duration = 0.0;    ///< segment virtual makespan
  double progress = 0.0;    ///< segment virtual seconds completed
  double stretch = 1.0;     ///< current slowdown (>= 1)
  double next_at = 0.0;     ///< projected finish, or vacate if preempting
  bool preempting = false;  ///< marked; draining to preempt_frame
  std::uint32_t preempt_frame = 0;
  double vacate_progress = 0.0;  ///< segment virtual time of that frame
  /// (frame, completion virtual time) of every frame this segment
  /// executed, ascending — where candidate vacate points sit in time.
  std::vector<std::pair<std::uint32_t, double>> timeline;

  /// Segment virtual time at which the slots come back.
  double end() const { return preempting ? vacate_progress : duration; }
};

class Scheduler {
 public:
  /// `shared` and `options` must outlive the scheduler.
  Scheduler(const cluster::ClusterSpec& shared, const FarmOptions& options);

  /// Register the next submission (seq = submission order); `spec` must
  /// outlive the scheduler. A job with after_seq >= 0 arrives only once its
  /// predecessor terminates.
  void submit(const JobSpec& spec);

  void arrive();
  /// Drop a queued job; its closed-loop dependents are released now.
  void cancel(int seq);
  /// One admission pass in policy order. Returns victim, reservation,
  /// backfill and launch decisions; the launches' segments are batch().
  /// Incremental: the queue stays ordered between passes (fair-share
  /// re-sorts only after its ledger moved), and the scan stops once nothing
  /// left in the queue can start.
  std::vector<Decision> schedule();
  const std::vector<Segment>& batch() const { return batch_; }
  /// A batch launch ran: `duration` is its virtual makespan, `timeline`
  /// its (frame, completion time) pairs, ascending.
  void launched(int seq, double duration,
                std::vector<std::pair<std::uint32_t, double>> timeline);
  /// A batch launch never ran (or failed): its slots come back now.
  void abort_launch(int seq);
  /// Nothing running and nothing left to arrive.
  bool idle() const { return running_.empty() && arrivals_.empty(); }
  /// Advance the clock to the next event; returns its finishes and vacates.
  std::vector<Decision> advance();

  /// The policy's ordering key, lower runs first: SJF the estimate,
  /// priority its negation, fair-share the tenant's decayed service, FIFO
  /// 0. A running job may be evicted for a blocked one that ranks lower.
  double rank(int seq) const;
  double now() const { return now_; }
  double arrive_s(int seq) const { return job(seq).arrive_s; }
  const std::vector<int>& queue() const { return queue_; }
  const std::vector<int>& free_slots() const { return free_; }
  const std::vector<NodeUsage>& usage() const { return usage_; }
  const std::map<std::string, double>& tenant_rank_s() const {
    return tenant_used_;
  }

 private:
  struct Job {
    const JobSpec* spec = nullptr;
    double est = 0.0;       ///< SJF key and the backfill runtime proxy
    double arrive_s = 0.0;  ///< effective arrival; SLO waits measure here
    int preemptions = 0;
  };
  /// A known upper bound on when held slots come back: `ranks` slots, as
  /// the (node, ranks) pairs rel_slots_[first, first + count).
  struct Release {
    double at = 0.0;
    int seq = 0;
    int ranks = 0;
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    bool operator<(const Release& o) const {
      return at != o.at ? at < o.at : seq < o.seq;
    }
  };

  const Job& job(int seq) const { return jobs_[static_cast<std::size_t>(seq)]; }
  Job& job(int seq) { return jobs_[static_cast<std::size_t>(seq)]; }
  void release_dependents(int seq);
  /// Policy order: (rank, arrival, seq) ascending.
  bool before(int a, int b) const;
  /// Put `seq` in the queue at its place in policy order.
  void enqueue(int seq);
  double stretch(const Assignment& a, const std::vector<int>& resident) const;
  Release make_release(double at, int seq, const Assignment& a);
  void releases();
  double earliest_fit(int seq, std::vector<int>& sim_free,
                      const Release* extra) const;
  std::optional<std::pair<std::uint32_t, double>> pick_vacate(
      const Segment& s) const;
  void mark_victims(int blocked, int total_free, std::vector<Decision>& out);
  Segment take_from_batch(int seq);

  const cluster::ClusterSpec& shared_;
  const FarmOptions& opt_;
  bool preemptive_ = false;  ///< policy preempts and preempt_interval > 0
  double now_ = 0.0;
  std::vector<Job> jobs_;
  std::priority_queue<std::pair<double, int>,
                      std::vector<std::pair<double, int>>, std::greater<>>
      arrivals_;  ///< (arrival time, seq), earliest first
  std::map<int, std::vector<int>> dependents_;  ///< after_seq -> waiting
  /// Queued and suspended jobs in policy order (before()), except while
  /// order_stale_: fair-share ranks moved and the next pass re-sorts.
  std::vector<int> queue_;
  bool order_stale_ = false;
  std::vector<int> queued_worlds_;  ///< queue_ entries per world size
  std::vector<Segment> batch_;
  std::vector<Segment> running_;  ///< admission order
  std::map<int, Segment> suspended_;
  std::vector<int> cpus_;       ///< CPU slots per shared node
  std::vector<int> free_;       ///< the slot ledger: free CPU slots ...
  std::vector<int> occupancy_;  ///< ... and resident ranks, per node
  std::vector<NodeUsage> usage_;
  std::map<std::string, double> tenant_used_;
  /// kFairShare's view of tenant_used_: identical when
  /// fair_share.half_life_s <= 0, exponentially decayed otherwise.
  std::map<std::string, double> tenant_score_;
  /// Max observed (segment duration / est) over fresh launches — turns an
  /// estimate into a runtime upper bound for EASY cond-1. 0 until known.
  double est_ratio_max_ = 0.0;

  // Admission-pass scratch, reused across passes.
  std::vector<Release> rels_;  ///< sorted; valid while a head is reserved
  std::vector<std::pair<int, int>> rel_slots_;  ///< (node, ranks)
  std::vector<int> sim_free_;
  /// What a pass learned about one world size since its last launch. Until
  /// the next launch free_ and rels_ stand still, so both stay true.
  struct WorldMemo {
    std::optional<Assignment> grant;  ///< assign_slots(free_, world)
    /// Per release slot (how many of rels_ precede the candidate's release;
    /// rels_.size() + 1 for none), the earliest release instant that failed
    /// the EASY test; -1 while none has.
    std::vector<double> easy_failed;
  };
  std::vector<WorldMemo> worlds_;  ///< indexed by world size
};

}  // namespace psanim::farm
