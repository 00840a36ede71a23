#include "farm/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <tuple>

#include "farm/farm.hpp"

namespace psanim::farm {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Where frame `f` sits in a (frame, time) timeline; end() when absent.
auto find_frame(const std::vector<std::pair<std::uint32_t, double>>& tl,
                std::uint32_t f) {
  const auto it = std::lower_bound(
      tl.begin(), tl.end(), f,
      [](const auto& p, std::uint32_t v) { return p.first < v; });
  return it != tl.end() && it->first == f ? it : tl.end();
}

/// The slot ledger's one primitive: return (`sign` = +1) or take (-1) the
/// ranks held on each node to/from `free`, mirrored into `occupancy` for
/// the live ledger (simulated ledgers pass none).
void shift(std::vector<int>& free, const std::vector<int>& nodes,
           const std::vector<int>& ranks, int sign,
           std::vector<int>* occupancy = nullptr) {
  for (std::size_t k = 0; k < nodes.size(); ++k) {
    const auto n = static_cast<std::size_t>(nodes[k]);
    free[n] += sign * ranks[k];
    if (occupancy != nullptr) (*occupancy)[n] -= sign * ranks[k];
  }
}

}  // namespace

Scheduler::Scheduler(const cluster::ClusterSpec& shared,
                     const FarmOptions& options)
    : shared_(shared),
      opt_(options),
      preemptive_((options.policy == Policy::kPriority ||
                   options.policy == Policy::kFairShare) &&
                  options.preempt_interval > 0),
      occupancy_(shared.node_count(), 0),
      usage_(shared.node_count()) {
  for (const auto& n : shared.nodes) cpus_.push_back(n.cpus);
  free_ = cpus_;
}

void Scheduler::submit(const JobSpec& spec) {
  const int seq = static_cast<int>(jobs_.size());
  jobs_.push_back({&spec, estimate_virtual_cost(spec), spec.submit_time_s});
  if (spec.after_seq >= 0) {
    dependents_[spec.after_seq].push_back(seq);
  } else {
    arrivals_.emplace(spec.submit_time_s, seq);
  }
}

void Scheduler::arrive() {
  while (!arrivals_.empty() && arrivals_.top().first <= now_) {
    queue_.push_back(arrivals_.top().second);
    arrivals_.pop();
  }
}

void Scheduler::release_dependents(int seq) {
  const auto it = dependents_.find(seq);
  if (it == dependents_.end()) return;
  for (const int dep : it->second) {
    job(dep).arrive_s = now_ + job(dep).spec->submit_time_s;
    arrivals_.emplace(job(dep).arrive_s, dep);
  }
  dependents_.erase(it);
}

void Scheduler::cancel(int seq) {
  std::erase(queue_, seq);
  release_dependents(seq);
}

double Scheduler::rank(int seq) const {
  const Job& j = job(seq);
  switch (opt_.policy) {
    case Policy::kSjf:
      return j.est;
    case Policy::kPriority:
      return -static_cast<double>(j.spec->priority);
    case Policy::kFairShare: {
      const auto it = tenant_score_.find(j.spec->tenant);
      return it == tenant_score_.end() ? 0.0 : it->second;
    }
    case Policy::kFifo:
      break;
  }
  return 0.0;
}

// Contention stretch of an assignment when `resident[n]` ranks share node
// n. The in-job rate model already charges smp_contention when the job
// itself shares a node; the farm adds the penalty only when *neighbor*
// jobs turn an exclusive node into a shared one. Slots are never
// oversubscribed, so bus sharing is the whole contention. At
// resident = cpus_ this is the worst case: finish estimates taken there
// are upper bounds on the true release instants — the property that makes
// EASY reservations safe to backfill against.
double Scheduler::stretch(const Assignment& a,
                          const std::vector<int>& resident) const {
  const double smp = opt_.cost.smp_contention;
  if (!(smp > 0.0 && smp < 1.0)) return 1.0;
  for (std::size_t k = 0; k < a.shared_nodes.size(); ++k) {
    if (a.ranks_per_node[k] == 1 &&
        resident[static_cast<std::size_t>(a.shared_nodes[k])] > 1) {
      return 1.0 / smp;
    }
  }
  return 1.0;
}

// Running segments release their slots after their remaining work at
// worst-case stretch; marked victims at their vacate point. Jobs budgeted
// earlier in the same pass hold slots with *unknown* durations (learned
// only at launch), so they contribute no release — the reservation
// estimate errs late, never early.
std::vector<Scheduler::Release> Scheduler::releases() const {
  std::vector<Release> out;
  out.reserve(running_.size());
  for (const auto& r : running_) {
    out.push_back({now_ + std::max(0.0, r.end() - r.progress) *
                              stretch(r.assignment, cpus_),
                   r.seq, r.assignment.shared_nodes,
                   r.assignment.ranks_per_node});
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Earliest instant `seq` fits as `sim_free` grows by each release in turn;
// kInf when even every release is not enough.
double Scheduler::earliest_fit(int seq, std::vector<int> sim_free,
                               const std::vector<Release>& rels) const {
  const auto sit = suspended_.find(seq);
  const auto fits = [&] {
    if (sit != suspended_.end()) {
      return match_assignment(shared_, sim_free, sit->second.assignment)
          .has_value();
    }
    return job(seq).spec->world_size() <=
           std::accumulate(sim_free.begin(), sim_free.end(), 0);
  };
  if (fits()) return now_;
  for (const auto& rel : rels) {
    shift(sim_free, rel.nodes, rel.ranks, +1);
    if (fits()) return rel.at;
  }
  return kInf;
}

// The earliest checkpoint frame this segment has not yet passed: the job
// drains there (sealing that snapshot) and vacates. Jobs beyond their last
// snapshot frame finish naturally instead.
std::optional<std::pair<std::uint32_t, double>> Scheduler::pick_vacate(
    const Segment& s) const {
  const std::uint32_t frames = job(s.seq).spec->settings.frames;
  for (auto f = s.ckpt.next_snapshot_at_or_after(0, frames, s.resume); f;
       f = s.ckpt.next_snapshot_at_or_after(*f + 1, frames, s.resume)) {
    const auto it = find_frame(s.timeline, *f);
    if (it != s.timeline.end() && it->second >= s.progress) return *it;
  }
  return std::nullopt;
}

// Mark enough higher-ranked running jobs that, once they vacate, `blocked`
// fits. Never exceeds max_preemptions_per_job.
void Scheduler::mark_victims(int blocked, int total_free,
                             std::vector<Decision>& out) {
  const int needed = job(blocked).spec->world_size();
  int avail = total_free;
  for (const auto& r : running_) {
    if (r.preempting) avail += r.assignment.world_size();
  }
  if (avail >= needed) return;  // enough vacates already in flight

  struct Cand {
    Segment* s;
    double cost;  ///< farm-seconds of slot time lost draining to the ckpt
    double rank;
    std::pair<std::uint32_t, double> vacate;
  };
  const double blocked_rank = rank(blocked);
  std::vector<Cand> cands;
  for (auto& r : running_) {
    if (r.preempting) continue;
    if (job(r.seq).preemptions >= opt_.max_preemptions_per_job) {
      continue;  // starvation guard: this job keeps its slots
    }
    const double r_rank = rank(r.seq);
    if (!(r_rank > blocked_rank)) continue;
    const auto v = pick_vacate(r);
    if (!v) continue;
    cands.push_back({&r, (v->second - r.progress) * r.stretch, r_rank, *v});
  }
  // kLeastDeserving: the worst-ranked first, then the youngest segment
  // (least sunk work re-queued). kCostAware leads with the drain cost —
  // distance to the nearest checkpoint frame in farm time — so the
  // eviction wastes the least slot time; rank and seq break ties.
  std::sort(cands.begin(), cands.end(), [&](const Cand& a, const Cand& b) {
    if (opt_.victim_selection == VictimSelection::kCostAware &&
        a.cost != b.cost) {
      return a.cost < b.cost;
    }
    if (a.rank != b.rank) return a.rank > b.rank;
    if (a.s->start != b.s->start) return a.s->start > b.s->start;
    return a.s->seq > b.s->seq;
  });
  for (const Cand& c : cands) {
    c.s->preempting = true;
    c.s->preempt_frame = c.vacate.first;
    c.s->vacate_progress = c.vacate.second;
    out.push_back({Decision::Kind::kVictim, c.s->seq, now_, c.vacate.first,
                   blocked});
    avail += c.s->assignment.world_size();
    if (avail >= needed) break;
  }
}

// Admit in policy order. Without preemption every job that fits starts
// (work conservation). Preemptive policies reserve for the first job that
// does not fit, after marking eviction victims for it; with easy_backfill
// off nothing may jump the blocked head (strict reservation), with it on
// later jobs start only when they provably cannot delay the reserved start.
std::vector<Decision> Scheduler::schedule() {
  // Queue order: (rank, arrival, seq) ascending.
  std::vector<std::tuple<double, double, int>> order;
  order.reserve(queue_.size());
  for (const int seq : queue_) {
    order.emplace_back(rank(seq), job(seq).arrive_s, seq);
  }
  std::sort(order.begin(), order.end());
  int total_free = std::accumulate(free_.begin(), free_.end(), 0);

  std::vector<Decision> out;
  batch_.clear();
  int reserved = -1;  // the blocked head, if any
  double reserve_at = kInf;
  std::vector<Release> rels;  // valid while reserved >= 0
  for (const auto& [key, arrive, seq] : order) {
    const JobSpec& spec = *job(seq).spec;
    const auto sit = suspended_.find(seq);
    const bool is_suspended = sit != suspended_.end();
    // Slots now? A suspended job re-enters only onto nodes matching its
    // original grant (bit-exactness needs identical rates); anywhere such
    // nodes are free, not necessarily where it ran before.
    std::optional<Assignment> got;
    if (is_suspended) {
      got = match_assignment(shared_, free_, sit->second.assignment);
    } else if (spec.world_size() <= total_free) {
      got = assign_slots(shared_, free_, spec.world_size());
    }
    if (!got) {
      if (!preemptive_ || reserved >= 0) continue;  // one reservation
      // The blocked head. Mark eviction victims for a fresh job (a
      // suspended one waits for matching nodes instead — evicting to
      // re-host it would thrash), then pin its reservation from the DES's
      // own release bounds.
      if (!is_suspended) mark_victims(seq, total_free, out);
      reserved = seq;
      rels = releases();
      reserve_at = earliest_fit(seq, free_, rels);
      if (reserve_at < kInf) {
        out.push_back({Decision::Kind::kReserve, seq, reserve_at});
      }
      if (!opt_.easy_backfill) break;  // strict head-of-line
      continue;
    }
    bool backfill = false;
    if (reserved >= 0) {
      // EASY admission: start past the blocked head only when the
      // reservation provably survives. Cond-2: it survives even if this
      // job never releases its slots. Cond-1: the job's runtime upper
      // bound — exact remaining work for a suspended job, calibrated
      // est_ratio_max_ x est for a fresh one — releases them in time.
      if (reserve_at == kInf) continue;  // no credible reservation yet
      double ub_work = -1.0;
      if (is_suspended) {
        ub_work = sit->second.remaining_s;
      } else if (est_ratio_max_ > 0.0) {
        ub_work = job(seq).est * est_ratio_max_;
      }
      std::vector<int> sim_free = free_;
      shift(sim_free, got->shared_nodes, got->ranks_per_node, -1);
      std::vector<Release> with = rels;
      if (ub_work >= 0.0) {
        with.push_back({now_ + ub_work * stretch(*got, cpus_), seq,
                        got->shared_nodes, got->ranks_per_node});
        std::sort(with.begin(), with.end());
      }
      if (earliest_fit(reserved, std::move(sim_free), with) > reserve_at) {
        continue;  // would (or might) delay the reserved start
      }
      rels = std::move(with);  // later candidates see this one too
      backfill = true;
    }
    Segment seg;
    if (is_suspended) {
      seg = std::move(sit->second);
      suspended_.erase(sit);
      seg.restore = true;
      seg.migrated = got->shared_nodes != seg.assignment.shared_nodes;
    } else if (preemptive_) {
      // The preemption contract: a job with its own ckpt policy keeps it;
      // one without gets preempt_interval imposed (fb output is
      // checkpoint-invariant, so only candidate vacate points appear).
      seg.ckpt = spec.settings.ckpt;
      if (!seg.ckpt.enabled()) seg.ckpt.interval = opt_.preempt_interval;
      seg.resume = spec.settings.resume_from;
      if (spec.settings.ckpt_vault != nullptr) {
        // Non-owning alias: the tenant's vault outlives the farm run.
        seg.vault = std::shared_ptr<ckpt::Vault>(std::shared_ptr<void>(),
                                                 spec.settings.ckpt_vault);
      } else {
        seg.vault = std::make_shared<ckpt::Vault>();
      }
    }
    seg.seq = seq;
    seg.assignment = std::move(*got);
    shift(free_, seg.assignment.shared_nodes, seg.assignment.ranks_per_node,
          -1, &occupancy_);
    total_free -= spec.world_size();
    if (backfill) out.push_back({Decision::Kind::kBackfill, seq, now_});
    out.push_back({Decision::Kind::kLaunch, seq, now_});
    batch_.push_back(std::move(seg));
    std::erase(queue_, seq);
  }
  return out;
}

Segment Scheduler::take_from_batch(int seq) {
  const auto it = std::find_if(batch_.begin(), batch_.end(),
                               [&](const Segment& s) { return s.seq == seq; });
  Segment s = std::move(*it);
  batch_.erase(it);
  return s;
}

void Scheduler::abort_launch(int seq) {
  const Segment s = take_from_batch(seq);
  shift(free_, s.assignment.shared_nodes, s.assignment.ranks_per_node, +1,
        &occupancy_);
  release_dependents(seq);
}

void Scheduler::launched(
    int seq, double duration,
    std::vector<std::pair<std::uint32_t, double>> timeline) {
  Segment s = take_from_batch(seq);
  for (const int node : s.assignment.shared_nodes) {
    const auto n = static_cast<std::size_t>(node);
    usage_[n].peak_ranks = std::max(usage_[n].peak_ranks, occupancy_[n]);
  }
  s.start = now_;
  s.duration = duration;
  s.progress = 0.0;
  s.stretch = 1.0;
  s.preempting = false;
  s.timeline = std::move(timeline);
  if (s.resume) {
    // Resumed frames are replayed from the snapshot, not recomputed: the
    // job re-enters farm time at the checkpoint's virtual instant and owes
    // only the frames past it. `duration` measures just that remainder,
    // while the timeline (and so progress and every vacate candidate) is
    // absolute — rebase the duration to the absolute scale or the segment
    // gets double-charged and its finish estimate lands in the *past*.
    // This applies to farm restores and to resume_from submissions alike.
    const auto it = find_frame(s.timeline, *s.resume);
    if (it != s.timeline.end()) s.progress = it->second;
    s.duration = s.progress + duration;
  } else if (!s.restore && job(seq).est > 0.0) {
    // Calibrate the estimate -> runtime upper-bound ratio EASY cond-1
    // scales by. Resumed launches run only a remainder, which would
    // deflate the ratio below a true upper bound.
    est_ratio_max_ = std::max(est_ratio_max_, duration / job(seq).est);
  }
  running_.push_back(std::move(s));
}

std::vector<Decision> Scheduler::advance() {
  // Occupancy is stable until the next event: refresh stretches and the
  // projected finish/vacate instants.
  double t_next = arrivals_.empty() ? kInf : arrivals_.top().first;
  for (auto& r : running_) {
    r.stretch = stretch(r.assignment, occupancy_);
    r.next_at = now_ + (r.end() - r.progress) * r.stretch;
    t_next = std::min(t_next, r.next_at);
  }

  // Every running job drains standalone-equivalent work at 1/stretch,
  // every shared node clock accumulates its resident ranks, every tenant
  // its rank-seconds of service.
  const double dt = t_next - now_;
  if (dt > 0.0) {
    // Decayed fair-share: the score halves every half_life_s of farm time
    // before this interval's service lands. With no half-life it stays
    // bit-identical to the raw integral (same additions, same order).
    const double hl = opt_.fair_share.half_life_s;
    if (hl > 0.0) {
      const double decay = std::exp2(-dt / hl);
      for (auto& [tenant, score] : tenant_score_) score *= decay;
    }
    for (auto& r : running_) {
      r.progress += dt / r.stretch;
      const double add = static_cast<double>(r.assignment.world_size()) * dt;
      const std::string& tenant = job(r.seq).spec->tenant;
      tenant_used_[tenant] += add;
      tenant_score_[tenant] += add;
    }
    for (std::size_t n = 0; n < usage_.size(); ++n) {
      usage_[n].busy_rank_s += static_cast<double>(occupancy_[n]) * dt;
    }
  }
  now_ = t_next;

  // Retire every segment due now, in admission order (the deterministic
  // tiebreak): a finished job is done; a preempting one has sealed its
  // checkpoint frame and is re-queued as suspended.
  std::vector<Decision> out;
  for (auto it = running_.begin(); it != running_.end();) {
    if (it->next_at > now_) {
      ++it;
      continue;
    }
    Segment& s = *it;
    shift(free_, s.assignment.shared_nodes, s.assignment.ranks_per_node, +1,
          &occupancy_);
    if (s.preempting) {
      out.push_back({Decision::Kind::kVacate, s.seq, now_, s.preempt_frame});
      ++job(s.seq).preemptions;
      s.resume = s.preempt_frame;
      s.remaining_s = s.duration - s.vacate_progress;
      s.timeline = {};  // the restore reports its own
      queue_.push_back(s.seq);
      suspended_[s.seq] = std::move(s);
    } else {
      out.push_back({Decision::Kind::kFinish, s.seq, now_});
      release_dependents(s.seq);
    }
    it = running_.erase(it);
  }
  return out;
}

}  // namespace psanim::farm
