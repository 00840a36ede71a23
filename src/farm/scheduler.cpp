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
    enqueue(arrivals_.top().second);
    arrivals_.pop();
  }
}

bool Scheduler::before(int a, int b) const {
  const double ra = rank(a);
  const double rb = rank(b);
  if (ra != rb) return ra < rb;
  if (job(a).arrive_s != job(b).arrive_s) {
    return job(a).arrive_s < job(b).arrive_s;
  }
  return a < b;
}

void Scheduler::enqueue(int seq) {
  const auto world = static_cast<std::size_t>(job(seq).spec->world_size());
  if (world >= queued_worlds_.size()) queued_worlds_.resize(world + 1, 0);
  ++queued_worlds_[world];
  if (order_stale_) {
    queue_.push_back(seq);  // the next pass sorts
    return;
  }
  queue_.insert(std::upper_bound(queue_.begin(), queue_.end(), seq,
                                 [this](int a, int b) { return before(a, b); }),
                seq);
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
  const auto it = std::find(queue_.begin(), queue_.end(), seq);
  if (it != queue_.end()) {
    queue_.erase(it);
    --queued_worlds_[static_cast<std::size_t>(job(seq).spec->world_size())];
  }
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

Scheduler::Release Scheduler::make_release(double at, int seq,
                                           const Assignment& a) {
  const Release r{at, seq, a.world_size(),
                  static_cast<std::uint32_t>(rel_slots_.size()),
                  static_cast<std::uint32_t>(a.shared_nodes.size())};
  for (std::size_t k = 0; k < a.shared_nodes.size(); ++k) {
    rel_slots_.emplace_back(a.shared_nodes[k], a.ranks_per_node[k]);
  }
  return r;
}

// Running segments release their slots after their remaining work at
// worst-case stretch; marked victims at their vacate point. Jobs budgeted
// earlier in the same pass hold slots with *unknown* durations (learned
// only at launch), so they contribute no release — the reservation
// estimate errs late, never early. Fills rels_, sorted.
void Scheduler::releases() {
  rels_.clear();
  rel_slots_.clear();
  for (const auto& r : running_) {
    rels_.push_back(make_release(
        now_ + std::max(0.0, r.end() - r.progress) *
                   stretch(r.assignment, cpus_),
        r.seq, r.assignment));
  }
  std::sort(rels_.begin(), rels_.end());
}

// Earliest instant `seq` fits as `sim_free` grows by each of rels_ — and
// `extra`, when given, at its place in release order — in turn; kInf when
// even every release is not enough. Consumes `sim_free`. A fresh job fits
// on any `world` free slots, so only their count is tracked; a suspended
// one needs that many before its node matching is worth trying.
double Scheduler::earliest_fit(int seq, std::vector<int>& sim_free,
                               const Release* extra) const {
  const auto sit = suspended_.find(seq);
  const bool by_count = sit == suspended_.end();
  const int world = job(seq).spec->world_size();
  int total = std::accumulate(sim_free.begin(), sim_free.end(), 0);
  const auto fits = [&] {
    if (world > total) return false;
    return by_count ||
           match_assignment(shared_, sim_free, sit->second.assignment)
               .has_value();
  };
  const auto fits_after = [&](const Release& rel) {
    total += rel.ranks;
    if (!by_count) {
      for (std::uint32_t k = rel.first; k < rel.first + rel.count; ++k) {
        const auto [node, ranks] = rel_slots_[k];
        sim_free[static_cast<std::size_t>(node)] += ranks;
      }
    }
    return fits();
  };
  if (fits()) return now_;
  for (const auto& rel : rels_) {
    if (extra != nullptr && *extra < rel) {
      if (fits_after(*extra)) return extra->at;
      extra = nullptr;
    }
    if (fits_after(rel)) return rel.at;
  }
  if (extra != nullptr && fits_after(*extra)) return extra->at;
  return kInf;
}

// The earliest checkpoint frame this segment has not yet passed: the job
// drains there (sealing that snapshot) and vacates. Jobs beyond their last
// snapshot frame finish naturally instead. The search starts at the first
// frame completed at or after the current progress: every earlier frame
// is already passed.
std::optional<std::pair<std::uint32_t, double>> Scheduler::pick_vacate(
    const Segment& s) const {
  const auto from =
      std::find_if(s.timeline.begin(), s.timeline.end(),
                   [&](const auto& p) { return p.second >= s.progress; });
  if (from == s.timeline.end()) return std::nullopt;
  const std::uint32_t frames = job(s.seq).spec->settings.frames;
  for (auto f = s.ckpt.next_snapshot_at_or_after(from->first, frames,
                                                 s.resume);
       f;
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
//
// The pass is incremental. The queue arrives in order (re-sorted here only
// after fair-share ranks moved). The scan stops as soon as the rest of the
// queue can only be skipped: no credible reservation to backfill against,
// or fewer free slots than the smallest queued world (once the head is
// reserved, or when nothing would be). And the EASY test is memoized.
// Between two launches free_ and rels_ stand still, so a fresh candidate's
// test depends only on its world size (assign_slots grants the same
// slots), on its release's slot in the release order and on the release
// instant t. Within one slot the head's fit time is either independent of
// t or t itself, so once some t failed, every later t fails too: worlds_
// keeps per world size the grant and per slot the earliest failed t.
std::vector<Decision> Scheduler::schedule() {
  if (order_stale_) {
    // Fair-share ranks moved with the ledger: key once, then sort.
    std::vector<std::tuple<double, double, int>> order;
    order.reserve(queue_.size());
    for (const int seq : queue_) {
      order.emplace_back(rank(seq), job(seq).arrive_s, seq);
    }
    std::sort(order.begin(), order.end());
    for (std::size_t i = 0; i < order.size(); ++i) {
      queue_[i] = std::get<2>(order[i]);
    }
    order_stale_ = false;
  }
  int total_free = std::accumulate(free_.begin(), free_.end(), 0);
  int min_world = 0;
  while (static_cast<std::size_t>(min_world) < queued_worlds_.size() &&
         queued_worlds_[static_cast<std::size_t>(min_world)] == 0) {
    ++min_world;
  }
  worlds_.assign(queued_worlds_.size(), {});

  std::vector<Decision> out;
  batch_.clear();
  int reserved = -1;  // the blocked head, if any
  double reserve_at = kInf;
  for (const int seq : queue_) {
    if ((reserved >= 0 || !preemptive_) && total_free < min_world) break;
    const JobSpec& spec = *job(seq).spec;
    const int world = spec.world_size();
    WorldMemo& wm = worlds_[static_cast<std::size_t>(world)];
    const auto sit = suspended_.find(seq);
    const bool is_suspended = sit != suspended_.end();
    // EASY cond-1's runtime upper bound — exact remaining work for a
    // suspended job, calibrated est_ratio_max_ x est for a fresh one; -1
    // when there is none yet.
    double ub_work = -1.0;
    if (is_suspended) {
      ub_work = sit->second.remaining_s;
    } else if (est_ratio_max_ > 0.0) {
      ub_work = job(seq).est * est_ratio_max_;
    }
    // Slots now? A suspended job re-enters only onto nodes matching its
    // original grant (bit-exactness needs identical rates); anywhere such
    // nodes are free, not necessarily where it ran before.
    std::optional<Assignment> matched;
    const Assignment* got = nullptr;
    if (is_suspended) {
      matched = match_assignment(shared_, free_, sit->second.assignment);
      if (matched) got = &*matched;
    } else if (world <= total_free) {
      if (!wm.grant) wm.grant = assign_slots(shared_, free_, world);
      got = &*wm.grant;
    }
    if (got == nullptr) {
      if (!preemptive_ || reserved >= 0) continue;  // one reservation
      // The blocked head. Mark eviction victims for a fresh job (a
      // suspended one waits for matching nodes instead — evicting to
      // re-host it would thrash), then pin its reservation from the DES's
      // own release bounds.
      if (!is_suspended) mark_victims(seq, total_free, out);
      reserved = seq;
      releases();
      sim_free_ = free_;
      reserve_at = earliest_fit(seq, sim_free_, nullptr);
      if (reserve_at < kInf) {
        out.push_back({Decision::Kind::kReserve, seq, reserve_at});
      }
      if (!opt_.easy_backfill) break;  // strict head-of-line
      if (reserve_at == kInf) break;   // no credible reservation yet
      continue;
    }
    bool backfill = false;
    if (reserved >= 0) {
      // EASY admission: start past the blocked head only when the
      // reservation provably survives. Cond-2: it survives even if this
      // job never releases its slots. Cond-1: the job's runtime upper
      // bound releases them in time.
      const double t =
          ub_work >= 0.0 ? now_ + ub_work * stretch(*got, cpus_) : kInf;
      std::size_t slot = rels_.size() + 1;
      if (ub_work >= 0.0) {
        slot = static_cast<std::size_t>(
            std::upper_bound(rels_.begin(), rels_.end(), Release{t, seq}) -
            rels_.begin());
      }
      double* failed = nullptr;
      if (!is_suspended) {
        if (wm.easy_failed.size() <= slot) {
          wm.easy_failed.resize(slot + 1, -1.0);
        }
        failed = &wm.easy_failed[slot];
        if (*failed >= 0.0 && t >= *failed) continue;
      }
      sim_free_ = free_;
      shift(sim_free_, got->shared_nodes, got->ranks_per_node, -1);
      const std::size_t slots_mark = rel_slots_.size();
      std::optional<Release> mine;
      if (ub_work >= 0.0) mine = make_release(t, seq, *got);
      if (earliest_fit(reserved, sim_free_, mine ? &*mine : nullptr) >
          reserve_at) {
        rel_slots_.resize(slots_mark);
        if (failed != nullptr && (*failed < 0.0 || t < *failed)) *failed = t;
        continue;  // would (or might) delay the reserved start
      }
      if (mine) {  // later candidates see this one too
        rels_.insert(std::upper_bound(rels_.begin(), rels_.end(), *mine),
                     *mine);
      }
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
    seg.assignment = is_suspended ? std::move(*matched) : std::move(*wm.grant);
    for (auto& w : worlds_) w = {};  // free_ moves
    shift(free_, seg.assignment.shared_nodes, seg.assignment.ranks_per_node,
          -1, &occupancy_);
    total_free -= world;
    if (backfill) out.push_back({Decision::Kind::kBackfill, seq, now_});
    out.push_back({Decision::Kind::kLaunch, seq, now_});
    batch_.push_back(std::move(seg));
  }

  // Drop the launched jobs; batch_ is in queue order.
  std::size_t keep = 0;
  std::size_t b = 0;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const int seq = queue_[i];
    if (b < batch_.size() && batch_[b].seq == seq) {
      --queued_worlds_[static_cast<std::size_t>(job(seq).spec->world_size())];
      ++b;
    } else {
      queue_[keep++] = seq;
    }
  }
  queue_.resize(keep);
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
    if (opt_.policy == Policy::kFairShare) order_stale_ = true;
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
      enqueue(s.seq);
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
