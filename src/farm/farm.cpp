#include "farm/farm.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "mp/buffer_pool.hpp"
#include "obs/trace.hpp"
#include "render/compare.hpp"

namespace psanim::farm {

namespace detail {

/// One mutex + condvar for the whole farm: handle queries are rare and
/// driver writes are batched per scheduling event, so a single lock keeps
/// the state machine trivially consistent. Held in a shared_ptr so handles
/// outlive the Farm.
struct SharedState {
  mutable std::mutex mu;
  std::condition_variable cv;
  std::uint64_t cancels = 0;  ///< successful JobHandle::cancel() calls
};

struct JobRecord {
  JobSpec spec;   // immutable after submit
  int seq = 0;    // submission sequence (deterministic tiebreak)
  std::shared_ptr<SharedState> ss;
  JobResult result;  // guarded by ss->mu (state field is the job state)
};

}  // namespace detail

using detail::JobRecord;

// --- JobHandle ------------------------------------------------------------

namespace {

bool terminal(JobState s) {
  return s == JobState::kDone || s == JobState::kFailed ||
         s == JobState::kCancelled;
}

/// Accessor guard: a default-constructed handle refers to no job.
JobRecord& deref(const std::shared_ptr<JobRecord>& rec) {
  if (rec == nullptr) {
    throw std::logic_error(
        "JobHandle: empty handle — only handles returned by Farm::submit "
        "refer to a job");
  }
  return *rec;
}

}  // namespace

const std::string& JobHandle::name() const { return deref(rec_).spec.name; }

JobState JobHandle::poll() const {
  auto& rec = deref(rec_);
  const std::scoped_lock lock(rec.ss->mu);
  return rec.result.state;
}

const JobResult& JobHandle::await() const {
  auto& rec = deref(rec_);
  std::unique_lock lock(rec.ss->mu);
  rec.ss->cv.wait(lock, [&] { return terminal(rec.result.state); });
  return rec.result;
}

bool JobHandle::cancel() {
  auto& rec = deref(rec_);
  const std::scoped_lock lock(rec.ss->mu);
  if (rec.result.state != JobState::kQueued) return false;
  rec.result.state = JobState::kCancelled;
  ++rec.ss->cancels;
  rec.ss->cv.notify_all();
  return true;
}

// --- Farm: admission ------------------------------------------------------

Farm::Farm(cluster::ClusterSpec shared, FarmOptions options)
    : shared_(std::move(shared)), options_(std::move(options)) {
  if (shared_.node_count() == 0) {
    throw std::invalid_argument("Farm: shared cluster has no nodes");
  }
  for (const auto& n : shared_.nodes) {
    if (n.cpus < 1) {
      throw std::invalid_argument("Farm: every node needs >= 1 CPU slot");
    }
    total_slots_ += n.cpus;
  }
  if (!options_.journal_path.empty()) {
    journal_ = std::make_unique<JournalWriter>(options_.journal_path);
  }
  ss_ = std::make_shared<detail::SharedState>();
}

Farm::~Farm() {
  if (driver_.joinable()) {
    driver_.join();
  } else {
    // Never started: unblock any await()ers by cancelling the queue.
    const std::scoped_lock lock(ss_->mu);
    for (auto& rec : jobs_) {
      if (rec->result.state == JobState::kQueued) {
        rec->result.state = JobState::kCancelled;
      }
    }
    ss_->cv.notify_all();
  }
}

void Farm::journal(JournalType type, const JobRecord& rec, double time_s,
                   std::uint32_t frame) {
  if (journal_ == nullptr) return;
  JournalRecord r;
  r.type = type;
  r.seq = rec.seq;
  r.time_s = time_s;
  r.frame = frame;
  r.state = rec.result.state;
  r.fb_hash = rec.result.fb_hash;
  r.name = rec.spec.name;
  r.tenant = rec.spec.tenant;
  journal_->append(r);
}

JobHandle Farm::submit(JobSpec spec) {
  const auto reject = [](const std::string& why) {
    throw std::invalid_argument("Farm::submit: " + why);
  };
  const std::scoped_lock lock(ss_->mu);
  if (started_) {
    reject("the queue is sealed — submit every job before start()");
  }
  spec.settings.validate();  // zero-frame jobs etc. fail here, with context
  if (spec.submit_time_s < 0.0) {
    reject("submit_time_s must be >= 0, got " +
           std::to_string(spec.submit_time_s));
  }
  if (spec.after_seq >= static_cast<int>(jobs_.size())) {
    reject("after_seq " + std::to_string(spec.after_seq) +
           " must reference an earlier submission (only " +
           std::to_string(jobs_.size()) + " so far)");
  }
  const int world = spec.world_size();
  if (world > total_slots_) {
    reject("job needs " + std::to_string(world) + " ranks (ncalc " +
           std::to_string(spec.settings.ncalc) +
           " + manager + image generator) but the shared cluster has only " +
           std::to_string(total_slots_) +
           " CPU slots — it can never be scheduled");
  }
  // Cross-job isolation: per-job checkpoints and traces. Two jobs writing
  // one vault/trace would race and entangle recoveries. Jobs carrying
  // neither shared pointer skip the scan, keeping a 10k-job submission
  // burst linear.
  const bool shares_anything = spec.settings.ckpt_vault != nullptr ||
                               spec.settings.obs.trace != nullptr;
  for (const auto& other : jobs_) {
    if (!shares_anything) break;
    if (spec.settings.ckpt_vault != nullptr &&
        spec.settings.ckpt_vault == other->spec.settings.ckpt_vault) {
      reject("job '" + spec.name + "' shares a ckpt vault with job '" +
             other->spec.name + "' — checkpoints are per-job");
    }
    if (spec.settings.obs.trace != nullptr &&
        spec.settings.obs.trace == other->spec.settings.obs.trace) {
      reject("job '" + spec.name + "' shares an obs::Trace with job '" +
             other->spec.name + "' — traces are per-job");
    }
  }
  auto rec = std::make_shared<JobRecord>();
  rec->seq = static_cast<int>(jobs_.size());
  if (spec.name.empty()) spec.name = "job" + std::to_string(rec->seq);
  rec->spec = std::move(spec);
  rec->ss = ss_;
  jobs_.push_back(rec);
  journal(JournalType::kSubmit, *rec, rec->spec.submit_time_s);
  return JobHandle(rec);
}

void Farm::start() {
  // lifecycle_mu_ serializes thread launch and join: without it two
  // concurrent wait()ers could both see driver_.joinable() and both
  // join() (UB), or a second start() could return before the first
  // assigned driver_.
  const std::scoped_lock lifecycle(lifecycle_mu_);
  {
    const std::scoped_lock lock(ss_->mu);
    if (started_) return;
    started_ = true;
  }
  driver_ = std::thread([this] { drive(); });
}

void Farm::wait() {
  start();
  {
    const std::scoped_lock lifecycle(lifecycle_mu_);
    if (driver_.joinable()) driver_.join();
  }
  waited_.store(true, std::memory_order_release);
}

Report Farm::run() {
  wait();
  return report_;
}

const Report& Farm::report() const {
  if (!waited_.load(std::memory_order_acquire)) {
    throw std::logic_error("Farm::report: call wait() (or run()) first");
  }
  return report_;
}

std::vector<JobHandle> Farm::handles() const {
  const std::scoped_lock lock(ss_->mu);
  std::vector<JobHandle> out;
  out.reserve(jobs_.size());
  for (const auto& rec : jobs_) out.push_back(JobHandle(rec));
  return out;
}

std::unique_ptr<Farm> Farm::recover(
    const std::string& journal_path, cluster::ClusterSpec shared,
    FarmOptions options, std::vector<JobSpec> specs,
    const std::map<int, std::shared_ptr<ckpt::Vault>>& vaults) {
  if (!options.journal_path.empty() &&
      options.journal_path == journal_path) {
    throw std::invalid_argument(
        "Farm::recover: options.journal_path must not be the journal being "
        "recovered — JournalWriter truncates on open");
  }
  const JournalRecovery rc = recover_journal(journal_path);
  auto farm =
      std::unique_ptr<Farm>(new Farm(std::move(shared), std::move(options)));
  std::map<int, int> seq_map;  // original seq -> recovered seq
  for (const auto& p : rc.pending) {
    if (p.seq < 0 || p.seq >= static_cast<int>(specs.size())) {
      throw std::invalid_argument(
          "Farm::recover: journal names pending job seq " +
          std::to_string(p.seq) + " ('" + p.name + "') but only " +
          std::to_string(specs.size()) +
          " specs were supplied — pass the crashed farm's full submission "
          "list, indexed by original seq");
    }
    JobSpec spec = std::move(specs[static_cast<std::size_t>(p.seq)]);
    if (p.resume_frame) {
      const auto vit = vaults.find(p.seq);
      if (vit == vaults.end() || vit->second == nullptr) {
        throw std::invalid_argument(
            "Farm::recover: job '" + p.name + "' (seq " +
            std::to_string(p.seq) + ") was suspended at checkpoint frame " +
            std::to_string(*p.resume_frame) +
            " but no vault was supplied for it");
      }
      if (!spec.settings.ckpt.enabled() &&
          farm->options_.preempt_interval > 0) {
        // The crashed farm imposed its preempt cadence on this job — the
        // journaled resume frame lives on that snapshot grid.
        spec.settings.ckpt.interval = farm->options_.preempt_interval;
      }
      if (!vit->second->has_sealed(*p.resume_frame)) {
        const auto fallback =
            vit->second->latest_sealed_at_or_before(*p.resume_frame);
        throw std::invalid_argument(
            "Farm::recover: the vault for job '" + p.name +
            "' holds no sealed checkpoint at resume frame " +
            std::to_string(*p.resume_frame) +
            (fallback ? " (latest sealed frame before it: " +
                            std::to_string(*fallback) + ")"
                      : " (no sealed frame precedes it either)"));
      }
      spec.settings.resume_from = p.resume_frame;
      spec.settings.ckpt_vault = vit->second.get();
      farm->recovered_vaults_.push_back(vit->second);
    }
    if (spec.after_seq >= 0) {
      const auto mit = seq_map.find(spec.after_seq);
      // Predecessor already terminal in the journal: the dependency is
      // satisfied — the think delay counts from the recovered farm's t=0.
      spec.after_seq = mit == seq_map.end() ? -1 : mit->second;
    }
    seq_map[p.seq] = static_cast<int>(farm->jobs_.size());
    farm->submit(std::move(spec));
  }
  return farm;
}

// --- Farm::drive(): claims, threads and bookkeeping -----------------------

namespace {

std::string sanitize_filename(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.';
    if (!ok) c = '_';
  }
  return out.empty() ? "job" : out;
}

/// What one launched job produced (worker-thread output; the driver merges
/// it under the lock after joining).
struct LaunchOut {
  std::unique_ptr<obs::Trace> own_trace;  // must outlive the run
  std::string trace_path;
  std::string analysis_path;
  core::ParallelResult res;
  std::uint64_t fb_hash = 0;  ///< of res.final_frame, on success
  bool skipped = false;  ///< cancel() won the launch race; never ran
  bool ok = false;
  std::string error;
};

/// Queue-depth breakpoint at `t`, overwriting an earlier sample at the same
/// instant (steps within one event collapse to the final depth) and
/// dropping repeats of the current depth.
void sample_depth(std::vector<std::pair<double, int>>& qd, double t,
                  int depth) {
  if (!qd.empty() && qd.back().first == t) {
    qd.back().second = depth;
  } else if (qd.empty() || qd.back().second != depth) {
    qd.emplace_back(t, depth);
  }
}

}  // namespace

JobRecord& Farm::job(int seq) const {
  return *jobs_[static_cast<std::size_t>(seq)];
}

bool Farm::launch_batch(Scheduler& sched) {
  const std::vector<Segment> batch = sched.batch();
  const double now = sched.now();
  std::vector<LaunchOut> outs(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Segment& seg = batch[i];
    JobRecord& rec = job(seg.seq);
    auto& out = outs[i];
    {
      // Claim the job atomically: a handle may have cancelled a queued job
      // between the driver's queue sweep and here. If cancel() won, honor
      // it — skip the job (its budgeted slots unwind in the merge).
      // Suspended jobs cannot be cancelled, so a restore claim never
      // loses this race.
      const std::scoped_lock lock(ss_->mu);
      const JobState expect =
          seg.restore ? JobState::kSuspended : JobState::kQueued;
      if (rec.result.state != expect) {
        out.skipped = true;
        ++cancels_retired_;
        continue;
      }
      rec.result.state = JobState::kRunning;
      if (!seg.restore) rec.result.start_s = now;
      rec.result.assignment = seg.assignment;
    }
    if (seg.restore) {
      journal(JournalType::kRestore, rec, now, *seg.resume);
    } else {
      journal(JournalType::kLaunch, rec, now);
    }
    if (!seg.restore && !options_.obs_dir.empty() &&
        !rec.spec.settings.obs.tracing()) {
      out.own_trace = std::make_unique<obs::Trace>();
      out.own_trace->set_rank_namespace(rec.spec.name);
      // Two jobs whose names sanitize identically must not overwrite each
      // other's files: suffix later claimants with their (unique) seq,
      // repeating if a tenant literally named a job "a-5".
      std::string base = sanitize_filename(rec.spec.name);
      while (!used_obs_names_.insert(base).second) {
        base += "-" + std::to_string(rec.seq);
      }
      out.trace_path = options_.obs_dir + "/" + base + ".trace.json";
      out.analysis_path = options_.obs_dir + "/" + base + ".analysis.json";
    }
  }

  // Execute the batch concurrently in wall-clock (each job is its own
  // mp::Runtime with instance-isolated mailboxes/clocks; the only shared
  // mutable substrate is the thread-safe global BufferPool). Results are
  // virtual-time quantities, so the wall-clock interleaving — and the
  // max_parallel_launches cap — cannot change them.
  const std::size_t cap =
      options_.max_parallel_launches > 0
          ? static_cast<std::size_t>(options_.max_parallel_launches)
          : batch.size();
  // Each concurrently-running job gets an even share of the machine's
  // worker-thread budget for its fiber scheduler (workers never affect
  // virtual-time results, only wall-clock drain rate).
  int per_job_workers = options_.workers_per_job;
  if (per_job_workers <= 0) {
    const auto hw = std::max(1u, std::thread::hardware_concurrency());
    const auto concurrent =
        std::max<std::size_t>(1, std::min(cap, batch.size()));
    per_job_workers =
        std::max<int>(1, static_cast<int>(hw / concurrent));
  }
  const auto run_one = [this, per_job_workers](const Segment& seg,
                                               LaunchOut& out) {
    if (out.skipped) return;
    const JobSpec& spec = job(seg.seq).spec;
    try {
      core::SimSettings eff = spec.settings;
      eff.obs.pool_metrics = false;  // pool is process-global; see Report
      if (seg.restore) {
        // Restore segments are pure continuations: the first launch
        // already produced the job's trace and analysis, so a resumed run
        // records nothing (re-appending would double-count frames the DES
        // says were never lost).
        eff.obs = core::ObsSettings{};
        eff.obs.pool_metrics = false;
      } else if (out.own_trace != nullptr) {
        eff.obs.trace = out.own_trace.get();
        // Farm-provided tracing brings the in-process analysis along:
        // per-job critical-path/straggler reports land next to the trace
        // and the cp summary metrics in the job's ParallelResult.
        eff.obs.analysis_json_path = out.analysis_path;
      }
      if (seg.vault != nullptr) {
        // Preemptible: snapshots of every candidate vacate frame land in a
        // vault that outlives this segment, and restores pick up from the
        // suspend frame.
        eff.ckpt = seg.ckpt;
        eff.ckpt_vault = seg.vault.get();
        eff.resume_from = seg.resume;
      }
      if (eff.platform.empty()) eff.platform = options_.platform;
      mp::RuntimeOptions rt;
      rt.recv_timeout_s = options_.recv_timeout_s;
      rt.exec_mode = options_.exec_mode;
      rt.workers = per_job_workers;
      out.res = core::run_parallel(spec.scene, eff, seg.assignment.sub_spec,
                                   seg.assignment.placement, options_.cost,
                                   rt);
      out.fb_hash = render::hash_framebuffer(out.res.final_frame);
      out.ok = true;
    } catch (const std::exception& e) {
      out.error = e.what();
    } catch (...) {
      out.error = "unknown exception";
    }
  };
  for (std::size_t base = 0; base < outs.size(); base += cap) {
    std::vector<std::thread> workers;
    const std::size_t end = std::min(outs.size(), base + cap);
    workers.reserve(end - base);
    for (std::size_t i = base; i < end; ++i) {
      workers.emplace_back(
          [&run_one, &batch, &outs, i] { run_one(batch[i], outs[i]); });
    }
    for (auto& w : workers) w.join();
  }

  // Abort skips and failures first so node peaks (taken at launched())
  // come from settled occupancy: a launch that never ran must leave zero
  // residency footprint.
  bool aborted = false;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    JobRecord& rec = job(batch[i].seq);
    auto& out = outs[i];
    if (out.ok && batch[i].restore && out.fb_hash != rec.result.fb_hash) {
      // The whole point of checkpoint-based preemption is that this can
      // never fire; treat a divergence as a loud failure, not a silent
      // wrong answer.
      out.ok = false;
      out.error =
          "restored run diverged from the pre-preemption framebuffer hash "
          "(determinism violation — please report)";
    }
    if (out.ok) continue;
    sched.abort_launch(rec.seq);
    aborted = true;
    if (out.skipped) continue;
    // Failed during launch: the job completes (failed) at its start
    // time and its slots free immediately — neighbors are unaffected.
    {
      const std::scoped_lock lock(ss_->mu);
      rec.result.state = JobState::kFailed;
      rec.result.finish_s = now;
      rec.result.error = std::move(out.error);
      report_.completion_order.push_back(rec.spec.name);
      ++report_.jobs_failed;
      ss_->cv.notify_all();
    }
    journal(JournalType::kFinish, rec, now);
  }

  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Segment& seg = batch[i];
    JobRecord& rec = job(seg.seq);
    auto& out = outs[i];
    if (!out.ok) continue;
    if (!out.trace_path.empty()) {
      out.own_trace->write_chrome_json(out.trace_path);
    }
    // Per-frame completion timeline: where in segment-virtual time each
    // candidate vacate frame's snapshot becomes available. Rollback
    // replays re-emit frames; the last emission is the surviving one.
    std::map<std::uint32_t, double> fd;
    for (const auto& is : out.res.telemetry.image_frames()) {
      fd[is.frame] = is.frame_complete_time;
    }
    sched.launched(seg.seq, out.res.animation_s, {fd.begin(), fd.end()});
    {
      const std::scoped_lock lock(ss_->mu);
      auto& res = rec.result;
      if (seg.restore) {
        res.migrated = res.migrated || seg.migrated;
      } else {
        res.standalone_makespan_s = out.res.animation_s;
        res.fb_hash = out.fb_hash;
      }
      if (options_.keep_results) res.result = std::move(out.res);
    }
    if (seg.restore) {
      ++restores_;
      if (seg.migrated) ++migrations_;
    }
  }
  return aborted;
}

void Farm::drive() {
  const mp::BufferPool::Stats pool_before = mp::BufferPool::global().stats();
  // Submission set is sealed; specs are immutable from here on.
  Scheduler sched(shared_, options_);
  for (const auto& rec : jobs_) sched.submit(rec->spec);

  // Tell the scheduler about handle-cancelled jobs still in its queue.
  // Each cancelled job is retired once: dropped here, or skipped at its
  // launch claim. While every cancel() is retired no queued job can be
  // cancelled, so the sweep need not look.
  const auto sweep = [&] {
    std::vector<int> dropped;
    {
      const std::scoped_lock lock(ss_->mu);
      if (ss_->cancels == cancels_retired_) return;
      for (const int seq : sched.queue()) {
        const JobState st = job(seq).result.state;
        if (st != JobState::kQueued && st != JobState::kSuspended) {
          dropped.push_back(seq);
        }
      }
    }
    cancels_retired_ += dropped.size();
    for (const int seq : dropped) sched.cancel(seq);
  };

  for (;;) {
    sched.arrive();
    sweep();
    const std::vector<Decision> pass = sched.schedule();
    {
      const std::scoped_lock lock(ss_->mu);
      for (const Decision& d : pass) {
        JobResult& res = job(d.seq).result;
        if (d.kind == Decision::Kind::kVictim) {
          res.state = JobState::kPreempting;
        } else if (d.kind == Decision::Kind::kReserve &&
                   res.reserved_at_s < 0.0) {
          res.reserved_at_s = d.at;
          ++reservations_;
        } else if (d.kind == Decision::Kind::kBackfill) {
          res.backfilled = true;
          ++backfills_;
        }
      }
    }
    if (launch_batch(sched)) {
      // A launch failed (or a cancel won the race), so slots the pass
      // budgeted are free again at this same instant. Re-run the pass
      // before advancing: otherwise, with nothing running and nothing
      // arriving, still-queued jobs that now fit would be stranded kQueued
      // forever (await() deadlock). Each re-pass consumes queued jobs, so
      // this terminates.
      continue;
    }

    // The pass has settled: drop cancellations that landed during it, then
    // record the queue-depth breakpoint.
    sweep();
    sample_depth(report_.queue_depth, sched.now(),
                 static_cast<int>(sched.queue().size()));
    if (sched.idle()) break;  // nothing running, nothing arriving

    const std::vector<Decision> events = sched.advance();
    const double t = sched.now();
    {
      const std::scoped_lock lock(ss_->mu);
      for (const Decision& d : events) {
        auto& res = job(d.seq).result;
        if (d.kind == Decision::Kind::kVacate) {
          res.state = JobState::kSuspended;
          ++res.preemptions;
          res.preempt_frames.push_back(d.frame);
          if (res.preemptions == 1) ++report_.jobs_preempted;
          ++preempt_events_;
          continue;
        }
        const double arrive = sched.arrive_s(d.seq);
        res.state = JobState::kDone;
        res.finish_s = t;
        // Whole-job slowdown: farm residency (first launch to final
        // finish, suspended epochs included) over the uninterrupted
        // standalone makespan.
        res.stretch = res.standalone_makespan_s > 0.0
                          ? (t - res.start_s) / res.standalone_makespan_s
                          : 1.0;
        report_.completion_order.push_back(job(d.seq).spec.name);
        ++report_.jobs_done;
        report_.makespan_s = std::max(report_.makespan_s, t);
        report_.total_flow_s += t - arrive;
        // SLO samples (completed jobs only). Slowdown compares against the
        // job's own standalone makespan — its ideal contention-free run; a
        // zero ideal (defensive: no real job has one) records the neutral
        // 1.0 instead of dividing.
        const double turnaround = t - arrive;
        report_.wait_q.observe(res.start_s - arrive);
        report_.turnaround_q.observe(turnaround);
        report_.slowdown_q.observe(res.standalone_makespan_s > 0.0
                                       ? turnaround /
                                             res.standalone_makespan_s
                                       : 1.0);
      }
      ss_->cv.notify_all();
    }
    for (const Decision& d : events) {
      const bool vacate = d.kind == Decision::Kind::kVacate;
      journal(vacate ? JournalType::kPreempt : JournalType::kFinish,
              job(d.seq), t, d.frame);
    }
  }

  // Anything still queued was cancelled (admission guarantees every
  // admitted job fits an empty farm, so the queue always drains). The
  // kQueued/kSuspended branch is a safety net: no job may stay
  // non-terminal after the driver exits, or await() would deadlock — if
  // the invariant ever breaks, fail the job loudly instead.
  const double t = sched.now();
  {
    const std::scoped_lock lock(ss_->mu);
    for (const auto& rec : jobs_) {
      if (rec->result.backfilled) ++report_.jobs_backfilled;
      if (rec->result.state == JobState::kCancelled) {
        ++report_.jobs_cancelled;
      } else if (rec->result.state == JobState::kQueued ||
                 rec->result.state == JobState::kSuspended) {
        rec->result.state = JobState::kFailed;
        rec->result.finish_s = t;
        rec->result.error =
            "farm driver exited with the job still queued (scheduler "
            "invariant violation — please report)";
        report_.completion_order.push_back(rec->spec.name);
        ++report_.jobs_failed;
      }
    }
    ss_->cv.notify_all();
  }
  for (const auto& rec : jobs_) {
    if (rec->result.state == JobState::kCancelled &&
        rec->result.finish_s == 0.0) {
      journal(JournalType::kFinish, *rec, t);
    }
  }

  // The queue-depth series ends at zero by construction of the loop above
  // — except when the safety net just failed stranded jobs, or an
  // all-cancelled farm never sampled at all. Close the step series.
  sample_depth(report_.queue_depth, t, 0);

  report_.policy = options_.policy;
  report_.nodes = sched.usage();
  report_.tenant_rank_s = sched.tenant_rank_s();
  report_.mean_turnaround_s =
      report_.jobs_done > 0
          ? report_.total_flow_s / static_cast<double>(report_.jobs_done)
          : 0.0;

  int peak = 0;
  for (const auto& u : report_.nodes) peak = std::max(peak, u.peak_ranks);
  int depth_peak = 0;
  for (const auto& [when, depth] : report_.queue_depth) {
    depth_peak = std::max(depth_peak, depth);
  }
  const mp::BufferPool::Stats pool_after = mp::BufferPool::global().stats();
  const auto num = [](auto v) { return static_cast<double>(v); };
  const std::pair<const char*, double> counters[] = {
      {"psanim_farm_jobs_submitted_total", num(jobs_.size())},
      {"psanim_farm_jobs_done_total", num(report_.jobs_done)},
      {"psanim_farm_jobs_failed_total", num(report_.jobs_failed)},
      {"psanim_farm_jobs_cancelled_total", num(report_.jobs_cancelled)},
      {"psanim_farm_preemptions_total", num(preempt_events_)},
      {"psanim_farm_restores_total", num(restores_)},
      {"psanim_farm_migrations_total", num(migrations_)},
      {"psanim_farm_backfills_total", num(backfills_)},
      {"psanim_farm_reservations_total", num(reservations_)},
      {"psanim_farm_flow_seconds_total", report_.total_flow_s},
      {"psanim_farm_buffer_acquires_total",
       num(pool_after.acquires - pool_before.acquires)},
      {"psanim_farm_buffer_pool_hits_total",
       num(pool_after.hits - pool_before.hits)},
      {"psanim_farm_buffer_heap_allocs_total",
       num(pool_after.misses - pool_before.misses)},
      {"psanim_farm_buffer_releases_total",
       num(pool_after.releases - pool_before.releases)},
  };
  auto& m = report_.metrics;
  for (const auto& [name, value] : counters) m.counter(name).add(value);
  m.gauge("psanim_farm_makespan_seconds").set(report_.makespan_s);
  m.gauge("psanim_farm_peak_node_ranks").set(num(peak));
  m.gauge("psanim_farm_queue_depth_peak").set(num(depth_peak));
  // SLO quantile series (exported as _p50/_p95/_p99 gauges + sum/count in
  // the Prometheus dump). Empty on an all-cancelled farm — quantile()
  // answers 0.0, never NaN.
  m.quantiles("psanim_farm_wait_seconds").merge(report_.wait_q);
  m.quantiles("psanim_farm_turnaround_seconds").merge(report_.turnaround_q);
  m.quantiles("psanim_farm_slowdown").merge(report_.slowdown_q);
}

// --- standalone oracle ----------------------------------------------------

core::ParallelResult standalone_run(const JobSpec& spec,
                                    const Assignment& assignment,
                                    const cluster::CostModel& cost,
                                    double recv_timeout_s) {
  core::SimSettings eff = spec.settings;
  eff.obs.trace = nullptr;  // pure re-run: no shared observers, no files
  eff.obs.trace_json_path.clear();
  mp::RuntimeOptions rt;
  rt.recv_timeout_s = recv_timeout_s;
  return core::run_parallel(spec.scene, eff, assignment.sub_spec,
                            assignment.placement, cost, rt);
}

}  // namespace psanim::farm
