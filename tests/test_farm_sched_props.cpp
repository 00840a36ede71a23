// Scheduler property blitz: randomized arrival traces (seeded, fully
// deterministic) swept across every queue discipline, asserting the
// invariants that must hold no matter what the trace looks like — no
// stranded job, capacity never oversubscribed, completion set == submission
// set minus cancels, queue-depth series terminates, exact-double
// determinism across reruns and across both execution cores. The same
// invariants are then checked on farm::Scheduler alone, driven by a
// stand-in for Farm::drive() from a synthetic duration table with exact
// ties. Around the sweeps: directed tests pinning the EASY-backfill
// reservation guarantee, cost-aware victim selection, and decayed
// fair-share.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cluster/cluster_spec.hpp"
#include "core/simulation.hpp"
#include "farm/farm.hpp"
#include "farm/job.hpp"
#include "sim/scenario.hpp"

namespace psanim {
namespace {

using farm::Farm;
using farm::FarmOptions;
using farm::JobSpec;
using farm::JobState;
using farm::Policy;
using farm::VictimSelection;

// --- deterministic trace generation ------------------------------------

/// splitmix64 — tiny, seedable, and good enough to shuffle job shapes.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(next() % n);
  }
  double unit() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
};

core::Scene prop_scene(std::uint32_t frames) {
  sim::ScenarioParams p;
  p.systems = 1;
  p.particles_per_system = 240;
  p.frames = frames;
  return sim::make_fountain_scene(p);
}

JobSpec prop_job(const std::string& name, int ncalc, std::uint32_t frames) {
  JobSpec j;
  j.name = name;
  j.scene = prop_scene(frames);
  j.settings.ncalc = ncalc;
  j.settings.frames = frames;
  j.settings.seed = 42;
  j.settings.image_width = 48;
  j.settings.image_height = 32;
  return j;
}

cluster::ClusterSpec prop_cluster() {
  cluster::ClusterSpec spec;
  spec.add(cluster::NodeType::generic(1.0, 4), 2);
  return spec;
}

struct TraceJob {
  JobSpec spec;
  bool cancel = false;
};

/// 5-8 jobs with mixed worlds (3-5 ranks: world 5 fragments a 4-slot node
/// into [4,1], the shape that makes backfill interesting), mixed lengths
/// (8/12 frames so the interval-4 preemption grid has candidates), bunched
/// arrivals, 3 tenants, priorities 0-2, and occasional pre-start cancels.
std::vector<TraceJob> make_trace(std::uint64_t seed) {
  Rng rng{seed * 0x9E3779B97F4A7C15ull + 1};
  const int njobs = 5 + static_cast<int>(rng.below(4));
  std::vector<TraceJob> out;
  double at = 0.0;
  for (int i = 0; i < njobs; ++i) {
    const std::uint32_t frames = rng.below(2) == 0 ? 8 : 12;
    const int ncalc = 1 + static_cast<int>(rng.below(3));
    TraceJob tj;
    tj.spec = prop_job("s" + std::to_string(seed) + "j" + std::to_string(i),
                       ncalc, frames);
    tj.spec.submit_time_s = at;
    at += rng.unit() * 0.002;
    tj.spec.priority = static_cast<int>(rng.below(3));
    tj.spec.tenant = "t" + std::to_string(rng.below(3));
    // A deliberately loose quadratic upper-bound proxy: per-frame cost
    // grows as the fountain fills, so frames^2 dominates the true cost
    // and the backfill calibration (est_ratio) stays an upper bound.
    tj.spec.sjf_cost_hint = static_cast<double>(frames) * frames;
    tj.cancel = i > 0 && rng.below(5) == 0;
    out.push_back(std::move(tj));
  }
  return out;
}

struct SchedConfig {
  Policy policy = Policy::kFifo;
  bool easy_backfill = false;
  VictimSelection victim = VictimSelection::kLeastDeserving;
  double half_life_s = 0.0;
  mp::ExecMode mode = mp::ExecMode::kDefault;
};

FarmOptions prop_opts(const SchedConfig& cfg) {
  FarmOptions o;
  o.policy = cfg.policy;
  o.recv_timeout_s = 30.0;
  o.exec_mode = cfg.mode;
  o.preempt_interval = 4;
  o.easy_backfill = cfg.easy_backfill;
  o.victim_selection = cfg.victim;
  o.fair_share.half_life_s = cfg.half_life_s;
  o.keep_results = false;  // scalars survive; 100-seed sweep stays light
  return o;
}

struct JobProbe {
  std::string name;
  int priority = 0;
  bool cancelled = false;
  JobState state = JobState::kQueued;
  double start_s = 0.0;
  double finish_s = 0.0;
  std::uint64_t fb_hash = 0;
  bool backfilled = false;
  double reserved_at_s = -1.0;
};

struct Outcome {
  farm::Report report;
  std::vector<JobProbe> jobs;
};

Outcome run_trace(std::uint64_t seed, const SchedConfig& cfg) {
  auto trace = make_trace(seed);
  Farm f(prop_cluster(), prop_opts(cfg));
  std::vector<farm::JobHandle> handles;
  std::vector<JobProbe> probes;
  for (auto& tj : trace) {
    JobProbe p;
    p.name = tj.spec.name;
    p.priority = tj.spec.priority;
    p.cancelled = tj.cancel;
    probes.push_back(p);
    handles.push_back(f.submit(std::move(tj.spec)));
    if (tj.cancel) EXPECT_TRUE(handles.back().cancel());
  }
  Outcome out;
  out.report = f.run();
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const auto& r = handles[i].await();
    probes[i].state = r.state;
    probes[i].start_s = r.start_s;
    probes[i].finish_s = r.finish_s;
    probes[i].fb_hash = r.fb_hash;
    probes[i].backfilled = r.backfilled;
    probes[i].reserved_at_s = r.reserved_at_s;
  }
  out.jobs = std::move(probes);
  return out;
}

/// The invariants every discipline must satisfy on every trace.
void check_invariants(const Outcome& o) {
  std::set<std::string> expected, completed;
  for (const auto& j : o.jobs) {
    // No stranded job: every submission reaches a terminal state, and the
    // only non-done terminal is the cancel we asked for.
    if (j.cancelled) {
      EXPECT_EQ(j.state, JobState::kCancelled) << j.name;
    } else {
      EXPECT_EQ(j.state, JobState::kDone) << j.name;
      expected.insert(j.name);
      EXPECT_GE(j.finish_s, j.start_s) << j.name;
    }
  }
  for (const auto& n : o.report.completion_order) completed.insert(n);
  EXPECT_EQ(completed, expected);
  EXPECT_EQ(o.report.completion_order.size(), o.report.jobs_done);
  EXPECT_EQ(o.report.jobs_failed, 0u);

  // Capacity is never oversubscribed at any farm-virtual instant.
  const auto spec = prop_cluster();
  ASSERT_EQ(o.report.nodes.size(), spec.node_count());
  for (std::size_t n = 0; n < o.report.nodes.size(); ++n) {
    EXPECT_LE(o.report.nodes[n].peak_ranks, spec.nodes[n].cpus);
  }

  // The queue-depth step series is strictly ordered and drains to zero.
  ASSERT_FALSE(o.report.queue_depth.empty());
  EXPECT_EQ(o.report.queue_depth.back().second, 0);
  for (std::size_t i = 1; i < o.report.queue_depth.size(); ++i) {
    EXPECT_LT(o.report.queue_depth[i - 1].first,
              o.report.queue_depth[i].first);
  }
}

void expect_identical(const Outcome& a, const Outcome& b) {
  EXPECT_EQ(a.report.makespan_s, b.report.makespan_s);  // exact doubles
  EXPECT_EQ(a.report.completion_order, b.report.completion_order);
  EXPECT_EQ(a.report.queue_depth, b.report.queue_depth);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].start_s, b.jobs[i].start_s) << a.jobs[i].name;
    EXPECT_EQ(a.jobs[i].finish_s, b.jobs[i].finish_s) << a.jobs[i].name;
    EXPECT_EQ(a.jobs[i].fb_hash, b.jobs[i].fb_hash) << a.jobs[i].name;
    EXPECT_EQ(a.jobs[i].backfilled, b.jobs[i].backfilled) << a.jobs[i].name;
    EXPECT_EQ(a.jobs[i].reserved_at_s, b.jobs[i].reserved_at_s)
        << a.jobs[i].name;
  }
}

constexpr std::uint64_t kSeeds = 100;

void sweep(const SchedConfig& cfg, std::size_t* backfilled_total = nullptr) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto o = run_trace(seed, cfg);
    check_invariants(o);
    if (backfilled_total != nullptr) {
      *backfilled_total += o.report.jobs_backfilled;
      // Backfill must never push a reserved top-priority job past its
      // pinned reservation: nothing outranks it, so once it blocks the
      // promise must hold exactly.
      int top = 0;
      for (const auto& j : o.jobs) top = std::max(top, j.priority);
      std::size_t flagged = 0;
      for (const auto& j : o.jobs) {
        if (j.backfilled) ++flagged;
        if (j.priority == top && j.reserved_at_s >= 0.0 &&
            j.state == JobState::kDone) {
          EXPECT_LE(j.start_s, j.reserved_at_s + 1e-9) << j.name;
        }
      }
      EXPECT_EQ(flagged, o.report.jobs_backfilled);
    }
    if (seed % 10 == 0) {  // exact-double determinism on identical reruns
      expect_identical(o, run_trace(seed, cfg));
    }
  }
}

// --- the sweep, per discipline ------------------------------------------

TEST(FarmSchedProps, FifoHoldsInvariantsOverRandomTraces) {
  sweep({.policy = Policy::kFifo});
}

TEST(FarmSchedProps, SjfHoldsInvariantsOverRandomTraces) {
  sweep({.policy = Policy::kSjf});
}

TEST(FarmSchedProps, PriorityHoldsInvariantsOverRandomTraces) {
  sweep({.policy = Policy::kPriority});
}

TEST(FarmSchedProps, FairShareWithDecayHoldsInvariantsOverRandomTraces) {
  sweep({.policy = Policy::kFairShare, .half_life_s = 3.0});
}

TEST(FarmSchedProps, BackfillHoldsInvariantsAndNeverBreaksReservations) {
  std::size_t backfilled = 0;
  sweep({.policy = Policy::kPriority,
         .easy_backfill = true,
         .victim = VictimSelection::kCostAware},
        &backfilled);
  // The sweep actually exercised the backfill path, not just tolerated it.
  EXPECT_GT(backfilled, 0u);
}

TEST(FarmSchedProps, DecayedFairShareMatchesRawIntegralWhenDisabled) {
  // half_life <= 0 must be bit-identical to the PR-9 full-history
  // integral — same additions in the same order, no decay applied.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_identical(run_trace(seed, {.policy = Policy::kFairShare}),
                     run_trace(seed, {.policy = Policy::kFairShare,
                                      .half_life_s = -1.0}));
  }
}

TEST(FarmSchedProps, IdenticalAcrossBothExecutionCores) {
  // The DES depends only on virtual quantities: fibers and threads legs
  // must agree to the last bit, including the backfill bookkeeping.
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (const auto cfg : {SchedConfig{.policy = Policy::kPriority},
                           SchedConfig{.policy = Policy::kPriority,
                                       .easy_backfill = true,
                                       .victim = VictimSelection::kCostAware}}) {
      auto fibers = cfg;
      fibers.mode = mp::ExecMode::kFibers;
      auto threads = cfg;
      threads.mode = mp::ExecMode::kThreads;
      expect_identical(run_trace(seed, fibers), run_trace(seed, threads));
    }
  }
}

// --- the Scheduler alone, on a synthetic duration table -----------------

/// A stand-in for Farm::drive(): no run_parallel, no threads. Frame f
/// of a job completes at (f + 1)^2 x kTick virtual seconds — per-frame cost
/// grows as the fountain fills, so the job runs F^2 x kTick, exactly
/// proportional to make_trace's F^2 estimate and the backfill calibration
/// is a true upper bound. Arrivals sit on a whole-second grid: all exact
/// binary fractions, so arrivals, finishes, vacates (interval-4 checkpoint
/// frames end on whole seconds) and cancels land on the very same
/// instants. Cancels come three ways: at submission (make_trace's flag), at
/// a later arrival instant, and as a cancel winning the launch claim; other
/// jobs fail at launch.
struct SchedRun {
  std::vector<farm::Decision> log;
  std::size_t vacates = 0;
  std::size_t backfills = 0;
  std::size_t aborts = 0;
  std::size_t tied_instants = 0;  ///< finish/vacate instants that are arrivals
  std::size_t max_queue = 0;      ///< longest queue an admission pass saw
};

constexpr double kTick = 0.0625;

/// Drives `trace` on `cluster`; arrivals land on `arrival_slots` whole
/// seconds. The default is make_trace's short, bunched trace on
/// prop_cluster().
SchedRun drive_scheduler(std::uint64_t seed, const SchedConfig& cfg,
                         bool contention, int preempt_interval,
                         std::vector<TraceJob> trace = {},
                         const cluster::ClusterSpec& cluster = prop_cluster(),
                         std::uint32_t arrival_slots = 10) {
  enum class St { kQueued, kRunning, kSuspended, kDone, kCancelled, kFailed };
  if (trace.empty()) trace = make_trace(seed);
  const std::size_t n = trace.size();
  Rng rng{seed + 0x5EED};
  std::vector<double> cancel_at(n, 1e300);
  std::vector<bool> race(n, false), fail(n, false);
  std::set<double> arrivals;
  for (std::size_t i = 0; i < n; ++i) {
    auto& spec = trace[i].spec;
    spec.submit_time_s = 16.0 * kTick * rng.below(arrival_slots);
    arrivals.insert(spec.submit_time_s);
    if (trace[i].cancel) cancel_at[i] = 0.0;
    const auto roll = rng.below(8);
    if (roll == 0) cancel_at[i] = spec.submit_time_s + 1.0;
    race[i] = roll == 1;
    fail[i] = roll == 2;
  }
  FarmOptions opts = prop_opts(cfg);
  opts.max_preemptions_per_job = 1;
  opts.preempt_interval = preempt_interval;
  if (!contention) opts.cost.smp_contention = 1.0;
  farm::Scheduler s(cluster, opts);
  for (const auto& tj : trace) s.submit(tj.spec);

  SchedRun out;
  std::vector<St> st(n, St::kQueued);
  std::vector<int> vacated(n, 0);
  std::vector<double> first_start(n, -1.0);
  std::map<int, double> reserved_at;  // first pin per job, as JobResult
  std::set<int> cancelled;
  const auto idx = [](int seq) { return static_cast<std::size_t>(seq); };
  const auto ledger_ok = [&] {
    for (const int f : s.free_slots()) EXPECT_GE(f, 0);
  };
  for (std::size_t guard = 0; guard < 10000 + 20 * n; ++guard) {
    s.arrive();
    for (std::size_t i = 0; i < n; ++i) {
      if (st[i] == St::kQueued && cancel_at[i] <= s.now()) {
        st[i] = St::kCancelled;
        cancelled.insert(static_cast<int>(i));
      }
    }
    const std::vector<int> queue = s.queue();
    out.max_queue = std::max(out.max_queue, queue.size());
    for (const int seq : queue) {
      if (st[idx(seq)] == St::kCancelled) s.cancel(seq);
    }
    const auto pass = s.schedule();
    ledger_ok();
    for (const auto& d : pass) {
      out.log.push_back(d);
      if (d.kind == farm::Decision::Kind::kVictim) {
        EXPECT_GT(s.rank(d.seq), s.rank(d.blocked));
        EXPECT_LT(vacated[idx(d.seq)], opts.max_preemptions_per_job);
        if (cfg.policy == Policy::kPriority) {
          EXPECT_LT(trace[idx(d.seq)].spec.priority,
                    trace[idx(d.blocked)].spec.priority);
        }
      } else if (d.kind == farm::Decision::Kind::kReserve) {
        reserved_at.emplace(d.seq, d.at);
      } else if (d.kind == farm::Decision::Kind::kBackfill) {
        ++out.backfills;
      } else if (d.kind == farm::Decision::Kind::kLaunch) {
        EXPECT_EQ(cancelled.count(d.seq), 0u) << "a cancelled job launched";
      }
    }
    // Claim every launch; aborts go first, as Farm::drive() does.
    const std::vector<farm::Segment> batch = s.batch();
    std::vector<bool> ran(batch.size(), false);
    for (std::size_t b = 0; b < batch.size(); ++b) {
      const auto i = idx(batch[b].seq);
      if (race[i] && st[i] == St::kQueued) {
        st[i] = St::kCancelled;  // the cancel wins the claim
        cancelled.insert(batch[b].seq);
      }
      const St expect = batch[b].restore ? St::kSuspended : St::kQueued;
      if (st[i] != expect || (fail[i] && !batch[b].restore)) {
        if (st[i] == expect) st[i] = St::kFailed;
        s.abort_launch(batch[b].seq);
        ++out.aborts;
        ledger_ok();
        continue;
      }
      ran[b] = true;
      st[i] = St::kRunning;
      if (first_start[i] < 0.0) first_start[i] = s.now();
    }
    bool aborted = false;
    for (std::size_t b = 0; b < batch.size(); ++b) {
      if (!ran[b]) {
        aborted = true;
        continue;
      }
      const std::uint32_t frames =
          trace[idx(batch[b].seq)].spec.settings.frames;
      std::vector<std::pair<std::uint32_t, double>> timeline;
      for (std::uint32_t f = 0; f < frames; ++f) {
        timeline.emplace_back(f, (f + 1) * (f + 1) * kTick);
      }
      const std::uint32_t done = batch[b].resume ? *batch[b].resume + 1 : 0;
      s.launched(batch[b].seq, (frames * frames - done * done) * kTick,
                 std::move(timeline));
    }
    if (aborted) continue;  // re-run the pass at this instant
    if (s.idle()) break;
    const auto events = s.advance();
    ledger_ok();
    for (const auto& d : events) {
      out.log.push_back(d);
      if (arrivals.count(d.at) != 0) ++out.tied_instants;
      if (d.kind == farm::Decision::Kind::kVacate) {
        st[idx(d.seq)] = St::kSuspended;
        ++vacated[idx(d.seq)];
        ++out.vacates;
      } else {
        st[idx(d.seq)] = St::kDone;
      }
    }
  }

  // No stranded job: everything ends done, cancelled or failed.
  EXPECT_TRUE(s.idle());
  EXPECT_TRUE(s.queue().empty());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(st[i] == St::kDone || st[i] == St::kCancelled ||
                st[i] == St::kFailed)
        << trace[i].spec.name;
  }
  for (std::size_t k = 0; k < cluster.node_count(); ++k) {
    EXPECT_LE(s.usage()[k].peak_ranks, cluster.nodes[k].cpus);
  }
  // The reserved head never starts after its pinned reservation: nothing
  // outranks a top-priority job, so its promise must hold.
  if (cfg.policy == Policy::kPriority && cfg.easy_backfill) {
    int top = 0;
    for (const auto& tj : trace) top = std::max(top, tj.spec.priority);
    for (const auto& [seq, at] : reserved_at) {
      const auto i = idx(seq);
      if (trace[i].spec.priority == top && st[i] == St::kDone) {
        EXPECT_LE(first_start[i], at + 1e-9) << trace[i].spec.name;
      }
    }
  }
  return out;
}

/// Every (policy, EASY, victim order, contention, interval) the exact-tie
/// sweep covers, over 40 seeds each; `fn(label, seed, cfg, contention,
/// interval)` runs one cell.
template <typename Fn>
void for_each_tie_cell(Fn&& fn) {
  for (const auto policy : {Policy::kFifo, Policy::kSjf, Policy::kPriority,
                            Policy::kFairShare}) {
    for (const bool easy : {false, true}) {
      for (const auto victim : {VictimSelection::kLeastDeserving,
                                VictimSelection::kCostAware}) {
        for (const bool contention : {false, true}) {
          // Interval 64 leaves no checkpoint before the last frame: no
          // victims, so only the backfill rule protects a reservation.
          for (const int interval : {4, 64}) {
            const SchedConfig cfg{.policy = policy,
                                  .easy_backfill = easy,
                                  .victim = victim,
                                  .half_life_s = 3.0};
            for (std::uint64_t seed = 0; seed < 40; ++seed) {
              fn(to_string(policy) + (easy ? " easy " : " strict ") +
                     to_string(victim) + (contention ? " smp" : " flat") +
                     " interval " + std::to_string(interval) + " seed " +
                     std::to_string(seed),
                 seed, cfg, contention, interval);
            }
          }
        }
      }
    }
  }
}

TEST(FarmSchedulerProps, HoldsInvariantsOnSyntheticTracesWithExactTies) {
  std::size_t vacates = 0, backfills = 0, aborts = 0, ties = 0;
  for_each_tie_cell([&](const std::string& label, std::uint64_t seed,
                        const SchedConfig& cfg, bool contention,
                        int interval) {
    SCOPED_TRACE(label);
    const SchedRun a = drive_scheduler(seed, cfg, contention, interval);
    EXPECT_EQ(a.log, drive_scheduler(seed, cfg, contention, interval).log);
    vacates += a.vacates;
    backfills += a.backfills;
    aborts += a.aborts;
    ties += a.tied_instants;
  });
  // The sweep exercised every path it claims to, exact ties included.
  EXPECT_GT(vacates, 0u);
  EXPECT_GT(backfills, 0u);
  EXPECT_GT(aborts, 0u);
  EXPECT_GT(ties, 0u);
}

/// `jobs` jobs of world 3-9 (up to 7 calculators, so grants straddle
/// nodes), 8/12/16 frames, priorities 0-3 and 4 tenants: on 8 x 4 slots
/// the queue runs hundreds deep when they arrive over a span of 0.75
/// seconds per job.
std::vector<TraceJob> make_deep_trace(std::uint64_t seed, int jobs) {
  Rng rng{seed * 0xD1B54A32D192ED03ull + 7};
  std::vector<TraceJob> out;
  for (int i = 0; i < jobs; ++i) {
    const std::uint32_t frames = 8 + 4 * rng.below(3);
    TraceJob tj;
    tj.spec = prop_job("d" + std::to_string(i),
                       1 + static_cast<int>(rng.below(7)), frames);
    tj.spec.priority = static_cast<int>(rng.below(4));
    tj.spec.tenant = "t" + std::to_string(rng.below(4));
    tj.spec.sjf_cost_hint = static_cast<double>(frames) * frames;
    tj.cancel = i > 0 && rng.below(50) == 0;
    out.push_back(std::move(tj));
  }
  return out;
}

cluster::ClusterSpec deep_cluster() {
  cluster::ClusterSpec spec;
  spec.add(cluster::NodeType::generic(1.0, 4), 8);
  return spec;
}

/// FNV-1a over every field of every decision, in order.
void fold(std::uint64_t& h, const std::vector<farm::Decision>& log) {
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFFu;
      h *= 0x100000001B3ull;
    }
  };
  for (const auto& d : log) {
    mix(static_cast<std::uint64_t>(d.kind));
    mix(static_cast<std::uint64_t>(d.seq));
    mix(std::bit_cast<std::uint64_t>(d.at));
    mix(d.frame);
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(d.blocked)));
  }
}

// Every decision the exact-tie sweep and two deep-queue traces produce,
// folded into one digest pinned to the value the scheduler gave before its
// admission pass went incremental (ordered queue, EASY memo, early exit):
// any change to a decision, its order or its instant moves the digest.
TEST(FarmSchedulerProps, DecisionDigestIsPinned) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for_each_tie_cell([&](const std::string& label, std::uint64_t seed,
                        const SchedConfig& cfg, bool contention,
                        int interval) {
    SCOPED_TRACE(label);
    fold(h, drive_scheduler(seed, cfg, contention, interval).log);
  });

  // Deep queues: 2000 jobs under priority + EASY + cost-aware victims, and
  // under decayed fair-share (the rank keys move with the ledger).
  const SchedConfig deep[] = {
      {.policy = Policy::kPriority,
       .easy_backfill = true,
       .victim = VictimSelection::kCostAware},
      {.policy = Policy::kFairShare,
       .easy_backfill = true,
       .half_life_s = 30.0},
  };
  for (std::uint64_t k = 0; k < 2; ++k) {
    SCOPED_TRACE("deep " + to_string(deep[k].policy));
    const SchedRun r = drive_scheduler(k + 1, deep[k], true, 4,
                                       make_deep_trace(k + 1, 2000),
                                       deep_cluster(), 1500);
    fold(h, r.log);
    EXPECT_GE(r.max_queue, 500u);
    EXPECT_GT(r.backfills, 0u);
    EXPECT_GT(r.vacates, 0u);
  }
  EXPECT_EQ(h, 0x9820C34E447417F8ull);
}

// --- directed: EASY backfill --------------------------------------------

/// A (world 5) fragments the 2x4 cluster into [free: 0, 3]; C (world 4)
/// blocks at the head; D (world 3) fits the fragment. Everyone has equal
/// priority, so strict head-of-line would idle those 3 slots until A
/// finishes — EASY starts D because C's reservation (node 0, once A
/// releases it) survives even if D never gives its slots back.
struct BackfillScenario {
  JobProbe a, c, d;
  farm::Report report;
};

BackfillScenario run_backfill_scenario(bool easy) {
  SchedConfig cfg{.policy = Policy::kPriority, .easy_backfill = easy};
  auto opts = prop_opts(cfg);
  // Contention-free cost model: with no SMP penalty the backfilled job
  // cannot even *stretch* its neighbors, so the head's start must be
  // bit-equal across the strict and EASY legs (the randomized sweep covers
  // the contended case, where only the reservation bound holds).
  opts.cost.smp_contention = 1.0;
  Farm f(prop_cluster(), opts);
  auto a = prop_job("A", 3, 12);
  auto c = prop_job("C", 2, 8);
  auto d = prop_job("D", 1, 8);
  c.submit_time_s = 1e-6;
  d.submit_time_s = 2e-6;
  auto ha = f.submit(std::move(a));
  auto hc = f.submit(std::move(c));
  auto hd = f.submit(std::move(d));
  BackfillScenario s;
  s.report = f.run();
  const auto probe = [](const farm::JobHandle& h) {
    const auto& r = h.await();
    JobProbe p;
    p.name = h.name();
    p.state = r.state;
    p.start_s = r.start_s;
    p.finish_s = r.finish_s;
    p.fb_hash = r.fb_hash;
    p.backfilled = r.backfilled;
    p.reserved_at_s = r.reserved_at_s;
    return p;
  };
  s.a = probe(ha);
  s.c = probe(hc);
  s.d = probe(hd);
  return s;
}

TEST(FarmBackfill, FillsTheFragmentWithoutDelayingTheReservedHead) {
  const auto strict = run_backfill_scenario(false);
  const auto easy = run_backfill_scenario(true);
  for (const auto* s : {&strict, &easy}) {
    ASSERT_EQ(s->a.state, JobState::kDone);
    ASSERT_EQ(s->c.state, JobState::kDone);
    ASSERT_EQ(s->d.state, JobState::kDone);
  }

  // Strict head-of-line: D waits behind blocked C despite fitting now.
  EXPECT_FALSE(strict.d.backfilled);
  EXPECT_GE(strict.d.start_s, strict.c.start_s);
  EXPECT_EQ(strict.report.jobs_backfilled, 0u);

  // EASY: D jumps the blocked head...
  EXPECT_TRUE(easy.d.backfilled);
  EXPECT_LT(easy.d.start_s, easy.c.start_s);
  EXPECT_EQ(easy.report.jobs_backfilled, 1u);
  // ...and C still starts exactly when strict would have started it: the
  // backfill was free. Its pinned reservation (an upper bound on A's
  // release) is honored.
  EXPECT_EQ(easy.c.start_s, strict.c.start_s);
  ASSERT_GE(easy.c.reserved_at_s, 0.0);
  EXPECT_LE(easy.c.start_s, easy.c.reserved_at_s + 1e-9);
  // Results are input-identical either way.
  EXPECT_EQ(easy.a.fb_hash, strict.a.fb_hash);
  EXPECT_EQ(easy.c.fb_hash, strict.c.fb_hash);
  EXPECT_EQ(easy.d.fb_hash, strict.d.fb_hash);

  // Backfill traffic shows up in the metrics dump.
  const auto dump = easy.report.metrics.prometheus();
  EXPECT_NE(dump.find("psanim_farm_backfills_total 1"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("psanim_farm_reservations_total"), std::string::npos);
}

// --- directed: cost-aware victim selection ------------------------------

/// Two equal-priority victims fill the cluster when a high-priority job
/// arrives. "cheap" carries its own interval-2 checkpoint grid (next
/// candidate: frame 1); "pricey" gets the imposed interval-4 grid (frame
/// 3). Least-deserving tie-breaks pick the youngest seq (pricey); the
/// cost-aware ranker must pick cheap — the least drain work thrown away.
TEST(FarmVictims, CostAwarePicksTheVictimNearestItsCheckpoint) {
  for (const auto victim : {VictimSelection::kLeastDeserving,
                            VictimSelection::kCostAware}) {
    SCOPED_TRACE(to_string(victim));
    SchedConfig cfg{.policy = Policy::kPriority, .victim = victim};
    Farm f(prop_cluster(), prop_opts(cfg));
    auto cheap = prop_job("cheap", 2, 12);
    cheap.settings.ckpt.interval = 2;  // own grid: frames 1, 3, 5, ...
    auto pricey = prop_job("pricey", 2, 12);
    auto urgent = prop_job("urgent", 2, 8);
    urgent.priority = 1;
    urgent.submit_time_s = 1e-6;
    auto hc = f.submit(std::move(cheap));
    auto hp = f.submit(std::move(pricey));
    auto hu = f.submit(std::move(urgent));
    const auto report = f.run();
    ASSERT_EQ(hc.await().state, JobState::kDone) << hc.await().error;
    ASSERT_EQ(hp.await().state, JobState::kDone) << hp.await().error;
    ASSERT_EQ(hu.await().state, JobState::kDone) << hu.await().error;
    EXPECT_EQ(report.jobs_preempted, 1u);

    const bool cost_aware = victim == VictimSelection::kCostAware;
    const auto& evicted = cost_aware ? hc.await() : hp.await();
    const auto& spared = cost_aware ? hp.await() : hc.await();
    EXPECT_EQ(evicted.preemptions, 1);
    EXPECT_EQ(spared.preemptions, 0);
    ASSERT_EQ(evicted.preempt_frames.size(), 1u);
    EXPECT_EQ(evicted.preempt_frames[0], cost_aware ? 1u : 3u);
  }
}

// --- directed: decayed fair-share ---------------------------------------

TEST(FarmFairShare, HalfLifeForgivesAncientHogging) {
  // hogA monopolizes the cluster at time zero; a virtual eon later hogB
  // (earlier seq) and meekB arrive together. With the full-history
  // integral the hog tenant is forever over-served, so meekB runs first;
  // with a half-life the eon decays the hog's score away and the
  // arrival-order tie-break puts hogB first.
  for (const double half_life : {0.0, 1.0}) {
    SCOPED_TRACE("half_life " + std::to_string(half_life));
    SchedConfig cfg{.policy = Policy::kFairShare, .half_life_s = half_life};
    cluster::ClusterSpec one_node;
    one_node.add(cluster::NodeType::generic(1.0, 4), 1);
    Farm f(one_node, prop_opts(cfg));
    auto hog_a = prop_job("hogA", 2, 12);
    hog_a.tenant = "hog";
    auto hog_b = prop_job("hogB", 2, 8);
    hog_b.tenant = "hog";
    auto meek_b = prop_job("meekB", 2, 8);
    meek_b.tenant = "meek";
    hog_b.submit_time_s = 1e6;  // an eon >> any half-life decays to zero
    meek_b.submit_time_s = 1e6;
    f.submit(std::move(hog_a));
    f.submit(std::move(hog_b));
    f.submit(std::move(meek_b));
    const auto report = f.run();
    ASSERT_EQ(report.completion_order.size(), 3u);
    EXPECT_EQ(report.completion_order[0], "hogA");
    EXPECT_EQ(report.completion_order[1],
              half_life > 0.0 ? "hogB" : "meekB");
    EXPECT_EQ(report.completion_order[2],
              half_life > 0.0 ? "meekB" : "hogB");
    // The report's service integral stays raw history either way.
    EXPECT_GT(report.tenant_rank_s.at("hog"),
              report.tenant_rank_s.at("meek"));
  }
}

}  // namespace
}  // namespace psanim
