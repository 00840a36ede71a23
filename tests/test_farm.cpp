// psanim::farm property suite. The headline properties:
//
//  * safety — the scheduler never oversubscribes a node's CPU slots, under
//    either policy, for adversarial job mixes;
//  * liveness — the queue always drains (work conservation): every
//    admitted job reaches a terminal state;
//  * determinism — completion order, per-job finish times and the whole
//    Report are identical run to run for a fixed submission set;
//  * fidelity — a job on an idle farm is bit-identical (virtual makespan
//    and framebuffer hash) to the same run outside the farm, and a
//    contended job's *output* still is, only its farm completion stretches;
//  * isolation — a job that crashes a calculator and recovers from its own
//    checkpoints cannot stall or perturb its neighbors.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/vault.hpp"
#include "cluster/cluster_spec.hpp"
#include "core/simulation.hpp"
#include "core/wire.hpp"
#include "farm/farm.hpp"
#include "farm/job.hpp"
#include "obs/trace.hpp"
#include "render/compare.hpp"
#include "sim/scenario.hpp"

namespace psanim {
namespace {

using farm::Farm;
using farm::FarmOptions;
using farm::JobSpec;
using farm::JobState;
using farm::Policy;

core::Scene tiny_scene(std::size_t systems = 2, std::size_t particles = 600,
                       std::uint32_t frames = 6) {
  sim::ScenarioParams p;
  p.systems = systems;
  p.particles_per_system = particles;
  p.frames = frames;
  return sim::make_fountain_scene(p);
}

JobSpec tiny_job(const std::string& name, int ncalc = 1,
                 std::uint32_t frames = 6, std::uint64_t seed = 42) {
  JobSpec j;
  j.name = name;
  j.scene = tiny_scene(2, 600, frames);
  j.settings.ncalc = ncalc;
  j.settings.frames = frames;
  j.settings.seed = seed;
  j.settings.image_width = 64;
  j.settings.image_height = 48;
  return j;
}

/// n generic nodes, `cpus` slots each, all rate 1.0.
cluster::ClusterSpec flat_cluster(std::size_t n, int cpus) {
  cluster::ClusterSpec spec;
  spec.add(cluster::NodeType::generic(1.0, cpus), n);
  return spec;
}

FarmOptions fast_opts(Policy policy = Policy::kFifo) {
  FarmOptions o;
  o.policy = policy;
  o.recv_timeout_s = 30.0;  // wedged protocol fails fast, not at 60 s
  return o;
}

// --- admission ---------------------------------------------------------

TEST(FarmAdmission, RejectsJobLargerThanCluster) {
  Farm f(flat_cluster(2, 2), fast_opts());  // 4 slots
  // ncalc 3 => world 5 > 4 slots: can never run, reject at submit.
  EXPECT_THROW(f.submit(tiny_job("huge", 3)), std::invalid_argument);
  // ncalc 2 => world 4 == capacity: fine.
  EXPECT_NO_THROW(f.submit(tiny_job("fits", 2)));
}

TEST(FarmAdmission, RejectsInvalidSettings) {
  Farm f(flat_cluster(2, 2), fast_opts());
  auto zero_frames = tiny_job("zero");
  zero_frames.settings.frames = 0;
  EXPECT_THROW(f.submit(std::move(zero_frames)), std::invalid_argument);
  auto bad_ncalc = tiny_job("bad");
  bad_ncalc.settings.ncalc = 0;
  EXPECT_THROW(f.submit(std::move(bad_ncalc)), std::invalid_argument);
  auto late = tiny_job("late");
  late.submit_time_s = -1.0;
  EXPECT_THROW(f.submit(std::move(late)), std::invalid_argument);
}

TEST(FarmAdmission, ValidateRejectsFarmInvalidConfigsDirectly) {
  // The same validate() the farm leans on, exercised directly: the
  // rejection happens before any scheduling state is touched, with a
  // message naming the bad field.
  core::SimSettings s;
  s.frames = 0;
  try {
    s.validate();
    FAIL() << "zero-frame settings must not validate";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("frames"), std::string::npos);
  }
  s = {};
  s.ncalc = -2;
  try {
    s.validate();
    FAIL() << "negative ncalc must not validate";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ncalc"), std::string::npos);
  }
  s = {};
  EXPECT_NO_THROW(s.validate());
}

TEST(FarmAdmission, RejectsSharedVaultOrTrace) {
  Farm f(flat_cluster(4, 2), fast_opts());
  ckpt::Vault vault;
  auto a = tiny_job("a");
  a.settings.ckpt.interval = 2;
  a.settings.ckpt_vault = &vault;
  EXPECT_NO_THROW(f.submit(std::move(a)));
  auto b = tiny_job("b");
  b.settings.ckpt.interval = 2;
  b.settings.ckpt_vault = &vault;  // same vault as a: reject
  EXPECT_THROW(f.submit(std::move(b)), std::invalid_argument);

  obs::Trace trace;
  auto c = tiny_job("c");
  c.settings.obs.trace = &trace;
  EXPECT_NO_THROW(f.submit(std::move(c)));
  auto d = tiny_job("d");
  d.settings.obs.trace = &trace;  // same trace as c: reject
  EXPECT_THROW(f.submit(std::move(d)), std::invalid_argument);
}

TEST(FarmAdmission, QueueSealsAtStart) {
  Farm f(flat_cluster(2, 2), fast_opts());
  f.submit(tiny_job("early"));
  f.start();
  EXPECT_THROW(f.submit(tiny_job("late")), std::invalid_argument);
  f.wait();
}

// --- fidelity: idle farm == standalone, bit for bit ---------------------

TEST(FarmFidelity, IdleFarmJobBitIdenticalToStandalone) {
  Farm f(flat_cluster(3, 2), fast_opts());
  auto h = f.submit(tiny_job("solo", 2, 8));
  const auto report = f.run();
  const auto& jr = h.await();
  ASSERT_EQ(jr.state, JobState::kDone) << jr.error;

  // An idle farm adds no contention: start at 0, stretch exactly 1, and
  // the farm finish IS the job's own virtual makespan.
  EXPECT_EQ(jr.start_s, 0.0);
  EXPECT_EQ(jr.stretch, 1.0);
  EXPECT_EQ(jr.finish_s, jr.standalone_makespan_s);
  EXPECT_EQ(report.makespan_s, jr.finish_s);

  // Re-run outside the farm on the same assignment: bit-identical.
  const auto solo =
      farm::standalone_run(tiny_job("solo", 2, 8), jr.assignment);
  EXPECT_EQ(jr.standalone_makespan_s, solo.animation_s);
  EXPECT_EQ(jr.fb_hash, render::hash_framebuffer(solo.final_frame));
}

// --- fidelity under contention ------------------------------------------

TEST(FarmFidelity, ContentionStretchesCompletionNotResults) {
  // 3 dual-CPU nodes; two world-3 jobs. Packing puts one rank of each on
  // the middle node, so each job shares a node it would have had alone —
  // both should finish late by exactly 1/smp_contention, with outputs
  // (hash + own makespan) untouched.
  cluster::ClusterSpec spec = flat_cluster(3, 2);
  FarmOptions opts = fast_opts();
  Farm f(spec, opts);
  auto ha = f.submit(tiny_job("a", 1, 6, 1));
  auto hb = f.submit(tiny_job("b", 1, 6, 2));
  f.run();
  const auto& ra = ha.await();
  const auto& rb = hb.await();
  ASSERT_EQ(ra.state, JobState::kDone) << ra.error;
  ASSERT_EQ(rb.state, JobState::kDone) << rb.error;

  // Both jobs ran concurrently from t=0 and each has a solo rank on a
  // node the other also occupies.
  EXPECT_EQ(ra.start_s, 0.0);
  EXPECT_EQ(rb.start_s, 0.0);
  const double penalty = 1.0 / opts.cost.smp_contention;
  EXPECT_GT(penalty, 1.0);  // guard: the model actually charges sharing
  EXPECT_GE(ra.stretch, 1.0);
  EXPECT_GE(rb.stretch, 1.0);
  EXPECT_LE(ra.stretch, penalty + 1e-12);
  EXPECT_LE(rb.stretch, penalty + 1e-12);
  // At least one of them was stretched for its whole run (the one that
  // finishes first never ran alone).
  EXPECT_GT(std::max(ra.stretch, rb.stretch), 1.0);

  // Outputs are still bit-identical to standalone runs.
  const auto sa = farm::standalone_run(tiny_job("a", 1, 6, 1), ra.assignment);
  const auto sb = farm::standalone_run(tiny_job("b", 1, 6, 2), rb.assignment);
  EXPECT_EQ(ra.standalone_makespan_s, sa.animation_s);
  EXPECT_EQ(rb.standalone_makespan_s, sb.animation_s);
  EXPECT_EQ(ra.fb_hash, render::hash_framebuffer(sa.final_frame));
  EXPECT_EQ(rb.fb_hash, render::hash_framebuffer(sb.final_frame));
}

// --- safety + liveness --------------------------------------------------

class FarmPolicyTest : public ::testing::TestWithParam<Policy> {};

TEST_P(FarmPolicyTest, NeverOversubscribesAndQueueDrains) {
  // 8 jobs of mixed widths on a small heterogeneous cluster: total demand
  // far exceeds capacity, so the queue must actually queue.
  cluster::ClusterSpec spec;
  spec.add(cluster::NodeType::generic(1.0, 2), 2);
  spec.add(cluster::NodeType::generic(0.5, 1), 3);  // 7 slots total
  Farm f(spec, fast_opts(GetParam()));
  std::vector<farm::JobHandle> handles;
  for (int i = 0; i < 8; ++i) {
    const int ncalc = 1 + (i % 2);  // world 3 or 4
    handles.push_back(f.submit(
        tiny_job("j" + std::to_string(i), ncalc, 4 + (i % 3) * 2, 100 + i)));
  }
  const auto report = f.run();

  // Liveness: every job terminal, all done.
  for (auto& h : handles) {
    EXPECT_EQ(h.await().state, JobState::kDone) << h.name();
  }
  EXPECT_EQ(report.jobs_done, 8u);
  EXPECT_EQ(report.completion_order.size(), 8u);

  // Safety: the farm-virtual peak residency never exceeded any node's
  // slot budget.
  ASSERT_EQ(report.nodes.size(), spec.node_count());
  for (std::size_t n = 0; n < spec.node_count(); ++n) {
    EXPECT_LE(report.nodes[n].peak_ranks, spec.nodes[n].cpus) << "node " << n;
    EXPECT_GE(report.nodes[n].peak_ranks, 0);
  }

  // Work conservation sanity: the busiest node accumulated busy time and
  // the makespan covers the longest finish.
  double busiest = 0.0;
  for (const auto& u : report.nodes) busiest = std::max(busiest, u.busy_rank_s);
  EXPECT_GT(busiest, 0.0);
  for (auto& h : handles) EXPECT_LE(h.await().finish_s, report.makespan_s);
}

INSTANTIATE_TEST_SUITE_P(Policies, FarmPolicyTest,
                         ::testing::Values(Policy::kFifo, Policy::kSjf));

// --- determinism --------------------------------------------------------

farm::Report run_mix(Policy policy, std::vector<double>* finishes) {
  cluster::ClusterSpec spec;
  spec.add(cluster::NodeType::generic(1.0, 2), 2);
  spec.add(cluster::NodeType::generic(0.5, 1), 2);
  Farm f(spec, fast_opts(policy));
  std::vector<farm::JobHandle> handles;
  for (int i = 0; i < 6; ++i) {
    auto j = tiny_job("j" + std::to_string(i), 1 + (i % 2), 4 + (i % 3) * 4,
                      7 + i);
    j.submit_time_s = (i / 2) * 0.5;  // staggered arrivals
    handles.push_back(f.submit(std::move(j)));
  }
  auto report = f.run();
  if (finishes != nullptr) {
    for (auto& h : handles) finishes->push_back(h.await().finish_s);
  }
  return report;
}

TEST(FarmDeterminism, CompletionOrderAndTimesReproduce) {
  for (const Policy policy : {Policy::kFifo, Policy::kSjf}) {
    std::vector<double> fin1, fin2;
    const auto r1 = run_mix(policy, &fin1);
    const auto r2 = run_mix(policy, &fin2);
    EXPECT_EQ(r1.completion_order, r2.completion_order)
        << to_string(policy);
    EXPECT_EQ(fin1, fin2) << to_string(policy);  // exact doubles
    EXPECT_EQ(r1.makespan_s, r2.makespan_s);
    EXPECT_EQ(r1.total_flow_s, r2.total_flow_s);
  }
}

TEST(FarmDeterminism, SjfReordersShortJobFirst) {
  // One job at a time fits (single node, 3 slots): FIFO runs the long job
  // first; SJF runs the short one first, cutting its flow time.
  const auto run_two = [](Policy policy) {
    Farm f(flat_cluster(1, 3), fast_opts(policy));
    f.submit(tiny_job("long", 1, 16, 5));
    f.submit(tiny_job("short", 1, 4, 6));
    return f.run();
  };
  const auto fifo = run_two(Policy::kFifo);
  const auto sjf = run_two(Policy::kSjf);
  ASSERT_EQ(fifo.completion_order.size(), 2u);
  ASSERT_EQ(sjf.completion_order.size(), 2u);
  EXPECT_EQ(fifo.completion_order.front(), "long");
  EXPECT_EQ(sjf.completion_order.front(), "short");
  // Same work either way; SJF strictly improves total flow.
  EXPECT_EQ(fifo.makespan_s, sjf.makespan_s);
  EXPECT_LT(sjf.total_flow_s, fifo.total_flow_s);
}

// --- handle semantics ---------------------------------------------------

TEST(FarmHandles, CancelQueuedButNotFinished) {
  Farm f(flat_cluster(1, 3), fast_opts());
  auto keep = f.submit(tiny_job("keep", 1, 4));
  auto drop = f.submit(tiny_job("drop", 1, 4));
  EXPECT_EQ(drop.poll(), JobState::kQueued);
  EXPECT_TRUE(drop.cancel());
  EXPECT_FALSE(drop.cancel());  // already cancelled
  const auto report = f.run();
  EXPECT_EQ(keep.await().state, JobState::kDone);
  EXPECT_EQ(drop.await().state, JobState::kCancelled);
  EXPECT_EQ(report.jobs_done, 1u);
  EXPECT_EQ(report.jobs_cancelled, 1u);
  EXPECT_FALSE(keep.cancel());  // done jobs can't be cancelled
}

TEST(FarmHandles, DefaultConstructedHandleThrowsInsteadOfCrashing) {
  farm::JobHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_THROW(h.name(), std::logic_error);
  EXPECT_THROW(h.poll(), std::logic_error);
  EXPECT_THROW(h.await(), std::logic_error);
  EXPECT_THROW(h.cancel(), std::logic_error);
}

TEST(FarmHandles, CancelRacingLaunchNeverRunsACancelledJob) {
  // cancel() fires from this thread while the driver is sweeping/launching:
  // any cancel() that reports success must stick — the job terminates
  // kCancelled and never runs, and the report's tallies agree with what
  // the handles observed (TOCTOU regression: a cancel landing between the
  // driver's queue sweep and the launch used to be overwritten by
  // kRunning).
  Farm f(flat_cluster(1, 3), fast_opts());
  std::vector<farm::JobHandle> handles;
  for (int i = 0; i < 6; ++i) {
    handles.push_back(f.submit(tiny_job("r" + std::to_string(i), 1, 4)));
  }
  f.start();
  std::size_t reported = 0;
  for (auto& h : handles) reported += h.cancel() ? 1u : 0u;
  f.wait();
  std::size_t cancelled = 0, done = 0;
  for (auto& h : handles) {
    const auto s = h.await().state;
    if (s == JobState::kCancelled) {
      ++cancelled;
    } else {
      EXPECT_EQ(s, JobState::kDone) << h.name() << ": " << h.await().error;
      ++done;
    }
  }
  EXPECT_EQ(cancelled, reported);
  EXPECT_EQ(f.report().jobs_cancelled, reported);
  EXPECT_EQ(f.report().jobs_done, done);
}

TEST(FarmHandles, ConcurrentWaitersAreSafe) {
  // Two threads wait() on the same farm: exactly one joins the driver, the
  // other must not double-join (UB) — both return with the queue drained.
  Farm f(flat_cluster(2, 2), fast_opts());
  auto h = f.submit(tiny_job("w", 1, 4));
  std::thread other([&] { f.wait(); });
  f.wait();
  other.join();
  EXPECT_EQ(h.poll(), JobState::kDone);
  EXPECT_EQ(f.report().jobs_done, 1u);
}

TEST(FarmHandles, HandlesOutliveTheFarm) {
  farm::JobHandle h;
  {
    Farm f(flat_cluster(2, 2), fast_opts());
    h = f.submit(tiny_job("ghost", 1, 4));
    f.wait();
  }
  EXPECT_EQ(h.poll(), JobState::kDone);
  EXPECT_GT(h.await().fb_hash, 0u);
}

// --- liveness when launches fail ----------------------------------------

TEST(FarmLiveness, FailedLaunchDoesNotStrandQueuedJobs) {
  // Regression: "bad" (world 3) passes admission but run_parallel throws
  // at launch (its fault plan crashes a calculator the job doesn't have —
  // validated only at run time). On a 4-slot cluster "good" (world 3)
  // can't co-run, so it is queued when the whole first batch fails; the
  // driver must re-run the scheduling pass on the freed slots instead of
  // seeing nothing running/arriving and exiting with "good" stuck kQueued
  // (which deadlocked await()).
  Farm f(flat_cluster(1, 4), fast_opts());
  auto bad_spec = tiny_job("bad", 1, 4);
  bad_spec.settings.fault_plan.crashes = {{.calc = 7, .at_frame = 0}};
  auto bad = f.submit(std::move(bad_spec));
  auto good = f.submit(tiny_job("good", 1, 4));
  const auto report = f.run();

  EXPECT_EQ(bad.await().state, JobState::kFailed);
  EXPECT_FALSE(bad.await().error.empty());
  ASSERT_EQ(good.await().state, JobState::kDone) << good.await().error;
  EXPECT_GT(good.await().fb_hash, 0u);
  EXPECT_EQ(report.jobs_failed, 1u);
  EXPECT_EQ(report.jobs_done, 1u);
  ASSERT_EQ(report.completion_order.size(), 2u);
  EXPECT_EQ(report.completion_order.front(), "bad");
}

// --- isolation: crash recovery stays per-job ----------------------------

TEST(FarmIsolation, RecoveringJobDoesNotPerturbNeighbors) {
  // Job "chaos" loses calculator 1 at frame 3 and recovers by
  // restart-from-checkpoint out of its own vault; job "calm" shares the
  // cluster. Both must finish, and both must still match their standalone
  // runs bit for bit (recovery replay is deterministic — PR2).
  const auto chaos_spec = [] {
    auto j = tiny_job("chaos", 2, 8, 11);
    j.settings.fault_plan.crashes = {{.calc = 1, .at_frame = 3}};
    j.settings.ckpt.interval = 2;
    return j;
  };
  const auto calm_spec = [] { return tiny_job("calm", 2, 8, 12); };

  Farm f(flat_cluster(4, 2), fast_opts());
  auto hc = f.submit(chaos_spec());
  auto hn = f.submit(calm_spec());
  f.run();
  const auto& rc = hc.await();
  const auto& rn = hn.await();
  ASSERT_EQ(rc.state, JobState::kDone) << rc.error;
  ASSERT_EQ(rn.state, JobState::kDone) << rn.error;

  const auto sc = farm::standalone_run(chaos_spec(), rc.assignment);
  const auto sn = farm::standalone_run(calm_spec(), rn.assignment);
  EXPECT_EQ(rc.fb_hash, render::hash_framebuffer(sc.final_frame));
  EXPECT_EQ(rn.fb_hash, render::hash_framebuffer(sn.final_frame));
  EXPECT_GT(rc.result.fault_stats.restart_recoveries, 0u);
  EXPECT_EQ(rn.result.fault_stats.restart_recoveries, 0u);
}

// --- assignment packing -------------------------------------------------

TEST(FarmAssign, PacksFastestFreeNodesFirst) {
  cluster::ClusterSpec spec;
  spec.add(cluster::NodeType::generic(0.5, 2));  // node 0: slow
  spec.add(cluster::NodeType::generic(1.0, 2));  // node 1: fast
  const std::vector<int> free = {2, 2};
  const auto a = farm::assign_slots(spec, free, 3);
  ASSERT_EQ(a.shared_nodes.size(), 2u);
  EXPECT_EQ(a.shared_nodes[0], 1);  // fast node taken first
  EXPECT_EQ(a.ranks_per_node[0], 2);
  EXPECT_EQ(a.shared_nodes[1], 0);
  EXPECT_EQ(a.ranks_per_node[1], 1);
  EXPECT_EQ(a.world_size(), 3);
  // Manager (rank 0) lands on the fastest granted node.
  EXPECT_EQ(a.placement.node_of_rank[core::kManagerRank], 0);
  EXPECT_EQ(a.sub_spec.node_rate(0), spec.node_rate(1));
}

TEST(FarmAssign, ThrowsWhenSlotsShort) {
  const auto spec = flat_cluster(2, 1);
  EXPECT_THROW(farm::assign_slots(spec, {1, 0}, 2), std::invalid_argument);
  EXPECT_THROW(farm::assign_slots(spec, {1}, 1), std::invalid_argument);
}

// --- pool-metric attribution under concurrent runs ----------------------

TEST(FarmPoolMetrics, OverlappingRunsSkipMisattributedPoolDeltas) {
  // run_parallel samples the process-global BufferPool around itself; with
  // a neighbor running, that delta would blame the neighbor's traffic on
  // this run. The overlap guard must detect concurrency and skip the
  // export (emitting the skipped marker instead), while a solo run keeps
  // the full psanim_mp_buffer_* counters.
  const auto run_one = [](std::uint64_t seed) {
    auto j = tiny_job("p", 1, 4, seed);
    const auto a =
        farm::assign_slots(flat_cluster(2, 2), {2, 2}, j.world_size());
    return farm::standalone_run(std::move(j), a);
  };
  const auto solo = run_one(1);
  EXPECT_NE(solo.metrics.find_counter("psanim_mp_buffer_acquires_total"),
            nullptr);
  EXPECT_EQ(solo.metrics.find_counter("psanim_mp_buffer_stats_skipped_shared"),
            nullptr);

  core::ParallelResult left, right;
  std::thread t([&] { left = run_one(2); });
  right = run_one(3);
  t.join();
  // Wall-clock racing isn't guaranteed to overlap, but whenever a run's
  // window was shared the full delta must be absent and the marker
  // present — never both.
  for (const auto* r : {&left, &right}) {
    const bool skipped =
        r->metrics.find_counter("psanim_mp_buffer_stats_skipped_shared") !=
        nullptr;
    const bool exported =
        r->metrics.find_counter("psanim_mp_buffer_acquires_total") != nullptr;
    EXPECT_NE(skipped, exported);
  }
}

// --- farm-level metrics -------------------------------------------------

TEST(FarmReport, ExportsAggregateMetrics) {
  Farm f(flat_cluster(2, 2), fast_opts());
  f.submit(tiny_job("m0", 1, 4));
  f.submit(tiny_job("m1", 1, 4));
  const auto report = f.run();
  const auto text = report.metrics.prometheus();
  EXPECT_NE(text.find("psanim_farm_jobs_done_total 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("psanim_farm_makespan_seconds"), std::string::npos);
  // The farm samples the process-global buffer pool around the whole run.
  EXPECT_NE(text.find("psanim_farm_buffer_acquires_total"), std::string::npos);
  // The scheduler SLO distributions ride along as quantile series.
  EXPECT_NE(text.find("psanim_farm_wait_seconds_p99"), std::string::npos);
  EXPECT_NE(text.find("psanim_farm_turnaround_seconds_p50"),
            std::string::npos);
  EXPECT_NE(text.find("psanim_farm_queue_depth_peak"), std::string::npos);
}

// --- scheduler SLO quantiles -------------------------------------------

TEST(FarmReport, SloQuantilesMatchTheJobRecords) {
  // One 4-slot node, ncalc-1 jobs (world 3): only one job fits at a time,
  // so waits accumulate deterministically behind the serial bottleneck.
  Farm f(flat_cluster(1, 4), fast_opts());
  std::vector<farm::JobHandle> handles;
  handles.push_back(f.submit(tiny_job("s0", 1, 6, 1)));
  handles.push_back(f.submit(tiny_job("s1", 1, 4, 2)));
  handles.push_back(f.submit(tiny_job("s2", 1, 8, 3)));
  const auto report = f.run();
  ASSERT_EQ(report.jobs_done, 3u);

  std::vector<double> waits, turnarounds, slowdowns;
  for (auto& h : handles) {
    const auto& jr = h.await();
    waits.push_back(jr.start_s);        // every submit_time_s is 0
    turnarounds.push_back(jr.finish_s);
    ASSERT_GT(jr.standalone_makespan_s, 0.0);
    slowdowns.push_back(jr.finish_s / jr.standalone_makespan_s);
  }
  std::sort(waits.begin(), waits.end());
  std::sort(turnarounds.begin(), turnarounds.end());
  std::sort(slowdowns.begin(), slowdowns.end());

  EXPECT_EQ(report.wait_q.sorted_samples(), waits);
  EXPECT_EQ(report.turnaround_q.sorted_samples(), turnarounds);
  EXPECT_EQ(report.slowdown_q.sorted_samples(), slowdowns);
  // Nearest-rank on n=3: p50 is the 2nd smallest, p99 the maximum.
  EXPECT_DOUBLE_EQ(report.wait_q.quantile(0.5), waits[1]);
  EXPECT_DOUBLE_EQ(report.wait_q.quantile(0.99), waits[2]);
  EXPECT_DOUBLE_EQ(report.turnaround_q.quantile(0.99), turnarounds[2]);
  // Behind a serial bottleneck every job but the first waits.
  EXPECT_GT(report.wait_q.quantile(0.99), 0.0);
  EXPECT_GE(report.slowdown_q.quantile(0.5), 1.0);
}

TEST(FarmReport, QueueDepthSeriesPeaksThenDrains) {
  Farm f(flat_cluster(1, 4), fast_opts());
  f.submit(tiny_job("q0", 1, 4, 1));
  f.submit(tiny_job("q1", 1, 4, 2));
  f.submit(tiny_job("q2", 1, 4, 3));
  const auto report = f.run();

  ASSERT_FALSE(report.queue_depth.empty());
  int peak = 0;
  double prev_t = -1.0;
  for (const auto& [t, depth] : report.queue_depth) {
    EXPECT_GE(depth, 0);
    EXPECT_GT(t, prev_t) << "breakpoints must strictly advance";
    prev_t = t;
    peak = std::max(peak, depth);
  }
  // Three serial jobs arrive at once: two must queue behind the first.
  EXPECT_EQ(peak, 2);
  EXPECT_EQ(report.queue_depth.back().second, 0) << "the queue must drain";
  EXPECT_DOUBLE_EQ(
      report.metrics.gauge_value("psanim_farm_queue_depth_peak"), 2.0);
}

TEST(FarmReport, AllCancelledRunLeavesFiniteReport) {
  // Guard regression: with zero completed jobs every aggregate — means and
  // the new quantile series — must answer 0, never NaN from a 0/0.
  Farm f(flat_cluster(1, 4), fast_opts());
  auto h0 = f.submit(tiny_job("c0", 1, 4, 1));
  auto h1 = f.submit(tiny_job("c1", 1, 4, 2));
  EXPECT_TRUE(h0.cancel());
  EXPECT_TRUE(h1.cancel());
  const auto report = f.run();

  EXPECT_EQ(report.jobs_done, 0u);
  EXPECT_EQ(report.jobs_cancelled, 2u);
  EXPECT_DOUBLE_EQ(report.mean_turnaround_s, 0.0);
  EXPECT_EQ(report.wait_q.count(), 0u);
  for (const double p : {0.5, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(report.wait_q.quantile(p), 0.0);
    EXPECT_DOUBLE_EQ(report.turnaround_q.quantile(p), 0.0);
    EXPECT_DOUBLE_EQ(report.slowdown_q.quantile(p), 0.0);
  }
  const auto text = report.metrics.prometheus();
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;
  EXPECT_EQ(text.find("inf"), std::string::npos) << text;
}

}  // namespace
}  // namespace psanim
