// Chaos suite for the fault-injection subsystem: seeded grids of runs
// with message drops / duplicates / delay spikes, calculator crashes with
// domain-merge recovery, compute slowdown and link degradation — all on
// the full Fig. 2 protocol. The headline properties:
//
//  * no deadlock: every run finishes all frames in bounded wall time;
//  * bit-reproducibility: the same plan seed yields identical
//    ProcessResult summaries, virtual times and rendered frames;
//  * auditable faults: every injected fault and recovery action lands in
//    the obs span stream as an instant on the rank that acted;
//  * crash recovery: survivors inherit the dead calculator's domain and
//    finish the animation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "core/simulation.hpp"
#include "core/wire.hpp"
#include "fault/injector.hpp"
#include "mp/fault_hook.hpp"
#include "mp/mailbox.hpp"
#include "mp/runtime.hpp"
#include "obs/trace.hpp"
#include "psys/actions.hpp"
#include "sim/run_config.hpp"
#include "sim/scenario.hpp"

namespace psanim {
namespace {

using core::Scene;
using core::SimSettings;

Scene chaos_scene(bool snow) {
  sim::ScenarioParams p;
  p.systems = 2;
  p.particles_per_system = 600;
  p.frames = 8;
  return snow ? sim::make_snow_scene(p) : sim::make_fountain_scene(p);
}

SimSettings chaos_settings() {
  SimSettings s;
  s.frames = 8;
  s.ncalc = 3;
  s.image_width = 64;
  s.image_height = 48;
  // Protocol deadlocks fail in seconds, not minutes (the suite-level
  // CTest TIMEOUT is the backstop, this is the first line of defense).
  s.phase_timeout_s = 10.0;
  return s;
}

core::ParallelResult run(const Scene& scene, const SimSettings& settings,
                         mp::ExecMode exec_mode = mp::ExecMode::kDefault) {
  sim::RunConfig cfg;
  cfg.groups = {{cluster::NodeType::e800(), std::min(settings.ncalc, 8),
                 settings.ncalc}};
  cfg.network = net::Interconnect::kMyrinet;
  const auto built = sim::build_cluster(cfg);
  return core::run_parallel(scene, settings, built.spec, built.placement,
                            {},
                            mp::RuntimeOptions{.recv_timeout_s = 15.0,
                                               .exec_mode = exec_mode});
}

bool same_image(const render::Framebuffer& a, const render::Framebuffer& b) {
  return a.colors().size() == b.colors().size() &&
         std::memcmp(a.colors().data(), b.colors().data(),
                     a.colors().size() * sizeof(render::Color)) == 0;
}

void expect_identical_procs(const std::vector<mp::ProcessResult>& a,
                            const std::vector<mp::ProcessResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a[r].finish_time, b[r].finish_time) << "rank " << r;
    EXPECT_EQ(a[r].compute_s, b[r].compute_s) << "rank " << r;
    EXPECT_EQ(a[r].comm_s, b[r].comm_s) << "rank " << r;
    EXPECT_EQ(a[r].traffic.msgs_sent, b[r].traffic.msgs_sent) << "rank " << r;
    EXPECT_EQ(a[r].traffic.bytes_sent, b[r].traffic.bytes_sent)
        << "rank " << r;
  }
}

std::size_t count_labeled(const obs::Trace& trace, const char* prefix) {
  std::size_t n = 0;
  for (const auto& r : trace.sorted_records()) {
    if (r.kind == obs::RecordKind::kInstant &&
        trace.labels().name(r.label).rfind(prefix, 0) == 0) {
      ++n;
    }
  }
  return n;
}

fault::FaultPlan message_chaos_plan(std::uint64_t seed) {
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.drop_rate = 0.05;
  plan.retransmit_s = 1e-3;
  plan.duplicate_rate = 0.05;
  plan.delay_rate = 0.08;
  plan.delay_spike_s = 0.8e-3;
  return plan;
}

// --- FaultPlan unit properties ---------------------------------------

TEST(FaultPlan, ValidationRejectsNonsense) {
  fault::FaultPlan p;
  p.drop_rate = 1.5;
  EXPECT_THROW(p.validate(3, 10), std::invalid_argument);

  p = {};
  p.delay_spike_s = -1.0;
  EXPECT_THROW(p.validate(3, 10), std::invalid_argument);

  p = {};
  p.crashes = {{.calc = 3, .at_frame = 1}};
  EXPECT_THROW(p.validate(3, 10), std::invalid_argument);

  p = {};
  p.crashes = {{.calc = 0, .at_frame = 10}};
  EXPECT_THROW(p.validate(3, 10), std::invalid_argument);

  p = {};
  p.crashes = {{.calc = 0, .at_frame = 2}, {.calc = 0, .at_frame = 5}};
  EXPECT_THROW(p.validate(3, 10), std::invalid_argument);

  // Killing every calculator leaves nobody to finish the animation.
  p = {};
  p.crashes = {{.calc = 0, .at_frame = 2},
               {.calc = 1, .at_frame = 3},
               {.calc = 2, .at_frame = 3}};
  EXPECT_THROW(p.validate(3, 10), std::invalid_argument);

  // A survivable schedule passes.
  p = {};
  p.drop_rate = 0.1;
  p.crashes = {{.calc = 0, .at_frame = 2}, {.calc = 2, .at_frame = 2}};
  EXPECT_NO_THROW(p.validate(3, 10));
}

TEST(FaultPlan, MembershipIsAPureFunctionOfTheFrame) {
  fault::FaultPlan p;
  p.crashes = {{.calc = 1, .at_frame = 3}};
  EXPECT_TRUE(p.calc_alive(1, 0));
  EXPECT_TRUE(p.calc_alive(1, 2));
  EXPECT_FALSE(p.calc_alive(1, 3));
  EXPECT_FALSE(p.calc_alive(1, 7));
  EXPECT_TRUE(p.calc_alive(0, 7));
  EXPECT_EQ(p.alive_calcs(2, 3), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(p.alive_calcs(3, 3), (std::vector<int>{0, 2}));
}

TEST(FaultPlan, MergeTargetPrefersTheLeftSurvivor) {
  // alive mask excludes the dead calculator itself.
  EXPECT_EQ(fault::merge_target({1, 0, 1}, 1), 0);
  EXPECT_EQ(fault::merge_target({0, 1, 1}, 0), 1);
  EXPECT_EQ(fault::merge_target({1, 1, 0}, 2), 1);
  EXPECT_EQ(fault::merge_target({0, 0, 1}, 1), 2);
  EXPECT_EQ(fault::merge_target({0, 0, 0}, 1), -1);
}

TEST(Injector, SameSeedSameFaultStream) {
  const auto plan = message_chaos_plan(99);
  fault::Injector a(plan, 5);
  fault::Injector b(plan, 5);
  auto plan2 = plan;
  plan2.seed = 100;
  fault::Injector c(plan2, 5);

  bool any_fault = false, any_difference = false;
  for (int i = 0; i < 400; ++i) {
    const int src = i % 5;
    const int dst = (i + 1 + i / 5) % 5;
    const auto fa = a.on_send(src, dst, 101, 512, 0.0, 1e-4, 0);
    const auto fb = b.on_send(src, dst, 101, 512, 0.0, 1e-4, 0);
    const auto fc = c.on_send(src, dst, 101, 512, 0.0, 1e-4, 0);
    EXPECT_EQ(fa.retransmits, fb.retransmits);
    EXPECT_EQ(fa.extra_wire_s, fb.extra_wire_s);
    EXPECT_EQ(fa.duplicate, fb.duplicate);
    any_fault |= fa.retransmits > 0 || fa.duplicate || fa.extra_wire_s > 0;
    any_difference |= fa.retransmits != fc.retransmits ||
                      fa.duplicate != fc.duplicate ||
                      fa.extra_wire_s != fc.extra_wire_s;
  }
  EXPECT_TRUE(any_fault) << "rates are nonzero, something must fire";
  EXPECT_TRUE(any_difference) << "a different seed must shift the stream";
  EXPECT_EQ(a.stats().sends_inspected, 400u);
  EXPECT_EQ(a.stats().total_faults(), b.stats().total_faults());
}

// --- mp substrate under faults ---------------------------------------

TEST(MpFaults, DuplicatesAreDeliveredOnceAndInOrder) {
  fault::FaultPlan plan;
  plan.seed = 7;
  plan.duplicate_rate = 1.0;  // every message gets a trailing copy
  fault::Injector injector(plan, 2);
  mp::Runtime rt(2, mp::zero_cost_fn(),
                 {.recv_timeout_s = 5.0, .fault = &injector});
  constexpr int kMessages = 20;
  rt.run([&](mp::Endpoint& ep) {
    if (ep.rank() == 0) {
      for (int i = 0; i < kMessages; ++i) {
        mp::Writer w;
        w.put(i);
        ep.send(1, 42, std::move(w));
      }
    } else {
      for (int i = 0; i < kMessages; ++i) {
        mp::Message m = ep.recv(0, 42);
        EXPECT_EQ(mp::Reader(m).get<int>(), i);
      }
    }
  });
  EXPECT_EQ(injector.stats().duplicates,
            static_cast<std::uint64_t>(kMessages));
  // Receiver consumed every original; trailing copies may still sit in
  // the mailbox (nothing ever matched them) but none were delivered.
  EXPECT_LE(injector.stats().duplicates_discarded,
            static_cast<std::uint64_t>(kMessages));
}

TEST(MpFaults, RecvWithinFailsFastOnSilence) {
  mp::Runtime rt(2, mp::zero_cost_fn(), {.recv_timeout_s = 60.0});
  EXPECT_THROW(rt.run([&](mp::Endpoint& ep) {
                 if (ep.rank() == 0) {
                   // Nobody ever sends: the per-call deadline, not the
                   // 60 s runtime default, must apply.
                   ep.recv_within(1, 7, 0.05);
                 }
               }),
               mp::RecvTimeout);
}

TEST(MpFaults, ComputeSlowdownScalesCharges) {
  fault::FaultPlan plan;
  plan.slowdowns = {{.rank = 1, .after_s = 0.0, .factor = 3.0}};
  fault::Injector injector(plan, 2);
  mp::Runtime rt(2, mp::zero_cost_fn(),
                 {.recv_timeout_s = 5.0, .fault = &injector});
  const auto procs = rt.run([&](mp::Endpoint& ep) { ep.charge(1.0); });
  EXPECT_DOUBLE_EQ(procs[0].finish_time, 1.0);
  EXPECT_DOUBLE_EQ(procs[1].finish_time, 3.0);
}

// --- chaos grid over the full protocol --------------------------------

class ChaosGrid
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(ChaosGrid, RunsCompleteAndReproduceBitExactly) {
  const auto [seed, snow] = GetParam();
  const Scene scene = chaos_scene(snow);
  SimSettings settings = chaos_settings();
  settings.fault_plan = message_chaos_plan(seed);

  obs::Trace trace;
  settings.obs.trace = &trace;
  const auto first = run(scene, settings);

  // No deadlock and no lost frames: the image generator finished all of
  // them, under drops, duplicates and delay spikes.
  ASSERT_EQ(first.telemetry.image_frames().size(), settings.frames);
  EXPECT_GT(first.fault_stats.total_faults(), 0u);
  EXPECT_GT(count_labeled(trace, "fault:"), 0u);

  // Same seed, same everything: virtual clocks, traffic and pixels.
  settings.obs.trace = nullptr;
  const auto second = run(scene, settings);
  expect_identical_procs(first.procs, second.procs);
  EXPECT_EQ(first.animation_s, second.animation_s);
  EXPECT_TRUE(same_image(first.final_frame, second.final_frame));
  EXPECT_EQ(first.fault_stats.total_faults(),
            second.fault_stats.total_faults());
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndScenes, ChaosGrid,
    ::testing::Combine(::testing::Values(1u, 7u, 42u),
                       ::testing::Bool()));

TEST(ChaosObs, MessageFaultNotesLiveOnTheActingRank) {
  // Each message-fault note is an instant on the rank whose thread acted:
  // the sender for "fault: <what> -> rank N", the receiver for "fault:
  // duplicate from rank S discarded". Both ends record into their own
  // RankRecorder, so the resolved stream cannot depend on the exec core.
  const Scene scene = chaos_scene(/*snow=*/false);
  SimSettings settings = chaos_settings();
  settings.fault_plan = message_chaos_plan(42);

  using Note = std::tuple<std::string, int, std::uint32_t, double>;
  const auto fault_notes = [&](mp::ExecMode mode) {
    obs::Trace trace;
    settings.obs.trace = &trace;
    const auto r = run(scene, settings, mode);
    EXPECT_EQ(r.telemetry.image_frames().size(), settings.frames);
    std::vector<Note> notes;
    for (const auto& rec : trace.sorted_records()) {
      std::string label = trace.labels().name(rec.label);
      if (rec.kind != obs::RecordKind::kInstant ||
          label.rfind("fault:", 0) != 0) {
        continue;
      }
      notes.emplace_back(std::move(label), rec.rank, rec.frame, rec.begin_v);
    }
    std::sort(notes.begin(), notes.end());
    return notes;
  };

  const auto fibers = fault_notes(mp::ExecMode::kFibers);
  std::size_t sender_notes = 0, discard_notes = 0;
  for (const auto& [label, rank, frame, vtime] : fibers) {
    const std::string to = " -> rank ";
    const std::string from = "fault: duplicate from rank ";
    if (const auto at = label.find(to); at != std::string::npos) {
      ++sender_notes;
      EXPECT_NE(std::stoi(label.substr(at + to.size())), rank) << label;
    } else if (label.rfind(from, 0) == 0) {
      ++discard_notes;
      // The receiver owns the discard note; its sender noted the copy.
      const int src = std::stoi(label.substr(from.size()));
      EXPECT_NE(src, rank) << label;
      const std::string dup = "fault: duplicated -> rank " +
                              std::to_string(rank);
      EXPECT_TRUE(std::any_of(fibers.begin(), fibers.end(),
                              [&](const Note& n) {
                                return std::get<0>(n) == dup &&
                                       std::get<1>(n) == src;
                              }))
          << label << " on rank " << rank;
    } else {
      ADD_FAILURE() << "unexpected fault note: " << label;
    }
  }
  EXPECT_GT(sender_notes, 0u);
  EXPECT_GT(discard_notes, 0u);

  EXPECT_EQ(fibers, fault_notes(mp::ExecMode::kThreads));
}

// --- crash recovery ---------------------------------------------------

TEST(CrashRecovery, SurvivorsFinishWithTheMergedDomain) {
  const Scene scene = chaos_scene(/*snow=*/false);
  SimSettings settings = chaos_settings();
  settings.fault_plan.crashes = {{.calc = 1, .at_frame = 3}};

  obs::Trace trace;
  settings.obs.trace = &trace;
  const auto r = run(scene, settings);

  // All frames rendered despite losing a calculator mid-run.
  ASSERT_EQ(r.telemetry.image_frames().size(), settings.frames);

  // The dead calculator's domain collapsed to zero width; its former
  // interval belongs to a survivor, and survivors partition everything.
  for (const auto& d : r.final_decomps) {
    EXPECT_EQ(d.domain_lo(1), d.domain_hi(1));
    EXPECT_LT(d.domain_lo(0), d.domain_hi(0));
    EXPECT_LT(d.domain_lo(2), d.domain_hi(2));
    EXPECT_EQ(d.domain_hi(0), d.domain_lo(1));
  }

  // The crash and the recovery are in the trace.
  EXPECT_EQ(count_labeled(trace, "fault: calculator crashed"), 1u);
  EXPECT_GE(count_labeled(trace, "recovery:"), 2u);

  // The dead rank stopped early; every survivor outlived it.
  const double dead_finish =
      r.procs[static_cast<std::size_t>(core::calc_rank(1))].finish_time;
  EXPECT_LT(dead_finish,
            r.procs[static_cast<std::size_t>(core::calc_rank(0))].finish_time);
  EXPECT_LT(dead_finish,
            r.procs[static_cast<std::size_t>(core::calc_rank(2))].finish_time);
}

TEST(CrashRecovery, FirstCalculatorCrashMergesRight) {
  const Scene scene = chaos_scene(/*snow=*/true);
  SimSettings settings = chaos_settings();
  settings.fault_plan.crashes = {{.calc = 0, .at_frame = 2}};

  const auto r = run(scene, settings);
  ASSERT_EQ(r.telemetry.image_frames().size(), settings.frames);
  for (const auto& d : r.final_decomps) {
    // Domain 0 owns nothing; calculator 1 inherited everything below.
    EXPECT_EQ(d.owner_of(-1e6f), 1);
  }
}

TEST(CrashRecovery, ChaosPlusCrashIsReproducible) {
  // The acceptance scenario: drops + delays + duplicates + one crash.
  const Scene scene = chaos_scene(/*snow=*/false);
  SimSettings settings = chaos_settings();
  settings.fault_plan = message_chaos_plan(1234);
  settings.fault_plan.crashes = {{.calc = 2, .at_frame = 4}};

  obs::Trace trace;
  settings.obs.trace = &trace;
  const auto first = run(scene, settings);
  ASSERT_EQ(first.telemetry.image_frames().size(), settings.frames);
  EXPECT_GT(count_labeled(trace, "fault:"), 0u);
  EXPECT_GE(count_labeled(trace, "recovery:"), 2u);

  settings.obs.trace = nullptr;
  const auto second = run(scene, settings);
  expect_identical_procs(first.procs, second.procs);
  EXPECT_TRUE(same_image(first.final_frame, second.final_frame));
}

TEST(CrashRecovery, FiberCoreCrashAndMergeMatchesThreadedCore) {
  // Fail-stop crash + merge recovery under the fiber scheduler, pinned
  // explicitly so this covers fibers even when CI's differential leg
  // exports PSANIM_EXEC_MODE=threads. The dying rank unwinds its fiber
  // stack mid-protocol; survivors renegotiate the domain — and every
  // proc stat and pixel matches the thread-per-rank oracle bit for bit.
  const Scene scene = chaos_scene(/*snow=*/false);
  SimSettings settings = chaos_settings();
  settings.fault_plan = message_chaos_plan(777);
  settings.fault_plan.crashes = {{.calc = 1, .at_frame = 3}};

  const auto fibers = run(scene, settings, mp::ExecMode::kFibers);
  ASSERT_EQ(fibers.telemetry.image_frames().size(), settings.frames);
  EXPECT_EQ(fibers.fault_stats.merge_recoveries, 1u);

  const auto fibers2 = run(scene, settings, mp::ExecMode::kFibers);
  expect_identical_procs(fibers.procs, fibers2.procs);
  EXPECT_TRUE(same_image(fibers.final_frame, fibers2.final_frame));

  const auto threads = run(scene, settings, mp::ExecMode::kThreads);
  expect_identical_procs(fibers.procs, threads.procs);
  EXPECT_EQ(fibers.animation_s, threads.animation_s);
  EXPECT_TRUE(same_image(fibers.final_frame, threads.final_frame));
}

// --- slowdowns and degradation ----------------------------------------

TEST(DegradedRuns, ComputeSlowdownStretchesTheAnimation) {
  const Scene scene = chaos_scene(/*snow=*/false);
  SimSettings settings = chaos_settings();
  const auto clean = run(scene, settings);

  settings.fault_plan.slowdowns = {
      {.rank = core::calc_rank(0), .after_s = 0.0, .factor = 4.0}};
  const auto slowed = run(scene, settings);
  EXPECT_GT(slowed.animation_s, clean.animation_s);
}

TEST(DegradedRuns, LinkDegradationStretchesTheAnimation) {
  const Scene scene = chaos_scene(/*snow=*/false);
  SimSettings settings = chaos_settings();
  const auto clean = run(scene, settings);

  // Myrinet cluster falls back to something far slower mid-run.
  settings.fault_plan.degrade = fault::DegradeSpec{
      .after_s = clean.animation_s / 2.0,
      .link = net::LinkModel::custom(5e-3, 1e6)};
  const auto degraded = run(scene, settings);
  EXPECT_GT(degraded.animation_s, clean.animation_s);
  EXPECT_GT(degraded.fault_stats.degraded_msgs, 0u);
  EXPECT_GT(degraded.fault_stats.injected_delay_s, 0.0);
}

// --- determinism regression (the virtual-clock contract) ---------------

TEST(DeterminismRegression, SameSeedSameFramebufferAndFinishTimes) {
  const Scene scene = chaos_scene(/*snow=*/false);
  SimSettings settings = chaos_settings();
  settings.seed = 0xfeedULL;

  const auto a = run(scene, settings);
  const auto b = run(scene, settings);
  ASSERT_EQ(a.procs.size(), b.procs.size());
  for (std::size_t r = 0; r < a.procs.size(); ++r) {
    EXPECT_EQ(a.procs[r].finish_time, b.procs[r].finish_time);
  }
  EXPECT_EQ(a.animation_s, b.animation_s);
  ASSERT_TRUE(same_image(a.final_frame, b.final_frame));

  // And the seed actually matters: a different one moves the particles.
  settings.seed = 0xbeefULL;
  const auto c = run(scene, settings);
  EXPECT_FALSE(same_image(a.final_frame, c.final_frame));
}

// --- numeric chaos: particles whose positions go non-finite ------------

/// Flips a small random fraction of particle x positions to NaN — a stand-
/// in for a diverging user action. The store must drop (and count) these
/// instead of letting them evade crossing discovery.
class NanInjector final : public psys::Action {
 public:
  const char* name() const override { return "nan_injector"; }
  psys::ActionClass cls() const override { return psys::ActionClass::kMove; }
  void apply(std::span<psys::Particle> ps,
             psys::ActionContext& ctx) const override {
    for (auto& p : ps) {
      if (p.dead()) continue;
      if (ctx.rng->next_float() < 0.02f) {
        p.pos.x = std::numeric_limits<float>::quiet_NaN();
      }
    }
  }
};

TEST(NumericChaos, NanParticlesAreDroppedCountedAndDoNotWedgeTheRun) {
  core::Scene scene;
  scene.space = Aabb({-10, 0, -10}, {10, 12, 10});
  scene.look_center = {0, 5, 0};
  scene.look_radius = 12.0f;
  for (int s = 0; s < 2; ++s) {
    psys::ActionList al;
    psys::Source::Params src;
    src.rate = 150;
    src.position_domain = psys::make_box({-8, 9, -8}, {8, 10, 8});
    src.velocity_domain = psys::make_box({-1, -2.5f, -1}, {1, -1.5f, 1});
    src.lifetime = 2.0f;
    al.add<psys::Source>(src);
    al.add<psys::Gravity>(Vec3{0, -9.8f, 0});
    al.add<NanInjector>();
    al.add<psys::KillOld>();
    al.add<psys::Move>();
    scene.systems.emplace_back("nan_chaos", std::move(al));
  }

  SimSettings settings = chaos_settings();
  obs::Trace trace;
  settings.obs.trace = &trace;

  const auto res = run(scene, settings);  // completes all frames: no wedge

  // The guard counted drops and exported them through the metrics.
  EXPECT_GT(
      res.metrics.counter_value("psanim_psys_nonfinite_dropped_total"), 0.0);

  // No NaN survives into the final population.
  for (const auto& sys : res.final_particles) {
    for (const auto& p : sys) {
      EXPECT_TRUE(std::isfinite(p.pos.x) && std::isfinite(p.pos.y) &&
                  std::isfinite(p.pos.z));
    }
  }
}

}  // namespace
}  // namespace psanim
