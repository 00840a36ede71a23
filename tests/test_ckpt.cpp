// Checkpoint/restore suite: snapshot format self-description (magic,
// version, per-section CRC), state-codec round trips that preserve the
// §4 slice layout, policy math shared by every role, the vault's
// coordinated manifests — and the headline chaos property: a run that
// loses a calculator mid-animation and recovers by restart-from-checkpoint
// finishes with framebuffers bit-identical to the fault-free run. The
// Replayer is the standing oracle for that property.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/format.hpp"
#include "ckpt/policy.hpp"
#include "ckpt/replayer.hpp"
#include "ckpt/snapshot.hpp"
#include "ckpt/state_codec.hpp"
#include "ckpt/vault.hpp"
#include "core/simulation.hpp"
#include "core/wire.hpp"
#include "mp/runtime.hpp"
#include "obs/trace.hpp"
#include "sim/run_config.hpp"
#include "sim/scenario.hpp"

namespace psanim {
namespace {

using core::Scene;
using core::SimSettings;

// --- snapshot format ---------------------------------------------------

std::vector<std::byte> sample_image() {
  ckpt::SnapshotWriter w(ckpt::Role::kCalculator, 3, 7, 0xABCDu);
  auto& a = w.begin_section(ckpt::SectionId::kStores);
  a.put<std::uint32_t>(42);
  a.put<double>(2.5);
  auto& b = w.begin_section(ckpt::SectionId::kClock);
  b.put<double>(123.0);
  return w.finish();
}

TEST(SnapshotFormat, RoundTripsHeaderAndSections) {
  const auto image = sample_image();
  ckpt::SnapshotReader r(image);
  EXPECT_EQ(r.header().role, ckpt::Role::kCalculator);
  EXPECT_EQ(r.header().rank, 3);
  EXPECT_EQ(r.header().frame, 7u);
  EXPECT_EQ(r.header().seed, 0xABCDu);
  EXPECT_EQ(r.header().section_count, 2u);
  EXPECT_TRUE(r.has(ckpt::SectionId::kStores));
  EXPECT_TRUE(r.has(ckpt::SectionId::kClock));
  EXPECT_FALSE(r.has(ckpt::SectionId::kLbState));
  auto s = r.section(ckpt::SectionId::kStores);
  EXPECT_EQ(s.get<std::uint32_t>(), 42u);
  EXPECT_EQ(s.get<double>(), 2.5);
  auto c = r.section(ckpt::SectionId::kClock);
  EXPECT_EQ(c.get<double>(), 123.0);
}

TEST(SnapshotFormat, DetectsPayloadCorruption) {
  auto image = sample_image();
  // Flip one bit in the last byte — part of a section payload.
  image.back() ^= std::byte{0x01};
  EXPECT_THROW(ckpt::SnapshotReader{image}, ckpt::SnapshotError);
}

TEST(SnapshotFormat, DetectsTruncation) {
  auto image = sample_image();
  image.resize(image.size() - 3);
  EXPECT_THROW(ckpt::SnapshotReader{image}, ckpt::SnapshotError);
  EXPECT_THROW(ckpt::SnapshotReader{std::vector<std::byte>(2)},
               ckpt::SnapshotError);
}

TEST(SnapshotFormat, DetectsBadMagicAndVersionSkew) {
  auto image = sample_image();
  image[0] ^= std::byte{0xFF};  // u32 snapshot magic
  EXPECT_THROW(ckpt::SnapshotReader{image}, ckpt::SnapshotError);

  image = sample_image();
  image[5] = std::byte{ckpt::kFormatVersion + 1};  // version byte
  EXPECT_THROW(ckpt::SnapshotReader{image}, ckpt::SnapshotError);
}

TEST(SnapshotFormat, Crc32MatchesKnownVector) {
  // CRC-32 ("123456789") == 0xCBF43926 — the standard check value.
  const char* s = "123456789";
  std::vector<std::byte> bytes(9);
  std::memcpy(bytes.data(), s, 9);
  EXPECT_EQ(ckpt::crc32(bytes), 0xCBF43926u);
}

// --- state codecs ------------------------------------------------------

TEST(StateCodec, StoreRoundTripPreservesSliceLayout) {
  psys::SlicedStore store(0, -4.0f, 4.0f, 4);
  std::vector<psys::Particle> ps(40);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    ps[i].pos = {-3.9f + 0.2f * static_cast<float>(i), 1.0f, 0.0f};
    ps[i].age = static_cast<float>(i);
  }
  store.insert_batch(ps);

  mp::Writer w;
  ckpt::encode_store(w, store);
  mp::Message m;
  m.payload = w.take();
  mp::Reader r(m);
  psys::SlicedStore back(0, 0.0f, 1.0f, 4);
  ckpt::decode_store(r, back);

  EXPECT_EQ(back.lo(), store.lo());
  EXPECT_EQ(back.hi(), store.hi());
  ASSERT_EQ(back.slice_count(), store.slice_count());
  ASSERT_EQ(back.size(), store.size());
  // Bit-exact replay needs the exact per-slice layout, not just the
  // particle multiset — compare slice by slice, byte by byte.
  for (std::size_t s = 0; s < store.raw_slices().size(); ++s) {
    const auto& orig = store.raw_slices()[s];
    const auto& copy = back.raw_slices()[s];
    ASSERT_EQ(copy.size(), orig.size()) << "slice " << s;
    EXPECT_EQ(std::memcmp(copy.data(), orig.data(),
                          orig.size() * sizeof(psys::Particle)),
              0)
        << "slice " << s;
  }
}

TEST(StateCodec, StoreDecodeRejectsAxisSkew) {
  psys::SlicedStore store(1, -1.0f, 1.0f, 2);
  mp::Writer w;
  ckpt::encode_store(w, store);
  mp::Message m;
  m.payload = w.take();
  mp::Reader r(m);
  psys::SlicedStore other_axis(2, -1.0f, 1.0f, 2);
  EXPECT_THROW(ckpt::decode_store(r, other_axis), ckpt::SnapshotError);
}

TEST(StateCodec, TelemetryRoundTrip) {
  trace::Telemetry tel;
  trace::CalcFrameStats cs;
  cs.frame = 4;
  cs.particles_held = 99;
  tel.add_calc(cs);
  trace::ImageFrameStats is;
  is.frame = 4;
  is.particles_rendered = 99;
  tel.add_image(is);

  mp::Writer w;
  ckpt::encode_telemetry(w, tel);
  mp::Message m;
  m.payload = w.take();
  mp::Reader r(m);
  const trace::Telemetry back = ckpt::decode_telemetry(r);
  ASSERT_EQ(back.calc_frames().size(), 1u);
  EXPECT_EQ(back.calc_frames()[0].particles_held, 99u);
  EXPECT_EQ(back.manager_frames().size(), 0u);
  ASSERT_EQ(back.image_frames().size(), 1u);
  EXPECT_EQ(back.image_frames()[0].particles_rendered, 99u);
}

// --- policy math -------------------------------------------------------

TEST(CkptPolicy, SnapshotCadence) {
  ckpt::CkptPolicy p;
  EXPECT_FALSE(p.enabled());
  EXPECT_FALSE(p.due_after(0));
  EXPECT_FALSE(p.latest_snapshot_before(10).has_value());
  EXPECT_FALSE(p.restarts(10));

  p.interval = 3;  // snapshots after frames 2, 5, 8, ...
  EXPECT_TRUE(p.enabled());
  EXPECT_FALSE(p.due_after(0));
  EXPECT_TRUE(p.due_after(2));
  EXPECT_FALSE(p.due_after(3));
  EXPECT_TRUE(p.due_after(5));

  EXPECT_FALSE(p.latest_snapshot_before(0).has_value());
  EXPECT_FALSE(p.latest_snapshot_before(2).has_value());
  EXPECT_EQ(p.latest_snapshot_before(3).value(), 2u);
  EXPECT_EQ(p.latest_snapshot_before(5).value(), 2u);
  EXPECT_EQ(p.latest_snapshot_before(6).value(), 5u);
  EXPECT_EQ(p.latest_snapshot_before(7).value(), 5u);
}

TEST(CkptPolicy, RestartEligibilityAndMembership) {
  fault::FaultPlan plan;
  plan.crashes = {{.calc = 0, .at_frame = 1}, {.calc = 2, .at_frame = 6}};
  ckpt::CkptPolicy p;
  p.interval = 4;  // snapshots after frames 3, 7, ...

  // Crash at frame 1 precedes the first snapshot: merge recovery, the
  // calculator is dead from frame 1 on.
  EXPECT_FALSE(p.restarts(1));
  EXPECT_TRUE(ckpt::calc_dead_at(plan, p, 0, 1));
  EXPECT_TRUE(ckpt::calc_dead_at(plan, p, 0, 7));
  // Crash at frame 6 has snapshot 3 behind it: restarted, never dead.
  EXPECT_TRUE(p.restarts(6));
  EXPECT_FALSE(ckpt::calc_dead_at(plan, p, 2, 6));
  EXPECT_FALSE(ckpt::calc_dead_at(plan, p, 2, 7));
  EXPECT_EQ(ckpt::alive_for_exec(plan, p, 0, 3), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(ckpt::alive_for_exec(plan, p, 6, 3), (std::vector<int>{1, 2}));

  // Merge-only policy: both crashes degrade.
  p.recovery = ckpt::RecoveryMode::kMergeOnly;
  EXPECT_FALSE(p.restarts(6));
  EXPECT_TRUE(ckpt::calc_dead_at(plan, p, 2, 6));
}

// --- vault -------------------------------------------------------------

TEST(Vault, StoresFetchesAndSeals) {
  ckpt::Vault v;
  EXPECT_EQ(v.fetch(2, 3), nullptr);
  v.store(2, 3, std::vector<std::byte>(16, std::byte{0xAA}));
  const auto* img = v.fetch(2, 3);
  ASSERT_NE(img, nullptr);
  EXPECT_EQ(img->size(), 16u);
  EXPECT_EQ(v.image_count(), 1u);
  EXPECT_EQ(v.total_bytes(), 16u);

  EXPECT_FALSE(v.manifest(3).has_value());
  ckpt::Manifest m;
  m.frame = 3;
  m.entries.push_back({2, 16, 0});
  v.seal(m);
  ASSERT_TRUE(v.manifest(3).has_value());
  EXPECT_EQ(v.sealed_frames(), (std::vector<std::uint32_t>{3}));

  // Copies are independent snapshots of the store.
  ckpt::Vault copy(v);
  copy.store(2, 3, std::vector<std::byte>(8));
  EXPECT_EQ(v.fetch(2, 3)->size(), 16u);
  EXPECT_EQ(copy.fetch(2, 3)->size(), 8u);
}

// --- settings validation ----------------------------------------------

TEST(SimSettingsValidate, RejectsNonsenseWithActionableErrors) {
  SimSettings s;
  EXPECT_NO_THROW(s.validate());

  s = {};
  s.ncalc = 0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = {};
  s.frames = 0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = {};
  s.dt = 0.0f;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = {};
  s.axis = 3;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = {};
  s.image_width = 0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = {};
  s.store_slices = 0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = {};
  s.phase_timeout_s = -1.0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = {};
  s.ckpt.interval = -2;
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(SimSettingsValidate, ResumeNeedsAConsistentCheckpointConfig) {
  SimSettings s;
  s.frames = 8;
  s.resume_from = 3;
  // Checkpointing disabled: resuming is meaningless.
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.ckpt.interval = 4;  // snapshots after frames 3, 7
  EXPECT_NO_THROW(s.validate());
  s.resume_from = 4;  // not a snapshot frame
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.resume_from = 7;  // leaves no frame to execute
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

// --- wire control header ----------------------------------------------

TEST(WireControlHeader, FailsLoudlyOnFormatSkew) {
  const std::vector<core::SystemBatch> batches;
  mp::Message m;
  m.payload = core::encode_batches(3, batches).take();
  EXPECT_NO_THROW(core::decode_batches(m, 3));

  auto bad_magic = m;
  bad_magic.payload[0] ^= std::byte{0x10};
  EXPECT_THROW(core::decode_batches(bad_magic, 3), core::ProtocolError);

  auto bad_version = m;
  bad_version.payload[1] = std::byte{ckpt::kFormatVersion + 7};
  try {
    core::decode_batches(bad_version, 3);
    FAIL() << "version skew must throw";
  } catch (const core::ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

// --- chaos: restart-from-checkpoint recovery ---------------------------

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

class RestartRecovery : public ::testing::TestWithParam<bool> {};

TEST_P(RestartRecovery, CrashedRunMatchesFaultFreeRunBitExactly) {
  // The acceptance scenario: a calculator dies mid-animation; with
  // checkpoints every 2 frames the run rolls back to the last snapshot,
  // respawns the dead rank from its image and replays — and the images
  // that come out are the fault-free run's, bit for bit.
  const bool snow = GetParam();
  const Scene scene = chaos_scene(snow);
  SimSettings settings = chaos_settings();
  const auto clean = run(scene, settings);

  settings.ckpt.interval = 2;  // snapshots after frames 1, 3, 5
  settings.fault_plan.crashes = {{.calc = 1, .at_frame = 5}};
  obs::Trace trace;
  settings.obs.trace = &trace;
  const auto recovered = run(scene, settings);

  ASSERT_EQ(recovered.telemetry.image_frames().size(), settings.frames);
  EXPECT_TRUE(same_image(recovered.final_frame, clean.final_frame));
  EXPECT_EQ(recovered.fault_stats.restart_recoveries, 1u);
  EXPECT_EQ(recovered.fault_stats.merge_recoveries, 0u);

  // The crashed rank restarted (once) instead of degrading the domain:
  // no zero-width domain anywhere, and the restart is on its clock.
  EXPECT_EQ(
      recovered.procs[static_cast<std::size_t>(core::calc_rank(1))].restarts,
      1u);
  for (const auto& d : recovered.final_decomps) {
    for (int c = 0; c < settings.ncalc; ++c) {
      EXPECT_LT(d.domain_lo(c), d.domain_hi(c)) << "calc " << c;
    }
  }
  EXPECT_EQ(count_labeled(trace, "fault: calculator crashed"), 1u);
  EXPECT_GE(count_labeled(trace, "recovery: restarting calculator"), 1u);
  EXPECT_GE(count_labeled(trace, "recovery: restored checkpoint"), 1u);
  EXPECT_GE(count_labeled(trace, "checkpoint:"), 1u);

  // Replay costs time: the recovered animation takes longer.
  EXPECT_GT(recovered.animation_s, clean.animation_s);
}

INSTANTIATE_TEST_SUITE_P(Scenes, RestartRecovery, ::testing::Bool());

TEST(RestartRecovery, FiberCoreRestartMatchesFaultFreeAndThreadedCore) {
  // The restart path under the fiber scheduler, pinned explicitly: the
  // crashed rank's fiber unwinds, the respawned role re-enters on the
  // same fiber infrastructure, rolls back to the snapshot and replays.
  // Recovered output must be bit-identical to the fault-free fiber run,
  // and the whole recovered run bit-identical to the threaded oracle.
  const Scene scene = chaos_scene(/*snow=*/true);
  SimSettings settings = chaos_settings();
  const auto clean = run(scene, settings, mp::ExecMode::kFibers);

  settings.ckpt.interval = 2;
  settings.fault_plan.crashes = {{.calc = 1, .at_frame = 5}};
  const auto recovered = run(scene, settings, mp::ExecMode::kFibers);

  ASSERT_EQ(recovered.telemetry.image_frames().size(), settings.frames);
  EXPECT_TRUE(same_image(recovered.final_frame, clean.final_frame));
  EXPECT_EQ(recovered.fault_stats.restart_recoveries, 1u);
  EXPECT_EQ(
      recovered.procs[static_cast<std::size_t>(core::calc_rank(1))].restarts,
      1u);

  const auto threaded = run(scene, settings, mp::ExecMode::kThreads);
  EXPECT_EQ(recovered.animation_s, threaded.animation_s);
  EXPECT_TRUE(same_image(recovered.final_frame, threaded.final_frame));
  ASSERT_EQ(recovered.procs.size(), threaded.procs.size());
  for (std::size_t r = 0; r < recovered.procs.size(); ++r) {
    EXPECT_EQ(recovered.procs[r].finish_time, threaded.procs[r].finish_time)
        << "rank " << r;
    EXPECT_EQ(recovered.procs[r].restarts, threaded.procs[r].restarts)
        << "rank " << r;
  }
}

TEST(RestartRecovery, SurvivesMessageChaosOnTop) {
  // Drops, duplicates and delay spikes perturb wire times but not frame
  // content, so even then the recovered run must reproduce the fault-free
  // pixels.
  const Scene scene = chaos_scene(/*snow=*/false);
  SimSettings settings = chaos_settings();
  const auto clean = run(scene, settings);

  settings.fault_plan.seed = 77;
  settings.fault_plan.drop_rate = 0.05;
  settings.fault_plan.retransmit_s = 1e-3;
  settings.fault_plan.duplicate_rate = 0.05;
  settings.fault_plan.delay_rate = 0.08;
  settings.fault_plan.delay_spike_s = 0.8e-3;
  settings.fault_plan.crashes = {{.calc = 2, .at_frame = 4}};
  settings.ckpt.interval = 3;  // snapshots after frames 2, 5
  const auto first = run(scene, settings);
  ASSERT_EQ(first.telemetry.image_frames().size(), settings.frames);
  EXPECT_GT(first.fault_stats.total_faults(), 0u);
  EXPECT_EQ(first.fault_stats.restart_recoveries, 1u);
  EXPECT_TRUE(same_image(first.final_frame, clean.final_frame));

  // And the whole recovery is bit-reproducible run to run.
  const auto second = run(scene, settings);
  EXPECT_EQ(first.animation_s, second.animation_s);
  EXPECT_TRUE(same_image(first.final_frame, second.final_frame));
}

TEST(RestartRecovery, CrashBeforeFirstSnapshotFallsBackToMerge) {
  const Scene scene = chaos_scene(/*snow=*/true);
  SimSettings settings = chaos_settings();
  settings.ckpt.interval = 4;  // first snapshot after frame 3
  settings.fault_plan.crashes = {{.calc = 0, .at_frame = 2}};
  const auto r = run(scene, settings);

  ASSERT_EQ(r.telemetry.image_frames().size(), settings.frames);
  EXPECT_EQ(r.fault_stats.restart_recoveries, 0u);
  EXPECT_EQ(r.fault_stats.merge_recoveries, 1u);
  // PR-1 degradation: domain 0 collapsed, calculator 1 inherited it.
  for (const auto& d : r.final_decomps) {
    EXPECT_EQ(d.domain_lo(0), d.domain_hi(0));
    EXPECT_EQ(d.owner_of(-1e6f), 1);
  }
}

TEST(RestartRecovery, MergeOnlyPolicyKeepsPr1Behavior) {
  const Scene scene = chaos_scene(/*snow=*/false);
  SimSettings settings = chaos_settings();
  settings.fault_plan.crashes = {{.calc = 1, .at_frame = 5}};
  const auto merged = run(scene, settings);

  settings.ckpt.interval = 2;
  settings.ckpt.recovery = ckpt::RecoveryMode::kMergeOnly;
  const auto with_ckpt = run(scene, settings);
  // Checkpoints are taken but never used: the degraded animation renders
  // the same pixels as the pure PR-1 merge run.
  EXPECT_EQ(with_ckpt.fault_stats.merge_recoveries, 1u);
  EXPECT_EQ(with_ckpt.fault_stats.restart_recoveries, 0u);
  EXPECT_TRUE(same_image(merged.final_frame, with_ckpt.final_frame));
}

TEST(RestartRecovery, TwoCrashesRollBackTwice) {
  const Scene scene = chaos_scene(/*snow=*/false);
  SimSettings settings = chaos_settings();
  const auto clean = run(scene, settings);

  settings.ckpt.interval = 2;
  settings.fault_plan.crashes = {{.calc = 0, .at_frame = 3},
                                 {.calc = 2, .at_frame = 6}};
  const auto recovered = run(scene, settings);
  ASSERT_EQ(recovered.telemetry.image_frames().size(), settings.frames);
  EXPECT_EQ(recovered.fault_stats.restart_recoveries, 2u);
  EXPECT_TRUE(same_image(recovered.final_frame, clean.final_frame));
}

// --- coordinated checkpoints + the replay oracle ------------------------

TEST(Replayer, VerifiesASealedSnapshotBitExactly) {
  const Scene scene = chaos_scene(/*snow=*/false);
  SimSettings settings = chaos_settings();
  ckpt::Vault vault;
  settings.ckpt.interval = 2;
  settings.ckpt_vault = &vault;

  sim::RunConfig cfg;
  cfg.groups = {{cluster::NodeType::e800(), settings.ncalc, settings.ncalc}};
  cfg.network = net::Interconnect::kMyrinet;
  const auto built = sim::build_cluster(cfg);
  const mp::RuntimeOptions rt{.recv_timeout_s = 15.0};
  const auto original = core::run_parallel(scene, settings, built.spec,
                                           built.placement, {}, rt);

  // The manager sealed a manifest for every snapshot frame, covering all
  // five ranks (manager, image generator, three calculators).
  EXPECT_EQ(vault.sealed_frames(), (std::vector<std::uint32_t>{1, 3, 5}));
  for (const auto f : vault.sealed_frames()) {
    ASSERT_EQ(vault.manifest(f)->entries.size(), 5u);
  }

  const ckpt::Replayer replayer(scene, settings, built.spec, built.placement,
                                {}, rt);
  for (const std::uint32_t f0 : {1u, 3u, 5u}) {
    const auto rep = replayer.verify(vault, f0, original.final_frame);
    EXPECT_TRUE(rep.manifest_complete) << rep.detail;
    EXPECT_TRUE(rep.images_verified) << rep.detail;
    EXPECT_TRUE(rep.framebuffer_identical) << rep.detail;
    EXPECT_TRUE(rep.ok());
    EXPECT_EQ(rep.frames_replayed, settings.frames - (f0 + 1));
  }

  // No manifest, no verification — the report says why.
  const auto missing = replayer.verify(vault, 4, original.final_frame);
  EXPECT_FALSE(missing.ok());
  EXPECT_FALSE(missing.manifest_complete);
  EXPECT_NE(missing.detail.find("manifest"), std::string::npos);
}

TEST(Replayer, VerifiesASnapshotTakenAfterARecovery) {
  // Non-trivial snapshot: frame 5's images were captured AFTER a crash at
  // frame 3 was recovered by rollback-to-1 — the checkpoint embeds the
  // post-recovery state, and resuming from it must still land on the
  // fault-free pixels.
  const Scene scene = chaos_scene(/*snow=*/true);
  SimSettings settings = chaos_settings();
  ckpt::Vault vault;
  settings.ckpt.interval = 2;
  settings.ckpt_vault = &vault;
  settings.fault_plan.crashes = {{.calc = 1, .at_frame = 3}};

  sim::RunConfig cfg;
  cfg.groups = {{cluster::NodeType::e800(), settings.ncalc, settings.ncalc}};
  cfg.network = net::Interconnect::kMyrinet;
  const auto built = sim::build_cluster(cfg);
  const mp::RuntimeOptions rt{.recv_timeout_s = 15.0};
  const auto original = core::run_parallel(scene, settings, built.spec,
                                           built.placement, {}, rt);
  ASSERT_EQ(original.fault_stats.restart_recoveries, 1u);

  const ckpt::Replayer replayer(scene, settings, built.spec, built.placement,
                                {}, rt);
  const auto rep = replayer.verify(vault, 5, original.final_frame);
  EXPECT_TRUE(rep.ok()) << rep.detail;
}

// --- coordinated suspend (stop_after) ----------------------------------

TEST(Suspend, StopAfterThenResumeIsBitIdenticalAcrossBothCores) {
  // The farm's preemption primitive, exercised directly: run to a
  // checkpoint frame and stop; resume from that frame in a second run
  // over the same vault. The stitched execution must reproduce the
  // uninterrupted run's pixels bit for bit — under the fiber core and
  // the thread core alike.
  const Scene scene = chaos_scene(/*snow=*/false);
  for (const auto mode : {mp::ExecMode::kFibers, mp::ExecMode::kThreads}) {
    SimSettings settings = chaos_settings();
    const auto whole = run(scene, settings, mode);

    ckpt::Vault vault;
    SimSettings first = chaos_settings();
    first.ckpt.interval = 2;  // snapshots after frames 1, 3, 5
    first.ckpt_vault = &vault;
    first.stop_after = 3;
    const auto seg1 = run(scene, first, mode);
    // The segment executed frames 0..3 only, and frame 3's checkpoint is
    // sealed and ready to restore.
    EXPECT_EQ(seg1.telemetry.image_frames().size(), 4u);
    ASSERT_TRUE(vault.manifest(3));

    SimSettings second = chaos_settings();
    second.ckpt.interval = 2;
    second.ckpt_vault = &vault;
    second.resume_from = 3;
    const auto seg2 = run(scene, second, mode);
    EXPECT_EQ(seg2.telemetry.image_frames().size(), settings.frames);
    EXPECT_TRUE(same_image(seg2.final_frame, whole.final_frame))
        << "suspended+resumed pixels diverged under "
        << (mode == mp::ExecMode::kFibers ? "fibers" : "threads");
  }
}

TEST(Suspend, ValidateRejectsUnusableStopFrames) {
  SimSettings s = chaos_settings();
  s.ckpt.interval = 2;
  // No checkpointing => nothing to resume from later.
  SimSettings no_ckpt = chaos_settings();
  no_ckpt.stop_after = 3;
  EXPECT_THROW(no_ckpt.validate(), std::invalid_argument);
  // Not a snapshot frame: stopping there would seal nothing.
  s.stop_after = 4;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  // Last frame: stop must leave frames to resume.
  s.stop_after = 7;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  // Resume and stop must make forward progress.
  s.stop_after = 3;
  s.resume_from = 3;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.resume_from = 1;
  EXPECT_NO_THROW(s.validate());
}

TEST(Suspend, RunParallelDemandsAnOutlivingVault) {
  // stop_after with no supplied vault would seal snapshots into a
  // run-local vault that dies with the run — reject it loudly.
  const Scene scene = chaos_scene(/*snow=*/false);
  SimSettings s = chaos_settings();
  s.ckpt.interval = 2;
  s.stop_after = 3;
  EXPECT_THROW(run(scene, s), std::invalid_argument);
}

}  // namespace
}  // namespace psanim
