#include "core/calculator.hpp"

#include <algorithm>
#include <span>
#include <string>

#include "ckpt/snapshot.hpp"
#include "ckpt/state_codec.hpp"
#include "ckpt/vault.hpp"
#include "collide/pair_collide.hpp"
#include "core/exchange.hpp"
#include "obs/trace.hpp"
#include "render/splat.hpp"

namespace psanim::core {

Calculator::Calculator(const SimSettings& settings, const Scene& scene,
                       RoleEnv env, int index)
    : set_(settings),
      scene_(scene),
      env_(env),
      idx_(index),
      base_rng_(settings.seed),
      cam_(render::Camera::framing(scene.look_center, scene.look_radius,
                                   settings.image_width,
                                   settings.image_height)),
      alive_(static_cast<std::size_t>(settings.ncalc), 1),
      crash_done_(static_cast<std::size_t>(settings.ncalc), 0),
      tr_(settings.obs.trace, calc_rank(index)),
      metrics_{env.metrics} {
  peers_.reserve(static_cast<std::size_t>(settings.ncalc));
  for (int c = 0; c < settings.ncalc; ++c) {
    if (c != idx_) peers_.push_back(c);
  }
  const auto [lo, hi] = initial_interval(set_, scene_);
  decomps_.reserve(scene_.systems.size());
  stores_.reserve(scene_.systems.size());
  for (std::size_t s = 0; s < scene_.systems.size(); ++s) {
    decomps_.emplace_back(set_.axis, lo, hi, set_.ncalc);
    const Decomposition& d = decomps_.back();
    stores_.emplace_back(set_.axis, d.domain_lo(idx_), d.domain_hi(idx_),
                         set_.store_slices);
  }
}

void Calculator::charge_particles(mp::Endpoint& ep, double per_particle,
                                  std::size_t n) const {
  ep.charge(env_.cost->compute_s(per_particle, n, env_.rate));
}

void Calculator::report_nonfinite() {
  std::uint64_t total = 0;
  for (const auto& store : stores_) total += store.nonfinite_dropped();
  if (total > nonfinite_reported_) {
    metrics_.on_nonfinite(total - nonfinite_reported_);
    nonfinite_reported_ = total;
  }
}

void Calculator::run(mp::Endpoint& ep) {
  std::vector<double> time_per_system(scene_.systems.size());
  std::vector<std::size_t> count_per_system(scene_.systems.size());
  // Protocol instants in the obs stream (labels verbatim — tests pin
  // Figure 2's exact per-frame label sequence).
  auto note = [&](std::uint32_t frame, const char* label) {
    tr_.instant(ep.clock(), frame, label);
  };
  std::uint32_t frame = 0;
  if (set_.resume_from) {
    const std::uint32_t f0 = *set_.resume_from;
    // Recoveries completed before the snapshot are baked into it.
    for (const auto& c : set_.fault_plan.crashes) {
      if (c.at_frame <= f0) {
        crash_done_[static_cast<std::size_t>(c.calc)] = 1;
      }
    }
    if (ckpt::calc_dead_at(set_.fault_plan, set_.ckpt, idx_, f0 + 1)) {
      return;  // merge-crashed before the snapshot — this rank is gone
    }
    restore(ep, f0);
    epoch_start_ = f0 + 1;
    frame = f0 + 1;
  }
  // Suspend bound (see Manager::run): capture the stop_after snapshot,
  // then exit. Snapshot/ack gates stay on set_.frames.
  const std::uint32_t end =
      set_.stop_after ? *set_.stop_after + 1 : set_.frames;
  while (frame < end) {
    ep.set_trace_frame(frame);
    switch (handle_crashes(ep, frame)) {
      case CrashOutcome::kNone:
        break;
      case CrashOutcome::kRolledBack:
        continue;  // frame was rewound to the snapshot successor
      case CrashOutcome::kDead:
        return;
    }
    ep.charge(env_.cost->frame_overhead_s / env_.rate);
    auto frame_span = tr_.phase(ep.clock(), frame, "frame");
    trace::CalcFrameStats fs;
    fs.frame = frame;
    fs.rank = calc_rank(idx_);

    {
      auto ph = tr_.phase(ep.clock(), frame, "simulate");
      receive_created(ep, frame, fs);
      note(frame, "calculator: addition to local set");
      compute_phase(ep, frame, time_per_system, count_per_system, fs);
    }
    note(frame, "calculator: calculus done");
    {
      auto ph = tr_.phase(ep.clock(), frame, "exchange");
      exchange_phase(ep, frame, fs);
    }
    note(frame, "calculator: particle exchange done");
    if (set_.pair_collisions) {
      auto ph = tr_.phase(ep.clock(), frame, "collide");
      collide_phase(ep, frame, time_per_system);
    }

    // §3.2.4: the reported time must be pro-rata for the post-exchange
    // count, "since the amount of particles of the process changed".
    for (std::size_t s = 0; s < stores_.size(); ++s) {
      const std::size_t now_held = stores_[s].size();
      if (count_per_system[s] > 0) {
        time_per_system[s] *= static_cast<double>(now_held) /
                              static_cast<double>(count_per_system[s]);
      }
      count_per_system[s] = now_held;
      fs.particles_held += now_held;
    }

    report_loads(ep, frame, time_per_system, count_per_system);
    note(frame, "calculator: load information sent");
    // "While the manager evaluates the load balancing, the calculators
    // send the particles to the image generator" (§3.2.5) — the frame goes
    // out before the orders come back.
    {
      auto ph = tr_.phase(ep.clock(), frame, "send-frame");
      send_frame(ep, frame, fs);
    }
    note(frame, "calculator: particles sent to image generator");
    {
      auto ph = tr_.phase(ep.clock(), frame, "balance");
      balance_phase(ep, frame, fs);
    }
    note(frame, "calculator: load balance done, local domains defined");

    tel_.add_calc(fs);
    metrics_.on_frame(fs);
    report_nonfinite();
    if (set_.ckpt.due_after(frame) && frame + 1 < set_.frames) {
      {
        auto ph = tr_.phase(ep.clock(), frame, "snapshot");
        capture(ep, frame);
      }
      note(frame, "checkpoint: snapshot captured");
    }
    frame_span.close();
    ++frame;
  }
}

void Calculator::die(mp::Endpoint& ep, std::uint32_t frame) {
  tr_.instant(ep.clock(), frame, "fault: calculator crashed (fail-stop)");
  // The dying gasp the manager's liveness check consumes; its arrival
  // stamp puts the detection after the death in virtual time.
  mp::Writer w;
  put_control_header(w);
  w.put(frame);
  ep.send(kManagerRank, kTagCrash, std::move(w));
  // Fail-stop: the particles this rank held are gone with it.
  for (auto& store : stores_) store.take_all();
}

Calculator::CrashOutcome Calculator::handle_crashes(mp::Endpoint& ep,
                                                    std::uint32_t& frame) {
  const auto& plan = set_.fault_plan;
  if (plan.crashes.empty()) return CrashOutcome::kNone;
  std::vector<int> pending;
  for (const auto& c : plan.crashes) {
    if (c.at_frame == frame && !crash_done_[static_cast<std::size_t>(c.calc)]) {
      pending.push_back(c.calc);
    }
  }
  if (pending.empty()) return CrashOutcome::kNone;
  std::sort(pending.begin(), pending.end());
  for (const int c : pending) crash_done_[static_cast<std::size_t>(c)] = 1;
  const bool self_dies =
      std::find(pending.begin(), pending.end(), idx_) != pending.end();

  if (set_.ckpt.restarts(frame)) {
    // Coordinated rollback: every role derives the same snapshot frame
    // from (plan, policy) alone, so no extra agreement round is needed.
    const std::uint32_t f0 = *set_.ckpt.latest_snapshot_before(frame);
    if (self_dies) {
      die(ep, frame);
      ep.note_restart();
    }
    drain_stale_acks(ep, frame);
    restore(ep, f0);
    epoch_start_ = f0 + 1;
    frame = f0 + 1;
    return CrashOutcome::kRolledBack;
  }

  if (self_dies) {
    die(ep, frame);
    return CrashOutcome::kDead;
  }
  apply_crashes(ep, frame, pending);
  return CrashOutcome::kNone;
}

void Calculator::apply_crashes(mp::Endpoint& ep, std::uint32_t frame,
                               const std::vector<int>& dead) {
  // Same ascending sweep as Manager::liveness_check: remove all of this
  // frame's deaths from membership first, then merge in index order.
  for (const int c : dead) alive_[static_cast<std::size_t>(c)] = 0;
  for (const int c : dead) {
    const int into = fault::merge_target(alive_, c);
    if (into < 0) {
      throw ProtocolError("calculator: no surviving calculator to inherit");
    }
    for (auto& d : decomps_) d.merge_domain(c, into);
  }
  peers_.clear();
  for (int c = 0; c < set_.ncalc; ++c) {
    if (c != idx_ && alive_[static_cast<std::size_t>(c)]) {
      peers_.push_back(c);
    }
  }
  // Adopt grown bounds (the inheritor's store widens; everyone else's
  // stays put).
  for (std::size_t s = 0; s < stores_.size(); ++s) {
    const Decomposition& d = decomps_[s];
    auto& store = stores_[s];
    const float lo = d.domain_lo(idx_);
    const float hi = d.domain_hi(idx_);
    if (lo != store.lo() || hi != store.hi()) {
      charge_particles(ep, env_.cost->pack_cost, store.size());
      store.reset_bounds(lo, hi);
    }
  }
  tr_.instant(ep.clock(), frame, "recovery: adopted merged domains");
}

void Calculator::capture(mp::Endpoint& ep, std::uint32_t frame) {
  const double capture_start = ep.clock().now();
  ckpt::SnapshotWriter snap(ckpt::Role::kCalculator, ep.rank(), frame,
                            set_.seed);
  {
    auto& w = snap.begin_section(ckpt::SectionId::kStores);
    w.put<std::uint64_t>(stores_.size());
    std::size_t held = 0;
    for (const auto& s : stores_) {
      held += s.size();
      ckpt::encode_store(w, s);
    }
    charge_particles(ep, env_.cost->pack_cost, held);
  }
  {
    auto& w = snap.begin_section(ckpt::SectionId::kDecomps);
    w.put<std::uint64_t>(decomps_.size());
    for (const auto& d : decomps_) d.encode(w);
  }
  {
    auto& w = snap.begin_section(ckpt::SectionId::kTelemetry);
    ckpt::encode_telemetry(w, tel_);
  }
  {
    // Forensics only — virtual clocks are never rolled back on restore.
    auto& w = snap.begin_section(ckpt::SectionId::kClock);
    w.put(ep.clock().now());
  }
  if (set_.obs.flight_recorder && set_.obs.trace) {
    auto& w = snap.begin_section(ckpt::SectionId::kFlightRecorder);
    ckpt::encode_flight_ring(w, set_.obs.trace->rank(ep.rank()),
                             set_.obs.trace->labels());
  }
  std::vector<std::byte> image = snap.finish();
  const auto bytes = static_cast<std::uint64_t>(image.size());
  const std::uint32_t crc =
      ckpt::crc32(std::span<const std::byte>(image.data(), image.size()));
  // Writing the image to stable storage is part of the checkpoint's cost.
  ep.charge_io(env_.disk.write_s(static_cast<std::size_t>(bytes)));
  set_.ckpt_vault->store(ep.rank(), frame, std::move(image));
  metrics_.on_snapshot(ep.clock().now() - capture_start,
                       static_cast<std::size_t>(bytes));
  // Digest to the manager: the coordinator seals the frame's manifest only
  // once every participant's image is accounted for.
  mp::Writer w;
  put_control_header(w);
  w.put(frame);
  w.put<std::int32_t>(ep.rank());
  w.put(bytes);
  w.put(crc);
  ep.send(kManagerRank, kTagCkptDigest, std::move(w));
}

void Calculator::restore(mp::Endpoint& ep, std::uint32_t f0) {
  if (!set_.ckpt_vault) {
    throw ProtocolError("calculator: restart recovery needs a vault");
  }
  const std::vector<std::byte>* image = set_.ckpt_vault->fetch(ep.rank(), f0);
  if (!image) {
    throw ProtocolError("calculator " + std::to_string(idx_) +
                        ": no checkpoint image for frame " +
                        std::to_string(f0));
  }
  ep.charge_io(env_.disk.read_s(image->size()));
  ckpt::SnapshotReader snap(*image);
  if (snap.header().role != ckpt::Role::kCalculator ||
      snap.header().rank != ep.rank() || snap.header().frame != f0) {
    throw ProtocolError("calculator " + std::to_string(idx_) +
                        ": checkpoint header does not match rank/frame");
  }
  {
    auto r = snap.section(ckpt::SectionId::kStores);
    const auto n = r.get<std::uint64_t>();
    if (n != stores_.size()) {
      throw ProtocolError("calculator: snapshot has " + std::to_string(n) +
                          " stores, scene has " +
                          std::to_string(stores_.size()));
    }
    std::size_t held = 0;
    for (auto& s : stores_) {
      ckpt::decode_store(r, s);
      held += s.size();
    }
    charge_particles(ep, env_.cost->pack_cost, held);
  }
  {
    auto r = snap.section(ckpt::SectionId::kDecomps);
    const auto n = r.get<std::uint64_t>();
    if (n != decomps_.size()) {
      throw ProtocolError("calculator: snapshot decomposition count skew");
    }
    for (auto& d : decomps_) d = Decomposition::decode(r);
  }
  {
    auto r = snap.section(ckpt::SectionId::kTelemetry);
    tel_ = ckpt::decode_telemetry(r);
  }
  if (set_.obs.trace && snap.has(ckpt::SectionId::kFlightRecorder)) {
    auto r = snap.section(ckpt::SectionId::kFlightRecorder);
    const auto recovered =
        ckpt::decode_flight_ring(r, set_.obs.trace->labels());
    set_.obs.trace->rank(ep.rank()).emit_recovered(recovered);
  }
  refresh_membership(f0 + 1);
  metrics_.on_restore();
  tr_.instant(ep.clock(), f0, "recovery: restored checkpoint");
}

void Calculator::drain_stale_acks(mp::Endpoint& ep, std::uint32_t frame) {
  // The image generator acked the end of every executed frame of this
  // epoch; we consumed one per frame once two were outstanding. Exactly
  // min(frame - epoch_start_, 2) are still in flight, and non-overtaking
  // delivery guarantees the blocking receives below match them (and not a
  // replayed epoch's acks).
  const std::uint32_t in_flight =
      std::min<std::uint32_t>(frame - epoch_start_, 2);
  for (std::uint32_t i = 0; i < in_flight; ++i) {
    recv_p(ep, kImageGenRank, kTagFrameAck);
  }
}

void Calculator::refresh_membership(std::uint32_t frame) {
  for (int c = 0; c < set_.ncalc; ++c) {
    alive_[static_cast<std::size_t>(c)] =
        ckpt::calc_dead_at(set_.fault_plan, set_.ckpt, c, frame) ? 0 : 1;
  }
  peers_.clear();
  for (int c = 0; c < set_.ncalc; ++c) {
    if (c != idx_ && alive_[static_cast<std::size_t>(c)]) {
      peers_.push_back(c);
    }
  }
}

void Calculator::receive_created(mp::Endpoint& ep, std::uint32_t frame,
                                 trace::CalcFrameStats& fs) {
  const mp::Message m = recv_p(ep, kManagerRank, kTagCreate);
  for (auto& batch : decode_batches(m, frame)) {
    fs.particles_created += batch.particles.size();
    charge_particles(ep, env_.cost->pack_cost, batch.particles.size());
    stores_.at(batch.system).insert_batch(batch.particles);
  }
}

void Calculator::compute_phase(mp::Endpoint& ep, std::uint32_t frame,
                               std::vector<double>& time_per_system,
                               std::vector<std::size_t>& count_per_system,
                               trace::CalcFrameStats& fs) {
  const double phase_start = ep.clock().now();
  for (std::size_t s = 0; s < scene_.systems.size(); ++s) {
    const double t0 = ep.clock().now();
    auto& store = stores_[s];
    const std::size_t held = store.size();
    count_per_system[s] = held;

    // Streams per (system, frame, action, calculator): deterministic for
    // a fixed configuration. Fusing the actions into one store traversal
    // keeps every per-action stream (and hence every virtual-time result)
    // bit-identical to the per-action loop — see psys::FusedPasses.
    psys::FusedPasses fused(
        scene_.systems[s].actions(), set_.dt, [&](std::size_t ai) {
          return base_rng_.derive(s, frame).derive(ai, idx_);
        });
    store.for_each_slice(
        [&](std::span<psys::Particle> ps) { fused.apply(ps); });
    for (const auto& pass : fused.passes()) {
      charge_particles(ep, env_.cost->action_cost * pass.action->cost_weight(),
                       held);
      fs.particles_killed += pass.ctx.killed;
    }
    const std::size_t removed = store.compact_dead();
    charge_particles(ep, env_.cost->pack_cost, removed);

    time_per_system[s] = ep.clock().now() - t0;
  }
  fs.calc_s = ep.clock().now() - phase_start;
}

void Calculator::exchange_phase(mp::Endpoint& ep, std::uint32_t frame,
                                trace::CalcFrameStats& fs) {
  const double phase_start = ep.clock().now();
  const auto deliver = [&](psys::SystemId s,
                           std::vector<psys::Particle>&& ps) {
    charge_particles(ep, env_.cost->pack_cost, ps.size());
    stores_.at(s).insert_batch(ps);
  };
  const auto extract = [&](std::size_t s, Outboxes& outboxes) {
    auto crossers = stores_[s].extract_outside();
    // The §4 sliced layout makes the crosser scan touch only edge checks;
    // charge the scan on what actually crossed plus a per-slice sweep.
    charge_particles(ep, env_.cost->pack_cost, crossers.size());
    std::vector<psys::Particle> back_home;
    route_crossers(decomps_[s], static_cast<psys::SystemId>(s), idx_,
                   std::move(crossers), outboxes, back_home);
    stores_[s].insert_batch(back_home);
  };

  if (set_.combine == SystemCombine::kBundled) {
    // One message per peer per frame carrying every system's crossers.
    Outboxes outboxes(static_cast<std::size_t>(set_.ncalc));
    for (std::size_t s = 0; s < stores_.size(); ++s) extract(s, outboxes);
    const ExchangeStats ex =
        exchange_crossers(ep, frame, peers_, idx_, std::move(outboxes),
                          deliver, set_.phase_timeout_s);
    fs.crossers_out = ex.sent_particles;
    fs.crossers_in = ex.received_particles;
    fs.exchange_bytes = ex.sent_bytes;
  } else {
    // §3.3 alternative: a separate exchange round per system — simpler
    // per-system bookkeeping, systems x (n-1) messages per calculator.
    for (std::size_t s = 0; s < stores_.size(); ++s) {
      Outboxes outboxes(static_cast<std::size_t>(set_.ncalc));
      extract(s, outboxes);
      const ExchangeStats ex =
          exchange_crossers(ep, frame, peers_, idx_, std::move(outboxes),
                            deliver, set_.phase_timeout_s);
      fs.crossers_out += ex.sent_particles;
      fs.crossers_in += ex.received_particles;
      fs.exchange_bytes += ex.sent_bytes;
    }
  }
  fs.exchange_s = ep.clock().now() - phase_start;
}

void Calculator::collide_phase(mp::Endpoint& ep, std::uint32_t frame,
                               std::vector<double>& time_per_system) {
  // Ghost bands go to domain neighbors only — the locality the model's
  // decomposition preserves (§3).
  const float band = set_.collision_radius;
  for (std::size_t s = 0; s < stores_.size(); ++s) {
    const double t0 = ep.clock().now();
    auto& store = stores_[s];
    auto locals = store.take_all();

    // Nearest *alive* neighbor on each side (a crashed domain has zero
    // width, so the band continues into the inheritor's interval).
    const std::vector<int> neighbors = [&] {
      std::vector<int> out;
      for (int c = idx_ - 1; c >= 0; --c) {
        if (alive_[static_cast<std::size_t>(c)]) {
          out.push_back(c);
          break;
        }
      }
      for (int c = idx_ + 1; c < set_.ncalc; ++c) {
        if (alive_[static_cast<std::size_t>(c)]) {
          out.push_back(c);
          break;
        }
      }
      return out;
    }();

    auto ghosts_out = collide::ghost_band(locals, set_.axis, store.lo(),
                                          store.hi(), band);
    charge_particles(ep, env_.cost->pack_cost, ghosts_out.size());
    for (const int nb : neighbors) {
      mp::Writer w = encode_batches(
          frame, {SystemBatch{static_cast<psys::SystemId>(s), ghosts_out}});
      ep.send(calc_rank(nb), kTagGhost, std::move(w));
    }
    std::vector<psys::Particle> ghosts_in;
    for (const int nb : neighbors) {
      for (auto& b :
           decode_batches(recv_p(ep, calc_rank(nb), kTagGhost), frame)) {
        ghosts_in.insert(ghosts_in.end(), b.particles.begin(),
                         b.particles.end());
      }
    }

    // The grid is a member so its cell table and entry storage persist
    // across frames and systems instead of being reallocated per call.
    if (!collide_grid_) collide_grid_.emplace(set_.collision_radius);
    const auto stats = collide::resolve_pair_collisions(
        locals, ghosts_in, set_.collision_radius, set_.collision_restitution,
        &*collide_grid_);
    charge_particles(ep, env_.cost->collide_pair_cost, stats.candidate_pairs);

    store.insert_batch(locals);
    time_per_system[s] += ep.clock().now() - t0;
  }
}

void Calculator::report_loads(mp::Endpoint& ep, std::uint32_t frame,
                              const std::vector<double>& time_per_system,
                              const std::vector<std::size_t>& count_per_system) {
  std::vector<LoadEntry> entries;
  entries.reserve(time_per_system.size());
  for (std::size_t s = 0; s < time_per_system.size(); ++s) {
    entries.push_back(LoadEntry{
        .system = static_cast<std::uint32_t>(s),
        .particles = count_per_system[s],
        .time_s = time_per_system[s],
    });
  }
  ep.send(kManagerRank, kTagLoadReport, encode_load_report(frame, entries));
}

void Calculator::send_frame(mp::Endpoint& ep, std::uint32_t frame,
                            trace::CalcFrameStats& fs) {
  const double phase_start = ep.clock().now();
  // Window-2 flow control: frame payloads are megabytes, far past any MPI
  // eager threshold, so a send completes only against a posted receive.
  // Double buffering at the image generator gives two credits: the send
  // for frame f blocks until frame f-2 was consumed. Without this,
  // calculators would run unboundedly ahead of the renderer; with a
  // deeper window, gather wire time overlaps the next frame's compute.
  if (frame - epoch_start_ >= 2) recv_p(ep, kImageGenRank, kTagFrameAck);
  if (set_.imgen == ImageGenMode::kGatherParticles) {
    std::vector<RenderVertex> verts;
    for (auto& store : stores_) {
      const auto parts = store.snapshot();
      verts.reserve(verts.size() + parts.size());
      for (const auto& p : parts) verts.push_back(to_render_vertex(p));
    }
    charge_particles(ep, env_.cost->pack_cost, verts.size());
    ep.send(kImageGenRank, kTagFrame, encode_frame_vertices(frame, verts));
  } else {
    // Sort-last (§6 extension): rasterize locally, ship the partial image.
    render::Framebuffer fb(set_.image_width, set_.image_height);
    std::size_t rendered = 0;
    for (auto& store : stores_) {
      const auto parts = store.snapshot();
      splat_points(fb, cam_, std::span<const psys::Particle>(parts),
                   render::BlendMode::kAdditive);
      rendered += parts.size();
    }
    charge_particles(ep, env_.cost->render_cost, rendered);
    mp::Writer w;
    w.put(frame);
    w.put_vector(fb.colors());
    ep.send(kImageGenRank, kTagFramePart, std::move(w));
  }
  fs.send_frame_s = ep.clock().now() - phase_start;
}

void Calculator::balance_phase(mp::Endpoint& ep, std::uint32_t frame,
                               trace::CalcFrameStats& fs) {
  const double phase_start = ep.clock().now();
  const auto orders =
      decode_orders(recv_p(ep, kManagerRank, kTagOrders), frame);

  // Donors select particles and derive the new domain edge BEFORE any
  // transfer (§3.2.5: dimensions are negotiated first).
  struct PendingSend {
    std::uint32_t system;
    int partner;
    std::vector<psys::Particle> particles;
  };
  std::vector<PendingSend> pending;
  std::vector<EdgeEntry> proposals;
  for (const auto& o : orders) {
    if (!o.is_send) continue;
    auto& store = stores_.at(o.system);
    const bool toward_left = o.partner < idx_;
    psys::Donation d = toward_left ? store.donate_low(o.count)
                                   : store.donate_high(o.count);
    ep.charge(env_.cost->sort_s(d.sorted_elements, env_.rate));
    // Extraction/copy cost for the donated particles themselves. The
    // receiver has always charged pack_cost per adopted particle (below);
    // the donor previously charged only the boundary sort, so whole-
    // sub-slice donations (sorted_elements == 0) rode for free and the
    // virtual clock undercounted the donor side of every transfer.
    charge_particles(ep, env_.cost->pack_cost, d.particles.size());
    fs.sorted_elements += d.sorted_elements;
    // Every edge between donor and partner moves onto the new boundary —
    // after a crash the pair may not be adjacent (collapsed zero-width
    // domains lie in between), and each of their edges must cross too.
    // Order matters for set_edge's neighbor clamping: raise edges from
    // the high side down, lower them from the low side up. With adjacent
    // partners this degenerates to the single edge min(idx_, partner).
    if (toward_left) {
      for (int e = idx_ - 1; e >= o.partner; --e) {
        proposals.push_back(EdgeEntry{
            .system = o.system, .edge_index = e, .value = d.new_edge});
      }
    } else {
      for (int e = idx_; e < o.partner; ++e) {
        proposals.push_back(EdgeEntry{
            .system = o.system, .edge_index = e, .value = d.new_edge});
      }
    }
    fs.balance_sent += d.particles.size();
    pending.push_back(PendingSend{o.system, o.partner, std::move(d.particles)});
  }

  // Every calculator reports (possibly no) proposals, then receives the
  // consolidated dimensions. "Only after receiving the new domains the
  // calculators effectively start the donation and reception."
  ep.send(kManagerRank, kTagEdgeProposal, encode_edges(frame, proposals));
  const auto changed =
      decode_edges(recv_p(ep, kManagerRank, kTagDomains), frame);
  for (const auto& e : changed) {
    decomps_.at(e.system).set_edge(e.edge_index, e.value);
  }
  for (const auto& e : changed) {
    const Decomposition& d = decomps_.at(e.system);
    auto& store = stores_.at(e.system);
    const float lo = d.domain_lo(idx_);
    const float hi = d.domain_hi(idx_);
    if (lo != store.lo() || hi != store.hi()) {
      charge_particles(ep, env_.cost->pack_cost, store.size());
      store.reset_bounds(lo, hi);
    }
  }

  for (auto& p : pending) {
    mp::Writer w = encode_batches(
        frame, {SystemBatch{p.system, std::move(p.particles)}});
    ep.send(calc_rank(p.partner), kTagBalance, std::move(w));
  }
  for (const auto& o : orders) {
    if (o.is_send) continue;
    const mp::Message m = recv_p(ep, calc_rank(o.partner), kTagBalance);
    for (auto& b : decode_batches(m, frame)) {
      fs.balance_recv += b.particles.size();
      charge_particles(ep, env_.cost->pack_cost, b.particles.size());
      stores_.at(b.system).insert_batch(b.particles);
    }
  }
  fs.balance_s = ep.clock().now() - phase_start;
}

}  // namespace psanim::core
