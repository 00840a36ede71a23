#include "replay.hpp"

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/decomposition.hpp"
#include "core/exchange.hpp"
#include "core/wire.hpp"
#include "math/rng.hpp"
#include "mp/mailbox.hpp"
#include "psys/store.hpp"
#include "render/camera.hpp"
#include "render/framebuffer.hpp"
#include "render/objects.hpp"
#include "render/splat.hpp"

namespace psbench {

namespace cluster = psanim::cluster;
namespace core = psanim::core;
namespace lb = psanim::lb;
namespace mp = psanim::mp;
namespace psys = psanim::psys;
namespace render = psanim::render;
using psanim::Rng;
using Scope = SpanLog::Scope;

namespace {

/// Outgoing messages of one sender: (destination rank, payload).
using Outgoing = std::vector<std::pair<int, mp::Writer>>;

int rank_of(std::size_t calc) {
  return core::calc_rank(static_cast<int>(calc));
}

/// The world's mailboxes, with every push and pop timed as mp.mailbox.
class Post {
 public:
  Post(int world, SpanLog& log) : log_(log) {
    for (int r = 0; r < world; ++r) {
      boxes_.push_back(std::make_unique<mp::Mailbox>());
    }
  }

  /// Push every message of `out`, in order, and empty it.
  void send(int src, int tag, Outgoing& out) {
    const Scope span(log_, "mp.mailbox");
    for (auto& [dst, w] : out) {
      mp::Message m;
      m.src = src;
      m.tag = tag;
      m.seq = seq_++;
      m.payload = w.take();
      boxes_[static_cast<std::size_t>(dst)]->push(std::move(m));
    }
    out.clear();
  }

  /// Pop one message from each of `srcs`, in order.
  std::vector<mp::Message> recv(int dst, int tag,
                                const std::vector<int>& srcs) {
    const Scope span(log_, "mp.mailbox");
    std::vector<mp::Message> in;
    in.reserve(srcs.size());
    for (const int src : srcs) {
      auto m = boxes_[static_cast<std::size_t>(dst)]->try_pop_match(src, tag);
      if (!m) {
        throw std::logic_error("replay: rank " + std::to_string(dst) +
                               " has no message from " + std::to_string(src) +
                               " with tag " + std::to_string(tag));
      }
      in.push_back(std::move(*m));
    }
    return in;
  }

  mp::Message recv_one(int dst, int tag, int src) {
    return std::move(recv(dst, tag, {src}).front());
  }

 private:
  SpanLog& log_;
  std::vector<std::unique_ptr<mp::Mailbox>> boxes_;
  std::uint64_t seq_ = 0;
};

class Replay {
 public:
  Replay(const core::Scene& scene, const core::SimSettings& settings,
         const cluster::ClusterSpec& spec,
         const cluster::Placement& placement, const cluster::CostModel& cost,
         SpanLog& log)
      : scene_(scene),
        set_(settings),
        cost_(cost),
        log_(log),
        n_(static_cast<std::size_t>(settings.ncalc)),
        rates_(cluster::rank_rates(spec, placement, cost.smp_contention)),
        base_(settings.seed),
        cam_(render::Camera::framing(scene.look_center, scene.look_radius,
                                     settings.image_width,
                                     settings.image_height)),
        fb_(settings.image_width, settings.image_height),
        post_(core::world_size_for(settings.ncalc), log),
        stores_(n_),
        time_s_(n_, std::vector<double>(scene.systems.size())),
        held_(n_, std::vector<std::size_t>(scene.systems.size())),
        orders_(n_),
        pending_(n_) {
    // Every role's view of the decomposition is identical after each
    // frame's edge broadcast, so one copy per system serves the manager
    // and every calculator.
    const auto [lo, hi] = core::initial_interval(set_, scene_);
    for (std::size_t s = 0; s < scene_.systems.size(); ++s) {
      decomps_.emplace_back(set_.axis, lo, hi, settings.ncalc);
      policies_.push_back(core::make_lb_policy(set_));
    }
    for (std::size_t c = 0; c < n_; ++c) {
      calc_ranks_.push_back(rank_of(c));
      for (const auto& d : decomps_) {
        const int i = static_cast<int>(c);
        stores_[c].emplace_back(set_.axis, d.domain_lo(i), d.domain_hi(i),
                                set_.store_slices);
      }
    }
  }

  ReplayCounts run() {
    const Scope whole(log_, "replay");
    for (std::uint32_t f = 0; f < set_.frames; ++f) {
      log_.set_frame(f);
      const Scope frame(log_, "frame");
      create(f);
      // Each calculator runs up to its exchange send, where it first
      // blocks; then each runs from its exchange receive to its frame send.
      for (std::size_t c = 0; c < n_; ++c) compute_and_send_crossers(c, f);
      for (std::size_t c = 0; c < n_; ++c) adopt_crossers_and_send_frame(c, f);
      render_frame(f);
      evaluate_balance(f);
      for (std::size_t c = 0; c < n_; ++c) donate(c, f);
      set_domains(f);
      for (std::size_t c = 0; c < n_; ++c) ship_donations(c, f);
      for (std::size_t c = 0; c < n_; ++c) adopt_donations(c, f);
    }
    return counts_;
  }

 private:
  double rate_of(std::size_t c) const {
    return rates_.at(static_cast<std::size_t>(rank_of(c)));
  }

  std::vector<core::SystemBatch> decode(std::span<const mp::Message> msgs,
                                        std::uint32_t f) {
    const Scope span(log_, "core.exchange_codec");
    std::vector<core::SystemBatch> batches;
    for (const auto& m : msgs) {
      for (auto& b : core::decode_batches(m, f)) {
        batches.push_back(std::move(b));
      }
    }
    return batches;
  }

  void insert(std::size_t c, const std::vector<core::SystemBatch>& batches) {
    const Scope span(log_, "psys.store");
    for (const auto& b : batches) {
      stores_[c].at(b.system).insert_batch(b.particles);
    }
  }

  /// Manager::create_and_scatter: create every system's particles and send
  /// each calculator the ones its domain owns.
  void create(std::uint32_t f) {
    std::vector<std::vector<core::SystemBatch>> created(n_);
    for (std::size_t s = 0; s < scene_.systems.size(); ++s) {
      Rng rng = base_.derive(0xC0FFEEu, s, f);
      psys::ActionContext ctx{set_.dt, &rng, 0};
      std::vector<psys::Particle> born;
      {
        const Scope span(log_, "psys.create");
        for (const psys::Source* src : scene_.systems[s].actions().sources()) {
          src->generate(born, ctx);
        }
      }
      const core::Decomposition& d = decomps_[s];
      std::vector<std::vector<psys::Particle>> per_calc(n_);
      for (const auto& p : born) {
        per_calc[static_cast<std::size_t>(d.owner_of(p.pos.axis(d.axis())))]
            .push_back(p);
      }
      for (std::size_t c = 0; c < n_; ++c) {
        if (per_calc[c].empty()) continue;
        created[c].push_back(core::SystemBatch{static_cast<psys::SystemId>(s),
                                               std::move(per_calc[c])});
      }
    }
    {
      const Scope span(log_, "core.exchange_codec");
      for (std::size_t c = 0; c < n_; ++c) {
        out_.emplace_back(rank_of(c), core::encode_batches(f, created[c]));
      }
    }
    post_.send(core::kManagerRank, core::kTagCreate, out_);
  }

  /// Calculator::receive_created, compute_phase and the send half of
  /// exchange_phase. time_s_[c][s] is the compute phase's charge for system
  /// s under the CostModel: the load the calculator reports, scaled pro
  /// rata after the exchange.
  void compute_and_send_crossers(std::size_t c, std::uint32_t f) {
    auto& mine = stores_[c];
    const mp::Message created =
        post_.recv_one(rank_of(c), core::kTagCreate, core::kManagerRank);
    insert(c, decode({&created, 1}, f));
    for (std::size_t s = 0; s < mine.size(); ++s) {
      auto& store = mine[s];
      const std::size_t held = store.size();
      held_[c][s] = held;
      psys::FusedPasses fused(scene_.systems[s].actions(), set_.dt,
                              [&](std::size_t ai) {
                                return base_.derive(s, f).derive(ai, c);
                              });
      {
        const Scope span(log_, "psys.actions");
        store.for_each_slice(
            [&](std::span<psys::Particle> ps) { fused.apply(ps); });
      }
      double t = 0.0;
      for (const auto& pass : fused.passes()) {
        t += cost_.compute_s(cost_.action_cost * pass.action->cost_weight(),
                             held, rate_of(c));
      }
      counts_.particle_passes += held * fused.passes().size();
      std::size_t removed = 0;
      {
        const Scope span(log_, "psys.store");
        removed = store.compact_dead();
      }
      time_s_[c][s] = t + cost_.compute_s(cost_.pack_cost, removed, rate_of(c));
    }

    core::Outboxes outboxes(n_);
    for (std::size_t s = 0; s < mine.size(); ++s) {
      std::vector<psys::Particle> crossers;
      {
        const Scope span(log_, "psys.store");
        crossers = mine[s].extract_outside();
      }
      std::vector<psys::Particle> back_home;
      {
        const Scope span(log_, "core.exchange_codec");
        core::route_crossers(decomps_[s], static_cast<psys::SystemId>(s),
                             static_cast<int>(c), std::move(crossers),
                             outboxes, back_home);
      }
      const Scope span(log_, "psys.store");
      mine[s].insert_batch(back_home);
    }
    {
      const Scope span(log_, "core.exchange_codec");
      for (std::size_t peer = 0; peer < n_; ++peer) {
        if (peer == c) continue;
        out_.emplace_back(rank_of(peer),
                          core::encode_batches(f, outboxes[peer]));
      }
    }
    post_.send(rank_of(c), core::kTagExchange, out_);
  }

  /// The receive half of Calculator::exchange_phase (peers in ascending
  /// order), report_loads (pro rata for the post-exchange count, §3.2.4)
  /// and send_frame.
  void adopt_crossers_and_send_frame(std::size_t c, std::uint32_t f) {
    auto& mine = stores_[c];
    std::vector<int> peers;
    for (std::size_t peer = 0; peer < n_; ++peer) {
      if (peer != c) peers.push_back(rank_of(peer));
    }
    insert(c, decode(post_.recv(rank_of(c), core::kTagExchange, peers), f));

    std::vector<core::LoadEntry> entries;
    for (std::size_t s = 0; s < mine.size(); ++s) {
      const std::size_t now_held = mine[s].size();
      if (held_[c][s] > 0) {
        time_s_[c][s] *= static_cast<double>(now_held) /
                         static_cast<double>(held_[c][s]);
      }
      held_[c][s] = now_held;
      counts_.particle_frames += now_held;
      entries.push_back(core::LoadEntry{.system = static_cast<std::uint32_t>(s),
                                        .particles = now_held,
                                        .time_s = time_s_[c][s]});
    }
    {
      const Scope span(log_, "core.exchange_codec");
      out_.emplace_back(core::kManagerRank,
                        core::encode_load_report(f, entries));
    }
    post_.send(rank_of(c), core::kTagLoadReport, out_);

    // Window-2 flow control: the frame-f send waits for frame f-2's ack.
    if (f >= 2) {
      post_.recv_one(rank_of(c), core::kTagFrameAck, core::kImageGenRank);
    }
    // Store by store, as send_frame does: each snapshot is converted while
    // it is still in cache.
    std::vector<core::RenderVertex> verts;
    for (const auto& store : mine) {
      std::vector<psys::Particle> parts;
      {
        const Scope span(log_, "psys.store");
        parts = store.snapshot();
      }
      const Scope span(log_, "core.frame_codec");
      verts.reserve(verts.size() + parts.size());
      for (const auto& p : parts) verts.push_back(core::to_render_vertex(p));
    }
    {
      const Scope span(log_, "core.frame_codec");
      out_.emplace_back(core::kImageGenRank,
                        core::encode_frame_vertices(f, verts));
    }
    post_.send(rank_of(c), core::kTagFrame, out_);
  }

  /// ImageGenerator::run: clear, draw the ground, splat every calculator's
  /// vertices in calculator order, release the calculators' next sends.
  void render_frame(std::uint32_t f) {
    {
      const Scope span(log_, "render.splat");
      fb_.clear({0.02f, 0.02f, 0.03f});
      render::draw_ground_grid(fb_, cam_, scene_.space.lo.y,
                               scene_.look_radius * 1.2f, 16,
                               {0.18f, 0.2f, 0.22f});
    }
    for (const auto& m :
         post_.recv(core::kImageGenRank, core::kTagFrame, calc_ranks_)) {
      std::vector<core::RenderVertex> verts;
      {
        const Scope span(log_, "core.frame_codec");
        verts = core::decode_frame_vertices(m, f);
      }
      const Scope span(log_, "render.splat");
      render::splat_points(fb_, cam_,
                           std::span<const core::RenderVertex>(verts),
                           render::BlendMode::kAdditive);
    }
    if (f + 1 < set_.frames) {
      for (const int r : calc_ranks_) out_.emplace_back(r, mp::Writer{});
      post_.send(core::kImageGenRank, core::kTagFrameAck, out_);
    }
  }

  /// Manager::balance up to the orders: evaluate every system's loads.
  void evaluate_balance(std::uint32_t f) {
    std::vector<std::vector<core::LoadEntry>> reports;
    {
      const auto msgs =
          post_.recv(core::kManagerRank, core::kTagLoadReport, calc_ranks_);
      const Scope span(log_, "core.exchange_codec");
      for (const auto& m : msgs) {
        reports.push_back(core::decode_load_report(m, f));
      }
    }
    std::vector<std::vector<core::OrderEntry>> orders(n_);
    for (std::size_t s = 0; s < policies_.size(); ++s) {
      std::vector<lb::CalcLoad> loads;
      for (std::size_t c = 0; c < n_; ++c) {
        const core::LoadEntry& e = reports[c].at(s);
        loads.push_back(lb::CalcLoad{.calc = static_cast<int>(c),
                                     .particles = e.particles,
                                     .time_s = e.time_s,
                                     .power = rate_of(c)});
      }
      std::vector<lb::BalanceOrder> decided;
      {
        const Scope span(log_, "lb");
        decided = policies_[s]->evaluate(loads);
      }
      for (const auto& o : decided) {
        orders[static_cast<std::size_t>(o.calc)].push_back(core::OrderEntry{
            .system = static_cast<std::uint32_t>(s),
            .is_send = static_cast<std::uint8_t>(o.op == lb::BalanceOp::kSend),
            .partner = o.partner,
            .count = o.count,
        });
      }
    }
    {
      const Scope span(log_, "core.exchange_codec");
      for (std::size_t c = 0; c < n_; ++c) {
        out_.emplace_back(rank_of(c), core::encode_orders(f, orders[c]));
      }
    }
    post_.send(core::kManagerRank, core::kTagOrders, out_);
  }

  /// Calculator::balance_phase, first part: donors select particles and
  /// propose the new domain edges.
  void donate(std::size_t c, std::uint32_t f) {
    auto& mine = stores_[c];
    const int self = static_cast<int>(c);
    {
      const auto m =
          post_.recv_one(rank_of(c), core::kTagOrders, core::kManagerRank);
      const Scope span(log_, "core.exchange_codec");
      orders_[c] = core::decode_orders(m, f);
    }
    std::vector<core::EdgeEntry> proposals;
    for (const auto& o : orders_[c]) {
      if (!o.is_send) continue;
      const bool toward_left = o.partner < self;
      psys::Donation d;
      {
        const Scope span(log_, "lb");
        d = toward_left ? mine.at(o.system).donate_low(o.count)
                        : mine.at(o.system).donate_high(o.count);
      }
      // Every edge between donor and partner moves onto the new boundary.
      if (toward_left) {
        for (int e = self - 1; e >= o.partner; --e) {
          proposals.push_back(core::EdgeEntry{o.system, e, d.new_edge});
        }
      } else {
        for (int e = self; e < o.partner; ++e) {
          proposals.push_back(core::EdgeEntry{o.system, e, d.new_edge});
        }
      }
      pending_[c].push_back(
          core::SystemBatch{o.system, std::move(d.particles)});
    }
    {
      const Scope span(log_, "core.exchange_codec");
      out_.emplace_back(core::kManagerRank, core::encode_edges(f, proposals));
    }
    post_.send(rank_of(c), core::kTagEdgeProposal, out_);
  }

  /// Manager::balance, rest: consolidate the proposals and broadcast the
  /// changed edges.
  void set_domains(std::uint32_t f) {
    changed_.clear();
    {
      const auto msgs =
          post_.recv(core::kManagerRank, core::kTagEdgeProposal, calc_ranks_);
      const Scope span(log_, "core.exchange_codec");
      for (const auto& m : msgs) {
        for (const auto& e : core::decode_edges(m, f)) changed_.push_back(e);
      }
    }
    for (const auto& e : changed_) {
      decomps_.at(e.system).set_edge(e.edge_index, e.value);
    }
    {
      const Scope span(log_, "core.exchange_codec");
      for (std::size_t c = 0; c < n_; ++c) {
        out_.emplace_back(rank_of(c), core::encode_edges(f, changed_));
      }
    }
    post_.send(core::kManagerRank, core::kTagDomains, out_);
  }

  /// Calculator::balance_phase, second part: adopt the new bounds and ship
  /// the donations.
  void ship_donations(std::size_t c, std::uint32_t f) {
    {
      const auto m =
          post_.recv_one(rank_of(c), core::kTagDomains, core::kManagerRank);
      const Scope span(log_, "core.exchange_codec");
      core::decode_edges(m, f);
    }
    const int self = static_cast<int>(c);
    for (const auto& e : changed_) {
      auto& store = stores_[c].at(e.system);
      const float lo = decomps_[e.system].domain_lo(self);
      const float hi = decomps_[e.system].domain_hi(self);
      if (lo != store.lo() || hi != store.hi()) {
        const Scope span(log_, "psys.store");
        store.reset_bounds(lo, hi);
      }
    }
    std::size_t next = 0;
    {
      const Scope span(log_, "core.exchange_codec");
      for (const auto& o : orders_[c]) {
        if (!o.is_send) continue;
        out_.emplace_back(
            core::calc_rank(o.partner),
            core::encode_batches(f, {std::move(pending_[c][next++])}));
      }
    }
    pending_[c].clear();
    post_.send(rank_of(c), core::kTagBalance, out_);
  }

  /// Calculator::balance_phase, last part: adopt what the partners donated.
  void adopt_donations(std::size_t c, std::uint32_t f) {
    std::vector<int> donors;
    for (const auto& o : orders_[c]) {
      if (!o.is_send) donors.push_back(core::calc_rank(o.partner));
    }
    if (donors.empty()) return;
    insert(c, decode(post_.recv(rank_of(c), core::kTagBalance, donors), f));
  }

  const core::Scene& scene_;
  const core::SimSettings& set_;
  const cluster::CostModel& cost_;
  SpanLog& log_;
  const std::size_t n_;  ///< calculators
  const std::vector<double> rates_;
  const Rng base_;
  const render::Camera cam_;
  render::Framebuffer fb_;
  Post post_;
  Outgoing out_;
  std::vector<int> calc_ranks_;
  std::vector<core::Decomposition> decomps_;
  std::vector<std::unique_ptr<lb::LoadBalancer>> policies_;
  /// Per calculator, per system.
  std::vector<std::vector<psys::SlicedStore>> stores_;
  std::vector<std::vector<double>> time_s_;
  std::vector<std::vector<std::size_t>> held_;
  /// Per calculator: this frame's balance orders and the donations they
  /// produced, in order.
  std::vector<std::vector<core::OrderEntry>> orders_;
  std::vector<std::vector<core::SystemBatch>> pending_;
  std::vector<core::EdgeEntry> changed_;
  ReplayCounts counts_;
};

void require_supported(const core::SimSettings& s) {
  if (s.imgen != core::ImageGenMode::kGatherParticles ||
      s.combine != core::SystemCombine::kBundled || s.pair_collisions ||
      s.fault_plan.any() || s.ckpt.enabled() || s.resume_from ||
      s.stop_after) {
    throw std::invalid_argument(
        "replay_animation: only gather, bundled, collision-, fault- and "
        "checkpoint-free runs are replayed");
  }
}

}  // namespace

ReplayCounts replay_animation(const core::Scene& scene,
                              const core::SimSettings& settings,
                              const cluster::ClusterSpec& spec,
                              const cluster::Placement& placement,
                              const cluster::CostModel& cost, SpanLog& log) {
  settings.validate();
  require_supported(settings);
  return Replay(scene, settings, spec, placement, cost, log).run();
}

}  // namespace psbench
