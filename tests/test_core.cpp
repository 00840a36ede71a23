// Tests for the core model pieces below the role processes: domain
// decomposition, the wire protocol codecs and the exchange engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "core/decomposition.hpp"
#include "core/exchange.hpp"
#include "core/simulation.hpp"
#include "core/wire.hpp"
#include "math/rng.hpp"
#include "mp/runtime.hpp"
#include "render/compare.hpp"
#include "render/splat.hpp"
#include "sim/run_config.hpp"
#include "sim/scenario.hpp"

namespace psanim::core {
namespace {

using psys::Particle;

Particle at_x(float x) {
  Particle p;
  p.pos = {x, 0, 0};
  return p;
}

// --- decomposition ---

TEST(Decomposition, UniformSplitMatchesFigure1) {
  // Figure 1: [-10, 10] into 4 domains -> edges at -5, 0, 5.
  const Decomposition d(0, -10, 10, 4);
  ASSERT_EQ(d.edges().size(), 3u);
  EXPECT_FLOAT_EQ(d.edges()[0], -5);
  EXPECT_FLOAT_EQ(d.edges()[1], 0);
  EXPECT_FLOAT_EQ(d.edges()[2], 5);
  EXPECT_EQ(d.domain_count(), 4);
}

TEST(Decomposition, OwnerOfCoversWholeAxis) {
  const Decomposition d(0, -10, 10, 4);
  EXPECT_EQ(d.owner_of(-100), 0);  // beyond the nominal space: edge domain
  EXPECT_EQ(d.owner_of(-7), 0);
  EXPECT_EQ(d.owner_of(-5), 1);  // boundary belongs to the right domain
  EXPECT_EQ(d.owner_of(0), 2);
  EXPECT_EQ(d.owner_of(4.9f), 2);
  EXPECT_EQ(d.owner_of(100), 3);
}

TEST(Decomposition, SingleDomainOwnsEverything) {
  const Decomposition d(0, -10, 10, 1);
  EXPECT_TRUE(d.edges().empty());
  EXPECT_EQ(d.owner_of(-1e5f), 0);
  EXPECT_EQ(d.owner_of(1e5f), 0);
  EXPECT_FLOAT_EQ(d.domain_lo(0), -Aabb::kHuge);
  EXPECT_FLOAT_EQ(d.domain_hi(0), Aabb::kHuge);
}

TEST(Decomposition, InfiniteSpaceCentralDomainPathology) {
  // Table 1's IS-SLB story: with 5 domains over +/-kHuge the whole
  // emission box [-10, 10] belongs to the central calculator.
  const Decomposition d = Decomposition::infinite_space(0, 5);
  EXPECT_EQ(d.owner_of(-10), 2);
  EXPECT_EQ(d.owner_of(0), 2);
  EXPECT_EQ(d.owner_of(10), 2);
  // Even counts split the box between the two central calculators.
  const Decomposition e = Decomposition::infinite_space(0, 4);
  EXPECT_EQ(e.owner_of(-1), 1);
  EXPECT_EQ(e.owner_of(1), 2);
}

TEST(Decomposition, SetEdgeClampsBetweenNeighbors) {
  Decomposition d(0, -10, 10, 4);  // edges -5, 0, 5
  d.set_edge(1, 3.0f);
  EXPECT_FLOAT_EQ(d.edges()[1], 3.0f);
  d.set_edge(1, 100.0f);  // beyond edge 2: clamps to 5
  EXPECT_FLOAT_EQ(d.edges()[1], 5.0f);
  d.set_edge(0, -100.0f);  // lowest edge can move far left
  EXPECT_LT(d.edges()[0], -50.0f);
}

TEST(Decomposition, DomainIntervalsAreContiguous) {
  const Decomposition d(0, 0, 100, 8);
  for (int i = 0; i + 1 < d.domain_count(); ++i) {
    EXPECT_FLOAT_EQ(d.domain_hi(i), d.domain_lo(i + 1));
  }
}

TEST(Decomposition, NominalShares) {
  const Decomposition d(0, 0, 100, 4);
  const auto shares = d.nominal_shares();
  ASSERT_EQ(shares.size(), 4u);
  for (const double s : shares) EXPECT_NEAR(s, 0.25, 1e-6);
}

TEST(Decomposition, EncodeDecodeRoundTrip) {
  Decomposition d(2, -3, 7, 5);
  d.set_edge(0, -2.5f);
  mp::Writer w;
  d.encode(w);
  mp::Reader r{std::span<const std::byte>(w.bytes())};
  const Decomposition back = Decomposition::decode(r);
  EXPECT_EQ(back, d);
}

TEST(Decomposition, RejectsBadArguments) {
  EXPECT_THROW(Decomposition(0, 5, 5, 2), std::invalid_argument);
  EXPECT_THROW(Decomposition(0, 0, 1, 0), std::invalid_argument);
  EXPECT_THROW(Decomposition(5, 0, 1, 2), std::invalid_argument);
}

// --- wire codecs ---

TEST(Wire, BatchesRoundTrip) {
  std::vector<SystemBatch> batches(2);
  batches[0].system = 0;
  batches[0].particles = {at_x(1), at_x(2)};
  batches[1].system = 3;
  batches[1].particles = {at_x(-1)};
  mp::Message m;
  m.payload = encode_batches(7, batches).take();
  const auto back = decode_batches(m, 7);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].particles.size(), 2u);
  EXPECT_EQ(back[1].system, 3u);
  EXPECT_FLOAT_EQ(back[1].particles[0].pos.x, -1);
}

TEST(Wire, FrameMismatchThrows) {
  mp::Message m;
  m.payload = encode_batches(7, {}).take();
  EXPECT_THROW(decode_batches(m, 8), ProtocolError);
}

TEST(Wire, LoadReportRoundTrip) {
  const std::vector<LoadEntry> entries{
      {.system = 0, .particles = 100, .time_s = 0.5},
      {.system = 1, .particles = 0, .time_s = 0.0},
  };
  mp::Message m;
  m.payload = encode_load_report(3, entries).take();
  const auto back = decode_load_report(m, 3);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].particles, 100u);
  EXPECT_DOUBLE_EQ(back[0].time_s, 0.5);
}

TEST(Wire, OrdersAndEdgesRoundTrip) {
  const std::vector<OrderEntry> orders{
      {.system = 2, .is_send = 1, .partner = 4, .count = 77}};
  mp::Message m;
  m.payload = encode_orders(1, orders).take();
  const auto o = decode_orders(m, 1);
  ASSERT_EQ(o.size(), 1u);
  EXPECT_EQ(o[0].partner, 4);
  EXPECT_EQ(o[0].count, 77u);

  const std::vector<EdgeEntry> edges{{.system = 1, .edge_index = 2,
                                      .value = -3.5f}};
  mp::Message me;
  me.payload = encode_edges(1, edges).take();
  const auto e = decode_edges(me, 1);
  ASSERT_EQ(e.size(), 1u);
  EXPECT_FLOAT_EQ(e[0].value, -3.5f);
}

TEST(Wire, RenderVertexPackIsLossyButClose) {
  RenderVertex v;
  v.pos = {1.5f, -2.25f, 3.0f};
  v.color = {0.2f, 0.6f, 1.0f};
  v.alpha = 0.5f;
  v.size = 0.1f;
  const RenderVertex back = unpack_vertex(pack_vertex(v));
  EXPECT_EQ(back.pos, v.pos);  // positions are exact
  // Colors come back premultiplied by alpha, to 8-bit precision.
  EXPECT_NEAR(back.color.x, 0.1f, 1.0f / 255);
  EXPECT_NEAR(back.color.y, 0.3f, 1.0f / 255);
  EXPECT_NEAR(back.color.z, 0.5f, 1.0f / 255);
  EXPECT_FLOAT_EQ(back.alpha, 1.0f);
  EXPECT_NEAR(back.size, 0.1f, kMaxSplatSize / 255);
}

TEST(Wire, FrameVerticesRoundTripCount) {
  std::vector<RenderVertex> verts(100);
  for (std::size_t i = 0; i < verts.size(); ++i) {
    verts[i].pos = {static_cast<float>(i), 0, 0};
  }
  mp::Message m;
  m.payload = encode_frame_vertices(9, verts).take();
  // 16 bytes per vertex plus control header (format magic + version),
  // frame number and length prefix.
  EXPECT_EQ(m.payload.size(), 2u + 4u + 8u + 100u * 16u);
  const auto back = decode_frame_vertices(m, 9);
  ASSERT_EQ(back.size(), 100u);
  EXPECT_FLOAT_EQ(back[42].pos.x, 42.0f);

  // The bulk copy lays vertex i out at offset 14 + 16 i exactly as writing
  // pack_vertex's fields one by one would: x, y, z as floats, then r, g, b,
  // size_q as bytes. Every field differs, so a swap shows.
  std::vector<RenderVertex> distinct(3);
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    const float f = static_cast<float>(i);
    distinct[i].pos = {1.5f + f, -2.25f - f, 3.0f + 4 * f};
    distinct[i].color = {0.1f + 0.1f * f, 0.45f, 0.8f - 0.1f * f};
    distinct[i].size = 0.2f + 0.05f * f;
  }
  mp::Writer expect;
  for (const auto& v : distinct) {
    const PackedVertex p = pack_vertex(v);
    expect.put(p.x);
    expect.put(p.y);
    expect.put(p.z);
    expect.put(p.r);
    expect.put(p.g);
    expect.put(p.b);
    expect.put(p.size_q);
  }
  const mp::Writer packed = encode_frame_vertices(9, distinct);
  ASSERT_EQ(packed.size(), 14u + expect.size());
  EXPECT_TRUE(std::equal(expect.bytes().begin(), expect.bytes().end(),
                         packed.bytes().begin() + 14));
}

// Random particles across [-10, 10)^3 with varied shading; every third one
// dead (the frame payload ships dead particles too).
std::vector<Particle> shaded_particles(std::size_t n, std::uint32_t seed) {
  Rng rng(seed);
  std::vector<Particle> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    Particle& p = out[i];
    p.pos = {rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-10, 10)};
    p.color = {rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1)};
    p.alpha = rng.uniform(0, 1);
    p.size = rng.uniform(0, 0.6f);
    if (i % 3 == 0) p.kill();
  }
  return out;
}

TEST(Wire, FrameStoresMatchConvertedSnapshotsByteForByte) {
  const auto old_path = [](std::uint32_t frame,
                           const std::vector<psys::SlicedStore>& stores) {
    std::vector<RenderVertex> verts;
    for (const auto& store : stores) {
      for (const auto& p : store.snapshot()) {
        verts.push_back(to_render_vertex(p));
      }
    }
    return encode_frame_vertices(frame, verts);
  };

  // Many slices, all filled; a store whose particles sit in two of its
  // slices; an empty store; a one-slice store.
  std::vector<psys::SlicedStore> stores;
  stores.emplace_back(0, -10, 10, 32);
  stores.back().insert_batch(shaded_particles(700, 1));
  stores.emplace_back(1, -10, 10, 8);
  for (Particle p : shaded_particles(40, 2)) {
    p.pos.y = (p.pos.y < 0 ? -9.5f : 9.5f);
    stores.back().insert(p);
  }
  stores.emplace_back(2, -10, 10, 4);
  stores.emplace_back(2, -10, 10, 1);
  stores.back().insert_batch(shaded_particles(5, 3));
  ASSERT_TRUE(stores[1].raw_slices()[3].empty());

  const auto same = [](const mp::Writer& a, const mp::Writer& b) {
    return a.bytes() == b.bytes();
  };
  EXPECT_TRUE(same(encode_frame_stores(5, stores), old_path(5, stores)));
  const std::vector<psys::SlicedStore> none;
  EXPECT_TRUE(same(encode_frame_stores(5, none), old_path(5, none)));
  EXPECT_EQ(encode_frame_stores(5, none).size(), 14u);
  const std::vector<psys::SlicedStore> empty_only(stores.begin() + 2,
                                                  stores.begin() + 3);
  EXPECT_TRUE(same(encode_frame_stores(6, empty_only),
                   old_path(6, empty_only)));
}

TEST(Wire, ChunkedSplatMatchesWholeDecodeBitForBit) {
  // A small framebuffer under many vertices, so pixels stack splats and
  // a change in the float summation order would show in the hash.
  const render::Camera cam = render::Camera::framing({0, 0, 0}, 10, 32, 24);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, kFrameChunk - 1, kFrameChunk,
        kFrameChunk + 1, 3 * kFrameChunk + 5}) {
    SCOPED_TRACE(n);
    std::vector<RenderVertex> verts;
    const auto seed = static_cast<std::uint32_t>(7 + n);
    for (const auto& p : shaded_particles(n, seed)) {
      verts.push_back(to_render_vertex(p));
    }
    mp::Message m;
    m.payload = encode_frame_vertices(4, verts).take();

    render::Framebuffer whole(32, 24);
    const auto decoded = decode_frame_vertices(m, 4);
    render::splat_points(whole, cam, std::span<const RenderVertex>(decoded),
                         render::BlendMode::kAdditive);

    render::Framebuffer chunked(32, 24);
    std::size_t seen = 0;
    const std::size_t got = for_each_frame_chunk(
        m, 4, [&](std::span<const RenderVertex> chunk) {
          EXPECT_GT(chunk.size(), 0u);
          EXPECT_LE(chunk.size(), kFrameChunk);
          seen += chunk.size();
          render::splat_points(chunked, cam, chunk,
                               render::BlendMode::kAdditive);
        });
    EXPECT_EQ(got, n);
    EXPECT_EQ(seen, n);
    EXPECT_EQ(render::hash_framebuffer(chunked),
              render::hash_framebuffer(whole));
  }
}

TEST(Wire, FrameDecodersShareTheirErrors) {
  const std::vector<RenderVertex> verts(3);
  const auto message_of = [](auto&& decode) -> std::string {
    try {
      decode();
    } catch (const std::exception& e) {
      return e.what();
    }
    return "no error";
  };
  const auto visit_nothing = [](std::span<const RenderVertex>) {};

  // A count one past what the payload holds.
  mp::Message over;
  over.payload = encode_frame_vertices(9, verts).take();
  const std::uint64_t four = 4;
  std::memcpy(over.payload.data() + 6, &four, sizeof four);
  EXPECT_THROW(decode_frame_vertices(over, 9), mp::DecodeError);
  EXPECT_THROW(for_each_frame_chunk(over, 9, visit_nothing), mp::DecodeError);
  EXPECT_EQ(message_of([&] { decode_frame_vertices(over, 9); }),
            "decode_frame_vertices: vertex count exceeds payload");
  EXPECT_EQ(message_of([&] { for_each_frame_chunk(over, 9, visit_nothing); }),
            "decode_frame_vertices: vertex count exceeds payload");

  // The right payload in the wrong frame.
  mp::Message late;
  late.payload = encode_frame_vertices(9, verts).take();
  EXPECT_THROW(decode_frame_vertices(late, 10), ProtocolError);
  EXPECT_THROW(for_each_frame_chunk(late, 10, visit_nothing), ProtocolError);
  EXPECT_EQ(message_of([&] { decode_frame_vertices(late, 10); }),
            "decode_frame_vertices: payload for frame 9 arrived in frame 10");
  EXPECT_EQ(message_of([&] { for_each_frame_chunk(late, 10, visit_nothing); }),
            "decode_frame_vertices: payload for frame 9 arrived in frame 10");
}

TEST(Wire, RankHelpers) {
  EXPECT_EQ(calc_rank(0), 2);
  EXPECT_EQ(calc_index(calc_rank(5)), 5);
  EXPECT_EQ(world_size_for(8), 10);
}

// --- exchange engine ---

TEST(RouteCrossers, GroupsByOwnerAndKeepsHome) {
  const Decomposition d(0, -10, 10, 4);
  Outboxes outboxes(4);
  std::vector<Particle> back_home;
  // Self is calculator 1 (domain [-5, 0)).
  route_crossers(d, /*system=*/2, /*self=*/1,
                 {at_x(-8), at_x(-3), at_x(2), at_x(7)}, outboxes, back_home);
  ASSERT_EQ(back_home.size(), 1u);  // -3 still belongs to us
  EXPECT_FLOAT_EQ(back_home[0].pos.x, -3);
  ASSERT_EQ(outboxes[0].size(), 1u);
  EXPECT_EQ(outboxes[0][0].system, 2u);
  EXPECT_FLOAT_EQ(outboxes[0][0].particles[0].pos.x, -8);
  ASSERT_EQ(outboxes[2].size(), 1u);
  ASSERT_EQ(outboxes[3].size(), 1u);
  EXPECT_TRUE(outboxes[1].empty());
}

TEST(Exchange, AllToAllDeliversAndCounts) {
  // 3 calculators (ranks 2..4) exchange one particle ring-wise; manager
  // and imgen ranks idle.
  mp::Runtime rt(world_size_for(3), mp::zero_cost_fn(),
                 {.recv_timeout_s = 10.0});
  rt.run([](mp::Endpoint& ep) {
    if (ep.rank() < kFirstCalcRank) return;
    const int self = calc_index(ep.rank());
    Outboxes outboxes(3);
    const int target = (self + 1) % 3;
    outboxes[static_cast<std::size_t>(target)].push_back(
        SystemBatch{0, {at_x(static_cast<float>(self))}});
    std::vector<Particle> received;
    const auto stats = exchange_crossers(
        ep, /*frame=*/0, 3, self, std::move(outboxes),
        [&](psys::SystemId, std::vector<Particle>&& ps) {
          received.insert(received.end(), ps.begin(), ps.end());
        });
    EXPECT_EQ(stats.sent_particles, 1u);
    EXPECT_EQ(stats.received_particles, 1u);
    ASSERT_EQ(received.size(), 1u);
    EXPECT_FLOAT_EQ(received[0].pos.x,
                    static_cast<float>((self + 2) % 3));
  });
}

TEST(Exchange, EmptyOutboxesStillSynchronize) {
  // The empty message IS the end-of-transmission marker; nobody blocks.
  mp::Runtime rt(world_size_for(4), mp::zero_cost_fn(),
                 {.recv_timeout_s = 10.0});
  rt.run([](mp::Endpoint& ep) {
    if (ep.rank() < kFirstCalcRank) return;
    const int self = calc_index(ep.rank());
    const auto stats = exchange_crossers(
        ep, 0, 4, self, Outboxes(4),
        [](psys::SystemId, std::vector<Particle>&&) { FAIL(); });
    EXPECT_EQ(stats.sent_particles, 0u);
    EXPECT_EQ(stats.received_particles, 0u);
    EXPECT_GT(stats.sent_bytes, 0u);  // markers still cost wire bytes
  });
}

TEST(Exchange, MissingEotIsDetectedAsTimeout) {
  // A buggy peer that never sends its (empty) exchange message must
  // surface as RecvTimeout — the failure mode §3.2.1 warns about.
  mp::Runtime rt(world_size_for(2), mp::zero_cost_fn(),
                 {.recv_timeout_s = 0.2});
  EXPECT_THROW(
      rt.run([](mp::Endpoint& ep) {
        if (ep.rank() != calc_rank(0)) return;  // calc 1 stays silent
        exchange_crossers(ep, 0, 2, 0, Outboxes(2),
                          [](psys::SystemId, std::vector<Particle>&&) {});
      }),
      mp::RecvTimeout);
}

// --- frame path pins ---

// The sort-last image, the gather image and the sequential render of a
// small snow scene, pinned to the values the snapshot-based frame path
// produced. Splatting slice by slice must keep the splat order (store,
// slice, element) and so every float sum bit for bit; these pins are the
// fast-tier check (test_integration only compares the images within a
// PSNR tolerance).
TEST(FramePath, SortLastGatherAndSequentialImagesArePinned) {
  sim::ScenarioParams params;
  params.systems = 2;
  params.particles_per_system = 900;
  params.frames = 8;
  const Scene scene = sim::make_snow_scene(params);
  sim::RunConfig cfg;
  cfg.groups = {{cluster::NodeType::e800(), 2, 3}};
  const sim::BuiltCluster bc = sim::build_cluster(cfg);
  SimSettings settings;
  settings.ncalc = bc.ncalc;
  settings.frames = params.frames;
  settings.dt = params.dt;
  settings.image_width = 96;
  settings.image_height = 72;

  struct Pinned {
    double makespan_s;
    std::uint64_t fb_hash;
  };
  const auto parallel = [&](ImageGenMode mode) {
    SimSettings s = settings;
    s.imgen = mode;
    const ParallelResult r = run_parallel(scene, s, bc.spec, bc.placement);
    return Pinned{r.animation_s, render::hash_framebuffer(r.final_frame)};
  };
  const Pinned sort_last = parallel(ImageGenMode::kSortLast);
  const Pinned gather = parallel(ImageGenMode::kGatherParticles);
  const SequentialResult seq = run_sequential(scene, settings, 1.0);
  const std::uint64_t seq_hash = render::hash_framebuffer(seq.final_frame);

  EXPECT_EQ(sort_last.makespan_s, 0.018757835954103259);
  EXPECT_EQ(sort_last.fb_hash, 12624318087276825520ull);
  EXPECT_EQ(gather.makespan_s, 0.021113328679593462);
  EXPECT_EQ(gather.fb_hash, 8378137487193698669ull);
  EXPECT_EQ(seq.total_s, 0.030942360000000002);
  EXPECT_EQ(seq_hash, 18435963126378929503ull);
}

}  // namespace
}  // namespace psanim::core
