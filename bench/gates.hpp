#pragma once

// The gates of the benches that write BENCH_*.json, as pure functions of
// the measured values: each appends one line per broken invariant to a
// Violations list, and the harness exits 1 when the list is not empty.
// Degenerate inputs (no interactive job sampled, a zero denominator) give
// a diagnostic, never an exception or a vacuous pass.

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/record.hpp"
#include "farm/farm.hpp"

namespace psanim::bench {

using Violations = std::vector<std::string>;

/// Appends one printf-formatted violation.
[[gnu::format(printf, 2, 3)]] inline void fail(Violations& v, const char* fmt,
                                               ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  v.emplace_back(buf);
}

/// Prints every violation to stderr; returns the harness's exit status.
inline int report(const Violations& v) {
  for (const auto& l : v) std::fprintf(stderr, "VIOLATION: %s\n", l.c_str());
  return v.empty() ? 0 : 1;
}

// --- rank_scaling ---------------------------------------------------------

struct ScalingRow {
  int world = 0;
  std::string core;
  double wall_ms = 0.0;
  double makespan_s = 0.0;
};

/// Every core of one world must report the same virtual makespan:
/// scheduling is a wall-clock knob, never a result knob.
inline void check_scaling(Violations& v, const std::vector<ScalingRow>& rows) {
  std::map<int, double> first;
  for (const auto& r : rows) {
    const auto [it, fresh] = first.emplace(r.world, r.makespan_s);
    if (!fresh && it->second != r.makespan_s) {
      fail(v, "world %d: %s makespan %.17g != %.17g — scheduling leaked "
           "into results", r.world, r.core.c_str(), r.makespan_s, it->second);
    }
  }
}

/// One traced platform-sweep run: the animation finish (animation_s) plus
/// the critical path obs::analyze tiles over the trace makespan — the
/// latest record over all ranks, >= makespan_s because calculators do
/// post-frame bookkeeping after the image generator has finished.
struct SweepLeg {
  double makespan_s = 0.0;
  std::uint64_t fb_hash = 0;
  double cp_makespan_s = 0.0;
  double cp_compute_s = 0.0;
  double cp_wire_s = 0.0;
  double cp_wire_share = 0.0;
  bool operator==(const SweepLeg&) const = default;
};

struct SweepRow {
  std::string platform;
  SweepLeg run1, run2;
};

/// Every leg reproduces bit-for-bit and renders the first leg's pixels;
/// its critical path covers the trace makespan, which covers the animation
/// finish, with a wire share in [0, 1]; the slim fat-tree separates from
/// flat; and flat's wire share sits strictly below wan2's (a slower fabric
/// must surface as wire time, not mystery compute).
inline void check_platform_sweep(Violations& v,
                                 const std::vector<SweepRow>& sweep) {
  std::map<std::string, const SweepLeg*> legs;
  for (const auto& r : sweep) {
    const SweepLeg& l = r.run1;
    const char* name = r.platform.c_str();
    legs[r.platform] = &l;
    if (!(r.run1 == r.run2)) {
      fail(v, "%s: two runs disagree — contention is not deterministic",
           name);
    }
    if (l.fb_hash != sweep.front().run1.fb_hash) {
      fail(v, "%s: changed the rendered pixels", name);
    }
    const double cover = l.cp_compute_s + l.cp_wire_s;
    if (!(std::abs(cover - l.cp_makespan_s) <=
          1e-9 * std::max(1.0, l.cp_makespan_s))) {
      fail(v, "%s: cp_compute_s + cp_wire_s = %.17g does not cover "
           "cp_makespan_s %.17g", name, cover, l.cp_makespan_s);
    }
    if (!(l.cp_makespan_s >=
          l.makespan_s - 1e-9 * std::max(1.0, l.makespan_s))) {
      fail(v, "%s: cp_makespan_s %.17g below the animation finish %.17g — "
           "the trace missed records", name, l.cp_makespan_s, l.makespan_s);
    }
    if (!(l.cp_wire_share >= 0.0 && l.cp_wire_share <= 1.0)) {
      fail(v, "%s: cp_wire_share %.17g outside [0, 1]", name,
           l.cp_wire_share);
    }
  }
  const SweepLeg* flat = legs["flat"];
  const SweepLeg* slim = legs["fattree-slim"];
  const SweepLeg* wan = legs["wan2"];
  if (!flat || !slim || !wan) {
    fail(v, "platform sweep lacks the flat, fattree-slim or wan2 leg");
    return;
  }
  if (slim->makespan_s == flat->makespan_s) {
    fail(v, "fattree-slim makespan equals flat's — the contention model did "
         "not separate the topologies");
  }
  if (!(flat->cp_wire_share < wan->cp_wire_share)) {
    fail(v, "critical-path wire share did not rise from flat (%.17g) to "
         "wan2 (%.17g)", flat->cp_wire_share, wan->cp_wire_share);
  }
}

// --- farm_throughput and farm_arrivals ------------------------------------

/// The SLO summary of one farm run, read off farm::Report: exact-sample
/// percentiles over completed jobs and the peak queue depth.
struct FarmSlo {
  double makespan_s = 0.0;
  std::size_t jobs_done = 0;
  double wait_p50_s = 0.0, wait_p95_s = 0.0, wait_p99_s = 0.0;
  double turnaround_p99_s = 0.0;
  double slowdown_p50 = 0.0, slowdown_p99 = 0.0;
  int queue_depth_peak = 0;
  bool operator==(const FarmSlo&) const = default;
};

inline FarmSlo farm_slo(const farm::Report& r) {
  FarmSlo s{r.makespan_s, r.jobs_done, r.wait_q.quantile(0.5),
            r.wait_q.quantile(0.95), r.wait_q.quantile(0.99),
            r.turnaround_q.quantile(0.99), r.slowdown_q.quantile(0.5),
            r.slowdown_q.quantile(0.99), 0};
  for (const auto& [t, depth] : r.queue_depth) {
    s.queue_depth_peak = std::max(s.queue_depth_peak, depth);
  }
  return s;
}

inline void add_rows(Record& rec, const std::string& leg, const FarmSlo& s) {
  rec.add(leg, "makespan_s", s.makespan_s, "s");
  rec.add(leg, "jobs_done", s.jobs_done, "count");
  rec.add(leg, "wait_p50_s", s.wait_p50_s, "s");
  rec.add(leg, "wait_p95_s", s.wait_p95_s, "s");
  rec.add(leg, "wait_p99_s", s.wait_p99_s, "s");
  rec.add(leg, "turnaround_p99_s", s.turnaround_p99_s, "s");
  rec.add(leg, "slowdown_p50", s.slowdown_p50, "ratio");
  rec.add(leg, "slowdown_p99", s.slowdown_p99, "ratio");
  rec.add(leg, "queue_depth_peak", s.queue_depth_peak, "count");
}

/// Percentile sanity: waits non-negative and monotone, p99 turnaround
/// covers p99 wait, slowdowns monotone and — once a job completed — at
/// least 1 (a job never beats its own contention-free run).
inline void check_slo(Violations& v, const std::string& tag,
                      const FarmSlo& s) {
  const char* t = tag.c_str();
  if (!(0.0 <= s.wait_p50_s && s.wait_p50_s <= s.wait_p95_s &&
        s.wait_p95_s <= s.wait_p99_s)) {
    fail(v, "%s: wait percentiles not monotone (p50=%.17g p95=%.17g "
         "p99=%.17g)", t, s.wait_p50_s, s.wait_p95_s, s.wait_p99_s);
  }
  if (!(s.turnaround_p99_s >= s.wait_p99_s)) {
    fail(v, "%s: p99 turnaround %.17g below p99 wait %.17g", t,
         s.turnaround_p99_s, s.wait_p99_s);
  }
  if (!(s.slowdown_p50 <= s.slowdown_p99)) {
    fail(v, "%s: slowdown percentiles not monotone", t);
  }
  if (s.jobs_done > 0 && !(s.slowdown_p50 >= 1.0 - 1e-9)) {
    fail(v, "%s: slowdown p50 %.17g below 1 — a job outran its standalone "
         "self", t, s.slowdown_p50);
  }
  if (s.queue_depth_peak < 0) fail(v, "%s: negative queue depth", t);
}

/// FIFO vs SJF on one farm_throughput scenario: both SLO summaries sane,
/// SJF's p99 wait within the FIFO schedule's makespan (the bound on SJF's
/// latency trade) and, on a gated scenario, SJF's makespan at most FIFO's.
inline void check_sjf(Violations& v, const std::string& scenario,
                      const FarmSlo& fifo, const FarmSlo& sjf,
                      bool makespan_gate) {
  check_slo(v, scenario + "/fifo", fifo);
  check_slo(v, scenario + "/sjf", sjf);
  if (!(sjf.wait_p99_s <= fifo.makespan_s + 1e-12)) {
    fail(v, "%s: SJF p99 wait %.17g exceeds the FIFO makespan %.17g",
         scenario.c_str(), sjf.wait_p99_s, fifo.makespan_s);
  }
  if (makespan_gate && !(sjf.makespan_s <= fifo.makespan_s + 1e-12)) {
    fail(v, "%s: SJF makespan %.17g exceeds FIFO's %.17g", scenario.c_str(),
         sjf.makespan_s, fifo.makespan_s);
  }
}

struct TenantSlo {
  std::size_t jobs = 0;
  double wait_p50_s = 0.0, wait_p99_s = 0.0;
  double slowdown_p99 = 0.0;
  bool operator==(const TenantSlo&) const = default;
};

/// One farm_arrivals leg: the whole stream under one scheduler setup.
struct ArrivalLeg {
  FarmSlo slo;
  std::size_t jobs_failed = 0;
  std::size_t jobs_preempted = 0;
  std::size_t jobs_backfilled = 0;
  long preemption_events = 0;
  long migrations = 0;
  std::map<std::string, TenantSlo> tenants;
  std::map<std::string, double> tenant_rank_s;
  bool operator==(const ArrivalLeg&) const = default;
};

/// The farm_arrivals gates over its six legs on a stream of `jobs` jobs:
/// every leg drains the stream with no failure, sane percentiles overall
/// and per tenant, and samples both tenants; each rerun equals its leg;
/// preemptive priority cuts the interactive p99 wait below FIFO's; and
/// backfill holds the makespan within 1.3x of FIFO's and the interactive
/// p99 wait within 2x of strict priority's, both denominators guarded.
inline Violations check_arrivals(const std::map<std::string, ArrivalLeg>& legs,
                                 std::size_t jobs) {
  Violations v;
  for (const char* name : {"fifo", "priority", "priority_rerun", "backfill",
                           "backfill_costaware", "backfill_costaware_rerun"}) {
    if (!legs.count(name)) fail(v, "missing leg %s", name);
  }
  if (!v.empty()) return v;
  for (const auto& [name, l] : legs) {
    const char* n = name.c_str();
    if (l.slo.jobs_done != jobs) {
      fail(v, "%s: drained %zu of %zu jobs — the scheduler lost work", n,
           l.slo.jobs_done, jobs);
    }
    if (l.jobs_failed != 0) fail(v, "%s: %zu jobs failed", n, l.jobs_failed);
    check_slo(v, name, l.slo);
    // Every leg but FIFO preempts; exactly the backfill* legs backfill.
    const bool preempts = name != "fifo";
    const bool backfills = name.starts_with("backfill");
    if (preempts != (l.preemption_events > 0)) {
      fail(v, "%s: %ld preemption events, expected %s", n,
           l.preemption_events, preempts ? "some" : "none");
    }
    if (backfills != (l.jobs_backfilled > 0)) {
      fail(v, "%s: %zu jobs backfilled, expected %s", n, l.jobs_backfilled,
           backfills ? "some" : "none");
    }
    for (const char* tenant : {"interactive", "batch"}) {
      const auto it = l.tenants.find(tenant);
      if (it == l.tenants.end() || it->second.jobs == 0) {
        fail(v, "%s: sampled zero %s jobs — every %s-tenant gate would pass "
             "vacuously", n, tenant, tenant);
      }
    }
    for (const auto& [tenant, t] : l.tenants) {
      if (!(0.0 <= t.wait_p50_s && t.wait_p50_s <= t.wait_p99_s)) {
        fail(v, "%s/%s: wait percentiles not monotone", n, tenant.c_str());
      } else if (t.jobs > 0 && !(t.slowdown_p99 >= 1.0 - 1e-9)) {
        fail(v, "%s/%s: slowdown p99 %.17g below 1", n, tenant.c_str(),
             t.slowdown_p99);
      }
    }
  }
  for (const std::string name : {"priority", "backfill_costaware"}) {
    if (!(legs.at(name) == legs.at(name + "_rerun"))) {
      fail(v, "%s_rerun differs from %s — the DES leaked nondeterminism",
           name.c_str(), name.c_str());
    }
  }

  // Interactive p99 wait of a leg; null when the leg sampled no
  // interactive job (already reported above).
  const auto interactive_p99 = [&](const char* name) -> const double* {
    const auto& tenants = legs.at(name).tenants;
    const auto it = tenants.find("interactive");
    return it == tenants.end() || it->second.jobs == 0
               ? nullptr
               : &it->second.wait_p99_s;
  };
  const double* fifo_i = interactive_p99("fifo");
  const double* prio_i = interactive_p99("priority");
  const double* bf_i = interactive_p99("backfill");
  if (fifo_i && prio_i && !(*prio_i < *fifo_i)) {
    fail(v, "priority interactive p99 wait %.17g not below FIFO's %.17g — "
         "preemption bought nothing", *prio_i, *fifo_i);
  }
  const double fifo_mk = legs.at("fifo").slo.makespan_s;
  const double bf_mk = legs.at("backfill").slo.makespan_s;
  if (!(fifo_mk > 0.0)) {
    fail(v, "fifo makespan %.17g not positive — the 1.3x stretch gate is "
         "undefined", fifo_mk);
  } else if (!(bf_mk <= 1.3 * fifo_mk)) {
    fail(v, "backfill makespan stretch %.3fx over FIFO exceeds the 1.3x "
         "bound", bf_mk / fifo_mk);
  }
  if (prio_i && bf_i) {
    if (!(*prio_i > 0.0)) {
      fail(v, "strict-priority interactive p99 wait %.17g not positive — "
           "the 2x latency bound is vacuous", *prio_i);
    } else if (!(*bf_i <= 2.0 * *prio_i)) {
      fail(v, "backfill interactive p99 wait %.17g exceeds 2x the "
           "strict-priority value %.17g", *bf_i, *prio_i);
    }
  }
  return v;
}

}  // namespace psanim::bench
