// The bench gates (bench/gates.hpp) on synthetic values: a valid input
// passes, and each broken invariant — degenerate ones included — yields a
// diagnostic rather than an exception or a vacuous pass.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "bench/gates.hpp"

namespace psanim::bench {
namespace {

::testing::AssertionResult has(const Violations& v, const std::string& needle) {
  for (const auto& line : v) {
    if (line.find(needle) != std::string::npos) {
      return ::testing::AssertionSuccess();
    }
  }
  auto r = ::testing::AssertionFailure() << "no violation mentions \""
                                         << needle << "\"; got:";
  for (const auto& line : v) r << "\n  " << line;
  return r;
}

/// One broken invariant: `mutate` breaks a valid input, and some violation
/// must then contain `needle`.
template <typename T>
struct Case {
  const char* name;
  const char* needle;
  void (*mutate)(T&);
};

/// Names the case in test ids (via PrintToStringParamName) and messages.
template <typename T>
void PrintTo(const Case<T>& c, std::ostream* os) {
  *os << c.name;
}

// --- farm_arrivals --------------------------------------------------------

using Legs = std::map<std::string, ArrivalLeg>;

ArrivalLeg arrival_leg(double makespan, long events, std::size_t backfilled,
                       double interactive_p99) {
  ArrivalLeg l;
  l.slo = {.makespan_s = makespan, .jobs_done = 100, .wait_p50_s = 0.01,
           .wait_p95_s = 0.05, .wait_p99_s = 0.09, .turnaround_p99_s = 0.5,
           .slowdown_p50 = 1.5, .slowdown_p99 = 40.0, .queue_depth_peak = 30};
  l.jobs_preempted = static_cast<std::size_t>(events);
  l.preemption_events = events;
  l.jobs_backfilled = backfilled;
  l.tenants["interactive"] = {20, 0.001, interactive_p99, 2.0};
  l.tenants["batch"] = {80, 0.02, 1.2, 50.0};
  l.tenant_rank_s = {{"interactive", 0.4}, {"batch", 3.6}};
  return l;
}

Legs arrival_legs() {
  Legs legs;
  legs["fifo"] = arrival_leg(4.0, 0, 0, 1.2);
  legs["priority"] = legs["priority_rerun"] = arrival_leg(10.4, 22, 0, 0.006);
  legs["backfill"] = arrival_leg(5.0, 22, 2, 0.01);
  legs["backfill_costaware"] = legs["backfill_costaware_rerun"] =
      arrival_leg(5.2, 20, 7, 0.009);
  return legs;
}

TEST(ArrivalGates, ValidLegsPass) {
  EXPECT_TRUE(check_arrivals(arrival_legs(), 100).empty());
}

class ArrivalGateCase : public ::testing::TestWithParam<Case<Legs>> {};

TEST_P(ArrivalGateCase, IsReported) {
  Legs legs = arrival_legs();
  GetParam().mutate(legs);
  EXPECT_TRUE(has(check_arrivals(legs, 100), GetParam().needle));
}

INSTANTIATE_TEST_SUITE_P(
    Broken, ArrivalGateCase,
    ::testing::Values(
        Case<Legs>{"ZeroInteractiveJobs", "priority: sampled zero interactive",
                   [](Legs& l) {
                     l["priority"].tenants["interactive"].jobs = 0;
                     l["priority_rerun"].tenants["interactive"].jobs = 0;
                   }},
        Case<Legs>{"MissingInteractiveBlock",
                   "priority: sampled zero interactive",
                   [](Legs& l) {
                     l["priority"].tenants.erase("interactive");
                     l["priority_rerun"].tenants.erase("interactive");
                   }},
        Case<Legs>{"ZeroFifoMakespan", "stretch gate is undefined",
                   [](Legs& l) { l["fifo"].slo.makespan_s = 0.0; }},
        Case<Legs>{"StretchOverBound", "exceeds the 1.3x bound",
                   [](Legs& l) { l["backfill"].slo.makespan_s = 10.4; }},
        Case<Legs>{"BackfillInteractiveP99OverTwiceStrict",
                   "2x the strict-priority value",
                   [](Legs& l) {
                     l["backfill"].tenants["interactive"].wait_p99_s = 0.1;
                   }},
        Case<Legs>{"ZeroStrictPriorityP99", "2x latency bound is vacuous",
                   [](Legs& l) {
                     for (const char* n : {"priority", "priority_rerun"}) {
                       l[n].tenants["interactive"].wait_p50_s = 0.0;
                       l[n].tenants["interactive"].wait_p99_s = 0.0;
                     }
                   }},
        Case<Legs>{"DeadBackfill", "backfill: 0 jobs backfilled, expected",
                   [](Legs& l) { l["backfill"].jobs_backfilled = 0; }},
        Case<Legs>{"RerunMismatch", "backfill_costaware_rerun differs",
                   [](Legs& l) {
                     l["backfill_costaware_rerun"].jobs_backfilled = 8;
                   }},
        Case<Legs>{"RerunServiceMismatch", "priority_rerun differs",
                   [](Legs& l) {
                     l["priority_rerun"].tenant_rank_s["batch"] = 3.7;
                   }},
        Case<Legs>{"LostJobs", "backfill: drained 99 of 100",
                   [](Legs& l) { l["backfill"].slo.jobs_done = 99; }},
        Case<Legs>{"FailedJobs", "fifo: 1 jobs failed",
                   [](Legs& l) { l["fifo"].jobs_failed = 1; }},
        Case<Legs>{"FifoPreempted", "fifo: 1 preemption events, expected",
                   [](Legs& l) { l["fifo"].preemption_events = 1; }},
        Case<Legs>{"PriorityNeverPreempted", "priority: 0 preemption events",
                   [](Legs& l) { l["priority"].preemption_events = 0; }},
        Case<Legs>{"FifoBackfilled", "fifo: 3 jobs backfilled, expected",
                   [](Legs& l) { l["fifo"].jobs_backfilled = 3; }},
        Case<Legs>{"PriorityNotBelowFifo", "preemption bought nothing",
                   [](Legs& l) {
                     l["fifo"].tenants["interactive"].wait_p99_s = 0.006;
                   }},
        Case<Legs>{"TenantSlowdownBelowOne", "backfill/batch: slowdown p99",
                   [](Legs& l) {
                     l["backfill"].tenants["batch"].slowdown_p99 = 0.5;
                   }},
        Case<Legs>{"TenantWaitsNotMonotone", "fifo/batch: wait percentiles",
                   [](Legs& l) { l["fifo"].tenants["batch"].wait_p50_s = 2; }},
        Case<Legs>{"LegWaitsNotMonotone", "backfill: wait percentiles",
                   [](Legs& l) { l["backfill"].slo.wait_p95_s = 0.001; }},
        Case<Legs>{"MissingLeg", "missing leg backfill_costaware_rerun",
                   [](Legs& l) { l.erase("backfill_costaware_rerun"); }}),
    ::testing::PrintToStringParamName());

// --- farm SLO summary and farm_throughput ---------------------------------

TEST(FarmSloGates, ReadsTheReport) {
  farm::Report r;
  r.makespan_s = 3.0;
  r.jobs_done = 2;
  for (const double w : {0.5, 1.0}) r.wait_q.observe(w);
  for (const double t : {1.5, 2.0}) r.turnaround_q.observe(t);
  for (const double s : {1.0, 4.0}) r.slowdown_q.observe(s);
  r.queue_depth = {{0.0, 2}, {1.0, 5}, {3.0, 0}};
  const FarmSlo s = farm_slo(r);
  EXPECT_EQ(s, (FarmSlo{3.0, 2, 0.5, 1.0, 1.0, 2.0, 1.0, 4.0, 5}));
}

const FarmSlo kFifo{.makespan_s = 0.125, .jobs_done = 6, .wait_p50_s = 0.01,
                    .wait_p95_s = 0.05, .wait_p99_s = 0.05,
                    .turnaround_p99_s = 0.125, .slowdown_p50 = 2.0,
                    .slowdown_p99 = 5.0, .queue_depth_peak = 4};

FarmSlo sjf_of(double makespan, double wait_p99) {
  FarmSlo s = kFifo;
  s.makespan_s = s.turnaround_p99_s = makespan;
  s.wait_p95_s = s.wait_p99_s = wait_p99;
  return s;
}

TEST(FarmSloGates, SjfWithinFifoBoundsPasses) {
  Violations v;
  check_sjf(v, "ok", kFifo, sjf_of(0.1, 0.04), true);
  check_sjf(v, "ungated", kFifo, sjf_of(0.2, 0.04), false);
  EXPECT_TRUE(v.empty());
}

class SloGateCase : public ::testing::TestWithParam<Case<FarmSlo>> {};

TEST_P(SloGateCase, IsReported) {
  FarmSlo sjf = sjf_of(0.1, 0.04);
  GetParam().mutate(sjf);
  Violations v;
  check_sjf(v, "scenario", kFifo, sjf, true);
  EXPECT_TRUE(has(v, GetParam().needle));
}

INSTANTIATE_TEST_SUITE_P(
    Broken, SloGateCase,
    ::testing::Values(
        Case<FarmSlo>{"NegativeWait", "sjf: wait percentiles not monotone",
                      [](FarmSlo& s) { s.wait_p50_s = -0.1; }},
        Case<FarmSlo>{"TurnaroundBelowWait", "sjf: p99 turnaround",
                      [](FarmSlo& s) { s.turnaround_p99_s = 0.03; }},
        Case<FarmSlo>{"JobOutranItself", "sjf: slowdown p50",
                      [](FarmSlo& s) { s.slowdown_p50 = 0.9; }},
        Case<FarmSlo>{"SlowdownsNotMonotone", "sjf: slowdown percentiles",
                      [](FarmSlo& s) { s.slowdown_p50 = 6.0; }},
        Case<FarmSlo>{"NegativeQueueDepth", "sjf: negative queue depth",
                      [](FarmSlo& s) { s.queue_depth_peak = -1; }},
        Case<FarmSlo>{"SjfP99WaitPastFifoMakespan", "SJF p99 wait",
                      [](FarmSlo& s) { s = sjf_of(0.2, 0.13); }},
        Case<FarmSlo>{"SjfMakespanOverFifo", "SJF makespan",
                      [](FarmSlo& s) { s = sjf_of(0.2, 0.04); }}),
    ::testing::PrintToStringParamName());

// --- rank_scaling ---------------------------------------------------------

TEST(RankScalingGates, OneMakespanPerWorld) {
  std::vector<ScalingRow> rows = {{64, "fibers/w1", 1.2, 0.0017},
                                  {64, "threads", 2.8, 0.0017},
                                  {256, "fibers/w1", 7.8, 0.0069}};
  Violations v;
  check_scaling(v, rows);
  EXPECT_TRUE(v.empty());
  rows.push_back({256, "fibers/w8", 7.8, 0.0070});
  check_scaling(v, rows);
  EXPECT_TRUE(has(v, "world 256: fibers/w8 makespan"));
}

using Sweep = std::vector<SweepRow>;

Sweep sweep() {
  const auto leg = [](double makespan, double compute, double wire) {
    const double cp = compute + wire;
    return SweepLeg{makespan, 42, cp, compute, wire, wire / cp};
  };
  const SweepLeg flat = leg(0.15, 0.11, 0.04);
  const SweepLeg slim = leg(0.31, 0.12, 0.19);
  const SweepLeg wan = leg(2.7, 1.3, 1.6);
  return {{"flat", flat, flat}, {"fattree-slim", slim, slim},
          {"wan2", wan, wan}};
}

TEST(RankScalingGates, ValidSweepPasses) {
  Violations v;
  check_platform_sweep(v, sweep());
  EXPECT_TRUE(v.empty());
}

class SweepGateCase : public ::testing::TestWithParam<Case<Sweep>> {};

TEST_P(SweepGateCase, IsReported) {
  Sweep rows = sweep();
  GetParam().mutate(rows);
  Violations v;
  check_platform_sweep(v, rows);
  EXPECT_TRUE(has(v, GetParam().needle));
}

INSTANTIATE_TEST_SUITE_P(
    Broken, SweepGateCase,
    ::testing::Values(
        Case<Sweep>{"RunsDisagree", "fattree-slim: two runs disagree",
                    [](Sweep& s) { s[1].run2.makespan_s += 1e-9; }},
        Case<Sweep>{"PixelsChanged", "wan2: changed the rendered pixels",
                    [](Sweep& s) { s[2].run1.fb_hash = 7; }},
        Case<Sweep>{"CriticalPathShort", "flat: cp_compute_s + cp_wire_s",
                    [](Sweep& s) { s[0].run1.cp_wire_s = 0.03; }},
        Case<Sweep>{"TraceBeforeFinish", "the trace missed records",
                    [](Sweep& s) { s[0].run1.makespan_s = 0.16; }},
        Case<Sweep>{"WireShareOutOfRange", "wan2: cp_wire_share 1.5 outside",
                    [](Sweep& s) { s[2].run1.cp_wire_share = 1.5; }},
        Case<Sweep>{"SlimEqualsFlat", "fattree-slim makespan equals flat's",
                    [](Sweep& s) { s[1].run1.makespan_s = 0.15; }},
        Case<Sweep>{"WireShareDidNotRise", "did not rise from flat",
                    [](Sweep& s) { s[0].run1.cp_wire_share = 0.9; }},
        Case<Sweep>{"MissingLeg", "lacks the flat, fattree-slim or wan2",
                    [](Sweep& s) { s.pop_back(); }}),
    ::testing::PrintToStringParamName());

}  // namespace
}  // namespace psanim::bench
