#pragma once

// The four psbench workloads. Each runs in its own process: set-up, then
// timed repetitions (the measured run), or one traced repetition (the
// traced run). The measured run installs no hooks and records no spans.
//
//   snow_paper      Table 1 FS-DLB 8*B/8P: snow, 8 x 400,000, 60 frames.
//   fountain_paper  Table 3 IS-DLB 8*B/8P: fountain, 8 x 400,000, 60 frames.
//   rank_storm      snow, 8 x 5,000, 60 frames, 256 calculators on 128 E800s.
//   farm_backfill   5,000 farm_arrivals-shaped jobs, kPriority + EASY
//                   backfill + cost-aware victims, on 8 generic 4-slot nodes.
//
// README.md gives the reason for each.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace psbench {

enum class Scale {
  kPaper,  ///< the sizes above
  kSmoke,  ///< about 1/100 of the work, for the self-test
};

/// The thread budget: fiber workers for an animation, concurrent launches
/// for the farm (each launched job runs on one fiber worker).
struct Budget {
  int nproc = 1;
  int workers = 1;     ///< animation fiber workers: nproc
  int launch_cap = 1;  ///< farm max_parallel_launches: nproc - 1, at least 1
};

/// A virtual-time result every repetition must reproduce bit for bit.
/// `value` is its exact printed form (%.17g for doubles, hex for hashes).
struct Exact {
  std::string name;
  std::string value;
  bool operator==(const Exact&) const = default;
};

struct RepResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;          ///< process user + system CPU over the rep
  std::uint64_t attempted = 1;  ///< one animation, or every farm job
  std::uint64_t jobs = 0;       ///< animations or farm jobs completed
  std::uint64_t failed = 0;     ///< of those attempted
  std::vector<Exact> exact;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct TraceResult {
  std::vector<Metric> metrics;
  std::vector<Check> checks;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the inputs (the farm also calibrates its arrival rate). Called
  /// several times so set-up time can be reported as a median.
  virtual void setup() = 0;
  /// Threads the process may run at once under the budget, sampler aside.
  virtual int thread_limit() const = 0;
  /// One timed repetition under the thread budget.
  virtual RepResult rep() = 0;
  /// The traced run: every per-layer metric, plus its self-checks. Spans
  /// are written as Chrome trace-event JSON to `trace_json`.
  virtual TraceResult trace(const std::string& trace_json) = 0;
};

const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Scale scale,
                                        const Budget& budget);

}  // namespace psbench
