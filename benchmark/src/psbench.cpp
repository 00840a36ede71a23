// psbench: one workload per process. Set-up (repeated, so its time can be
// reported as a median), then either timed repetitions for --seconds (at
// least three) or one traced repetition. Every observation goes to stdout
// as one JSON object per line; run.py turns them into metrics and checks
// the virtual results against reference.json.
//
//   psbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//           [--trace-json PATH]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "measure.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace psbench;

constexpr int kSetups = 7;
constexpr int kMinReps = 3;
constexpr int kMaxReps = 1000;

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void line(const std::string& json) { std::printf("%s\n", json.c_str()); }

/// Refuse to time a build that is not optimized or that is sanitized:
/// such numbers say nothing about the program users run.
const char* measurement_build_problem() {
  if (std::strcmp(PSBENCH_BUILD_TYPE, "Release") != 0) {
    return "not a Release build (configure with -DCMAKE_BUILD_TYPE=Release)";
  }
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  return "built without optimization or with assertions";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  return "built with a sanitizer";
#endif
#endif
  return nullptr;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_json;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "psbench: %s\nusage: psbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--trace-json PATH]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string v = argv[++i];
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.seed = std::stoull(v);
    } else if (arg == "--seconds") {
      a.seconds = std::stod(v);
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (arg == "--trace-json") {
      a.trace_json = v;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.trace_json.empty()) {
    a.trace_json = "psbench-" + a.workload + "-" + std::to_string(a.seed) +
                   ".trace.json";
  }
  return a;
}

int run(const Args& args) {
  // Hermetic: the environment must not pick the execution core or turn the
  // buffer pool off (standalone_run resolves the core from it).
  unsetenv("PSANIM_EXEC_MODE");
  unsetenv("PSANIM_DISABLE_BUFFER_POOL");

  Budget budget;
  budget.nproc = nproc();
  budget.workers = budget.nproc;
  budget.launch_cap = budget.nproc > 1 ? budget.nproc - 1 : 1;
  auto wl = make_workload(args.workload, args.seed,
                          args.smoke ? Scale::kSmoke : Scale::kPaper, budget);
  line("{\"kind\": \"header\", \"workload\": " + json_str(args.workload) +
       ", \"seed\": " + std::to_string(args.seed) + ", \"scale\": " +
       json_str(args.smoke ? "smoke" : "paper") +
       ", \"trace\": " + (args.trace ? "1" : "0") +
       ", \"nproc\": " + std::to_string(budget.nproc) +
       ", \"workers\": " + std::to_string(budget.workers) +
       ", \"launch_cap\": " + std::to_string(budget.launch_cap) +
       ", \"exec_mode\": \"fibers\", \"compiler\": " + json_str(compiler()) +
       ", \"build_type\": " + json_str(PSBENCH_BUILD_TYPE) + "}");
  std::fflush(stdout);

  const ThreadPeak threads;
  std::string setups;
  for (int k = 0; k < kSetups; ++k) {
    const Ns t0 = now_ns();
    wl->setup();
    setups += (k ? ", " : "") + num(static_cast<double>(now_ns() - t0) / 1e9);
  }
  line("{\"kind\": \"setup\", \"setup_s\": [" + setups + "]}");

  if (args.trace) {
    const TraceResult t = wl->trace(args.trace_json);
    for (const auto& m : t.metrics) {
      line("{\"kind\": \"layer\", \"metric\": " + json_str(m.name) +
           ", \"value\": " + num(m.value) + ", \"unit\": " + json_str(m.unit) +
           "}");
    }
    for (const auto& c : t.checks) {
      line("{\"kind\": \"check\", \"name\": " + json_str(c.name) +
           ", \"ok\": " + (c.ok ? "true" : "false") +
           ", \"detail\": " + json_str(c.detail) + "}");
    }
    line("{\"kind\": \"trace_json\", \"path\": " + json_str(args.trace_json) +
         "}");
  } else {
    std::vector<double> walls;
    double rss_mb = 0.0;
    const Ns start = now_ns();
    for (int i = 0; i < kMaxReps; ++i) {
      const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
      if (i >= kMinReps && elapsed + median(walls) > args.seconds) break;
      const RepResult r = wl->rep();
      walls.push_back(r.wall_s);
      std::string exact;
      for (const auto& e : r.exact) {
        exact += (exact.empty() ? "" : ", ") + json_str(e.name) + ": " +
                 json_str(e.value);
      }
      line("{\"kind\": \"rep\", \"rep\": " + std::to_string(i) +
           ", \"wall_s\": " + num(r.wall_s) + ", \"cpu_s\": " + num(r.cpu_s) +
           ", \"attempted\": " + std::to_string(r.attempted) +
           ", \"jobs\": " + std::to_string(r.jobs) +
           ", \"failed\": " + std::to_string(r.failed) +
           ", \"peak_rss_mb\": " + num(peak_rss_mb()) + ", \"exact\": {" +
           exact + "}}");
      std::fflush(stdout);
      // The memory a user sees running one animation (or farm batch): peak
      // RSS over set-up and the first repetition. Later repetitions only
      // add allocator fragmentation, which varies with thread scheduling.
      if (i == 0) rss_mb = peak_rss_mb();
    }
    line("{\"kind\": \"memory\", \"peak_rss_mb\": " + num(rss_mb) + "}");
  }
  line("{\"kind\": \"threads\", \"peak\": " + std::to_string(threads.peak()) +
       ", \"limit\": " + std::to_string(wl->thread_limit()) + "}");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (const char* why = measurement_build_problem()) {
    std::fprintf(stderr, "psbench: refusing to measure: %s\n", why);
    return 3;
  }
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "psbench: %s\n", e.what());
    return 1;
  }
}
