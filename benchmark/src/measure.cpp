#include "measure.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <string>

namespace psbench {

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// The "Threads:" line of /proc/self/status; 0 when unreadable.
int thread_count() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return 0;
}

}  // namespace

ThreadPeak::ThreadPeak()
    : sampler_([this] {
        while (!stop_.load()) {
          const int n = thread_count() - 1;  // not the sampler itself
          if (n > peak_.load()) {
            // A thread that was just joined is still listed while the
            // kernel reaps it, for microseconds; an over-budget thread
            // lives as long as the run. Count what is still there.
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            const int again = std::min(n, thread_count() - 1);
            peak_.store(std::max(peak_.load(), again));
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }) {}

ThreadPeak::~ThreadPeak() {
  stop_.store(true);
  sampler_.join();
}

}  // namespace psbench
