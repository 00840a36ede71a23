#pragma once

// Host-side measurement helpers: process CPU time, peak RSS, the machine's
// CPU count, medians, and a sampler that records the process's peak thread
// count so the thread budget can be checked.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

namespace psbench {

/// CPUs this process may run on (what `nproc` prints).
int nproc();

/// User + system CPU seconds of the whole process so far (getrusage).
double cpu_seconds();

/// Peak resident set size of the process so far, in MiB (ru_maxrss).
double peak_rss_mb();

/// Median of `v`: the middle value for an odd count, the mean of the two
/// middle values for an even one. Throws std::invalid_argument when empty.
template <typename T>
T median(std::vector<T> v) {
  if (v.empty()) throw std::invalid_argument("median of no values");
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/// Samples the process's thread count every 20 ms on a thread of its own
/// and keeps the maximum. The sampler thread is not counted.
class ThreadPeak {
 public:
  ThreadPeak();
  ~ThreadPeak();
  ThreadPeak(const ThreadPeak&) = delete;
  ThreadPeak& operator=(const ThreadPeak&) = delete;

  /// Highest thread count seen so far, excluding the sampler.
  int peak() const { return peak_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> peak_{0};
  std::thread sampler_;
};

}  // namespace psbench
