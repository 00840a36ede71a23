#pragma once

// The record format of the benches that write BENCH_*.json: a JSON array
// with one {"bench", "leg", "metric", "value", "unit"} row per line.
// Doubles print %.17g, so equal doubles compare equal as strings; counts
// and hashes print as exact integers. The unit names the clock (DESIGN
// decision 6): a host_ unit (host_ms, host_s, host_count) marks a
// host-side measurement that varies run to run; every other row is
// virtual, and `tools/bench_json.py check NEW --baseline OLD` requires it
// to match OLD string-for-string.

#include <cstdio>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace psanim::bench {

class Record {
 public:
  explicit Record(std::string bench) : bench_(std::move(bench)) {}

  template <typename T>
  void add(const std::string& leg, const std::string& metric, T value,
           const char* unit) {
    std::string v;
    if constexpr (std::is_integral_v<T>) {
      v = std::to_string(value);
    } else {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", static_cast<double>(value));
      v = buf;
    }
    rows_.push_back("{\"bench\": \"" + bench_ + "\", \"leg\": \"" + leg +
                    "\", \"metric\": \"" + metric + "\", \"value\": " + v +
                    ", \"unit\": \"" + unit + "\"}");
  }

  /// Writes the array to `path`; false (with a message) if it cannot.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
      return false;
    }
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "%s%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string bench_;
  std::vector<std::string> rows_;
};

}  // namespace psanim::bench
